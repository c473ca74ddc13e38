"""Exception hierarchy shared by all ringlab modules."""


class RinglabError(Exception):
    """Base class for every error raised by ringlab."""


class NonFieldDomain(RinglabError):
    """An operation requiring a field was given INTEGERS or RESIDUES."""


class DimensionMismatch(RinglabError):
    """Operand shapes are incompatible."""


class UnsupportedDomain(RinglabError):
    """The coefficient domain is outside the operation's v1 scope."""


class NotOmegaStableShape(RinglabError):
    """A free integer line is present where divisible + bounded is required."""


class ElementNotInModule(RinglabError):
    """An element's coordinates do not belong to the stated module."""


class NoSplit(RinglabError):
    """A requested Z-module complement does not exist.

    `which` names the submodule whose split failed.
    """

    def __init__(self, message, which):
        super().__init__(message)
        self.which = which


class SearchBoundExceeded(RinglabError):
    """Width search passed its bound without covering the image."""


class DegenerateInput(RinglabError):
    """The map has a nonzero two-sided kernel where a foundation is required."""


class EnumerationTooLarge(RinglabError):
    """A brute-force enumeration would exceed the configured size cap."""


class NotLie(RinglabError):
    """Antisymmetry or Jacobi fails; carries a witness basis triple."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class NotNilpotent(RinglabError):
    """The lower central series stabilizes at a nonzero term."""


class ClassTooLarge(RinglabError):
    """Nilpotency class above the configured BCH cap."""


class AlgebraMismatch(RinglabError):
    """Group elements from different algebras were combined."""


class ActionNotWellFormed(RinglabError):
    """Module action matrices violate the algebra relations."""


class ExtensionNotOverK0(RinglabError):
    """Base-change field does not contain the constants' subfield."""


class ProbeFailure(RinglabError):
    """Bounded primitive-element probing failed to separate factors."""


class ParseError(RinglabError):
    """Input document is not well-formed; carries line/column."""

    def __init__(self, message, line, col):
        super().__init__(f"{message} (line {line}, column {col})")
        self.line = line
        self.col = col


class ValidationError(RinglabError):
    """Well-formed input violating a structural invariant."""

    def __init__(self, message, path="", line=None, col=None):
        loc = f" at {path}" if path else ""
        pos = f" (line {line}, column {col})" if line is not None else ""
        super().__init__(f"{message}{loc}{pos}")
        self.path = path
        self.line = line
        self.col = col


class InvariantViolation(RinglabError):
    """An internal certificate or invariant check failed; the message names it."""


class NotInvertible(InvariantViolation, ZeroDivisionError):
    """Division by zero or by a non-unit, or the inverse of a singular
    matrix; still a ZeroDivisionError to code that catches one."""


class PipelineError(RinglabError):
    """An analysis stage failed; names the stage and keeps the cause."""

    def __init__(self, stage, cause):
        super().__init__(f"stage '{stage}': {cause}")
        self.stage = stage
        self.cause = cause
