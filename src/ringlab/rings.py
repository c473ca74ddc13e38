"""Arbitrary rings (possibly non-associative, non-unital) by structure
constants: annihilator, square ideal, verbal ideals, regularity,
foundations and additions, the characteristic-zero and bounded
decomposition pipelines, mixed central splitting, model construction by
base change, and the categoricity verdict.

RingPresentation lives in bilinear, beside the BilinearMap it wraps, so
reading a ring document or a Lie algebra does not load this module.

Component enrichment: the k_i-action on an indecomposable component is
realized inside its centroid (endomorphisms X with X(xy) = (Xx)y =
x(Xy)), which is a local commutative algebra for the components produced
here; Hensel lifting a field of representatives in the centroid yields
scalar matrices that commute with multiplication by construction.
"""

from __future__ import annotations

import itertools

from . import artinian, gfenum, modules, scalars
from .bilinear import (
    BilinearMap,
    FIELD,
    INTEGER,
    RingPresentation,
    Subspace,
    WidthReport,
    _ideal_closure,
    field_carrier,
    module_carrier,
    restrict,
    rows_through,
    torsion_split,
    verify_reassembly,
)
from .domains import Domain, Extension, PrimeField, Rationals
from .errors import (
    DegenerateInput,
    EnumerationTooLarge,
    ExtensionNotOverK0,
    InvariantViolation,
    NoSplit,
    UnsupportedDomain,
    ValidationError,
)
from .linalg import Matrix, unit_vectors
from .records import record


def ring_on_rows(parent: RingPresentation, rows) -> RingPresentation:
    """The subring spanned by rows (field carriers), on its own basis."""
    d = parent.carrier.domain
    tensor = restrict(parent.as_bilinear().evaluate, d, rows, rows)
    return RingPresentation(field_carrier(d, len(rows)), tensor)


# -- basic ideals ----------------------------------------------------------------


def annihilator(r: RingPresentation):
    """Canonical generators of Ann(R) = {x : xR = Rx = 0}, in a new list."""
    return list(r.ann_rows)


def square_ideal(r: RingPresentation):
    """Canonical generators of R^2, closed under multiplication until stable,
    in a new list.

    The span of all basis products is already an ideal, so the closure
    stabilizes at once; it is kept as a certificate.
    """
    return list(r.square_rows)


def delta_ideal(r: RingPresentation):
    """Delta(R) = Ann(R) intersect R^2."""
    span = r.carrier.span
    return list(span(annihilator(r)).intersect(span(square_ideal(r))).rows)


def is_regular(r: RingPresentation) -> bool:
    """Ann(R) <= R^2."""
    return all(map(r.carrier.span(square_ideal(r)).contains, annihilator(r)))


# -- verbal ideals ----------------------------------------------------------------


@record
class Word:
    """Multiplication-only term tree: a variable or a product."""

    op: str  # "var" | "mul"
    name: str = ""
    left: "Word | None" = None
    right: "Word | None" = None

    def variables(self):
        if self.op == "var":
            return [self.name]
        seen = []
        for v in self.left.variables() + self.right.variables():
            if v not in seen:
                seen.append(v)
        return seen

    def is_multilinear(self) -> bool:
        counts = {}

        def walk(w):
            if w.op == "var":
                counts[w.name] = counts.get(w.name, 0) + 1
            else:
                walk(w.left)
                walk(w.right)

        walk(self)
        return all(c == 1 for c in counts.values())

    def evaluate(self, f: BilinearMap, assignment):
        if self.op == "var":
            return assignment[self.name]
        return f.evaluate(
            self.left.evaluate(f, assignment), self.right.evaluate(f, assignment)
        )

    def format(self) -> str:
        if self.op == "var":
            return self.name
        return f"({self.left.format()}*{self.right.format()})"


def parse_word(text: str) -> Word:
    """Parse terms like  x , x*y , (x*y)*z  (left-assoc without parens)."""
    tokens = []
    i = 0
    while i < len(text):
        c = text[i]
        if c.isspace():
            i += 1
        elif c in "()*":
            tokens.append(c)
            i += 1
        elif c.isalnum() or c == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(text[i:j])
            i = j
        else:
            raise ValidationError(f"unexpected character {c!r} in term")
    pos = 0

    def parse_atom():
        nonlocal pos
        if pos >= len(tokens):
            raise ValidationError("unexpected end of term")
        tok = tokens[pos]
        if tok == "(":
            pos += 1
            node = parse_product()
            if pos >= len(tokens) or tokens[pos] != ")":
                raise ValidationError("unbalanced parenthesis in term")
            pos += 1
            return node
        if tok in ")*":
            raise ValidationError(f"unexpected {tok!r} in term")
        pos += 1
        return Word("var", tok)

    def parse_product():
        nonlocal pos
        node = parse_atom()
        while pos < len(tokens) and tokens[pos] == "*":
            pos += 1
            node = Word("mul", left=node, right=parse_atom())
        return node

    node = parse_product()
    if pos != len(tokens):
        raise ValidationError("trailing tokens in term")
    return node


@record
class VerbalIdealReport:
    generators: tuple
    width: WidthReport | None


_VERBAL_ENUM_CAP = 3**7


def verbal_ideal(r: RingPresentation, term: Word | str) -> VerbalIdealReport:
    """Ideal generated by all values of a multiplication word, with width.

    Multilinear words are evaluated on basis tuples (exact by
    multilinearity); other words are enumerated over small prime fields
    and rejected over infinite fields.
    """
    if isinstance(term, str):
        term = parse_word(term)
    f = r.as_bilinear()
    variables = term.variables()
    basis = r._basis()
    values = []
    if term.is_multilinear():
        def rec(assignment, remaining):
            if not remaining:
                values.append(term.evaluate(f, assignment))
                return
            for b in basis:
                assignment[remaining[0]] = b
                rec(assignment, remaining[1:])
        rec({}, variables)
    else:
        if r.carrier.kind != FIELD or not isinstance(r.carrier.domain, PrimeField):
            raise UnsupportedDomain(
                "non-multilinear words need exhaustive enumeration; "
                "available over small prime fields only"
            )
        values = _word_values(r, term, "verbal evaluation")
    gens = _ideal_closure(r, list(r.carrier.span(values).rows))
    width_report = None
    if r.carrier.kind == FIELD:
        width_report = _verbal_width(r, term, gens)
    return VerbalIdealReport(tuple(gens), width_report)


def _verbal_width(r: RingPresentation, term: Word, gens) -> WidthReport:
    if not gens:
        return WidthReport(0, 0, True, ())
    d = r.carrier.domain
    if isinstance(d, PrimeField) and d.p**r.dim <= _VERBAL_ENUM_CAP:
        return _verbal_width_bfs(r, term, gens)
    if term.op == "var":
        return WidthReport(1, 1, True, ())
    bound = len(gens)
    exact = bound <= 1
    return WidthReport(bound if exact else None, bound, exact, ())


def _word_values(r: RingPresentation, term: Word, what: str) -> list:
    """The word's values on every tuple of elements of a small prime-field ring."""
    p = r.carrier.domain.p
    variables = term.variables()
    if p ** (r.dim * len(variables)) > _VERBAL_ENUM_CAP:
        raise EnumerationTooLarge(f"too many tuples for {what}")
    f = r.as_bilinear()
    tuples = itertools.product(itertools.product(range(p), repeat=r.dim), repeat=len(variables))
    return [term.evaluate(f, dict(zip(variables, combo))) for combo in tuples]


def _verbal_width_bfs(r: RingPresentation, term: Word, gens) -> WidthReport:
    values = sorted(set(_word_values(r, term, "verbal width enumeration")))
    k = gfenum.closure_width(values, gens, r.carrier.domain.p, 2 * len(gens) + 4)
    if k is None:
        raise EnumerationTooLarge("verbal width search failed to close")
    return WidthReport(k, k, True, ())


# -- foundations and additions ------------------------------------------------------


@record
class FoundationSplit:
    foundation: RingPresentation
    addition: RingPresentation
    foundation_rows: tuple
    addition_rows: tuple
    delta_rows: tuple
    ann_rows: tuple
    square_rows: tuple


def foundation_addition(r: RingPresentation) -> FoundationSplit:
    """R = R_F x R_0 with R_0 a complement of Delta(R) in Ann(R) and
    R_F a complement of R_0 containing R^2.

    Always succeeds over a field; over Z either split may fail (NoSplit
    names the missing one).
    """
    ann = annihilator(r)
    sq = square_ideal(r)
    delta = delta_ideal(r)
    if r.carrier.kind == FIELD:
        d = r.carrier.domain
        # extend delta to ann: the added vectors form R_0
        r0_rows = [ann[k] for k in Subspace.span(d, delta, r.dim).extend(ann)]
        # complement of R_0 containing R^2, by standard basis vectors
        units = r._basis()
        picked = Subspace.span(d, list(sq) + r0_rows, r.dim).extend(units)
        found_rows = Subspace.span(d, list(sq) + [units[k] for k in picked], r.dim).rows
        r0_rows = Subspace.span(d, r0_rows, r.dim).rows
        foundation = ring_on_rows(r, found_rows)
        addition = RingPresentation(
            field_carrier(d, len(r0_rows)),
            tuple(
                tuple((d.zero(),) * len(r0_rows) for _ in r0_rows) for _ in r0_rows
            ),
        )
        return FoundationSplit(
            foundation, addition, tuple(found_rows), tuple(r0_rows),
            tuple(delta), tuple(ann), tuple(sq),
        )
    if r.carrier.kind != INTEGER:
        raise UnsupportedDomain(
            "foundation/addition over mixed carriers: split the torsion first"
        )
    # additions: complement of Delta inside Ann, computed in Ann's own shape
    ann_sub = modules.submodule_adapted_basis(r.carrier.desc, ann)
    delta_in_ann = [ann_sub.coords_of(g) for g in delta]
    r0_in_ann = modules.split_complement(delta_in_ann, ann_sub.desc)
    if r0_in_ann is None:
        raise NoSplit(
            "Delta(R) = R^2 n Ann(R) does not split off inside Ann(R): "
            "no addition exists", which="addition",
        )
    r0_rows = rows_through(r0_in_ann, ann_sub.basis, r.carrier)
    found_gens = modules.split_complement(r0_rows, r.carrier.desc, kill=sq)
    if found_gens is None:
        raise NoSplit(
            "the addition does not split off inside R: no foundation complement",
            which="foundation",
        )
    found_sub = modules.submodule_adapted_basis(r.carrier.desc, found_gens)
    f = r.as_bilinear()
    tensor = []
    for x in found_sub.basis:
        row = []
        for y in found_sub.basis:
            row.append(found_sub.coords_of(f.evaluate(x, y)))
        tensor.append(tuple(row))
    foundation = RingPresentation(module_carrier(found_sub.desc), tuple(tensor))
    r0_sub = modules.submodule_adapted_basis(r.carrier.desc, r0_rows)
    addition = RingPresentation(
        module_carrier(r0_sub.desc),
        tuple(
            tuple(module_carrier(r0_sub.desc).zero() for _ in r0_sub.basis)
            for _ in r0_sub.basis
        ),
    )
    return FoundationSplit(
        foundation, addition, tuple(found_sub.basis), tuple(r0_sub.basis),
        tuple(delta), tuple(ann), tuple(sq),
    )


# -- centroid and component enrichment ------------------------------------------------


def centroid(r: RingPresentation) -> scalars.EndoAlgebra:
    """{X in End(R) : X(xy) = (Xx)y = x(Xy)}; the scalars of R itself.

    With f the multiplication and eta the identity, these are the A of
    centroid_of(f, eta): the A with A = C on R^2.
    """
    if r.carrier.kind != FIELD:
        raise UnsupportedDomain("centroid is computed over field carriers")
    identity = Matrix.identity(r.carrier.domain, r.dim)
    return scalars.centroid_of(r.as_bilinear(), identity).algebra


@record
class Enrichment:
    """A field acting on a component: matrices for 1, s, ..., s^(d-1)
    where s satisfies the residue minimal polynomial exactly and every
    matrix commutes with multiplication (it lives in the centroid)."""

    matrices: tuple
    minpoly: tuple  # coefficient tuple over the base
    residue_degree: int


def component_enrichment(ring: RingPresentation, seed: int = 0) -> Enrichment:
    """Scalar action of the residue field, found inside the centroid."""
    cent = centroid(ring)
    if not cent.is_commutative():
        raise ValidationError(
            "component centroid is not commutative; no scalar enrichment"
        )
    alg = scalars.endo_commutative_algebra(cent)
    factors = artinian.local_decomposition(alg, seed)
    if len(factors) != 1:
        raise ValidationError("component centroid is not local: ring decomposes")
    lf = factors[0]
    rep = artinian.field_of_representatives(lf)
    # block coords -> centroid coords -> endomorphism
    cent_rows = rows_through(rep.basis, lf.basis, field_carrier(cent.domain, alg.dim))
    mats = [cent.combine(row) for row in cent_rows]
    return Enrichment(tuple(mats), rep.minpoly.coeffs, lf.residue_degree)


def verify_enrichment(ring: RingPresentation, enrichment: Enrichment) -> bool:
    """alpha(xy) = (alpha x)y = x(alpha y), exactly, on all basis triples."""
    d = ring.carrier.domain
    f = ring.as_bilinear()
    basis = ring._basis()
    for mat in enrichment.matrices:
        for x in basis:
            for y in basis:
                ax = mat.apply(x)
                ay = mat.apply(y)
                axy = mat.apply(f.evaluate(x, y))
                if f.evaluate(ax, y) != axy or f.evaluate(x, ay) != axy:
                    return False
    return True


# -- characteristic zero decomposition -------------------------------------------------


@record
class RingComponent:
    ring: RingPresentation
    rows: tuple                    # basis rows in the input's coordinates
    local: artinian.LocalFactor    # local factor of A(R)
    j_report: artinian.JSeriesReport
    enrichment: Enrichment
    residue_degree: int
    dim_over_residue: int


@record
class RingDecomposition:
    components: tuple
    addition: RingPresentation
    addition_rows: tuple
    foundation_rows: tuple
    ann_rows: tuple
    square_rows: tuple
    delta_rows: tuple
    scalar: scalars.ScalarActionReport | None

    @property
    def change_rows(self):
        rows = [row for c in self.components for row in c.rows]
        rows.extend(self.addition_rows)
        return tuple(rows)

    @property
    def blocks(self):
        out = [(c.ring.tensor, c.rows, c.rows) for c in self.components]
        out.append((self.addition.tensor, self.addition_rows, self.addition_rows))
        return tuple(out)


def _annihilate(r: RingPresentation, row_sets) -> bool:
    """x y = 0, exactly, for x and y rows of two different sets."""
    f = r.as_bilinear()
    return all(
        r.carrier.is_zero(f.evaluate(x, y))
        for a, b in itertools.permutations(row_sets, 2)
        for x in a
        for y in b
    )


def decompose_char0(r: RingPresentation, seed: int = 0) -> RingDecomposition:
    """The characteristic-zero pipeline: foundation/addition, A(R), local
    decomposition, idempotent pullback, residue enrichment, r_k data."""
    if r.carrier.kind != FIELD or r.carrier.domain.char != 0:
        raise UnsupportedDomain("decompose_char0 needs a characteristic-zero field")
    d = r.carrier.domain
    sq = square_ideal(r)
    if not sq:
        basis = tuple(unit_vectors(d, r.dim))
        return RingDecomposition(
            components=(),
            addition=r,
            addition_rows=basis,
            foundation_rows=(),
            ann_rows=tuple(annihilator(r)),
            square_rows=(),
            delta_rows=(),
            scalar=None,
        )
    split = foundation_addition(r)
    rf = split.foundation
    ann_f = annihilator(rf)
    sq_f = square_ideal(rf)
    scalar = scalars.largest_scalar_action(rf.as_bilinear(), ann_f, sq_f)
    alg = scalars.endo_commutative_algebra(scalar.algebra)
    factors = artinian.local_decomposition(alg, seed)
    components = []
    total = 0
    for lf in factors:
        e_q = scalar.algebra.combine(lf.idempotent)
        e_sq = Matrix.zero(d, len(scalar.square_rows), len(scalar.square_rows))
        for c, act in zip(lf.idempotent, scalar.action_on_square):
            e_sq = e_sq.add(act.scale(c))
        s_rows_sq = Subspace.span(d, [e_sq.col(j) for j in range(e_sq.cols)], e_sq.rows).rows
        q_rows = Subspace.span(d, [e_q.col(j) for j in range(e_q.cols)], e_q.rows).rows
        # eta-image of the square part inside the quotient block
        eta_s = Subspace.span(d, [scalar.eta.apply(srow) for srow in s_rows_sq], scalar.eta.rows)
        d_rows = [q_rows[k] for k in eta_s.extend(q_rows)]
        s_part = rows_through(s_rows_sq, scalar.square_rows, rf.carrier)
        d_part = rows_through(d_rows, scalar.quotient_rows, rf.carrier)
        comp_rows_rf = list(s_part) + list(d_part)
        if not Subspace.span(d, comp_rows_rf, rf.dim).independent:
            raise InvariantViolation("component independence check: the component basis is dependent")
        comp_ring = ring_on_rows(rf, comp_rows_rf)
        rows_ambient = rows_through(comp_rows_rf, split.foundation_rows, r.carrier)
        enrichment = component_enrichment(comp_ring, seed)
        if enrichment.residue_degree != lf.residue_degree:
            raise InvariantViolation("residue degree check: the centroid's disagrees with A(R)'s")
        if comp_ring.dim % lf.residue_degree:
            raise InvariantViolation("component dimension check: not divisible by the residue degree")
        components.append(
            RingComponent(
                ring=comp_ring,
                rows=tuple(rows_ambient),
                local=lf,
                j_report=artinian.j_series(lf),
                enrichment=enrichment,
                residue_degree=lf.residue_degree,
                dim_over_residue=comp_ring.dim // lf.residue_degree,
            )
        )
        total += comp_ring.dim
    if total != rf.dim:
        raise InvariantViolation("foundation fill check: the component dimensions do not add up to it")
    if not _annihilate(r, [c.rows for c in components]):
        raise InvariantViolation("cross-component product check: a product is nonzero")
    return RingDecomposition(
        components=tuple(components),
        addition=split.addition,
        addition_rows=tuple(split.addition_rows),
        foundation_rows=tuple(split.foundation_rows),
        ann_rows=tuple(split.ann_rows),
        square_rows=tuple(split.square_rows),
        delta_rows=tuple(split.delta_rows),
        scalar=scalar,
    )


def verify_ring_reassembly(r: RingPresentation, deco: RingDecomposition) -> bool:
    """Exact: block tensors pushed through the recorded rows reproduce r."""
    return verify_reassembly(r.as_bilinear(), deco.blocks)


# -- mixed and bounded cases -------------------------------------------------------


@record
class MixedSplit:
    divisible: RingPresentation
    bounded: RingPresentation
    divisible_indices: tuple
    bounded_indices: tuple
    cross_annihilation: bool
    intersection_trivial: bool


def central_split_mixed(r: RingPresentation) -> MixedSplit:
    """R = R_D * R_C on a mixed carrier, with mutual annihilation certified."""
    f_d, f_c, ((m_didx, _), (m_bidx, _)) = torsion_split(r.as_bilinear())
    div_ring = RingPresentation(f_d.m, f_d.tensor)
    bd_ring = RingPresentation(f_c.m, f_c.tensor)
    cross_ok = True
    for i in m_didx:
        for j in m_bidx:
            if not r.carrier.is_zero(r.tensor[i][j]) or not r.carrier.is_zero(
                r.tensor[j][i]
            ):
                cross_ok = False
    return MixedSplit(
        divisible=div_ring,
        bounded=bd_ring,
        divisible_indices=tuple(m_didx),
        bounded_indices=tuple(m_bidx),
        cross_annihilation=cross_ok,
        intersection_trivial=True,  # formal summands are disjoint
    )


@record
class QuasiComponent:
    ring: RingPresentation
    rows: tuple
    local: artinian.LocalFactor
    residue_degree: int


@record
class CentralProductReport:
    components: tuple
    scalar: scalars.ScalarActionReport
    ann_rows: tuple


def decompose_bounded(r: RingPresentation, seed: int = 0) -> CentralProductReport:
    """Central product of A_i-quasi algebras over GF(p): preimages of the
    idempotent blocks of A(R) acting on R/Ann(R)."""
    if r.carrier.kind != FIELD or not isinstance(r.carrier.domain, PrimeField):
        raise UnsupportedDomain("decompose_bounded needs a GF(p) carrier")
    d = r.carrier.domain
    sq = square_ideal(r)
    if not sq:
        raise DegenerateInput("zero multiplication: nothing to decompose")
    ann = annihilator(r)
    scalar = scalars.largest_scalar_action(r.as_bilinear(), ann, sq)
    alg = scalars.endo_commutative_algebra(scalar.algebra)
    factors = artinian.local_decomposition(alg, seed)
    components = []
    for lf in factors:
        e_q = scalar.algebra.combine(lf.idempotent)
        q_rows = Subspace.span(d, [e_q.col(j) for j in range(e_q.cols)], e_q.rows).rows
        lifted = rows_through(q_rows, scalar.quotient_rows, r.carrier)
        rows = Subspace.span(d, list(lifted) + list(ann), r.dim).rows
        comp_ring = ring_on_rows(r, rows)
        components.append(
            QuasiComponent(
                ring=comp_ring,
                rows=tuple(rows),
                local=lf,
                residue_degree=lf.residue_degree,
            )
        )
    if not _annihilate(r, [c.rows for c in components]):
        raise InvariantViolation("mutual annihilation check: two central factors do not annihilate")
    return CentralProductReport(tuple(components), scalar, tuple(ann))


# -- model construction and categoricity ----------------------------------------------


@record
class ModelConstruction:
    ring: RingPresentation       # the same constants over the new field
    special_basis: tuple         # rows in the input coordinates
    constants_field: str         # description of k_0
    constants_are_prime: bool


def _constants_subfield(domain: Domain, tensor) -> tuple:
    """(k0 is the prime field?, description)."""
    if isinstance(domain, Rationals):
        return True, "Q"
    if isinstance(domain, PrimeField):
        return True, domain.describe()
    if isinstance(domain, Extension):
        for row in tensor:
            for entry in row:
                for c in entry:
                    if any(not domain.base.is_zero(x) for x in c[1:]):
                        return False, domain.describe()
        return True, domain.base.describe()
    raise UnsupportedDomain("unsupported base field for model construction")


def model_construct(
    r: RingPresentation, target: Domain, seed: int = 0
) -> ModelConstruction:
    """Re-read the structure constants of an indecomposable component over
    an extension of the constants' subfield k_0."""
    if r.carrier.kind != FIELD:
        raise UnsupportedDomain("model_construct needs a field carrier")
    base = r.carrier.domain
    cent = centroid(r)
    if not cent.is_commutative():
        raise ValidationError("centroid is not commutative")
    alg = scalars.endo_commutative_algebra(cent)
    factors = artinian.local_decomposition(alg, seed)
    if len(factors) != 1:
        raise ValidationError("ring is decomposable; model construction needs an "
                              "indecomposable component")
    lf = factors[0]
    d = base
    # J-adapted basis: extend the filtration J^m R < ... < J R < R bottom-up
    j_rows = rows_through(lf.radical_rows, lf.basis, field_carrier(d, alg.dim))
    j_mats = [cent.combine(row) for row in j_rows]
    spaces = []
    current = r._basis()
    while current:
        spaces.append(list(current))
        moved = [m.apply(v) for m in j_mats for v in current]
        current = Subspace.span(d, moved, r.dim).rows
    candidates = [v for depth in reversed(spaces) for v in depth]
    special = [candidates[k] for k in Subspace.span(d, (), r.dim).extend(candidates)]
    special_ring = ring_on_rows(r, special)
    prime_constants, k0_desc = _constants_subfield(base, special_ring.tensor)
    # the target must contain k0
    if prime_constants:
        if isinstance(base, (Rationals, Extension)) and base.char == 0:
            ok = target.is_field and target.char == 0
        else:
            ok = target.is_field and target.char == base.char
    else:
        ok = target == base
    if not ok:
        raise ExtensionNotOverK0(
            f"target field {target.describe()} does not contain k0 = {k0_desc}"
        )

    def convert(c):
        if base == target:
            return c
        if isinstance(base, Rationals):
            if isinstance(target, Extension):
                return target.from_base(c)
            return c
        if isinstance(base, PrimeField):
            if isinstance(target, Extension):
                return target.from_base(c)
            return target.from_int(c)
        if isinstance(base, Extension) and prime_constants:
            const = c[0]
            if isinstance(target, Extension):
                return target.from_base(const)
            return const
        raise ExtensionNotOverK0("no embedding of the constants into the target")

    tensor = tuple(
        tuple(tuple(convert(c) for c in entry) for entry in row)
        for row in special_ring.tensor
    )
    out = RingPresentation(field_carrier(target, r.dim), tensor)
    return ModelConstruction(
        ring=out,
        special_basis=tuple(special),
        constants_field=k0_desc,
        constants_are_prime=prime_constants,
    )


@record
class CategoricityVerdict:
    satisfied: bool
    component_count: int
    addition_dim: int
    note: str


def categoricity_check(deco: RingDecomposition) -> CategoricityVerdict:
    """Structural criterion: one indecomposable component, no addition.

    The remaining hypothesis (the scalar field being uncountable and
    algebraically closed) is model-theoretic and reported, not computed.
    """
    addition_dim = len(deco.addition_rows)
    satisfied = len(deco.components) == 1 and addition_dim == 0
    return CategoricityVerdict(
        satisfied=satisfied,
        component_count=len(deco.components),
        addition_dim=addition_dim,
        note=(
            "structural criterion only; uncountable algebraically closed "
            "scalars are a model-theoretic hypothesis not checked here"
        ),
    )
