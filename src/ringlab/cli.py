"""Command-line front end.

    ringlab analyze FILE [--format text|json] [--witnesses] [--seed N]
                         [--max-class N] [--width-bound N] [--extension C0,C1,...]
    ringlab malcev {mul,comm} FILE G H [--max-class N]
    ringlab malcev pow FILE G EXPONENT [--max-class N]
    ringlab malcev decompose FILE [--max-class N]
    ringlab selftest {quick,full} [--format text|json]

--max-class and --width-bound take integers >= 0 (0 is a cap like any
other).  A negative exponent is read as an option unless it follows `--`,
with any options before FILE: `ringlab malcev pow FILE G -- -3/2`.

Exit codes: 0 success, 1 validation/parse error, 2 pipeline error.  A
command-line usage error also exits 2, with argparse's message: `malcev pow
FILE G --format json -- -3/2` leaves `-- -3/2` unrecognized.
Reports are deterministic: identical input bytes give identical output
bytes.  Integers of any length are read and printed in full.
"""

from __future__ import annotations

import argparse
import sys

from . import lie, reports, selftest
from .documents import InputDocument, load_document
from .domains import QQ, Extension, PrimeField, Rationals
from .errors import (
    ParseError,
    PipelineError,
    RinglabError,
    ValidationError,
)


def _read_document(path: str, extension: str | None) -> InputDocument:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except UnicodeDecodeError as exc:
        head = exc.object[: exc.start]
        line = head.count(b"\n") + 1
        col = len(head[head.rfind(b"\n") + 1 :].decode("utf-8")) + 1
        raise ParseError(f"the file is not UTF-8 text ({exc.reason})", line, col) from None
    doc = load_document(text)
    if extension:
        doc = _pre_extend(doc, extension)
    return doc


def _pre_extend(doc: InputDocument, minpoly_text: str) -> InputDocument:
    """Re-read a field-carrier document over EXTENSION(base, minpoly)."""
    base = doc.carrier.domain if doc.carrier.kind == "field" else None
    if not isinstance(base, (Rationals, PrimeField)):
        raise ValidationError(
            "--extension applies to documents over Q or GF(p) only"
        )
    coeffs = [base.parse(c.strip()) for c in minpoly_text.split(",")]
    ext = Extension(base, tuple(coeffs))

    def lift(value):
        return ext.from_base(value)

    from .bilinear import field_carrier

    carrier = field_carrier(ext, doc.carrier.dim)
    codomain = None
    if doc.codomain is not None:
        codomain = field_carrier(ext, doc.codomain.dim)
    tensor = None
    if doc.tensor is not None:
        tensor = tuple(
            tuple(tuple(lift(c) for c in cell) for cell in row) for row in doc.tensor
        )
    unit = tuple(lift(c) for c in doc.unit) if doc.unit is not None else None
    return InputDocument(
        kind=doc.kind,
        domain=ext,
        carrier=carrier,
        basis_names=doc.basis_names,
        tensor=tensor,
        codomain=codomain,
        codomain_basis=doc.codomain_basis,
        unit=unit,
    )


def _parse_group_element(text: str, algebra) -> lie.GroupElement:
    text = text.strip()
    if text.startswith("(") and text.endswith(")"):
        text = text[1:-1]
    parts = [p.strip() for p in text.split(",") if p.strip()]
    if len(parts) != algebra.dim:
        raise ValidationError(
            f"element needs {algebra.dim} coordinates, got {len(parts)}"
        )
    coords = tuple(algebra.domain.parse(p) for p in parts)
    return lie.GroupElement(algebra, coords)


def _check_ranges(args) -> None:
    """Refuse a negative cap before any document is read."""
    for name in ("max_class", "width_bound"):
        value = getattr(args, name, None)
        if value is not None and value < 0:
            option = "--" + name.replace("_", "-")
            raise ValidationError(f"{option} must be >= 0, got {value}")


def render_text(tree, indent: int = 0) -> str:
    lines = []

    def emit(key, value, depth):
        prefix = "  " * depth
        if isinstance(value, dict):
            lines.append(f"{prefix}{key}:")
            for k, v in value.items():
                emit(k, v, depth + 1)
        elif isinstance(value, (list, tuple)):
            if not value:
                lines.append(f"{prefix}{key}: (none)")
            elif all(not isinstance(v, (dict, list, tuple)) for v in value):
                lines.append(f"{prefix}{key}: [" + ", ".join(str(v) for v in value) + "]")
            else:
                lines.append(f"{prefix}{key}:")
                for i, v in enumerate(value):
                    emit(f"[{i}]", v, depth + 1)
        else:
            lines.append(f"{prefix}{key}: {value}")

    for k, v in tree.items():
        emit(k, v, indent)
    return "\n".join(lines) + "\n"


def render_json(tree) -> str:
    import json

    return json.dumps(tree, indent=2) + "\n"


def _emit(tree, fmt: str) -> None:
    text = render_json(tree) if fmt == "json" else render_text(tree)
    sys.stdout.write(text)


def _cmd_analyze(args) -> int:
    doc = _read_document(args.file, args.extension)
    opts = reports.AnalyzeOptions(
        seed=args.seed,
        max_class=args.max_class,
        width_bound=args.width_bound,
        witnesses=args.witnesses,
    )
    _emit(reports.analyze(doc, opts), args.format)
    return 0


# the positional arguments each malcev subcommand takes after FILE
_MALCEV_ARGS = {
    "mul": ("G", "H"),
    "comm": ("G", "H"),
    "pow": ("G", "EXPONENT"),
    "decompose": (),
}


def _cmd_malcev(args) -> int:
    wanted = _MALCEV_ARGS[args.subcommand]
    if len(args.args) != len(wanted):
        raise ValidationError(
            f"malcev {args.subcommand} takes {' '.join(wanted) or 'no arguments'}"
            f" after FILE, got {len(args.args)} argument(s)"
        )
    doc = _read_document(args.file, args.extension)
    if doc.kind != "lie":
        raise ValidationError("malcev commands need a 'lie' document")
    algebra = lie.verify_nilpotent_lie(doc.ring())
    if algebra.nilpotency_class > args.max_class:
        from .errors import ClassTooLarge

        raise ClassTooLarge(
            f"class {algebra.nilpotency_class} exceeds --max-class {args.max_class}"
        )
    fmt_coords = lambda g: "(" + ", ".join(str(c) for c in g.log) + ")"
    if args.subcommand == "mul":
        g = _parse_group_element(args.args[0], algebra)
        h = _parse_group_element(args.args[1], algebra)
        result = {"operation": "mul", "result": fmt_coords(lie.group_mul(g, h, args.max_class))}
    elif args.subcommand == "pow":
        g = _parse_group_element(args.args[0], algebra)
        exponent = QQ.parse(args.args[1])
        result = {"operation": "pow", "result": fmt_coords(lie.group_pow(g, exponent))}
    elif args.subcommand == "comm":
        g = _parse_group_element(args.args[0], algebra)
        h = _parse_group_element(args.args[1], algebra)
        rep = lie.group_commutator(g, h, args.max_class)
        result = {
            "operation": "comm",
            "result": fmt_coords(rep.commutator),
            "bracket": "(" + ", ".join(str(c) for c in rep.bracket) + ")",
            "identity_iff_bracket_zero": rep.identity_iff_bracket_zero,
        }
        if rep.class2_exact is not None:
            result["class2_exact"] = rep.class2_exact
    else:  # decompose
        deco = lie.group_decompose(algebra, args.seed, args.max_class)
        result = {
            "operation": "decompose",
            "factors": [
                {
                    "dim": f.algebra.dim,
                    "class": f.algebra.nilpotency_class,
                    "abelian": f.abelian,
                }
                for f in deco.factors
            ],
            "abelian_factor_dim": len(deco.abelian_factor_rows),
            "cross_commutators_trivial": deco.cross_commutators_trivial,
        }
    _emit(result, args.format)
    return 0


def _cmd_selftest(args) -> int:
    report = selftest.run_selftest(args.level)
    if args.format == "json":
        _emit(report, "json")
    else:
        lines = [f"selftest level: {report['level']}"]
        for name, suite in report["suites"].items():
            status = "pass" if not suite["failures"] else "FAIL"
            lines.append(f"  {name}: {status} ({suite['checks']} checks)")
            for failure in suite["failures"]:
                lines.append(f"    failure: {failure}")
        lines.append(f"total checks: {report['total_checks']}")
        lines.append(f"status: {report['status']}")
        sys.stdout.write("\n".join(lines) + "\n")
    return 0 if report["status"] == "pass" else 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ringlab",
        description=(
            "exact-arithmetic workbench for bilinear maps, rings and "
            "nilpotent Lie algebras"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--seed", type=int, default=0,
                       help="seed for idempotent probing")
        p.add_argument("--max-class", type=int, default=6)
        p.add_argument("--extension", default=None, metavar="C0,C1,...",
                       help="pre-extend the base field by an irreducible "
                            "polynomial (constant term first)")

    p_analyze = sub.add_parser("analyze", help="run the analysis pipeline of the "
                                               "document's kind")
    p_analyze.add_argument("file")
    p_analyze.add_argument("--witnesses", action="store_true",
                           help="include basis-change witnesses")
    p_analyze.add_argument("--width-bound", type=int, default=16)
    common(p_analyze)

    p_malcev = sub.add_parser("malcev", help="log-coordinate group arithmetic")
    p_malcev.add_argument("subcommand", choices=("mul", "pow", "comm", "decompose"))
    p_malcev.add_argument("file")
    p_malcev.add_argument("args", nargs="*")
    common(p_malcev)

    p_selftest = sub.add_parser("selftest", help="run the brute-force oracle suites")
    p_selftest.add_argument("level", choices=("quick", "full"), nargs="?",
                            default="quick")
    p_selftest.add_argument("--format", choices=("text", "json"), default="text")
    return parser


def main(argv=None) -> int:
    # exact arithmetic reads and prints every digit: lift Python's limit on
    # int <-> str conversion (4,300 digits) while the command runs
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        args = build_parser().parse_args(argv)
        _check_ranges(args)
        if args.command == "analyze":
            return _cmd_analyze(args)
        if args.command == "malcev":
            return _cmd_malcev(args)
        return _cmd_selftest(args)
    except (ParseError, ValidationError) as exc:
        sys.stderr.write(f"ringlab: invalid input: {exc}\n")
        return 1
    except PipelineError as exc:
        sys.stderr.write(f"ringlab: pipeline error at {exc}\n")
        return 2
    except RinglabError as exc:
        sys.stderr.write(f"ringlab: pipeline error: {exc}\n")
        return 2
    except OSError as exc:
        sys.stderr.write(f"ringlab: {exc}\n")
        return 1
    finally:
        sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
