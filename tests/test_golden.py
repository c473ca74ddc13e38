"""Whole-report golden tests: command stdout compared byte for byte.

The five packaged fixtures run with `--format json` and with
`--format text --witnesses`; ten benchmark inputs (seed 1 of
`ringbench/workloads.py`, copied under `golden/inputs/`) run with
`--format json`; R3-z is the one that reaches the ring pipeline's
integer coordinates, and q-alg6 (two local factors) and gf7-alg10 (three,
found by two splits) pin the local decomposition's split tree.  q-ext runs
with `--extension=-2,0,1`, as ring-q runs it: Q[t]/((t^2 - 2)^2) over
Q(sqrt 2), split over Q and lifted back into two factors.  gf7-alg10 runs
with `--extension=1,0,1`: GF(49) = GF(7)[t]/(t^2 + 1), whose idempotents
print coefficients of t equal to 1.  `malcev mul`, `comm` and `pow` run on the malcev-q top
rung h3x3+q, and the q-x2-2-squared fixture is re-read with
`--extension=1,0,1` as json and as text.  Two hand-written inputs pin
what a failed certificate prints: `malcev mul` on nonlie-q (antisymmetric,
Jacobi fails first at basis triple (1, 2, 3)) exits 2 with the witness on
stderr, and `analyze` on nonassoc-q reports `associative: false`.
R5-q (R_5 over Q, dim 16, so 256 unknowns in the centroid system; made by
`families.ring_doc(random.Random("R5-q:1"), 5, families.Q, "Q")`) pins the
ring pipeline over Q above the benchmark's R_3.  h3+z2 (hand-written: the
Heisenberg ring on x, y, z over Q beside t with t*t = t on a Z/2 line) is
the one mixed carrier, run as json and as text with `--witnesses`: Ann =
<z>, R^2 = <z, t>, Delta = <z>, regular, divisible_dim 3, bounded_dim 1.
Four hand-written commutative-algebra documents pin the law certificate's
messages, each exiting 1: alg-noncomm-q (first non-commuting pair (1, 2)),
alg-nounit-q (zero multiplication, no unit to find), alg-unitfail-q
(Q[x]/(x^2) with x given as the unit) and alg-nonassoc-gf7 (a*a = b,
b*b = a, a*b = 0; first failing triple (1, 1, 2)).
Nine hand-written err-* documents pin where an input error points, each
exiting 1: a bad entry deep in a multi-line table (table[2][1][2]), a bad
minpoly coefficient (domain.ext.minpoly), a missing 'kind' (the document's
opening brace, on line 2), an unknown summand, a short table row, a
table that breaks the carrier's structure, a bad escape on line 3, and a
repeated 'domain' and a repeated 'table' (the last occurrence is read).
Expected bytes live in `golden/expected/`; a case with a nonzero exit code
also pins its stderr in `<expected>.stderr`.

To record them again, on a tree whose reports are known good:

    PYTHONPATH=src python tests/test_golden.py
"""

import io
import os
import shutil
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from importlib import resources

import pytest

from ringlab.cli import main
from ringlab.selftest import FIXTURE_NAMES

HERE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
INPUTS = os.path.join(HERE, "inputs")
EXPECTED = os.path.join(HERE, "expected")

# benchmark input name -> the workload that generates it
BENCH_INPUTS = {
    "R3-q": "ring-q",
    "q-mul4": "ring-q",
    "gf7-mul7": "finite-z",
    "outer2x3-gf3": "finite-z",
    "outer3x3-gf3": "finite-z",
    "R3-z": "finite-z",
    "h3x2+q": "lie-q",
    "L6": "lie-q",
    "q-alg6": "ring-q",
    "gf7-alg10": "finite-z",
}
# benchmark inputs re-read over an extension: name -> (workload, minimal polynomial)
EXTENSION_INPUTS = {"q-ext": ("ring-q", "-2,0,1"), "gf7-alg10": ("finite-z", "1,0,1")}
MALCEV_INPUTS = {"h3x3+q": "malcev-q"}
# commutative-algebra documents that fail one law each
ALGEBRA_LAW_INPUTS = ("alg-noncomm-q", "alg-nounit-q", "alg-unitfail-q", "alg-nonassoc-gf7")
# documents that stop at load_document: a parse or validation error
ERROR_INPUTS = (
    "err-table-entry",
    "err-ext-minpoly",
    "err-missing-kind",
    "err-unknown-summand",
    "err-table-row",
    "err-table-law",
    "err-bad-escape",
    "err-repeated-key",
    "err-repeated-table",
)

# the arguments `workloads.build("malcev-q", 1, ...)` gives the h3x3+q commands
H3X3_X = "(-1,-4/3,4/3,7/2,-1/8,-7/6,-5/7,7/4,7/9,1)"
H3X3_Y = "(1/5,-3/2,1/5,-6/5,8/7,-3/7,-3,-3,-1/8,-2/5)"
H3X3_EXPONENT = "1/2"


def _fixture(name):
    return str(resources.files("ringlab.fixtures").joinpath(f"{name}.json"))


def _input(name):
    return os.path.join(INPUTS, f"{name}.json")


# (expected file, argv)
CASES = (
    [(f"{n}.json", ["analyze", _fixture(n), "--format", "json"]) for n in FIXTURE_NAMES]
    + [
        (f"{n}.txt", ["analyze", _fixture(n), "--format", "text", "--witnesses"])
        for n in FIXTURE_NAMES
    ]
    + [
        (f"{n}.json", ["analyze", _input(n), "--format", "json"])
        for n in BENCH_INPUTS
    ]
    + [
        (f"malcev-{op}-h3x3+q.json", ["malcev", op, _input("h3x3+q"), H3X3_X, arg, "--format", "json"])
        for op, arg in (("mul", H3X3_Y), ("comm", H3X3_Y), ("pow", H3X3_EXPONENT))
    ]
    + [
        (
            "malcev-mul-nonlie-q.json",
            ["malcev", "mul", _input("nonlie-q"), "(1,0,0,0,0)", "(0,1,0,0,0)", "--format", "json"],
        ),
        ("nonassoc-q.json", ["analyze", _input("nonassoc-q"), "--format", "json"]),
        ("R5-q.json", ["analyze", _input("R5-q"), "--format", "json"]),
        ("h3+z2.json", ["analyze", _input("h3+z2"), "--format", "json"]),
        ("h3+z2.txt", ["analyze", _input("h3+z2"), "--format", "text", "--witnesses"]),
    ]
    + [
        (f"{n}.json", ["analyze", _input(n), "--format", "json"])
        for n in ALGEBRA_LAW_INPUTS + ERROR_INPUTS
    ]
    + [
        (
            f"q-x2-2-squared-ext.{ext}",
            ["analyze", _fixture("q-x2-2-squared"), "--extension=1,0,1", "--format", fmt],
        )
        for ext, fmt in (("json", "json"), ("txt", "text"))
    ]
    + [
        (f"{n}-ext.json", ["analyze", _input(n), f"--extension={poly}", "--format", "json"])
        for n, (_, poly) in EXTENSION_INPUTS.items()
    ]
)

# expected file -> exit code, for the cases that stop with an error
FAILING = {
    "malcev-mul-nonlie-q.json": 2,
    **{f"{n}.json": 1 for n in ALGEBRA_LAW_INPUTS + ERROR_INPUTS},
}


def _expected(name):
    with open(os.path.join(EXPECTED, name), encoding="utf-8", newline="") as f:
        return f.read()


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("expected, argv", CASES, ids=[c[0] for c in CASES])
def test_report_bytes(expected, argv):
    code, out, err = _run(argv)
    want = FAILING.get(expected, 0)
    assert (code, err) == (want, _expected(expected + ".stderr") if want else "")
    assert out == _expected(expected)


def _record():
    root = os.path.dirname(HERE)
    sys.path.insert(0, os.path.join(os.path.dirname(root), "ringbench"))
    import workloads

    os.makedirs(INPUTS, exist_ok=True)
    os.makedirs(EXPECTED, exist_ok=True)
    inputs = {
        **BENCH_INPUTS,
        **MALCEV_INPUTS,
        **{n: workload for n, (workload, _) in EXTENSION_INPUTS.items()},
    }
    with tempfile.TemporaryDirectory() as tmp:
        for workload in sorted(set(inputs.values())):
            workloads.build(workload, 1, os.path.join(tmp, workload))
        for name, workload in inputs.items():
            shutil.copy(
                os.path.join(tmp, workload, f"{name}.json"),
                os.path.join(INPUTS, f"{name}.json"),
            )
    for expected, argv in CASES:
        code, out, err = _run(argv)
        if code != FAILING.get(expected, 0) or (err and not code):
            raise SystemExit(f"{expected}: exit {code}: {err}")
        files = {expected: out, **({expected + ".stderr": err} if code else {})}
        for name, text in files.items():
            with open(os.path.join(EXPECTED, name), "w", encoding="utf-8", newline="") as f:
                f.write(text)


if __name__ == "__main__":
    _record()
