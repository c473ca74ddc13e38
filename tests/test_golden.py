"""Whole-report golden tests: `analyze` stdout compared byte for byte.

The five packaged fixtures run with `--format json` and with
`--format text --witnesses`; six benchmark inputs (seed 1 of
`ringbench/workloads.py`, copied under `golden/inputs/`) run with
`--format json`.  Expected bytes live in `golden/expected/`.

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
    "h3x2+q": "lie-q",
    "L6": "lie-q",
}


def _fixture(name):
    return str(resources.files("ringlab.fixtures").joinpath(f"{name}.json"))


CASES = (
    [(f"{n}.json", _fixture(n), ["--format", "json"]) for n in FIXTURE_NAMES]
    + [
        (f"{n}.txt", _fixture(n), ["--format", "text", "--witnesses"])
        for n in FIXTURE_NAMES
    ]
    + [
        (f"{n}.json", os.path.join(INPUTS, f"{n}.json"), ["--format", "json"])
        for n in BENCH_INPUTS
    ]
)


def _analyze(path, flags):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["analyze", path, *flags])
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("expected, path, flags", CASES, ids=[c[0] for c in CASES])
def test_report_bytes(expected, path, flags):
    code, out, err = _analyze(path, flags)
    assert (code, err) == (0, "")
    with open(os.path.join(EXPECTED, expected), encoding="utf-8", newline="") as f:
        assert out == f.read()


def _record():
    root = os.path.dirname(HERE)
    sys.path.insert(0, os.path.join(os.path.dirname(root), "ringbench"))
    import workloads

    os.makedirs(INPUTS, exist_ok=True)
    os.makedirs(EXPECTED, exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for workload in sorted(set(BENCH_INPUTS.values())):
            workloads.build(workload, 1, os.path.join(tmp, workload))
        for name, workload in BENCH_INPUTS.items():
            shutil.copy(
                os.path.join(tmp, workload, f"{name}.json"),
                os.path.join(INPUTS, f"{name}.json"),
            )
    for expected, path, flags in CASES:
        code, out, err = _analyze(path, flags)
        if code or err:
            raise SystemExit(f"{expected}: exit {code}: {err}")
        with open(os.path.join(EXPECTED, expected), "w", encoding="utf-8", newline="") as f:
            f.write(out)


if __name__ == "__main__":
    _record()
