"""ringlab's benchmark.

    python3 ringbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a ringlab checkout: the commands import ringlab from
its ``src/``.  The workload's inputs are generated from the seed; every
command runs as its own ``python -m ringlab.cli`` process, one at a time,
and its output is checked against the construction (checks.py).

``--trace 0`` measures whole rounds of the workload's commands until
``--seconds`` are used (at least one round) and reports the end-to-end
metrics.  Command times are reported in units of a reference task timed
just before and after each command (see ``reference``).

``--trace 1`` runs one round in which each command runs three times:
plainly, under the span probes, and under the domain-op counters
(trace.py); it reports the per-layer metrics and fails if the three
stdouts differ in a single byte.

The last line of stdout is one JSON object:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

import workloads

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
HERE = os.path.dirname(os.path.abspath(__file__))
# interpreter launches for setup_s before each round; the median is reported
SETUP_PER_ROUND = 2

# iterations of the reference task's loop: about 0.13 s on a 2.1 GHz Xeon
REFERENCE_STEPS = 1_500_000

END_TO_END = {
    "setup_s": "s",
    "wall_ref": "ref",
    "top_rung_ref": "ref",
    "peak_rss_mb": "MB",
}

# Stage names that reports._stage receives on these workloads.
STAGES = (
    "verify_nilpotent_lie",
    "central_series_and_center",
    "group_decompose",
    "annihilator",
    "square_ideal",
    "delta_ideal",
    "is_regular",
    "foundation_addition",
    "decompose_char0",
    "decompose_bounded",
    "construct",
    "radical",
    "local_decomposition",
    "field_of_representatives",
    "two_sided_kernel",
    "image_submodule",
    "is_full",
    "width",
    "foundation_addition_split",
    "decompose_via_scalars",
)

PER_LAYER = (
    ["cli.main.total_s", "cli.render.self_s"]
    + ["documents.load_document.calls", "documents.load_document.self_s"]
    + ["reports.analyze.self_s"]
    + [f"reports.stage.{s}.total_s" for s in STAGES]
    + [
        "rings.RingPresentation.calls",
        "rings.RingPresentation.self_s",
        "rings.verify_ring_reassembly.total_s",
        "rings.verify_enrichment.total_s",
    ]
    + [
        "lie.bch.calls",
        "lie.bch.self_s",
        "lie.bch.words",
        "lie.group_commutator.calls",
        "lie.group_commutator.self_s",
        "lie.verify_nilpotent_lie.self_s",
    ]
    + [
        f"scalars.{f}.self_s"
        for f in (
            "symmetric_endos",
            "z_center",
            "p_of_f",
            "largest_scalar_action",
            "decompose_via_scalars",
            "z_n_chain",
        )
    ]
    + [f"artinian.{f}.self_s" for f in ("radical", "local_decomposition", "field_of_representatives")]
    + ["polynomials.poly_factor.calls", "polynomials.poly_factor.self_s"]
    + [
        "bilinear.BilinearMap.evaluate.calls",
        "bilinear.BilinearMap.evaluate.self_s",
        "bilinear.coords_in_rows.calls",
        "bilinear.coords_in_rows.self_s",
        "bilinear.canonical_span_rows.calls",
        "bilinear.canonical_span_rows.self_s",
        "bilinear.complement_rows.calls",
    ]
    + [
        "linalg.rref.calls",
        "linalg.rref.self_s",
        "linalg.rref.cells",
        "linalg.Matrix.mul.calls",
        "linalg.Matrix.mul.self_s",
        "linalg.solve.calls",
        "linalg.kernel_basis.calls",
        "linalg.smith_normal_form.calls",
        "linalg.smith_normal_form.self_s",
    ]
    + ["modules.split_complement.calls", "modules.split_complement.self_s"]
    + ["gfenum.self_s"]
    + [f"domains.{d}.ops" for d in ("Rationals", "PrimeField", "Extension", "Integers")]
    + ["selftest.run_selftest.total_s"]
    + ["trace.overhead_s"]
)


def unit_of(metric):
    return "s" if metric.endswith("_s") else "count"


@dataclass
class Result:
    code: int
    wall: float
    rss_mb: float
    stdout: bytes
    stderr: str


def launch(argv, tag):
    """Run argv to its end; wall time, exit code and the child's peak RSS."""
    out_path, err_path = tag + ".out", tag + ".err"
    env = dict(os.environ, PYTHONPATH=SRC)
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, "rb") as out, open(err_path, "rb") as err:
        stdout, stderr = out.read(), err.read().decode("utf-8", "replace")
    return Result(proc.returncode, wall, usage.ru_maxrss / 1024, stdout, stderr)


def ringlab(args):
    return [sys.executable, "-m", "ringlab.cli", *args]


def traced(mode, path, args):
    return [sys.executable, os.path.join(HERE, "trace.py"), mode, path, *args]


class Outcome:
    """Counts attempted and failed commands and collects wrong results."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def judge(self, op, result):
        self.attempted += 1
        if result.code != 0:
            self.failed += 1
            if not (op.fault and result.code == 2 and op.fault in result.stderr):
                self.problems.append(
                    f"{op.name}: exit {result.code}: {result.stderr.strip()[-300:]}"
                )
            return "failed"
        try:
            problems = op.check(result.stdout.decode("utf-8"), op.meta)
        except (LookupError, TypeError, ValueError) as exc:
            problems = [f"report does not have the expected shape: {exc!r}"]
        self.problems += [f"{op.name}: {p}" for p in problems]
        return "WRONG" if problems else "ok"


def log(text):
    print(text, file=sys.stderr, flush=True)


def reference():
    """Wall time of a fixed pure-Python task that does not touch ringlab.

    A shared host's speed drifts by a third and more over tens of seconds,
    and a command's wall time drifts with it.  Dividing the command's time
    by this task's, timed on either side of it, cancels most of the drift
    and keeps every change in the command's own work.
    """
    start = time.perf_counter()
    total = 0
    for i in range(REFERENCE_STEPS):
        total += i * i % 7
    return time.perf_counter() - start


def measure(workload, outcome, work, seconds):
    """End-to-end metrics over whole rounds, with tracing off.

    A command's time is its wall time (import included) over the mean of
    the reference times just before and just after it, and its value is
    the median of that ratio over the rounds.
    """
    setup = []
    ratios = {op.name: [] for op in workload.ops}
    walls = 0.0
    peak = 0.0
    start = time.perf_counter()
    rounds = 0
    while True:
        for _ in range(SETUP_PER_ROUND):
            result = launch([sys.executable, "-c", "import ringlab.cli"], os.path.join(work, "setup"))
            if result.code:
                outcome.problems.append(
                    f"import ringlab.cli: exit {result.code}: {result.stderr.strip()[-300:]}"
                )
            setup.append(result.wall)
        before = reference()
        for i, op in enumerate(workload.ops):
            result = launch(ringlab(op.args), os.path.join(work, f"op{i}"))
            after = reference()
            ratio = result.wall / ((before + after) / 2)
            before = after
            status = outcome.judge(op, result)
            log(
                f"  {op.name:28s} {result.wall:8.3f} s {ratio:8.2f} ref"
                f"  {result.rss_mb:6.1f} MB  {status}"
            )
            ratios[op.name].append(ratio)
            walls += result.wall
            peak = max(peak, result.rss_mb)
        rounds += 1
        elapsed = time.perf_counter() - start
        if elapsed * (rounds + 1) / rounds > seconds:
            break
    log(f"rounds: {rounds}, {walls / rounds:.3f} s of command wall time per round")
    return {
        "setup_s": statistics.median(setup),
        "wall_ref": sum(statistics.median(v) for v in ratios.values()),
        "top_rung_ref": sum(statistics.median(ratios[name]) for name in workload.top),
        "peak_rss_mb": peak,
    }


def span_metrics(path, acc):
    """Add one spans file's calls, self and outermost total times to acc."""
    spans, counts = [], {}
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            value = json.loads(line)
            if isinstance(value, list):
                spans.append(value)
            else:
                counts = value["counts"]
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    for i, (name, start, end, parent) in enumerate(spans):
        acc[name + ".calls"] = acc.get(name + ".calls", 0) + 1
        acc[name + ".self_s"] = acc.get(name + ".self_s", 0.0) + (end - start - child[i])
        while parent >= 0 and spans[parent][0] != name:
            parent = spans[parent][3]
        if parent < 0:  # outermost span of its name
            acc[name + ".total_s"] = acc.get(name + ".total_s", 0.0) + (end - start)
    for key, value in counts.items():
        acc[key] = acc.get(key, 0) + value


def trace(workload, outcome, work):
    """Per-layer metrics from one round with probes, and the byte check."""
    acc = {}
    plain_wall = traced_wall = 0.0
    for i, op in enumerate(workload.ops):
        tag = os.path.join(work, f"op{i}")
        plain = launch(ringlab(op.args), tag)
        spans = launch(traced("spans", tag + ".spans", op.args), tag + "-spans")
        ops = launch(traced("ops", tag + ".ops", op.args), tag + "-ops")
        status = outcome.judge(op, plain)
        for label, other in (("spans", spans), ("ops", ops)):
            if (other.code, other.stdout) != (plain.code, plain.stdout):
                outcome.problems.append(f"{op.name}: stdout or exit code differs under {label}")
        log(f"  {op.name:28s} {plain.wall:8.3f} s  traced {spans.wall:8.3f} s  {status}")
        plain_wall += plain.wall
        traced_wall += spans.wall
        span_metrics(tag + ".spans", acc)
        span_metrics(tag + ".ops", acc)
    acc["trace.overhead_s"] = traced_wall - plain_wall
    log(f"tracing overhead: {traced_wall - plain_wall:.3f} s on {plain_wall:.3f} s")
    return {m: acc.get(m, 0) for m in PER_LAYER}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "ringlab", "cli.py")):
        log(f"no ringlab under {SRC}: run from the root of a ringlab checkout")
        return 2
    work = os.path.join(ROOT, ".ringbench", f"{args.workload}-{args.seed}-{args.trace}")
    shutil.rmtree(work, ignore_errors=True)
    workload = workloads.build(args.workload, args.seed, os.path.join(work, "inputs"))
    log(f"workload {args.workload}, seed {args.seed}, {len(workload.ops)} commands")
    outcome = Outcome()
    if args.trace:
        values = trace(workload, outcome, work)
        metrics = {m: {"value": v, "unit": unit_of(m)} for m, v in values.items()}
    else:
        values = measure(workload, outcome, work, args.seconds)
        metrics = {m: {"value": values[m], "unit": u} for m, u in END_TO_END.items()}
    for problem in outcome.problems:
        log(f"PROBLEM {problem}")
    correct = not outcome.problems
    if correct:
        shutil.rmtree(work, ignore_errors=True)
    for name, metric in metrics.items():
        print(f"{name} {metric['value']} {metric['unit']}")
    print(f"attempted {outcome.attempted}, failed {outcome.failed}, correct {correct}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
