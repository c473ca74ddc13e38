"""Every name that `ringbench/trace.py` wraps still exists in ringlab.

`ringbench/run.py --trace 1` instruments ringlab by name; a rename inside
`src/` would only show there, as a failed benchmark round.  This test loads
the trace module from its file (read only, nothing is installed) and
resolves each target the way its probes do: here, where earlier tests have
run most of ringlab already, and in a fresh interpreter, where only the
imports of `trace._modules()` have run.
"""

import importlib.util
import os
import subprocess
import sys

import pytest

TRACE = os.path.join(os.path.dirname(__file__), os.pardir, "ringbench", "trace.py")


def _trace_module():
    spec = importlib.util.spec_from_file_location("_ringbench_trace", TRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


trace = _trace_module()


@pytest.mark.parametrize(
    "label, module, attr", trace.SPANS, ids=[f"{label}:{attr}" for label, _, attr in trace.SPANS]
)
def test_span_target_resolves(label, module, attr):
    modules = trace._modules()
    assert module in modules, f"{label}: no module ringlab.{module}"
    owner, name = trace._target(modules, module, attr)
    assert callable(getattr(owner, name, None)), f"{label}: no ringlab.{module}.{attr}"


def test_stage_and_domain_targets_resolve():
    modules = trace._modules()
    assert callable(modules["reports"]._stage)
    for cls_name in trace.DOMAINS:
        cls = getattr(modules["domains"], cls_name)
        for op in trace.DOMAIN_OPS:
            assert callable(getattr(cls, op)), f"domains.{cls_name}.{op}"


def test_bch_word_count_target_resolves():
    """`lie.bch.words` reads `len(lie._dynkin_terms(c))`, outside SPANS."""
    terms = trace._modules()["lie"]._dynkin_terms
    assert callable(terms)
    assert len(terms(3)) > 0


def test_targets_resolve_in_a_fresh_interpreter():
    import ringlab

    script = f"""
import importlib.util
spec = importlib.util.spec_from_file_location("_ringbench_trace", {TRACE!r})
trace = importlib.util.module_from_spec(spec)
spec.loader.exec_module(trace)
modules = trace._modules()
for label, module, attr in trace.SPANS:
    owner, name = trace._target(modules, module, attr)
    assert callable(getattr(owner, name, None)), label
assert callable(modules["reports"]._stage)
for cls_name in trace.DOMAINS:
    cls = getattr(modules["domains"], cls_name)
    for op in trace.DOMAIN_OPS:
        assert callable(getattr(cls, op)), (cls_name, op)
assert len(modules["lie"]._dynkin_terms(3)) > 0
"""
    package_root = os.path.dirname(os.path.dirname(os.path.abspath(ringlab.__file__)))
    path = os.pathsep.join(p for p in (package_root, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert proc.returncode == 0, proc.stderr.decode("utf-8", "replace")
