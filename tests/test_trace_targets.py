"""Every name that `ringbench/trace.py` wraps still exists in ringlab.

`ringbench/run.py --trace 1` instruments ringlab by name; a rename inside
`src/` would only show there, as a failed benchmark round.  This test loads
the trace module from its file (read only, nothing is installed) and
resolves each target the way its probes do.
"""

import importlib.util
import os

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
