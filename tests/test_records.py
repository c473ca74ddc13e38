"""`ringlab.records` against `dataclasses` on the same class bodies.

Each record class below is built twice from one body: once by
`ringlab.records.record` and once by `dataclasses.dataclass`, the
reference.  Construction, `==`, `hash`, `repr`, frozen assignment and
`replace` must agree between the two.
"""

import ast
import dataclasses
from functools import cached_property
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import ringlab
from ringlab import records
from ringlab.bilinear import field_carrier
from ringlab.domains import QQ
from ringlab.rings import RingPresentation

VALUES = st.recursive(
    st.none() | st.integers() | st.text(max_size=3),
    lambda inner: st.tuples(inner, inner) | st.lists(inner, max_size=2),
    max_leaves=4,
)


def _point(decorate, field):
    @decorate
    class Point:
        x: int
        y: object
        label: str = "p"
        tags: list = field(default_factory=list, compare=False)
        note: str = field(default="", repr=False)
        cache: dict = field(init=False, repr=False, compare=False, default_factory=dict)

        def __post_init__(self):
            self.cache["posts"] = self.cache.get("posts", 0) + 1

        @cached_property
        def norm(self):
            return abs(self.x)

    return Point


def _single(decorate, field):
    @decorate
    class Single:
        only: object

    return Single


def _pairs(frozen):
    """(record class, dataclass) pairs of each body, frozen or not."""
    return [
        (
            make(records.record(frozen=frozen), records.field),
            make(dataclasses.dataclass(frozen=frozen), dataclasses.field),
        )
        for make in (_point, _single)
    ]


POINT, SINGLE = _pairs(True)
MUTABLE_POINT, _ = _pairs(False)


def _same(rec, ref):
    assert repr(rec) == repr(ref)
    assert list(vars(rec).items()) == list(vars(ref).items())


@pytest.mark.parametrize("rec_cls, ref_cls", [POINT, MUTABLE_POINT])
def test_construction_defaults_and_factories(rec_cls, ref_cls):
    for args, kwargs in (
        ((1, 2), {}),
        ((1,), {"y": (2, 3)}),
        ((), {"y": 2, "x": -1, "note": "n"}),
        ((1, 2, "q", [4], "n"), {}),
        ((1, 2), {"tags": [1], "label": "r"}),
    ):
        rec, ref = rec_cls(*args, **kwargs), ref_cls(*args, **kwargs)
        _same(rec, ref)
        assert rec.cache == {"posts": 1}
        assert rec.norm == ref.norm == abs(rec.x)
    # a factory runs once per instance
    assert rec_cls(1, 2).tags is not rec_cls(1, 2).tags
    assert rec_cls(1, 2).cache is not rec_cls(1, 2).cache


@pytest.mark.parametrize("rec_cls, ref_cls", [POINT, MUTABLE_POINT, SINGLE])
def test_bad_arguments_raise_type_error(rec_cls, ref_cls):
    calls = [((), {}), ((1, 2, 3, 4, 5, 6), {}), ((1,), {"x": 1}), ((1, 2), {"nope": 0})]
    calls.append(((1, 2), {"cache": {}}))
    for args, kwargs in calls:
        with pytest.raises(TypeError):
            ref_cls(*args, **kwargs)
        with pytest.raises(TypeError):
            rec_cls(*args, **kwargs)


@given(VALUES, VALUES, VALUES, VALUES)
def test_equality_and_hash_match_dataclasses(a, b, c, d):
    for (rec_cls, ref_cls), mutable in ((POINT, False), (MUTABLE_POINT, True)):
        recs = [rec_cls(a, b, tags=[c]), rec_cls(a, b, tags=[d]), rec_cls(c, d)]
        refs = [ref_cls(a, b, tags=[c]), ref_cls(a, b, tags=[d]), ref_cls(c, d)]
        for i in range(3):
            _same(recs[i], refs[i])
            for j in range(3):
                assert (recs[i] == recs[j]) == (refs[i] == refs[j])
                assert (recs[i] != recs[j]) == (refs[i] != refs[j])
            # another class, even one with the same fields, is never equal
            assert recs[i] != refs[i]
            assert recs[i].__eq__(refs[i]) is NotImplemented
            assert recs[i] != (recs[i].x, recs[i].y, recs[i].label, recs[i].note)
        if mutable:
            with pytest.raises(TypeError):
                hash(recs[0])
            continue
        for rec, ref in zip(recs, refs):
            try:
                expected = hash(ref)
            except TypeError:  # a list among the values
                with pytest.raises(TypeError):
                    hash(rec)
                continue
            assert hash(rec) == expected
    for value in (a, (a, b)):
        rec, ref = SINGLE[0](value), SINGLE[1](value)
        _same(rec, ref)
        assert rec == SINGLE[0](value)
        try:
            expected = hash(ref)
        except TypeError:
            continue
        assert hash(rec) == expected


def test_frozen_records_refuse_assignment_and_deletion():
    rec_cls, ref_cls = POINT
    rec, ref = rec_cls(1, 2), ref_cls(1, 2)
    for target in (rec, ref):
        for name in ("x", "norm", "fresh"):
            with pytest.raises(AttributeError) as caught:
                setattr(target, name, 3)
            message = str(caught.value)
            with pytest.raises(AttributeError):
                delattr(target, name)
        assert message == "cannot assign to field 'fresh'"
    with pytest.raises(records.FrozenInstanceError):
        rec.x = 5
    assert rec.x == 1
    mutable = MUTABLE_POINT[0](1, 2)
    mutable.x = 5
    assert mutable == MUTABLE_POINT[0](5, 2)


def test_replace_matches_dataclasses():
    rec_cls, ref_cls = POINT
    rec, ref = rec_cls(1, 2, tags=[7], note="n"), ref_cls(1, 2, tags=[7], note="n")
    for changes in ({}, {"x": 9}, {"y": (1,), "label": "z", "tags": []}):
        new_rec = records.replace(rec, **changes)
        new_ref = dataclasses.replace(ref, **changes)
        _same(new_rec, new_ref)
        assert new_rec is not rec
        # __post_init__ ran on the new record, whose non-init field is fresh
        assert new_rec.cache == {"posts": 1}
    assert records.replace(rec).tags is rec.tags
    with pytest.raises(TypeError):
        records.replace(rec, cache={})
    assert rec == rec_cls(1, 2, tags=[7], note="n")


def test_post_init_is_looked_up_at_construction(monkeypatch):
    rec_cls = _point(records.record, records.field)
    seen = []
    real = rec_cls.__post_init__

    def wrapper(self):
        seen.append(self.x)
        real(self)

    rec_cls.__post_init__ = wrapper
    assert rec_cls(4, 0).cache == {"posts": 1}
    assert seen == [4]

    # the way ringbench's span probe wraps the ring certificate after import
    calls = []
    certify = RingPresentation.__post_init__

    def counted(self):
        calls.append(self)
        certify(self)

    monkeypatch.setattr(RingPresentation, "__post_init__", counted)
    ring = RingPresentation(field_carrier(QQ, 1), (((1,),),))
    assert calls == [ring]
    assert ring.associative and ring.commutative and not ring.lie
    # the flags are computed when read, not fields: nothing can set them
    with pytest.raises(TypeError):
        records.replace(ring, lie=True)
    assert not records.replace(ring).lie
    assert len(calls) == 2


def test_no_ringlab_module_uses_dataclasses_inspect_or_code_generation():
    for path in sorted(Path(ringlab.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = {alias.name.split(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom):
                names = {(node.module or "").split(".")[0]} if node.level == 0 else set()
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                assert node.func.id not in ("exec", "eval", "compile"), (path.name, node.lineno)
                continue
            else:
                continue
            assert not names & {"dataclasses", "inspect"}, (path.name, node.lineno)
