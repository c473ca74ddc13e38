"""`bilinear.Subspace` against the helpers it replaced.

The references are the old bodies, written out here: echelon rows from one
rref of the nonzero vectors, coordinates from `linalg.solve` on the basis
as columns, the complement from the pivots of a second rref, the
intersection from the kernel of [A | -B], and the greedy extension that
re-echelons the span twice per candidate.  Vectors are drawn over GF(2),
GF(3), GF(7) and Q (ints and Fractions), most of them combinations of a few
generators so that dependent families are common.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ringlab.bilinear import Subspace
from ringlab.domains import PrimeField, QQ
from ringlab.errors import ValidationError
from ringlab.linalg import Matrix, kernel_basis, rref, solve

DOMAINS = (PrimeField(2), PrimeField(3), PrimeField(7), QQ)


# -- the replaced bodies -----------------------------------------------------------


def old_span_rows(d, vectors):
    vectors = [tuple(v) for v in vectors if not all(d.is_zero(x) for x in v)]
    if not vectors:
        return []
    reduced, _, rank = rref(Matrix.from_rows(d, vectors))
    return [reduced.row(i) for i in range(rank)]


def old_coords(d, rows, vec):
    if not rows:
        return () if all(d.is_zero(x) for x in vec) else None
    res = solve(Matrix.from_cols(d, rows), tuple(vec))
    return None if res is None else res[0]


def old_complement(d, span_rows, width):
    pivots = set(rref(Matrix.from_rows(d, span_rows))[1]) if span_rows else set()
    return [
        tuple(d.one() if k == i else d.zero() for k in range(width))
        for i in range(width)
        if i not in pivots
    ]


def old_intersection(d, rows_a, rows_b, width):
    if not rows_a or not rows_b:
        return []
    cols = [tuple(r) for r in rows_a] + [tuple(d.neg(c) for c in r) for r in rows_b]
    vectors = []
    for vec in kernel_basis(d, list(zip(*cols)), len(cols)):
        coeffs = vec[: len(rows_a)]
        vectors.append(_combine(d, coeffs, rows_a, width))
    return old_span_rows(d, vectors)


def old_greedy(d, start, candidates):
    rows, picked = list(start), []
    for k, c in enumerate(candidates):
        if len(old_span_rows(d, rows + [c])) > len(old_span_rows(d, rows)):
            rows.append(c)
            picked.append(k)
    return picked


# -- strategies ----------------------------------------------------------------------


def _combine(d, coeffs, vectors, width):
    acc = [d.zero()] * width
    for c, v in zip(coeffs, vectors):
        acc = [d.add(a, d.mul(c, x)) for a, x in zip(acc, v)]
    return tuple(acc)


def _q(n, den):
    c = Fraction(n, den)
    return c.numerator if c.denominator == 1 else c


def _values(d):
    if isinstance(d, PrimeField):
        return st.integers(0, d.p - 1)
    return st.builds(_q, st.integers(-3, 3), st.integers(1, 3))


@st.composite
def families(draw, width, d, max_size=5):
    """Vectors in d^width, most of them combinations of up to 3 generators."""
    vector = st.lists(_values(d), min_size=width, max_size=width).map(tuple)
    gens = draw(st.lists(vector, min_size=1, max_size=3))
    out = []
    for _ in range(draw(st.integers(0, max_size))):
        if draw(st.booleans()):
            out.append(draw(vector))
        else:
            coeffs = draw(st.lists(_values(d), min_size=len(gens), max_size=len(gens)))
            out.append(_combine(d, coeffs, gens, width))
    return out


@st.composite
def cases(draw):
    d = draw(st.sampled_from(DOMAINS))
    width = draw(st.integers(0, 5))
    return d, width, draw(families(width, d)), draw(families(width, d))


# -- properties ----------------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(cases())
def test_rows_pivots_and_complement_match_the_old_helpers(case):
    d, width, vectors, _ = case
    space = Subspace.span(d, vectors, width)
    rows = old_span_rows(d, vectors)
    assert list(space.rows) == rows
    assert repr(list(space.rows)) == repr(rows)
    assert list(space.pivots) == [
        next(t for t, x in enumerate(r) if not d.is_zero(x)) for r in rows
    ]
    assert space.complement() == old_complement(d, rows, width)
    assert space.independent == (len(rows) == len(vectors))


@settings(max_examples=200, deadline=None)
@given(cases(), st.data())
def test_coords_and_contains_match_solve_in_a_non_echelon_basis(case, data):
    d, width, vectors, probes = case
    basis = [vectors[k] for k in old_greedy(d, [], vectors)]  # independent, input order
    space = Subspace.span(d, basis, width)
    coeffs = data.draw(st.lists(_values(d), min_size=len(basis), max_size=len(basis)))
    inside = _combine(d, coeffs, basis, width)
    assert space.coords(inside) == tuple(coeffs)
    for v in [inside] + probes:
        expected = old_coords(d, basis, v)
        assert repr(space.coords(v)) == repr(expected)
        assert space.contains(v) == (expected is not None)


@settings(max_examples=200, deadline=None)
@given(cases())
def test_intersect_and_extend_match_the_old_helpers(case):
    d, width, a, b = case
    left, right = Subspace.span(d, a, width), Subspace.span(d, b, width)
    expected = old_intersection(d, old_span_rows(d, a), old_span_rows(d, b), width)
    assert list(left.intersect(right).rows) == expected
    assert list(right.intersect(left).rows) == expected
    assert left.extend(b) == old_greedy(d, old_span_rows(d, a), b)
    assert Subspace.span(d, (), width).extend(a) == old_greedy(d, [], a)


def test_coords_need_an_independent_basis():
    space = Subspace.span(QQ, [(1, 0), (2, 0)], 2)
    assert space.contains((3, 0)) and not space.contains((0, 1))
    with pytest.raises(ValidationError, match="independent basis"):
        space.coords((3, 0))


def test_an_empty_span_holds_only_zero():
    space = Subspace.span(PrimeField(3), (), 3)
    assert space.coords((0, 0, 0)) == ()
    assert space.coords((0, 1, 0)) is None
    assert space.complement() == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    assert space.extend([(0, 0, 0), (1, 1, 0), (2, 2, 0), (0, 0, 1)]) == [1, 3]
