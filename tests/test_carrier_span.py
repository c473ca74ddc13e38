"""`Carrier.span` against the span dispatch it replaced.

The references are the old bodies, written out here: `rings._span_canonical`,
`_membership` and `_intersection` (which had no mixed branch), and the
`torsion_split` recursions of `bilinear.image_submodule` and `is_full`.
Carriers are GF(2)^k, GF(3)^k, Q^k, f.g. Z-modules of Z, Z/2 and Z/3 lines,
and mixed sums of Q, Z/2 and Z/3 lines; generator lists may be empty or hold
zero vectors, and most probes are combinations of the generators.  On a
mixed carrier, where the old intersection raised, the new one is checked
against the old bodies run on each block.
"""

from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings, strategies as st

from ringlab.bilinear import (
    FIELD,
    INTEGER,
    BilinearMap,
    Subspace,
    field_carrier,
    image_submodule,
    is_full,
    module_carrier,
    torsion_split,
)
from ringlab.domains import PrimeField, QQ
from ringlab.errors import NotOmegaStableShape, UnsupportedDomain
from ringlab.modules import (
    Lattice,
    ModuleDesc,
    cyclic,
    divisible_bounded_split,
    free_line,
    project_coords,
    rational_line,
    reassemble_coords,
)

Q, Z, Z2, Z3 = rational_line(), free_line(), cyclic(2), cyclic(3)


# -- the replaced bodies -----------------------------------------------------------


def old_span_canonical(carrier, vectors):
    if carrier.kind == FIELD:
        return list(Subspace.span(carrier.domain, vectors, carrier.dim).rows)
    if carrier.kind == INTEGER:
        return list(Lattice.span(carrier.desc, vectors).rows)
    # mixed: canonicalize blockwise
    desc = carrier.desc
    m_d, m_b, (d_idx, b_idx) = divisible_bounded_split(desc)
    d_rows = Subspace.span(QQ, [project_coords(v, d_idx) for v in vectors], len(d_idx)).rows
    b_rows = Lattice.span(m_b, [project_coords(v, b_idx) for v in vectors]).rows
    return [reassemble_coords(desc, [(d_idx, row)]) for row in d_rows] + [
        reassemble_coords(desc, [(b_idx, row)]) for row in b_rows
    ]


def old_membership(carrier, gens):
    if carrier.kind == FIELD:
        return Subspace.span(carrier.domain, gens, carrier.dim).contains
    if carrier.kind == INTEGER:
        return Lattice.span(carrier.desc, gens).contains
    m_d, m_b, (d_idx, b_idx) = divisible_bounded_split(carrier.desc)
    d_span = Subspace.span(QQ, [project_coords(g, d_idx) for g in gens], len(d_idx))
    b_span = Lattice.span(m_b, [project_coords(g, b_idx) for g in gens])
    return lambda x: d_span.contains(project_coords(x, d_idx)) and b_span.contains(
        project_coords(x, b_idx)
    )


def old_intersection(carrier, gens_a, gens_b):
    if carrier.kind == FIELD:
        d, dim = carrier.domain, carrier.dim
        return list(Subspace.span(d, gens_a, dim).intersect(Subspace.span(d, gens_b, dim)).rows)
    if carrier.kind == INTEGER:
        desc = carrier.desc
        return list(Lattice.span(desc, gens_a).intersect(Lattice.span(desc, gens_b)).rows)
    raise UnsupportedDomain("intersection over mixed carriers: split the torsion first")


def old_image_submodule(f):
    entries = [entry for _, entry in f.entries()]
    if f.n.kind == FIELD:
        return list(Subspace.span(f.n.domain, entries, f.n.dim).rows)
    if f.n.kind == INTEGER:
        return list(Lattice.span(f.n.desc, entries).rows)
    f_d, f_c, (d_idx, b_idx) = torsion_split(f)
    return [
        reassemble_coords(f.n.desc, [(idx[1], gen)])
        for idx, part in ((d_idx, f_d), (b_idx, f_c))
        for gen in old_image_submodule(part)
    ]


def old_is_full(f):
    gens = old_image_submodule(f)
    if f.n.kind == FIELD:
        return len(gens) == f.n.dim
    if f.n.kind == INTEGER:
        return Lattice.span(f.n.desc, gens).quotient_invariants() == ()
    f_d, f_c, _ = torsion_split(f)
    return old_is_full(f_d) and old_is_full(f_c)


# -- strategies ----------------------------------------------------------------------


def _rational(n, d):
    c = Fraction(n, d)
    return c.numerator if c.denominator == 1 else c


def mixed_descs(max_size=3):
    """Q, Z/2 and Z/3 lines, at least one divisible and one bounded."""
    return (
        st.lists(st.sampled_from((Q, Z2, Z3)), min_size=2, max_size=max_size)
        .filter(lambda lines: Q in lines and lines.count(Q) < len(lines))
        .map(lambda lines: ModuleDesc(tuple(lines)))
    )


def carriers():
    fields = st.tuples(
        st.sampled_from((PrimeField(2), PrimeField(3), QQ)), st.integers(1, 3)
    ).map(lambda t: field_carrier(*t))
    integral = st.lists(st.sampled_from((Z, Z2, Z3)), min_size=1, max_size=3)
    return st.one_of(
        fields,
        integral.map(lambda lines: module_carrier(ModuleDesc(tuple(lines)))),
        mixed_descs().map(module_carrier),
    )


def vectors(carrier):
    if carrier.kind == FIELD:
        d = carrier.domain
        coord = (
            st.builds(_rational, st.integers(-4, 4), st.sampled_from((1, 1, 2, 3)))
            if d == QQ
            else st.integers(0, d.p - 1)
        )
        return st.lists(coord, min_size=carrier.dim, max_size=carrier.dim).map(tuple)
    lines = [
        st.builds(Fraction, st.integers(-4, 4), st.sampled_from((1, 2, 3)))
        if s == Q
        else st.integers(-6, 6)
        for s in carrier.desc.summands
    ]
    return st.tuples(*lines).map(carrier.reduce)


def _scale(carrier, c, v):
    if carrier.kind == FIELD:
        d = carrier.domain
        return tuple(d.mul(d.from_int(c), x) for x in v)
    return carrier.desc.scale_int(c, v)


def _combine(carrier, coeffs, vecs):
    acc = carrier.zero()
    for c, v in zip(coeffs, vecs):
        acc = carrier.add(acc, _scale(carrier, c, v))
    return acc


@st.composite
def families(draw, carrier, max_size=4):
    """Up to max_size vectors, most of them combinations of two or three."""
    vector = vectors(carrier)
    base = draw(st.lists(vector, min_size=1, max_size=3))
    out = []
    for _ in range(draw(st.integers(0, max_size))):
        kind = draw(st.sampled_from(("free", "combo", "combo", "zero")))
        if kind == "free":
            out.append(draw(vector))
        elif kind == "zero":
            out.append(carrier.zero())
        else:
            coeffs = draw(st.lists(st.integers(-3, 3), min_size=len(base), max_size=len(base)))
            out.append(_combine(carrier, coeffs, base))
    return out


@st.composite
def cases(draw):
    c = draw(carriers())
    return c, draw(families(c)), draw(families(c)), draw(families(c))


def _entry(draw, m, i, j, n):
    """A coordinate list for f(b_i, b_j) that Z-bilinearity allows: a
    divisible index asks for divisible support, a torsion index kills it."""
    si, sj = m.summands[i], m.summands[j]
    orders = [s.modulus for s in (si, sj) if s.modulus]
    divisible = Q in (si, sj)
    out = []
    for line in n.summands:
        if line.modulus and not divisible:
            step = lcm(*(line.modulus // gcd(line.modulus, q) for q in orders))
            out.append(step * draw(st.integers(0, line.modulus - 1)))
        elif orders or (divisible and line != Q):
            out.append(0)
        elif line == Q:
            out.append(Fraction(draw(st.integers(-3, 3)), draw(st.sampled_from((1, 2)))))
        else:
            out.append(draw(st.integers(-3, 3)))
    return n.reduce(out)


@st.composite
def bilinear_maps(draw, m_descs=None, n_descs=None):
    """f: M x M -> N over GF(2), GF(3) or Q, or between formal sums of Q, Z,
    Z/2 and Z/3 lines (M from m_descs and N from n_descs when given)."""
    lines = st.lists(st.sampled_from((Q, Z, Z2, Z3)), min_size=1, max_size=3).map(ModuleDesc)
    if m_descs is None and draw(st.integers(0, 3)) == 0:
        d = draw(st.sampled_from((PrimeField(2), PrimeField(3), QQ)))
        dm, dn = draw(st.integers(1, 3)), draw(st.integers(1, 3))
        coord = st.integers(0, d.p - 1) if d != QQ else st.integers(-3, 3)
        entry = st.lists(coord, min_size=dn, max_size=dn).map(tuple)
        tensor = draw(st.lists(st.lists(entry, min_size=dm, max_size=dm), min_size=dm, max_size=dm))
        return BilinearMap(field_carrier(d, dm), field_carrier(d, dn), tensor)
    m = draw(m_descs if m_descs is not None else lines)
    n = draw(n_descs if n_descs is not None else st.one_of(mixed_descs(), lines))
    tensor = tuple(
        tuple(_entry(draw, m, i, j, n) for j in range(m.dim)) for i in range(m.dim)
    )
    return BilinearMap(module_carrier(m), module_carrier(n), tensor)


def _outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except (NotOmegaStableShape, UnsupportedDomain) as exc:
        return type(exc).__name__, str(exc)


# -- properties ----------------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(cases(), st.data())
def test_rows_and_contains_match_the_old_helpers(case, data):
    c, gens, probes, _ = case
    span = c.span(gens)
    assert list(span.rows) == old_span_canonical(c, gens)
    coeffs = data.draw(st.lists(st.integers(-4, 4), min_size=len(gens), max_size=len(gens)))
    inside = _combine(c, coeffs, gens)
    assert span.contains(inside)
    member = old_membership(c, gens)
    for x in [inside] + probes:
        assert span.contains(x) == member(x)


@settings(max_examples=200, deadline=None)
@given(cases())
def test_intersect_matches_the_old_helper_and_mixed_is_blockwise(case):
    c, a, b, probes = case
    left, right = c.span(a), c.span(b)
    got = list(left.intersect(right).rows)
    if c.kind != "mixed":
        assert got == old_intersection(c, a, b)
        assert list(right.intersect(left).rows) == old_intersection(c, b, a)
        return
    with pytest.raises(UnsupportedDomain):
        old_intersection(c, a, b)
    desc = c.desc
    m_d, m_b, indices = divisible_bounded_split(desc)
    blocks = []
    for idx, part in zip(indices, (m_d, m_b)):
        meet = old_intersection(
            module_carrier(part),
            [project_coords(v, idx) for v in a],
            [project_coords(v, idx) for v in b],
        )
        blocks += [reassemble_coords(desc, [(idx, row)]) for row in meet]
    assert got == blocks
    both = c.span(got)
    for x in got + a + b + probes:
        assert both.contains(x) == (left.contains(x) and right.contains(x))


@settings(max_examples=300, deadline=None)
@given(bilinear_maps())
def test_image_and_fullness_match_the_torsion_split_recursion(f):
    assert _outcome(image_submodule, f) == _outcome(old_image_submodule, f)
    assert _outcome(is_full, f) == _outcome(old_is_full, f)


@settings(max_examples=100, deadline=None)
@given(
    bilinear_maps(
        m_descs=st.lists(st.sampled_from((Z, Z2, Z3)), max_size=2)
        .flatmap(lambda lines: st.permutations(lines + [Z]))
        .map(lambda lines: ModuleDesc(tuple(lines))),
        n_descs=mixed_descs(),
    )
)
def test_a_free_line_into_a_mixed_codomain_is_refused_as_before(f):
    for new, old in ((image_submodule, old_image_submodule), (is_full, old_is_full)):
        with pytest.raises(NotOmegaStableShape) as got:
            new(f)
        with pytest.raises(NotOmegaStableShape) as want:
            old(f)
        assert str(got.value) == str(want.value)


def test_free_line_image_is_not_blockwise():
    """M = Z, N = Q + Z/2, f(m0, m0) = (1, 1): the image {(n, n mod 2)} is
    not a blockwise span, so it is refused rather than spanned."""
    n = ModuleDesc((Q, Z2))
    f = BilinearMap(module_carrier(ModuleDesc((Z,))), module_carrier(n), (((1, 1),),))
    with pytest.raises(NotOmegaStableShape, match=r"free integer line at position\(s\) \[0\]"):
        image_submodule(f)
    assert module_carrier(n).span([(1, 1)]).rows == ((1, 0), (0, 1))
