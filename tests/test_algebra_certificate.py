"""`CommutativeAlgebra` multiplies and certifies its laws; here its product
and its verdict are checked against dense references.

The references are the dense bodies the algebra once had: a product that
runs `add_scaled` over every coordinate of every entry, and a law walk
that compares two nested dense products on every basis triple.  Inputs are
commutative algebras F[t]/(f) and products of two of them, with their
basis vectors permuted and scaled by units, over GF(2), GF(7), Q (ints
and `Fraction`s, some with denominator 1) and Q(sqrt 2).  Each is also
perturbed in one entry (which often breaks commutativity or the unit law)
or in one symmetric pair of entries off the unit's support (which can
break only associativity), so that every failure kind occurs; the verdict,
the message and the witness must agree.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ringlab.artinian import CommutativeAlgebra
from ringlab.domains import Extension, PrimeField, QQ
from ringlab.errors import ValidationError

SQRT2 = Extension(QQ, [-2, 0, 1])
FIELDS = {"GF(2)": PrimeField(2), "GF(7)": PrimeField(7), "Q": QQ, "Q(sqrt2)": SQRT2}


# -- dense references: the algebra's own product and law walk ------------------


def dense_mult(d, dim, tensor, x, y):
    acc = [d.zero()] * dim
    for i, xi in enumerate(x):
        if d.is_zero(xi):
            continue
        for j, yj in enumerate(y):
            if d.is_zero(yj):
                continue
            d.add_scaled(acc, d.mul(xi, yj), tensor[i][j], range(dim))
    return tuple(acc)


def dense_verdict(d, dim, tensor, unit):
    """The message the dense law walk raised on the normalised tensor and
    unit, or None when every law held."""
    z = d.zero()
    tensor = tuple(tuple(tuple(d.add(c, z) for c in e) for e in row) for row in tensor)
    unit = tuple(d.add(c, z) for c in unit)
    mult = lambda x, y: dense_mult(d, dim, tensor, x, y)
    for i in range(dim):
        for j in range(dim):
            if any(not d.eq(a, b) for a, b in zip(tensor[i][j], tensor[j][i])):
                return f"multiplication not commutative at ({i},{j})"
    basis = [tuple(d.one() if k == i else d.zero() for k in range(dim)) for i in range(dim)]
    for i in range(dim):
        if mult(unit, basis[i]) != basis[i]:
            return "unit law fails"
    for i in range(dim):
        for j in range(dim):
            for k in range(dim):
                left = mult(mult(basis[i], basis[j]), basis[k])
                right = mult(basis[i], mult(basis[j], basis[k]))
                if left != right:
                    return f"multiplication not associative at ({i},{j},{k})"
    return None


def verdict(d, dim, tensor, unit):
    """(message or None, the algebra or None) of building it."""
    try:
        return None, CommutativeAlgebra(d, dim, tensor, unit)
    except ValidationError as exc:
        return str(exc), None


# -- inputs ----------------------------------------------------------------------


def _values(d):
    """Field values, not always canonical: GF(p) ints outside 0..p-1, Q ints
    and Fractions (some Fraction(n, 1)), pairs of those over Q(sqrt 2)."""
    if isinstance(d, PrimeField):
        return st.integers(-d.p, 2 * d.p)
    q = st.one_of(
        st.integers(-4, 4),
        st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3)),
    )
    return q if d == QQ else st.tuples(q, q)


def quotient(d, f):
    """Structure constants and unit of F[t]/(f) on 1, t, ..., t^(n-1), for
    f = t^n + f[n-1] t^(n-1) + ... + f[0]."""
    n = len(f)

    def times_t(v):
        top = v[-1]
        return tuple(d.sub(v[k - 1] if k else d.zero(), d.mul(top, f[k])) for k in range(n))

    powers = [tuple(d.one() if k == 0 else d.zero() for k in range(n))]
    for _ in range(2 * n - 2):
        powers.append(times_t(powers[-1]))
    tensor = [[powers[i + j] for j in range(n)] for i in range(n)]
    return tensor, powers[0]


def product(d, a, b):
    """The direct product of two algebras (tensor, unit), block diagonal."""
    (ta, ua), (tb, ub) = a, b
    m, n = len(ta), len(tb)
    zero = (d.zero(),)
    tensor = [[zero * (m + n) for _ in range(m + n)] for _ in range(m + n)]
    for i in range(m):
        for j in range(m):
            tensor[i][j] = tuple(ta[i][j]) + zero * n
    for i in range(n):
        for j in range(n):
            tensor[m + i][m + j] = zero * m + tuple(tb[i][j])
    return tensor, tuple(ua) + tuple(ub)


def rebase(d, tensor, unit, perm, scales):
    """The same algebra on b'_i = scales[i] e_perm[i]."""
    n = len(tensor)

    def entry(i, j):
        c = d.mul(scales[i], scales[j])
        old = tensor[perm[i]][perm[j]]
        return tuple(d.div(d.mul(c, old[perm[s]]), scales[s]) for s in range(n))

    return (
        [[entry(i, j) for j in range(n)] for i in range(n)],
        tuple(d.div(unit[perm[s]], scales[s]) for s in range(n)),
    )


@st.composite
def algebras(draw, d):
    values = _values(d)
    factors = [
        quotient(d, [d.add(v, d.zero()) for v in draw(st.lists(values, min_size=1, max_size=3))])
        for _ in range(draw(st.integers(1, 2)))
    ]
    tensor, unit = factors[0] if len(factors) == 1 else product(d, *factors)
    n = len(tensor)
    perm = draw(st.permutations(range(n)))
    units = values.map(lambda v: d.add(v, d.zero())).filter(lambda v: not d.is_zero(v))
    tensor, unit = rebase(d, tensor, unit, perm, [draw(units) for _ in range(n)])
    tensor = [[list(e) for e in row] for row in tensor]
    # a symmetric pair off the unit's support keeps commutativity and the
    # unit law, so only associativity can break
    free = [i for i in range(n) if d.is_zero(unit[i])] or list(range(n))
    how = draw(st.sampled_from(("none", "entry", "symmetric")))
    if how != "none":
        index = st.integers(0, n - 1) if how == "entry" else st.sampled_from(free)
        i, j = draw(index), draw(index)
        t, v = draw(st.integers(0, n - 1)), draw(values)
        tensor[i][j][t] = v
        if how == "symmetric":
            tensor[j][i][t] = v
    return n, tuple(tuple(tuple(e) for e in row) for row in tensor), unit


def _vectors(d, n):
    return st.tuples(*[st.one_of(st.just(d.zero()), _values(d))] * n).map(
        lambda v: tuple(d.add(c, d.zero()) for c in v)
    )


# -- properties ----------------------------------------------------------------


@pytest.mark.parametrize("name", FIELDS)
def test_algebra_product_and_laws_match_dense_references(name):
    d = FIELDS[name]

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def check(data):
        n, tensor, unit = data.draw(algebras(d))
        message, a = verdict(d, n, tensor, unit)
        assert message == dense_verdict(d, n, tensor, unit)
        if a is None:
            return
        for _ in range(3):
            x, y = data.draw(_vectors(d, n)), data.draw(_vectors(d, n))
            assert repr(a.mult(x, y)) == repr(dense_mult(d, n, a.tensor, x, y))

    check()


def test_every_failure_kind_occurs():
    """One fixed algebra, Q[t]/(t^2 - 2t) x Q[t]/(t), broken each way the
    property's perturbations can break it."""
    tensor, unit = product(QQ, quotient(QQ, [0, -2]), quotient(QQ, [0]))
    n = len(tensor)

    def broken(*edits):
        t = [[list(e) for e in row] for row in tensor]
        for i, j, k, v in edits:
            t[i][j][k] = v
        return tuple(tuple(tuple(e) for e in row) for row in t)

    cases = {
        None: broken(),
        "multiplication not commutative at (0,2)": broken((0, 2, 2, Fraction(1, 2))),
        "unit law fails": broken((0, 1, 1, 3), (1, 0, 1, 3)),
        "multiplication not associative at (0,1,1)": broken((1, 1, 2, 1)),
    }
    for want, t in cases.items():
        assert verdict(QQ, n, t, unit)[0] == dense_verdict(QQ, n, t, unit) == want
