"""Differential tests against sympy, an oracle that shares none of ringlab's
arithmetic: `rref` / `kernel_basis` over Q against `DomainMatrix`,
`smith_normal_form` against `sympy.matrices.normalforms`, `poly_factor`
over Q against `factor_list` and its squarefree decomposition against
`sqf_list`.

sympy is not a dependency of ringlab; without it these tests skip.
"""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

sympy = pytest.importorskip("sympy")
from sympy.matrices.normalforms import smith_normal_form as sympy_snf  # noqa: E402
from sympy.polys.matrices import DomainMatrix  # noqa: E402

from ringlab.domains import QQ, ZZ  # noqa: E402
from ringlab.linalg import Matrix, kernel_basis, rref, smith_normal_form  # noqa: E402
from ringlab.polynomials import Poly, poly_factor  # noqa: E402

SQQ, SZZ = sympy.QQ, sympy.ZZ
X = sympy.symbols("x")


def _to_sympy_q(rows, ncols):
    data = [[SQQ(int(Fraction(c).numerator), int(Fraction(c).denominator)) for c in r] for r in rows]
    return DomainMatrix(data, (len(rows), ncols), SQQ)


def _from_sympy_q(dm):
    return [[Fraction(int(c.numerator), int(c.denominator)) for c in r] for r in dm.to_list()]


def _random_q_matrix(rng, nrows, ncols):
    """Small rationals, mostly integral, with rank often below full: some
    rows are combinations of earlier ones."""
    rows = []
    for i in range(nrows):
        if i >= 2 and rng.random() < 0.3:
            a, b = rng.sample(range(i), 2)
            s, t = Fraction(rng.randint(-3, 3), rng.randint(1, 3)), rng.randint(-2, 2)
            rows.append([s * x + t * y for x, y in zip(rows[a], rows[b])])
        else:
            rows.append(
                [
                    Fraction(rng.randint(-5, 5), rng.choice((1, 1, 1, 2, 3, 7)))
                    if rng.random() < 0.7
                    else Fraction(0)
                    for _ in range(ncols)
                ]
            )
    return rows


def _q_matrices():
    rng = random.Random(20141)
    shapes = [(rng.randint(1, 7), rng.randint(1, 7)) for _ in range(40)]
    return [_random_q_matrix(rng, r, c) for r, c in shapes]


def _row_space_rref(rows, ncols):
    """Canonical basis of the span of rows, computed by sympy."""
    if not rows:
        return []
    reduced, pivots = _to_sympy_q(rows, ncols).rref()
    return _from_sympy_q(reduced)[: len(pivots)]


@pytest.mark.parametrize("rows", _q_matrices())
def test_rref_matches_domain_matrix(rows):
    ncols = len(rows[0])
    ours, pivots, rk = rref(Matrix.from_rows(QQ, rows))
    theirs, their_pivots = _to_sympy_q(rows, ncols).rref()
    assert rk == len(their_pivots)
    assert pivots == tuple(their_pivots)
    assert [list(ours.row(i)) for i in range(ours.rows)] == _from_sympy_q(theirs)


@pytest.mark.parametrize("rows", _q_matrices())
def test_kernel_basis_spans_the_domain_matrix_nullspace(rows):
    ncols = len(rows[0])
    ours = [list(vec) for vec in kernel_basis(QQ, rows, ncols)]
    theirs = _from_sympy_q(_to_sympy_q(rows, ncols).nullspace()) if ours else []
    assert len(ours) == ncols - _to_sympy_q(rows, ncols).rank()
    assert _row_space_rref(ours, ncols) == _row_space_rref(theirs, ncols)
    for vec in ours:
        assert all(sum(a * b for a, b in zip(r, vec)) == 0 for r in rows)


def _z_matrices():
    rng = random.Random(20142)
    out = []
    for _ in range(30):
        nrows, ncols = rng.randint(1, 5), rng.randint(1, 5)
        out.append([[rng.choice((0, 0, 1, -2, 3, 4, -6, 9, 12)) for _ in range(ncols)] for _ in range(nrows)])
    out.append([[2, 4, 4], [-6, 6, 12], [10, -4, -16]])
    out.append([[0, 0], [0, 0]])
    return out


def _invariants(diagonal):
    """Diagonal entries up to sign, nonzero ones in order, zeros last."""
    return sorted((abs(int(d)) for d in diagonal), key=lambda d: (d == 0, d))


@pytest.mark.parametrize("rows", _z_matrices())
def test_smith_normal_form_matches_sympy(rows):
    nrows, ncols = len(rows), len(rows[0])
    _, d, _ = smith_normal_form(Matrix.from_rows(ZZ, rows))
    ours = [d.get(i, i) for i in range(min(nrows, ncols))]
    theirs = sympy_snf(sympy.Matrix(rows), domain=SZZ)
    assert ours == _invariants(ours)
    assert ours == _invariants(theirs[i, i] for i in range(min(nrows, ncols)))


def _poly_from_sympy(expr):
    """Monic coefficient tuple (constant first) of a sympy polynomial in X."""
    coeffs = sympy.Poly(expr, X).monic().all_coeffs()[::-1]
    return tuple(Fraction(int(c.p), int(c.q)) for c in coeffs)


def _sympy_expr(coeffs):
    return sum(sympy.Rational(c.numerator, c.denominator) * X**i for i, c in enumerate(coeffs))


def _sympy_poly_mul(*polys):
    return sympy.expand(sympy.Mul(*(_sympy_expr(p) for p in polys)))


F = Fraction
# quartics that split into two rational quadratics with no rational root:
# the resolvent-cubic path, with and without a cubic term to shift away
SPLIT_QUARTICS = [
    [(F(1, 2), F(1), F(1)), (F(3), F(-1), F(1))],  # (x^2+x+1/2)(x^2-x+3)
    [(F(1, 3), F(3), F(1)), (F(2), F(-1), F(1))],  # (x^2+3x+1/3)(x^2-x+2)
    [(F(2), F(0), F(1)), (F(3), F(0), F(1))],  # biquadratic (x^2+2)(x^2+3)
    [(F(-2), F(0), F(1)), (F(5, 4), F(1), F(1))],  # (x^2-2)(x^2+x+5/4)
    [(F(7, 2), F(-1, 3), F(1)), (F(1), F(5), F(1))],
]
IRREDUCIBLE_QUARTICS = [
    (F(1), F(0), F(0), F(0), F(1)),  # x^4 + 1, reducible mod every prime
    (F(-10), F(0), F(1), F(0), F(1)),  # x^4 + x^2 - 10
    (F(1, 2), F(1), F(0), F(-1, 3), F(1)),
]


def _factor_cases():
    cases = [_sympy_poly_mul(*quads) for quads in SPLIT_QUARTICS]
    cases += [_sympy_expr(quartic) for quartic in IRREDUCIBLE_QUARTICS]
    # squares, linear factors and cubics around the quartic cases
    cases.append(_sympy_poly_mul(SPLIT_QUARTICS[0][0], SPLIT_QUARTICS[0][0], (F(-1), F(1))))
    cases.append(_sympy_poly_mul((F(2), F(0), F(0), F(1)), (F(1, 2), F(1))))
    rng = random.Random(20143)
    for _ in range(25):
        # monic quadratics and linears with small rational coefficients,
        # total degree at most 5 with at most 4 left after the linear roots
        parts = [
            (F(rng.randint(-6, 6), rng.randint(1, 3)), F(rng.randint(-4, 4), rng.randint(1, 2)), F(1))
            for _ in range(rng.randint(0, 2))
        ]
        parts += [(F(rng.randint(-5, 5), rng.randint(1, 4)), F(1)) for _ in range(rng.randint(1, 2))]
        cases.append(_sympy_poly_mul(*parts))
    return cases


def _assert_factor_list_agrees(expr):
    coeffs = _poly_from_sympy(expr)
    ours = poly_factor(Poly(QQ, coeffs))
    _, theirs = sympy.factor_list(expr, X)
    assert sorted((tuple(Fraction(c) for c in f.coeffs), m) for f, m in ours) == sorted(
        (_poly_from_sympy(f), m) for f, m in theirs
    )


@pytest.mark.parametrize("expr", _factor_cases(), ids=str)
def test_poly_factor_over_q_matches_factor_list(expr):
    _assert_factor_list_agrees(expr)


# a nonconstant rational polynomial, constant term first, often not monic
RATIONAL_POLYS = st.lists(
    st.fractions(min_value=-6, max_value=6, max_denominator=4), min_size=1, max_size=4
).flatmap(
    lambda low: st.fractions(min_value=1, max_value=4, max_denominator=3).map(
        lambda lead: tuple(low) + (lead,)
    )
)


@st.composite
def factor_lists(draw):
    """One to four rational polynomials, and up to two of them again, so the
    squarefree decomposition has work."""
    parts = draw(st.lists(RATIONAL_POLYS, min_size=1, max_size=4))
    return parts + draw(st.lists(st.sampled_from(parts), max_size=2))


@settings(max_examples=150, deadline=None)
@given(factor_lists())
# x^4 + 1 splits modulo every prime but not over Q
@example([(F(1), F(0), F(0), F(0), F(1))])
# each quadratic splits modulo many primes: recombination must pair the roots
@example([(F(-2), F(0), F(1)), (F(-3), F(0), F(1)), (F(-5), F(0), F(1))])
# the Swinnerton-Dyer polynomial of sqrt 2 + sqrt 3 + sqrt 5, irreducible over Q
# with only linear and quadratic factors modulo every prime
@example([tuple(F(c) for c in (576, 0, -960, 0, 352, 0, -40, 0, 1))])
def test_poly_factor_over_q_matches_factor_list_on_products(parts):
    _assert_factor_list_agrees(_sympy_poly_mul(*parts))


@settings(max_examples=150, deadline=None)
@given(factor_lists())
@example([(F(-1), F(1)), (F(-1), F(1)), (F(-1), F(1))])
@example([(F(1), F(0), F(1)), (F(1, 2), F(2)), (F(1), F(0), F(1)), (F(3), F(1, 3))])
def test_squarefree_decomposition_over_z_matches_sqf_list(parts):
    """Yun's algorithm on the primitive integer multiple gives sympy's
    squarefree parts; each part is primitive and their product is g."""
    from ringlab.polynomials import _integer_form, _squarefree_z

    expr = _sympy_poly_mul(*parts)
    g = _integer_form(Poly(QQ, _poly_from_sympy(expr)))
    ours = _squarefree_z(g)
    product = sympy.Integer(1)
    for h, m in ours:
        assert h[-1] > 0 and math.gcd(*h) == 1
        product *= sympy.Poly(h[::-1], X) ** m
    assert product == sympy.Poly(g[::-1], X)
    _, theirs = sympy.Poly(expr, X, domain=SQQ).sqf_list()
    assert sorted((Poly.from_ints(QQ, h).monic().coeffs, m) for h, m in ours) == sorted(
        (_poly_from_sympy(f.as_expr()), m) for f, m in theirs
    )


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from((2, 3, 5, 7)),
    st.lists(st.lists(st.integers(0, 6), min_size=2, max_size=4), min_size=1, max_size=4),
)
@example(2, [[1, 1], [1, 1], [1, 1, 1]])
@example(3, [[0, 0, 0, 1], [1, 0, 1]])
def test_poly_factor_over_gfp_matches_factor_list(p, parts):
    """Over GF(p), poly_factor gives sympy's monic factors and multiplicities,
    and a squarefree product factors the same without the squarefree pass."""
    from ringlab.domains import PrimeField
    from ringlab.polynomials import _factor_squarefree_gfp

    gf = PrimeField(p)
    f = Poly.from_ints(gf, [1])
    for ints in parts:
        f = f.mul(Poly.from_ints(gf, ints))
    if f.degree < 1:
        return
    ours = sorted((tuple(int(c) for c in h.coeffs), m) for h, m in poly_factor(f))
    _, theirs = sympy.Poly([int(c) for c in reversed(f.coeffs)], X, modulus=p).factor_list()
    monic = []
    for h, m in theirs:
        coeffs = [int(c) % p for c in reversed(h.all_coeffs())]
        inv = pow(coeffs[-1], -1, p)
        monic.append((tuple(c * inv % p for c in coeffs), m))
    assert ours == sorted(monic)
    if all(m == 1 for _, m in ours):
        assert sorted(h.coeffs for h in _factor_squarefree_gfp(f.monic())) == [h for h, _ in ours]
