import pytest
from hypothesis import given, settings, strategies as st

from ringlab.domains import PrimeField, QQ
from ringlab.errors import InvariantViolation, UnsupportedDomain, ValidationError
from ringlab.polynomials import Poly, gcd, is_irreducible, poly_factor, pow_mod


def qpoly(*ints):
    return Poly.from_ints(QQ, ints)


def expand(factors, domain):
    out = Poly.constant(domain, domain.one())
    for f, m in factors:
        for _ in range(m):
            out = out.mul(f)
    return out


def test_zero_polynomial_has_no_leading_coefficient():
    with pytest.raises(InvariantViolation, match="leading coefficient check"):
        Poly(QQ, ()).leading()


def test_inexact_division_is_an_invariant_violation():
    assert qpoly(-1, 0, 1).exact_div(qpoly(1, 1)).eq(qpoly(-1, 1))
    with pytest.raises(InvariantViolation, match="exact division check"):
        qpoly(1, 0, 1).exact_div(qpoly(1, 1))


def test_factor_x2_minus_1():
    f = qpoly(-1, 0, 1)
    factors = poly_factor(f)
    assert sorted((g.format(), m) for g, m in factors) == [
        ("-1 + x", 1),
        ("1 + x", 1),
    ]
    assert expand(factors, QQ).eq(f)


def test_factor_x2_plus_1_gf2():
    gf2 = PrimeField(2)
    f = Poly.from_ints(gf2, [1, 0, 1])
    factors = poly_factor(f)
    assert len(factors) == 1
    g, m = factors[0]
    assert m == 2 and g.coeffs == (1, 1)
    assert expand(factors, gf2).eq(f)


def test_factor_x_is_irreducible():
    factors = poly_factor(qpoly(0, 1))
    assert len(factors) == 1 and factors[0][1] == 1
    assert is_irreducible(qpoly(0, 1))


def test_factor_rejects_unsupported_domains():
    from ringlab.domains import ZZ

    with pytest.raises(UnsupportedDomain):
        poly_factor(Poly.from_ints(ZZ, [1, 1]))
    with pytest.raises(ValidationError):
        poly_factor(qpoly(3))


def test_quartic_resolvent_split():
    # x^4 + 4 = (x^2 + 2x + 2)(x^2 - 2x + 2)
    f = qpoly(4, 0, 0, 0, 1)
    factors = poly_factor(f)
    assert [g.degree for g, _ in factors] == [2, 2]
    assert expand(factors, QQ).eq(f)


def test_quartic_biquadratic_split():
    # x^4 - 5x^2 + 4 = (x-1)(x+1)(x-2)(x+2)
    f = qpoly(4, 0, -5, 0, 1)
    factors = poly_factor(f)
    assert [g.degree for g, _ in factors] == [1, 1, 1, 1]
    assert expand(factors, QQ).eq(f)


def test_quartic_irreducible():
    # x^4 + x + 1 is irreducible over Q (irreducible mod 2)
    assert is_irreducible(qpoly(1, 1, 0, 0, 1))


def test_minpoly_of_sqrt2_squared():
    # (t^2 - 2)^2 factors as t^2 - 2 with multiplicity 2
    f = qpoly(4, 0, -4, 0, 1)
    factors = poly_factor(f)
    assert len(factors) == 1
    g, m = factors[0]
    assert m == 2 and g.eq(qpoly(-2, 0, 1))


def test_degree5_certified_irreducible():
    # x^5 - x + 1 is irreducible (mod 3 it stays irreducible)
    assert is_irreducible(qpoly(1, -1, 0, 0, 0, 1))


def test_gf3_full_factorization():
    gf3 = PrimeField(3)
    # x^3 - x = x (x-1) (x+1) over GF(3)
    f = Poly.from_ints(gf3, [0, -1, 0, 1])
    factors = poly_factor(f)
    assert len(factors) == 3 and all(m == 1 for _, m in factors)
    assert expand(factors, gf3).eq(f.monic())


def gfp_irreducible_by_frobenius(f):
    """Independent stratification check: f of degree n over GF(p) is
    irreducible iff x^(p^n) = x mod f and gcd(x^(p^(n/q)) - x, f) = 1 for
    prime divisors q of n."""
    p = f.domain.p
    n = f.degree
    x = Poly.x(f.domain)
    if pow_mod(x, p**n, f).sub(x).mod(f).degree >= 0:
        return False
    for q in {d for d in range(2, n + 1) if n % d == 0 and is_prime(d)}:
        h = pow_mod(x, p ** (n // q), f).sub(x)
        if gcd(h, f).degree != 0:
            return False
    return True


def is_prime(n):
    return n > 1 and all(n % d for d in range(2, n))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2), st.integers(0, 2))
def test_gf3_factors_are_irreducible_by_frobenius(a, b, c, d):
    gf3 = PrimeField(3)
    f = Poly(gf3, (a, b, c, d, 1))
    for g, _ in poly_factor(f):
        if g.degree >= 1:
            assert gfp_irreducible_by_frobenius(g)
    assert expand(poly_factor(f), gf3).eq(f)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.integers(-3, 3), min_size=1, max_size=2),
    st.lists(st.integers(-3, 3), min_size=1, max_size=2),
)
def test_rational_products_refactor(c1, c2):
    f = Poly.from_ints(QQ, c1 + [1])
    g = Poly.from_ints(QQ, c2 + [1])
    prod = f.mul(g)
    factors = poly_factor(prod)
    assert expand(factors, QQ).eq(prod.monic())


def test_degree5_reducible_factors_into_its_two_factors():
    # (x^2+1)(x^3+x^2+1): squarefree, reducible, degree 5, no rational root
    f = qpoly(1, 0, 1).mul(qpoly(1, 0, 1, 1))
    assert [(g.coeffs, m) for g, m in poly_factor(f)] == [((1, 0, 1), 1), ((1, 0, 1, 1), 1)]
