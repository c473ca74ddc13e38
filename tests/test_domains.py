from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from ringlab.domains import Extension, PrimeField, QQ, Residues, ZZ, poly_divmod
from ringlab.errors import InvariantViolation, NonFieldDomain, NotInvertible, ValidationError
from ringlab.polynomials import Poly, poly_factor


def test_rational_parse_exact():
    assert QQ.parse("3/4") == Fraction(3, 4)
    assert QQ.parse(-2) == Fraction(-2)
    with pytest.raises(ValidationError):
        QQ.parse(0.5)


def _parse_by_fraction(text):
    """`Rationals.parse` on a string before ASCII integers skipped Fraction."""
    try:
        c = Fraction(text.strip())
    except (ValueError, ZeroDivisionError):
        raise ValidationError(f"not a rational literal: {text!r}") from None
    return c.numerator if c.denominator == 1 else c


@pytest.mark.parametrize(
    "text",
    ["٣", "1_0", "1e3", " 3 ", "+3", "-0", "--3", "", "-", "0003", " -12/8 ", "-12", "7/0",
     "3.", "²", " \t42\n"],
)
def test_rational_parse_of_strings_matches_the_fraction_reader(text):
    try:
        expected = _parse_by_fraction(text)
    except ValidationError as exc:
        with pytest.raises(ValidationError) as caught:
            QQ.parse(text)
        assert str(caught.value) == str(exc)
    else:
        got = QQ.parse(text)
        assert got == expected and type(got) is type(expected)


def test_prime_field_arithmetic():
    gf5 = PrimeField(5)
    assert gf5.add(3, 4) == 2
    assert gf5.mul(3, 4) == 2
    assert gf5.inv(3) == 2  # 3*2 = 6 = 1 mod 5
    assert gf5.parse("7 mod 5") == 2
    with pytest.raises(ValidationError):
        PrimeField(6)


def test_residues_have_no_division():
    z6 = Residues(6)
    assert z6.mul(4, 5) == 2
    with pytest.raises(NonFieldDomain):
        z6.inv(5)


def test_integers_not_field():
    assert not ZZ.is_field
    with pytest.raises(NonFieldDomain):
        ZZ.inv(2)


def test_extension_sqrt2():
    k = Extension(QQ, [Fraction(-2), Fraction(0), Fraction(1)])  # t^2 - 2
    t = k.generator()
    assert k.mul(t, t) == k.from_int(2)
    inv_t = k.inv(t)  # 1/sqrt(2) = sqrt(2)/2
    assert k.mul(t, inv_t) == k.one()
    assert inv_t == k.parse(["0", "1/2"])


def test_extension_rejects_reducible_minpoly():
    with pytest.raises(ValidationError):
        Extension(QQ, [Fraction(-1), Fraction(0), Fraction(1)])  # t^2 - 1


def test_extension_text_prints_a_unit_coefficient_bare():
    k = Extension(PrimeField(7), [2, 0, 0, 1])  # -2 is not a cube mod 7
    assert k.format_text((1, 1, 1)) == "1 + t + t^2"
    assert k.format_text((0, 6, 2)) == "6*t + 2*t^2"


def test_extension_over_gf2():
    gf2 = PrimeField(2)
    k = Extension(gf2, [1, 1, 1])  # t^2 + t + 1, GF(4)
    t = k.generator()
    t2 = k.mul(t, t)
    assert t2 == k.add(t, k.one())  # t^2 = t + 1
    assert k.mul(t, t2) == k.one()  # t^3 = 1


@given(st.fractions(), st.fractions(), st.fractions())
def test_rational_field_axioms(a, b, c):
    assert QQ.add(a, QQ.add(b, c)) == QQ.add(QQ.add(a, b), c)
    assert QQ.mul(a, QQ.add(b, c)) == QQ.add(QQ.mul(a, b), QQ.mul(a, c))


@given(st.integers(0, 4), st.integers(0, 4))
def test_gf5_inverse_roundtrip(a, b):
    gf5 = PrimeField(5)
    if a % 5:
        assert gf5.mul(a, gf5.inv(a)) == 1
    assert gf5.sub(a, b) == (a - b) % 5


def _check_rational(value, expected):
    """value equals the Fraction result, and is an int exactly when integral."""
    expected = Fraction(expected)
    assert value == expected
    assert not isinstance(value, float)
    assert isinstance(value, int) == (expected.denominator == 1)


# ints and Fractions, as the domain holds them and as callers may pass them
rationals = st.one_of(st.integers(-50, 50), st.fractions(max_denominator=12))


@given(rationals, rationals, st.integers(-10**20, 10**20))
def test_rational_results_are_int_exactly_when_integral(a, b, n):
    fa, fb = Fraction(a), Fraction(b)
    _check_rational(QQ.from_int(n), n)
    _check_rational(QQ.parse(n), n)
    _check_rational(QQ.parse(str(fa)), fa)
    _check_rational(QQ.parse(f"{fa.numerator * 3}/{fa.denominator * 3}"), fa)
    _check_rational(QQ.add(a, b), fa + fb)
    _check_rational(QQ.sub(a, b), fa - fb)
    _check_rational(QQ.mul(a, b), fa * fb)
    _check_rational(QQ.neg(a), -fa)
    if fb:
        _check_rational(QQ.inv(b), 1 / fb)
        _check_rational(QQ.div(a, b), fa / fb)


def test_rational_poly_factors_hold_no_float():
    # (x^2+x+1/2)(x^2-x+3): factors read back from integer polynomials are
    # made monic by division, which a raw / on two ints would turn into a float
    cases = [
        (Fraction(3, 2), Fraction(5, 2), Fraction(5, 2), 0, 1),
        (4, 0, -5, 0, 1),  # (x^2-1)(x^2-4): rational roots
        (6, 0, 5, 0, 1),  # (x^2+2)(x^2+3): biquadratic
        (-2, 0, 1),  # x^2 - 2, irreducible
        (6, -5, 1),  # (x-2)(x-3)
        (1, 2, 1),  # (x+1)^2
    ]
    for coeffs in cases:
        for factor, _ in poly_factor(Poly(QQ, coeffs)):
            for c in factor.coeffs:
                _check_rational(c, c)


def _refuses(call, message):
    """call() raises NotInvertible with message, which is both an
    InvariantViolation and, for callers that catch one, a ZeroDivisionError."""
    with pytest.raises(NotInvertible, match=message) as caught:
        call()
    assert isinstance(caught.value, InvariantViolation)
    assert isinstance(caught.value, ZeroDivisionError)


def test_rational_inverse_of_zero_is_not_invertible():
    _refuses(lambda: QQ.inv(0), "^inverse of 0$")
    _refuses(lambda: QQ.div(1, Fraction(0)), "^inverse of 0$")


def test_prime_field_inverse_of_zero_is_not_invertible():
    _refuses(lambda: PrimeField(7).inv(7), "^inverse of 0$")


def test_polynomial_division_by_zero_is_not_invertible():
    _refuses(lambda: poly_divmod(QQ, (1, 2), ()), "^polynomial division by zero$")


def test_extension_inverse_of_zero_is_not_invertible():
    _refuses(lambda: Extension(QQ, [-2, 0, 1]).inv((0, 0)), "^inverse of 0$")


def test_extension_inverse_of_a_zero_divisor_is_not_invertible():
    # t - 1 divides t^2 - 1, so it has no inverse modulo that reducible minpoly
    ring = Extension(QQ, [-1, 0, 1], check_irreducible=False)
    _refuses(lambda: ring.inv((-1, 1)), r"^element is not invertible \(reducible minpoly\?\)$")


@pytest.mark.parametrize("domain", [PrimeField(5), Residues(4)], ids=["GF(5)", "Z/4"])
def test_residue_literals_share_one_reader(domain):
    n, name = domain.char, domain.describe()
    assert domain.parse(7) == 7 % n and domain.parse(" 7 ") == 7 % n
    assert domain.parse(f"3 mod {n}") == 3 and domain.parse(f"-1 mod  {n} ") == n - 1
    for literal, message in (
        ("2 mod x", f"not a {name} literal: '2 mod x'"),
        ("x", f"not a {name} literal: 'x'"),
        ([1], f"not a {name} literal: [1]"),
        ("x mod 9", f"literal 'x mod 9' has wrong modulus for {name}"),
        (True, f"{name} literals must be exact ints, got True"),
        (1.5, f"{name} literals must be exact ints, got 1.5"),
    ):
        with pytest.raises(ValidationError) as exc:
            domain.parse(literal)
        assert str(exc.value) == message
