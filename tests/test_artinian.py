import os
from fractions import Fraction

import pytest

from ringlab.artinian import (
    CommutativeAlgebra,
    field_of_representatives,
    j_series,
    local_decomposition,
    r_k_module,
    radical,
)
from ringlab.bilinear import Subspace
from ringlab.documents import load_document
from ringlab.domains import Extension, PrimeField, QQ
from ringlab.errors import (
    ActionNotWellFormed,
    InvariantViolation,
    NonFieldDomain,
    ValidationError,
)
from ringlab.linalg import Matrix
from ringlab.polynomials import Poly


def quotient_algebra(base, minpoly_ints):
    """base[x]/(m) with basis 1, x, ..., x^(deg-1)."""
    m = Poly.from_ints(base, minpoly_ints)
    dim = m.degree
    x = Poly.x(base)
    tensor = []
    for i in range(dim):
        row = []
        for j in range(dim):
            prod = Poly(base, (base.zero(),) * (i + j) + (base.one(),)).mod(m)
            coords = list(prod.coeffs) + [base.zero()] * (dim - len(prod.coeffs))
            row.append(tuple(coords[:dim]))
        tensor.append(tuple(row))
    unit = tuple(base.one() if k == 0 else base.zero() for k in range(dim))
    return CommutativeAlgebra(base, dim, tuple(tensor), unit)


Q_X2 = quotient_algebra(QQ, [0, 0, 1])          # Q[x]/(x^2)
Q_X2_MINUS_1 = quotient_algebra(QQ, [-1, 0, 1])  # Q[x]/(x^2-1)
Q_X2_MINUS_X = quotient_algebra(QQ, [0, -1, 1])  # Q[x]/(x^2-x)
Q_X3 = quotient_algebra(QQ, [0, 0, 0, 1])        # Q[x]/(x^3)
GF2_X2_PLUS_1 = quotient_algebra(PrimeField(2), [1, 0, 1])
Q_T2_MINUS_2_SQ = quotient_algebra(QQ, [4, 0, -4, 0, 1])  # Q[t]/((t^2-2)^2)


def test_radical_x2():
    assert radical(Q_X2) == [(Fraction(0), Fraction(1))]


def test_radical_separable_is_zero():
    assert radical(Q_X2_MINUS_1) == []


def test_radical_gf2():
    # (x+1)^2 = 0 over GF(2)
    assert radical(GF2_X2_PLUS_1) == [(1, 1)]


GF7 = PrimeField(7)
GF49 = Extension(GF7, (1, 0, 1))  # GF(7)[t]/(t^2 + 1)
GF7_ALG10 = os.path.join(os.path.dirname(__file__), "golden", "inputs", "gf7-alg10.json")


def over_extension(algebra, ext):
    """The same structure constants read over the extension field ext."""

    def lift(coords):
        return tuple(ext.from_base(c) for c in coords)

    tensor = tuple(tuple(lift(cell) for cell in row) for row in algebra.tensor)
    return CommutativeAlgebra(ext, algebra.dim, tensor, lift(algebra.unit))


def gf7_alg10():
    with open(GF7_ALG10) as fh:
        return load_document(fh.read()).commutative_algebra()


@pytest.mark.parametrize(
    "make",
    [lambda: quotient_algebra(GF7, [0, 0, 1, 0, 2, 0, 1]), gf7_alg10],
    ids=["x^2(x^2+1)^2", "gf7-alg10"],
)
def test_radical_over_gf49_is_span_of_gf7_radical(make):
    # radicals commute with base change to a perfect field
    algebra = make()
    rad = radical(algebra)
    assert rad
    lifted = [tuple(GF49.from_base(c) for c in row) for row in rad]
    expected = Subspace.span(GF49, lifted, algebra.dim).rows
    assert radical(over_extension(algebra, GF49)) == list(expected)


def test_unit_autodetection():
    rebuilt = CommutativeAlgebra.from_tensor(QQ, Q_X2.tensor)
    assert rebuilt.unit == Q_X2.unit


def test_rejects_non_field():
    from ringlab.domains import ZZ

    with pytest.raises(NonFieldDomain):
        CommutativeAlgebra(ZZ, 1, (((1,),),), (1,))


def test_rejects_non_associative():
    # b*b = 1, 1*b = 0 is not a unital commutative algebra
    with pytest.raises(ValidationError):
        CommutativeAlgebra.from_tensor(
            QQ,
            (
                ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(0))),
                ((Fraction(0), Fraction(0)), (Fraction(0), Fraction(0))),
            ),
        )


def assert_complete_orthogonal(algebra, factors):
    d = algebra.base
    total = (d.zero(),) * algebra.dim
    for lf in factors:
        assert algebra.mult(lf.idempotent, lf.idempotent) == lf.idempotent
        total = tuple(d.add(x, y) for x, y in zip(total, lf.idempotent))
    assert total == algebra.unit
    for i, a in enumerate(factors):
        for j, b in enumerate(factors):
            if i != j:
                assert algebra.is_zero_elem(algebra.mult(a.idempotent, b.idempotent))


def test_local_decomposition_x2_minus_x():
    factors = local_decomposition(Q_X2_MINUS_X)
    assert len(factors) == 2
    assert_complete_orthogonal(Q_X2_MINUS_X, factors)
    # idempotents are x and 1 - x
    coords = sorted(f.idempotent for f in factors)
    assert coords == [(Fraction(0), Fraction(1)), (Fraction(1), Fraction(-1))]
    assert all(f.nilpotency_index == 1 and f.residue_degree == 1 for f in factors)


def test_local_decomposition_x2_minus_1():
    factors = local_decomposition(Q_X2_MINUS_1)
    assert len(factors) == 2
    assert_complete_orthogonal(Q_X2_MINUS_1, factors)
    coords = sorted(f.idempotent for f in factors)
    # idempotents (1 +- x) / 2
    assert coords == [
        (Fraction(1, 2), Fraction(-1, 2)),
        (Fraction(1, 2), Fraction(1, 2)),
    ]


def test_local_decomposition_x3_is_local():
    factors = local_decomposition(Q_X3)
    assert len(factors) == 1
    lf = factors[0]
    assert lf.nilpotency_index == 3
    assert lf.residue_degree == 1
    assert len(lf.radical_rows) == 2


def test_local_decomposition_gf2_nilpotent():
    factors = local_decomposition(GF2_X2_PLUS_1)
    assert len(factors) == 1
    lf = factors[0]
    assert lf.nilpotency_index == 2
    assert lf.residue_degree == 1  # residue GF(2)
    assert len(lf.radical_rows) == 1


def test_j_series_values():
    x3 = local_decomposition(Q_X3)[0]
    rep = j_series(x3)
    assert rep.layer_dims == (1, 1, 1) and rep.r_k == 3
    x2 = local_decomposition(Q_X2)[0]
    rep2 = j_series(x2)
    assert rep2.layer_dims == (1, 1) and rep2.r_k == 2
    field = local_decomposition(Q_X2_MINUS_X)[0]
    assert j_series(field).layer_dims == (1,)
    assert j_series(field).r_k == 1


def test_j_series_extension_residue():
    lf = local_decomposition(Q_T2_MINUS_2_SQ)[0]
    assert lf.residue_degree == 2
    rep = j_series(lf)
    assert rep.layer_dims == (1, 1) and rep.r_k == 2
    assert lf.nilpotency_index == 2


def test_r_k_regular_module():
    lf = local_decomposition(Q_X3)[0]
    action = [lf.algebra.left_mult_matrix(
        tuple(QQ.one() if k == i else QQ.zero() for k in range(3))
    ) for i in range(3)]
    assert r_k_module(lf, action) == 3


def test_r_k_zero_module():
    lf = local_decomposition(Q_X3)[0]
    action = [Matrix.zero(QQ, 0, 0) for _ in range(3)]
    assert r_k_module(lf, action) == 0


def test_r_k_trivial_action_on_k2():
    lf = local_decomposition(Q_X2_MINUS_X)[0]  # a field factor, dim 1
    # k^2 with the unit acting as identity
    action = [Matrix.identity(QQ, 2).scale(lf.algebra.unit[0])]
    assert r_k_module(lf, action) == 2


def test_r_k_rejects_bad_action():
    lf = local_decomposition(Q_X3)[0]
    bad = [Matrix.identity(QQ, 2) for _ in range(3)]
    with pytest.raises(ActionNotWellFormed):
        r_k_module(lf, bad)


def test_field_of_representatives_trivial():
    lf = local_decomposition(Q_X2)[0]
    rep = field_of_representatives(lf)
    assert rep.basis == (lf.algebra.unit,)


def test_field_of_representatives_hensel_sqrt2():
    lf = local_decomposition(Q_T2_MINUS_2_SQ)[0]
    rep = field_of_representatives(lf)
    block = lf.algebra
    s = rep.lifted_root
    # s^2 = 2 exactly in the algebra
    two = tuple(QQ.mul(QQ.from_int(2), c) for c in block.unit)
    assert block.mult(s, s) == two
    # multiplicativity of the projection on the L-basis products
    for x in rep.basis:
        for y in rep.basis:
            prod = block.mult(x, y)
            px = lf.projection.apply(x)
            py = lf.projection.apply(y)
            residue = lf.residue_domain()
            if lf.residue_degree > 1:
                assert lf.projection.apply(prod) == residue.mul(tuple(px), tuple(py))


def test_hensel_lift_matches_documented_closed_form():
    lf = local_decomposition(Q_T2_MINUS_2_SQ)[0]
    rep = field_of_representatives(lf)
    block = lf.algebra
    # find the coordinates of t itself in the block basis: the block is the
    # whole algebra, basis echelonized, so t = second monomial
    # s = t(6 - t^2)/4 = (6t - t^3)/4
    t = (Fraction(0), Fraction(1), Fraction(0), Fraction(0))
    t3 = block.mult(block.mult(t, t), t)
    s_expected = tuple((6 * a - b) / 4 for a, b in zip(t, t3))
    assert rep.lifted_root == s_expected


def test_radical_generators_are_nilpotent_and_quotient_is_semisimple():
    for algebra in (Q_X2, Q_X3, Q_T2_MINUS_2_SQ, GF2_X2_PLUS_1):
        rad = radical(algebra)
        for gen in rad:
            power = gen
            for _ in range(algebra.dim + 1):
                power = algebra.mult(power, gen)
            assert algebra.is_zero_elem(power)
        # quotient by the radical has zero radical: check on each local factor
        for lf in local_decomposition(algebra):
            assert len(lf.radical_rows) == lf.algebra.dim - lf.residue_degree


def test_r_k_additive_across_factors():
    # residue fields coincide with the base for both split examples
    for algebra in (Q_X2_MINUS_X, Q_X2_MINUS_1):
        factors = local_decomposition(algebra)
        assert sum(j_series(lf).r_k for lf in factors) == algebra.dim


def _minimal_polynomial_by_solve(a, x):
    """The first power of x that depends on the ones before it, solved for."""
    from ringlab.linalg import rref, solve

    d = a.base
    powers = [a.unit]
    while rref(Matrix.from_rows(d, powers))[2] == len(powers):
        powers.append(a.mult(powers[-1], x))
    res = solve(Matrix.from_cols(d, powers[:-1]), powers[-1])
    return tuple(d.neg(c) for c in res[0]) + (d.one(),)


def test_minimal_polynomial_is_the_first_dependent_power():
    for a in (Q_X2, Q_X2_MINUS_1, Q_X2_MINUS_X, Q_X3, GF2_X2_PLUS_1, Q_T2_MINUS_2_SQ):
        d = a.base
        probes = [a.unit, tuple(d.zero() for _ in a.unit)]
        probes += [tuple(d.from_int((3 * i + k) % 5 - 2) for k in range(a.dim)) for i in range(4)]
        for x in probes:
            m = a.minimal_polynomial(x)
            assert m.coeffs == _minimal_polynomial_by_solve(a, x)
            assert a.is_zero_elem(a.evaluate_poly(m, x))


def test_hensel_failed_solve_is_invariant_violation(monkeypatch):
    import ringlab.artinian as artinian

    lf = local_decomposition(Q_T2_MINUS_2_SQ)[0]
    monkeypatch.setattr(artinian, "solve", lambda m, b: None)
    with pytest.raises(InvariantViolation, match="Hensel lifting"):
        field_of_representatives(lf)
