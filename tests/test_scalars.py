import random
from fractions import Fraction

import pytest

from ringlab.bilinear import (
    BilinearMap,
    field_carrier,
    foundation_addition_split,
    verify_reassembly,
)
from ringlab.domains import PrimeField, QQ
from ringlab.errors import DegenerateInput
from ringlab.linalg import Matrix
from ringlab.scalars import (
    decompose_via_scalars,
    largest_scalar_action,
    p_of_f,
    symmetric_endos,
    tensor_matrix,
    z_center,
    z_n_chain,
    z_n_diagnostic,
)


def qmap(dim_m, dim_n, entries):
    tensor = [
        [
            tuple(Fraction(c) for c in entries.get((i, j), (0,) * dim_n))
            for j in range(dim_m)
        ]
        for i in range(dim_m)
    ]
    return BilinearMap(field_carrier(QQ, dim_m), field_carrier(QQ, dim_n), tuple(tensor))


def gfmap(p, dim_m, dim_n, entries):
    gf = PrimeField(p)
    tensor = [
        [tuple(entries.get((i, j), (0,) * dim_n)) for j in range(dim_m)]
        for i in range(dim_m)
    ]
    return BilinearMap(field_carrier(gf, dim_m), field_carrier(gf, dim_n), tuple(tensor))


ALT_Q2 = qmap(2, 1, {(0, 1): (1,), (1, 0): (-1,)})
ZERO_Q2 = qmap(2, 2, {})
ALT_SUM = qmap(
    4,
    2,
    {(0, 1): (1, 0), (1, 0): (-1, 0), (2, 3): (0, 1), (3, 2): (0, -1)},
)
GF2_MULT = gfmap(2, 1, 1, {(0, 0): (1,)})


def test_symmetric_endos_zero_map_is_full_end():
    assert symmetric_endos(ZERO_Q2).rank == 4


def test_symmetric_endos_alternating_scalars_only():
    sym = symmetric_endos(ALT_Q2)
    assert sym.rank == 1
    assert sym.basis[0].eq(Matrix.identity(QQ, 2))


def test_symmetric_endos_gf2_mult():
    sym = symmetric_endos(GF2_MULT)
    assert sym.rank == 1  # both 1x1 matrices {0, 1}


def test_z_center_of_full_end_is_scalars():
    z = z_center(ZERO_Q2)
    assert z.rank == 1
    assert z.basis[0].eq(Matrix.identity(QQ, 2))


def test_z_center_commutative_input_unchanged():
    sym = symmetric_endos(ALT_Q2)
    z = z_center(ALT_Q2, sym)
    assert z.equal(sym)


def test_z_center_one_dimensional():
    one = qmap(1, 1, {(0, 0): (1,)})
    assert z_center(one).equal(symmetric_endos(one))


def test_p_of_f_alternating():
    rep = p_of_f(ALT_Q2)
    assert rep.algebra.rank == 1
    assert rep.bilinear_certified
    assert rep.algebra.basis[0].eq(Matrix.identity(QQ, 2))


def test_p_of_f_direct_sum_has_two_idempotents():
    rep = p_of_f(ALT_SUM)
    assert rep.algebra.rank == 2
    # the projections onto each block are in P(f)
    e1 = Matrix.from_rows(
        QQ, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]
    )
    assert rep.algebra.contains(e1)


def test_p_of_f_gf2_point():
    rep = p_of_f(GF2_MULT)
    assert rep.algebra.rank == 1


def test_p_of_f_rejects_degenerate():
    heis = qmap(3, 1, {(0, 1): (1,), (1, 0): (-1,)})
    with pytest.raises(DegenerateInput):
        p_of_f(heis)
    split = foundation_addition_split(heis)
    rep = p_of_f(split.foundation)
    assert rep.algebra.rank == 1


def test_action_well_defined_on_random_relation_representatives():
    rng = random.Random(13)
    rep = p_of_f(ALT_SUM)
    tmat = tensor_matrix(ALT_SUM)
    kernel = rep.relation_kernel
    from ringlab.linalg import solve
    from ringlab.scalars import _tensor_action_vector

    for idx, a in enumerate(rep.algebra.basis):
        for v in rep.image_rows:
            base = solve(tmat, v)[0]
            moved_ref = tmat.apply(_tensor_action_vector(a, base, 4, QQ))
            for _ in range(100):
                noise = list(base)
                for k in kernel:
                    c = Fraction(rng.randint(-3, 3))
                    noise = [x + c * y for x, y in zip(noise, k)]
                moved = tmat.apply(_tensor_action_vector(a, tuple(noise), 4, QQ))
                assert moved == moved_ref


def test_z1_gf2_multiplication_is_everything():
    chain = z_n_diagnostic(GF2_MULT, 1)
    assert chain.rank == 1  # {0, 1} = all 1x1 matrices over GF(2)


def test_zn_chain_stabilizes_and_matches_p():
    fixtures = [
        GF2_MULT,
        gfmap(2, 2, 2, {(0, 0): (1, 0), (1, 1): (0, 1)}),
        gfmap(3, 2, 1, {(0, 1): (1,), (1, 0): (2,)}),
    ]
    for f in fixtures:
        chain, stabilized = z_n_chain(f, 5)
        assert stabilized is not None
        rep = p_of_f(f)
        assert chain[-1].equal(rep.algebra)


def test_zn_injective_fbar_keeps_z():
    # f with zero relation kernel: Z_n = Z(f) for all n
    f = gfmap(2, 1, 1, {(0, 0): (1,)})
    z = z_center(f)
    chain, stabilized = z_n_chain(f, 3)
    assert chain[0].equal(z)


def test_zn_chain_of_a_zero_dimensional_map_is_trivial():
    gf3 = PrimeField(3)
    f = BilinearMap(field_carrier(gf3, 0), field_carrier(gf3, 1), ())
    z = z_center(f)
    assert not z.basis
    assert z_n_chain(f, 1) == ([z], None)
    assert z_n_chain(f, 3) == ([z, z], 1)
    assert z_n_diagnostic(f, 3) == z


def test_decompose_alternating_sum():
    deco = decompose_via_scalars(ALT_SUM)
    assert len(deco.components) == 2
    assert all(c.map.m.dim == 2 for c in deco.components)
    assert verify_reassembly(ALT_SUM, deco.blocks)


def test_decompose_indecomposable_unchanged():
    deco = decompose_via_scalars(ALT_Q2)
    assert len(deco.components) == 1
    assert verify_reassembly(ALT_Q2, deco.blocks)


def test_decompose_gf2_diagonal():
    f = gfmap(2, 2, 2, {(0, 0): (1, 0), (1, 1): (0, 1)})
    deco = decompose_via_scalars(f)
    assert len(deco.components) == 2
    assert verify_reassembly(f, deco.blocks)


def heisenberg_mult_map():
    """Multiplication of the Heisenberg Lie algebra as a map R x R -> R."""
    return qmap(3, 3, {(0, 1): (0, 0, 1), (1, 0): (0, 0, -1)})


def test_largest_scalar_action_heisenberg():
    mult = heisenberg_mult_map()
    ann = [(Fraction(0), Fraction(0), Fraction(1))]
    square = [(Fraction(0), Fraction(0), Fraction(1))]
    rep = largest_scalar_action(mult, ann, square)
    assert rep.algebra.rank == 1  # A(h3) = Q
    # eta is the zero map: R^2 = <z> lies inside Ann
    assert rep.eta.is_zero()


def test_largest_scalar_action_double_heisenberg():
    entries = {
        (0, 1): (0, 0, 1, 0, 0, 0),
        (1, 0): (0, 0, -1, 0, 0, 0),
        (3, 4): (0, 0, 0, 0, 0, 1),
        (4, 3): (0, 0, 0, 0, 0, -1),
    }
    mult = qmap(6, 6, entries)
    zero = Fraction(0)
    one = Fraction(1)
    ann = [
        (zero, zero, one, zero, zero, zero),
        (zero, zero, zero, zero, zero, one),
    ]
    square = list(ann)
    rep = largest_scalar_action(mult, ann, square)
    assert rep.algebra.rank == 2


def test_largest_scalar_action_rejects_zero_multiplication():
    mult = qmap(2, 2, {})
    with pytest.raises(DegenerateInput):
        largest_scalar_action(mult, [(Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))], [])
