import random
from fractions import Fraction

import pytest

from ringlab.errors import ElementNotInModule, NotOmegaStableShape
from ringlab.linalg import smith_normal_form
from ringlab.modules import (
    Lattice,
    ModuleDesc,
    ModuleElement,
    cyclic,
    divisible_bounded_split,
    free_line,
    project_coords,
    rational_line,
    reassemble_coords,
    split_complement,
    submodule_adapted_basis,
    rational_line as qline,
    torsion_part,
)

Q2_Z4 = ModuleDesc((rational_line(), rational_line(), cyclic(4)))
Z4_Z2 = ModuleDesc((cyclic(4), cyclic(2)))
Z_LINE = ModuleDesc((free_line(),))
Z2 = ModuleDesc((free_line(), free_line()))
Z_PLUS_Z2 = ModuleDesc((free_line(), cyclic(2)))


def test_divisible_bounded_split_mixed():
    m_d, m_b, (d_idx, b_idx) = divisible_bounded_split(Q2_Z4)
    assert m_d.describe() == "Q + Q"
    assert m_b.describe() == "Z/4"
    assert d_idx == (0, 1) and b_idx == (2,)


def test_divisible_bounded_split_bounded_input():
    m_d, m_b, _ = divisible_bounded_split(Z4_Z2)
    assert m_d.dim == 0
    assert m_b == Z4_Z2


def test_divisible_bounded_split_rejects_free_line():
    with pytest.raises(NotOmegaStableShape):
        divisible_bounded_split(Z_LINE)


def test_split_reassembly_is_identity_on_random_elements():
    rng = random.Random(7)
    _, _, (d_idx, b_idx) = divisible_bounded_split(Q2_Z4)
    for _ in range(200):
        coords = (
            Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
            Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
            rng.randint(0, 3),
        )
        parts = [
            (d_idx, project_coords(coords, d_idx)),
            (b_idx, project_coords(coords, b_idx)),
        ]
        assert reassemble_coords(Q2_Z4, parts) == Q2_Z4.reduce(coords)
        # projections are homomorphisms
        other = Q2_Z4.reduce((Fraction(1, 3), Fraction(-2), 3))
        total = Q2_Z4.add(coords, other)
        assert project_coords(total, d_idx) == tuple(
            a + b
            for a, b in zip(project_coords(coords, d_idx), project_coords(other, d_idx))
        )


def test_structure_reads():
    assert ModuleDesc((qline(), qline(), qline())).is_divisible()
    m = ModuleDesc((cyclic(6), cyclic(4)))
    assert m.is_bounded() and m.exponent() == 12
    mixed = ModuleDesc((qline(), cyclic(2)))
    assert torsion_part(mixed).describe() == "Z/2"


def test_split_complement_2Z_in_Z_has_none():
    assert split_complement([(2,)], Z_LINE) is None


def test_split_complement_coordinate_summand():
    comp = split_complement([(1, 0)], Z2)
    assert comp == [(0, 1)]


def test_split_complement_z_plus_z2():
    comp = split_complement([(0, 1)], Z_PLUS_Z2)
    assert comp == [(1, 0)]


def test_split_complement_brute_force_dZ_in_Z():
    for d in range(0, 11):
        comp = split_complement([(d,)], Z_LINE)
        if d in (0, 1):
            assert comp is not None
        else:
            assert comp is None


def test_split_complement_diagonal_in_Z2():
    comp = split_complement([(1, 1)], Z2)
    assert comp is not None
    gens = [(1, 1)] + comp
    _, d, _ = smith_normal_form(Lattice.span(Z2, gens).matrix)
    assert (d.get(0, 0), d.get(1, 1)) == (1, 1)


def test_split_complement_soundness_snf_all_ones():
    cases = [
        ([(1, 0)], Z2),
        ([(0, 1)], Z_PLUS_Z2),
        ([(2, 1)], Z2),
        ([(1, 0), (0, 2)], ModuleDesc((free_line(), cyclic(4)))),
    ]
    for gens, ambient in cases:
        comp = split_complement(gens, ambient)
        if comp is None:
            continue
        _, d, _ = smith_normal_form(Lattice.span(ambient, list(gens) + comp).matrix)
        diag = [d.get(i, i) for i in range(min(d.rows, d.cols, ambient.dim))]
        assert all(x == 1 for x in diag)


def test_split_complement_with_kill_constraint():
    # complement of <(0,1)> in Z^2 containing (1,1)
    comp = split_complement([(0, 1)], Z2, kill=[(1, 1)])
    assert comp is not None
    assert Lattice.span(Z2, comp).contains((1, 1))


def test_module_element_validation():
    with pytest.raises(ElementNotInModule):
        ModuleElement(Z_LINE, (Fraction(1, 2),))
    e = ModuleElement(Z4_Z2, (5, 3))
    assert e.coords == (1, 1)


def test_canonical_generators_2u():
    # <2u> inside Z: canonical generator stays 2
    assert Lattice.span(Z_LINE, [(2,)]).rows == ((2,),)
    assert Lattice.span(Z_LINE, [(4,), (6,)]).rows == ((2,),)


def test_quotient_invariants():
    assert Lattice.span(Z_LINE, [(2,)]).quotient_invariants() == (2,)
    assert Lattice.span(Z2, [(1, 0)]).quotient_invariants() == (0,)
    assert Lattice.span(Z2, []).quotient_invariants() == (0, 0)


def test_submodule_adapted_basis_torsion():
    m = ModuleDesc((free_line(), cyclic(4)))
    sub = submodule_adapted_basis(m, [(0, 2)])
    assert sub.desc.describe() == "Z/2"
    assert sub.coords_of((0, 2)) in [(1,)]


def test_canonical_gens_independent_of_generator_presentation():
    import random

    rng = random.Random(21)
    ambient = ModuleDesc((free_line(), free_line(), cyclic(6)))
    for _ in range(40):
        gens = [
            tuple(rng.randint(-6, 6) for _ in range(2)) + (rng.randint(0, 5),)
            for _ in range(rng.randint(1, 3))
        ]
        canonical = Lattice.span(ambient, gens).rows
        # rebuild the same submodule from scrambled combinations
        combos = []
        for _ in range(4):
            coeffs = [rng.randint(-3, 3) for _ in gens]
            acc = ambient.zero()
            for c, g in zip(coeffs, gens):
                acc = ambient.add(acc, ambient.scale_int(c, g))
            combos.append(acc)
        combos.extend(gens)
        rng.shuffle(combos)
        assert Lattice.span(ambient, combos).rows == canonical


def test_split_complement_torsion_subtleties():
    z4_z2 = ModuleDesc((cyclic(4), cyclic(2)))
    # 2*(Z/4) is not a direct summand: the quotient invariants change
    assert split_complement([(2, 0)], z4_z2) is None
    # the full Z/4 line is one, with complement the Z/2 line
    comp = split_complement([(1, 0)], z4_z2)
    assert comp is not None
    assert Lattice.span(z4_z2, comp).rows == Lattice.span(z4_z2, [(0, 1)]).rows
