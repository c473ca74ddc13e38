import itertools
import random
import tracemalloc
from fractions import Fraction

import pytest

from ringlab.bilinear import (
    BilinearMap,
    field_carrier,
    foundation_addition_split,
    image_submodule,
    is_full,
    is_identically_degenerate,
    is_nondegenerate,
    module_carrier,
    torsion_split,
    two_sided_kernel,
    verify_reassembly,
    width,
)
from ringlab.domains import PrimeField, QQ
from ringlab.errors import NoSplit, ValidationError
from ringlab.modules import ModuleDesc, cyclic, free_line, rational_line


def qmap(dim_m, dim_n, entries):
    """entries: {(i, j): coords}"""
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
# Heisenberg bracket viewed on Q^3 with e3 inert, landing in N = Q
HEIS_Q3 = qmap(3, 1, {(0, 1): (1,), (1, 0): (-1,)})


def test_kernel_zero_map():
    gens = two_sided_kernel(ZERO_Q2)
    assert len(gens) == 2


def test_kernel_alternating_trivial():
    assert two_sided_kernel(ALT_Q2) == []
    assert is_nondegenerate(ALT_Q2)


def test_kernel_heisenberg_inert_line():
    gens = two_sided_kernel(HEIS_Q3)
    assert gens == [(0, 0, 1)]


def test_kernel_brute_force_gf():
    rng = random.Random(11)
    for p in (2, 3):
        gf = PrimeField(p)
        for dim_m, dim_n in ((2, 1), (2, 2), (3, 2)):
            for _ in range(4):
                entries = {
                    (i, j): tuple(rng.randrange(p) for _ in range(dim_n))
                    for i in range(dim_m)
                    for j in range(dim_m)
                }
                f = gfmap(p, dim_m, dim_n, entries)
                gens = two_sided_kernel(f)
                # brute force: enumerate all x and check definition
                expected = []
                for coords in itertools.product(range(p), repeat=dim_m):
                    x = tuple(coords)
                    if all(
                        f.n.is_zero(f.evaluate(x, y)) and f.n.is_zero(f.evaluate(y, x))
                        for y in (
                            tuple(1 if k == i else 0 for k in range(dim_m))
                            for i in range(dim_m)
                        )
                    ):
                        expected.append(x)
                from ringlab.bilinear import canonical_span_rows

                assert canonical_span_rows(gf, expected, dim_m) == gens


def test_image_zero_and_alternating():
    assert image_submodule(ZERO_Q2) == []
    assert image_submodule(ALT_Q2) == [(1,)]
    assert is_full(ALT_Q2)
    assert not is_full(ZERO_Q2)


def test_image_not_full_second_line():
    f = qmap(2, 2, {(0, 1): (1, 0), (1, 0): (-1, 0)})
    assert image_submodule(f) == [(Fraction(1), Fraction(0))]
    assert not is_full(f)


def test_image_paper_example_2u():
    # bracket (s,t) = 2u on Z^3
    z3 = ModuleDesc((free_line(), free_line(), free_line()))
    f = BilinearMap(
        module_carrier(z3),
        module_carrier(z3),
        (
            ((0, 0, 0), (0, 0, 2), (0, 0, 0)),
            ((0, 0, -2), (0, 0, 0), (0, 0, 0)),
            ((0, 0, 0), (0, 0, 0), (0, 0, 0)),
        ),
    )
    assert image_submodule(f) == [(0, 0, 2)]
    assert two_sided_kernel(f) == [(0, 0, 1)]


def test_bilinearity_random_triples():
    rng = random.Random(5)
    f = HEIS_Q3
    for _ in range(100):
        x = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(3))
        x2 = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(3))
        y = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(3))
        left = f.evaluate(tuple(a + b for a, b in zip(x, x2)), y)
        split_sum = f.n.add(f.evaluate(x, y), f.evaluate(x2, y))
        assert left == split_sum
        right = f.evaluate(y, tuple(a + b for a, b in zip(x, x2)))
        assert right == f.n.add(f.evaluate(y, x), f.evaluate(y, x2))


def test_foundation_split_heisenberg_style():
    split = foundation_addition_split(HEIS_Q3)
    assert split.foundation.m.dim == 2
    assert split.foundation.n.dim == 1
    assert is_full(split.foundation) and is_nondegenerate(split.foundation)
    assert is_identically_degenerate(split.addition)
    assert verify_reassembly(HEIS_Q3, split.blocks)


def test_foundation_split_nondegenerate_is_identity():
    split = foundation_addition_split(ALT_Q2)
    assert split.foundation.m.dim == 2
    assert split.addition.m.dim == 0
    assert verify_reassembly(ALT_Q2, split.blocks)


def test_foundation_split_paper_example_fails():
    z3 = ModuleDesc((free_line(), free_line(), free_line()))
    f = BilinearMap(
        module_carrier(z3),
        module_carrier(z3),
        (
            ((0, 0, 0), (0, 0, 2), (0, 0, 0)),
            ((0, 0, -2), (0, 0, 0), (0, 0, 0)),
            ((0, 0, 0), (0, 0, 0), (0, 0, 0)),
        ),
    )
    with pytest.raises(NoSplit) as exc:
        foundation_addition_split(f)
    assert exc.value.which == "image"


def test_foundation_split_integer_success():
    # f(e1, e1) = e_im on Z^2: kernel <e2>, image splits
    z2 = ModuleDesc((free_line(), free_line()))
    f = BilinearMap(
        module_carrier(z2),
        module_carrier(z2),
        (((1, 0), (0, 0)), ((0, 0), (0, 0))),
    )
    split = foundation_addition_split(f)
    assert verify_reassembly(f, split.blocks)
    assert split.foundation.m.dim == 1


def test_reassembly_rejects_a_perturbed_block_entry():
    split = foundation_addition_split(HEIS_Q3)
    (tensor, m_rows, n_rows), addition = split.blocks
    bad = [list(row) for row in tensor]
    bad[0][1] = tuple(c + 1 for c in bad[0][1])
    assert verify_reassembly(HEIS_Q3, split.blocks)
    assert not verify_reassembly(HEIS_Q3, [(bad, m_rows, n_rows), addition])


def test_reassembly_rejects_rows_that_do_not_span():
    # every product of the zero map vanishes: only the basis check can fail
    zero = (((),),)
    e1, e2 = (Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))
    twice_e1 = (Fraction(2), Fraction(0))
    assert verify_reassembly(ZERO_Q2, [(zero, (e1,), ()), (zero, (e2,), ())])
    assert not verify_reassembly(ZERO_Q2, [(zero, (e1,), ()), (zero, (twice_e1,), ())])


def test_reassembly_rejects_a_nonzero_cross_product():
    x, y, z = (tuple(Fraction(int(i == k)) for i in range(3)) for k in range(3))
    n_row = ((Fraction(1),),)
    zero = (((Fraction(0),),),)
    bracket = (((Fraction(0),), (Fraction(1),)), ((Fraction(-1),), (Fraction(0),)))
    assert verify_reassembly(HEIS_Q3, [(bracket, (x, y), n_row), (zero, (z,), n_row)])
    # x and y in blocks of their own: each block holds, but f(x, y) != 0
    blocks = [(zero, (row,), n_row) for row in (x, y, z)]
    assert not verify_reassembly(HEIS_Q3, blocks)


def test_torsion_split_blocks():
    # multiplication on Q plus multiplication on Z/2
    desc = ModuleDesc((rational_line(), cyclic(2)))
    f = BilinearMap(
        module_carrier(desc),
        module_carrier(desc),
        (
            ((Fraction(1), 0), (0, 0)),
            ((0, 0), (0, 1)),
        ),
    )
    f_d, f_c, _ = torsion_split(f)
    assert f_d.m.dim == 1 and f_d.evaluate((Fraction(2),), (Fraction(3),)) == (6,)
    assert f_c.m.dim == 1 and f_c.evaluate((1,), (1,)) == (1,)


def test_cross_entry_rejected_at_construction():
    desc = ModuleDesc((rational_line(), cyclic(2)))
    with pytest.raises(ValidationError):
        BilinearMap(
            module_carrier(desc),
            module_carrier(desc),
            (
                ((Fraction(0), 0), (0, 1)),  # f(q-line, torsion) != 0
                ((0, 0), (0, 0)),
            ),
        )


def test_torsion_elements_annihilate_divisible_part():
    # valid mixed fixture: every torsion basis vector kills the divisible part
    desc = ModuleDesc((rational_line(), rational_line(), cyclic(4)))
    f = BilinearMap(
        module_carrier(desc),
        module_carrier(desc),
        (
            ((0, Fraction(1), 0), (0, 0, 0), (0, 0, 0)),
            ((0, 0, 0), (0, 0, 0), (0, 0, 0)),
            ((0, 0, 0), (0, 0, 0), (0, 0, 2)),
        ),
    )
    t = (Fraction(0), Fraction(0), 1)
    for i in range(2):
        basis = tuple(Fraction(1) if k == i else Fraction(0) for k in range(2)) + (0,)
        assert f.n.is_zero(f.evaluate(t, basis))
        assert f.n.is_zero(f.evaluate(basis, t))


def test_width_zero_map():
    assert width(ZERO_Q2).width == 0


def test_width_alternating_exact_one():
    report = width(ALT_Q2)
    assert report.exact and report.width == 1


def test_width_gf2_multiplication():
    f = gfmap(2, 1, 1, {(0, 0): (1,)})
    report = width(f)
    assert report.exact and report.width == 1


def test_width_monotone_under_direct_sum():
    f1 = gfmap(2, 1, 1, {(0, 0): (1,)})
    fsum = gfmap(2, 2, 2, {(0, 0): (1, 0), (1, 1): (0, 1)})
    assert width(fsum).width <= width(f1).width + width(f1).width


def test_width_search_bound():
    from ringlab.errors import SearchBoundExceeded

    fsum = gfmap(3, 2, 2, {(0, 0): (1, 0), (1, 1): (0, 1)})
    exact = width(fsum)
    assert exact.exact
    if exact.width > 1:
        with pytest.raises(SearchBoundExceeded):
            width(fsum, search_bound=exact.width - 1)


def outer_product_gf3(a, b):
    """F^a + F^b -> F^(ab), (x, y).(x', y') = x (x) y', over GF(3)."""
    entries = {
        (i, a + j): tuple(int(t == i * b + j) for t in range(a * b))
        for i in range(a)
        for j in range(b)
    }
    return gfmap(3, a + b, a * b, entries)


def test_width_outer_products_gf3():
    # a matrix of rank r is a sum of r rank-one products and no fewer
    assert width(outer_product_gf3(2, 3)).width == 2
    outer3x3 = outer_product_gf3(3, 3)
    tracemalloc.start()
    try:
        report = width(outer3x3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.exact and report.width == 3
    # the k-fold sumsets are bitmaps of 3^9 bits in one int, not row sets:
    # the 2.86 M sums of the 3-fold sumset never exist as rows
    assert peak < 100 * 2**20


def test_width_search_bound_below_width():
    from ringlab.errors import SearchBoundExceeded

    with pytest.raises(SearchBoundExceeded):
        width(outer_product_gf3(3, 3), search_bound=2)


def _z_domain_map(m_desc, n_desc, entries):
    """A map on the f.g. Z-module m_desc with the given {(i, j): entry}."""
    zero = (0,) * len(n_desc)
    tensor = tuple(
        tuple(entries.get((i, j), zero) for j in range(len(m_desc))) for i in range(len(m_desc))
    )
    return BilinearMap(
        module_carrier(ModuleDesc(m_desc)), module_carrier(ModuleDesc(n_desc)), tensor
    )


@pytest.mark.parametrize(
    "n_desc, entry",
    [
        ((rational_line(), free_line()), (1, 0)),
        ((rational_line(), free_line()), (Fraction(1, 2), 5)),
        ((rational_line(), rational_line()), (Fraction(2, 3), 0)),
        ((rational_line(),), (Fraction(-1, 3),)),
    ],
    ids=["q+z", "q+z-fraction", "q+q", "q"],
)
def test_kernel_over_z_with_rational_codomain_lines(n_desc, entry):
    """A rational line of N is an exact zero condition with no relation;
    M = Z + Z/2 with f(m0, m0) the one nonzero value has C(f) = <m1>."""
    f = _z_domain_map((free_line(), cyclic(2)), n_desc, {(0, 0): entry})
    assert two_sided_kernel(f) == [(0, 1)]


def test_kernel_over_z_clears_each_rational_row_of_denominators():
    # f(x, y) = (c.x)(c.y) with c = (1/2, 1/3): C(f) is 3 x0 + 2 x1 = 0
    c = (Fraction(1, 2), Fraction(1, 3))
    entries = {(i, j): (c[i] * c[j],) for i in range(2) for j in range(2)}
    f = _z_domain_map((free_line(), free_line()), (rational_line(),), entries)
    (gen,) = two_sided_kernel(f)
    assert gen in ((2, -3), (-2, 3))
