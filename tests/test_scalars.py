import os
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ringlab.bilinear import (
    BilinearMap,
    field_carrier,
    foundation_addition_split,
    verify_reassembly,
)
from ringlab.documents import load_document
from ringlab.domains import Extension, PrimeField, QQ
from ringlab.errors import DegenerateInput
from ringlab.linalg import Matrix, inverse, kernel_basis
from ringlab.rings import RingPresentation, annihilator, foundation_addition, square_ideal
from ringlab.scalars import (
    centroid_of,
    decompose_via_scalars,
    largest_scalar_action,
    _stabilizer_inside,
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
    kernel = kernel_basis(QQ, tmat.row_list(), tmat.cols)
    assert kernel  # ker(f-bar) is nonzero, so the noise below moves the preimage
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


# -- independent oracles for the centroid solver ---------------------------------

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden", "inputs")
QSQRT2 = Extension(QQ, [Fraction(-2), Fraction(0), Fraction(1)])


def quotient_action(r):
    """A(R_f) of the foundation R_f of r, with the quotient map f' it cuts."""
    rf = foundation_addition(r).foundation
    return largest_scalar_action(rf.as_bilinear(), annihilator(rf), square_ideal(rf))


def golden_ring(name):
    with open(os.path.join(GOLDEN, f"{name}.json"), encoding="utf-8") as f:
        return load_document(f.read()).ring()


def sqrt2_map():
    """ALT_SUM over Q(sqrt 2) with the second block scaled by sqrt 2."""
    k = QSQRT2
    one, s2 = k.one(), k.generator()
    zero = (k.zero(), k.zero())
    entries = {
        (0, 1): (one, k.zero()),
        (1, 0): (k.neg(one), k.zero()),
        (2, 3): (k.zero(), s2),
        (3, 2): (k.zero(), k.neg(s2)),
        (0, 0): (one, one),
    }
    tensor = tuple(
        tuple(entries.get((i, j), zero) for j in range(4)) for i in range(4)
    )
    return BilinearMap(field_carrier(k, 4), field_carrier(k, 2), tensor)


# ALT_SUM into a codomain with one unused coordinate: nondegenerate, not full
ALT_SUM_WIDE = qmap(
    4,
    3,
    {(0, 1): (1, 0, 0), (1, 0): (-1, 0, 0), (2, 3): (0, 0, 1), (3, 2): (0, 0, -1)},
)


@pytest.mark.parametrize(
    "make",
    [
        lambda: ALT_SUM,
        lambda: quotient_action(golden_ring("R3-q")).quotient_map,
        lambda: quotient_action(golden_ring("h3x2+q")).quotient_map,
        sqrt2_map,
        lambda: ALT_SUM_WIDE,
        lambda: qmap(2, 2, {(0, 0): (1, 0), (0, 1): (0, 1)}),
    ],
    ids=["alt-sum", "R3-quotient", "h3x2+q-quotient", "q-sqrt2", "not-full", "one-sided"],
)
def test_p_of_f_is_the_stabilizer_of_the_relation_kernel_in_z(make):
    f = make()
    tmat = tensor_matrix(f)
    kern = kernel_basis(tmat.domain, tmat.row_list(), tmat.cols)
    stabilizer = _stabilizer_inside(f, z_center(f), kern)
    rep = p_of_f(f)
    assert rep.bilinear_certified
    assert rep.algebra.rank > 0
    assert rep.algebra.equal(stabilizer)


def truncated_t():
    """t, t^2, t^3 with t^4 = 0: R^2 = <t^2, t^3> is not inside Ann = <t^3>."""
    return RingPresentation(
        field_carrier(QQ, 3),
        tuple(
            tuple(
                tuple(Fraction(int(i + j + 1 == t)) for t in range(3))
                for j in range(3)
            )
            for i in range(3)
        ),
    )


def split_gf3_ring(seed):
    """GF(3)^3, componentwise, in a seeded random basis: A(R) has rank 3."""
    rng = random.Random(seed)
    gf3 = PrimeField(3)
    while True:
        p = Matrix.from_rows(gf3, [[rng.randrange(3) for _ in range(3)] for _ in range(3)])
        try:
            q = inverse(p)
            break
        except ZeroDivisionError:
            continue
    # b_a b_b = sum_i p[a][i] p[b][i] e_i, and e_i = sum_c q[i][c] b_c
    tensor = tuple(
        tuple(
            tuple(
                sum(p.get(a, i) * p.get(b, i) * q.get(i, c) for i in range(3)) % 3
                for c in range(3)
            )
            for b in range(3)
        )
        for a in range(3)
    )
    return RingPresentation(field_carrier(gf3, 3), tensor)


def eta_cuts_ring():
    """b1 b1 = b0, b2 b0 = b0 + b2, b3 b3 = b3 over GF(2)."""
    products = {(1, 1): (1, 0, 0, 0), (2, 0): (1, 0, 1, 0), (3, 3): (0, 0, 0, 1)}
    tensor = tuple(
        tuple(products.get((i, j), (0,) * 4) for j in range(4)) for i in range(4)
    )
    return RingPresentation(field_carrier(PrimeField(2), 4), tensor)


@pytest.mark.parametrize(
    "make",
    [truncated_t, eta_cuts_ring, lambda: golden_ring("R3-q")] + [
        (lambda s=s: split_gf3_ring(s)) for s in range(4)
    ],
)
def test_every_a_of_r_element_is_eta_linear(make):
    r = make()
    rep = largest_scalar_action(r.as_bilinear(), annihilator(r), square_ideal(r))
    assert rep.algebra.basis
    for a, c in zip(rep.algebra.basis, rep.action_on_square, strict=True):
        assert a.mul(rep.eta).eq(rep.eta.mul(c))


def test_eta_linearity_cuts_p_of_the_quotient_map():
    r = eta_cuts_ring()
    rep = largest_scalar_action(r.as_bilinear(), annihilator(r), square_ideal(r))
    assert not rep.eta.is_zero()
    assert (rep.algebra.rank, p_of_f(rep.quotient_map).algebra.rank) == (2, 3)


# -- the sparse centroid system against the dense one it replaced -----------------


def dense_centroid_of(f, eta=None):
    """The replaced body of centroid_of: every condition as a dense row of
    width n^2, zero and repeated rows included."""
    from ringlab.bilinear import Subspace, image_submodule
    from ringlab.linalg import rref
    from ringlab.scalars import EndoAlgebra, ScalarRingReport

    d = f.m.domain
    n = f.m.dim
    zero, minus_one = d.zero(), d.neg(d.one())

    def moved(vals, q, left=True):
        i, j = divmod(q, n)
        out = [[zero] * (n * n) for _ in vals]
        for row, v in zip(out, vals):
            for l in range(n):
                u, w = (l * n + i, l * n + j) if left else (l * n + j, i * n + l)
                row[u] = v[w]
        return out

    def axpy(xs, c, ys):
        out = [list(x) for x in xs]
        for acc, y in zip(out, ys):
            d.add_scaled(acc, c, y, [t for t, v in enumerate(y) if not d.is_zero(v)])
        return out

    tmat = tensor_matrix(f)
    reduced, pairs, r = rref(tmat)
    coef = reduced.row_list()[:r]
    images = [moved(coef, p) for p in pairs]
    rows = []
    for q in range(n * n):
        scaled = [[zero] * (n * n) for _ in range(r)]
        for row, image in zip(coef, images):
            if not d.is_zero(row[q]):
                scaled = axpy(scaled, row[q], image)
        rows += axpy(scaled, minus_one, moved(coef, q))
        rows += axpy(scaled, minus_one, moved(coef, q, left=False))
    if eta is not None:
        eta_t = eta.mul(tmat).row_list()
        for p in pairs:
            v = [eta_t[s][p] for s in range(n)]
            a_eta = [[zero] * (u * n) + v + [zero] * ((n - 1 - u) * n) for u in range(n)]
            rows += axpy(a_eta, minus_one, moved(eta_t, p))
    if not rows:
        rows = [[zero] * (n * n)]
    algebra = EndoAlgebra.from_vectors(d, n, kernel_basis(d, rows, n * n))
    image = Subspace.span(d, image_submodule(f), f.n.dim)
    b_inv = inverse(tmat.submatrix(image.pivots, pairs))
    at_lead = [Matrix.from_rows(d, moved([tmat.row(t) for t in image.pivots], p)) for p in pairs]
    action = tuple(
        Matrix.from_cols(d, [form.apply(a.entries) for form in at_lead]).mul(b_inv)
        for a in algebra.basis
    )
    return ScalarRingReport(algebra, image, action, False)


def _sqrt2_element(draw):
    a, b = draw(st.integers(-2, 2)), draw(st.integers(-2, 2))
    return QSQRT2.add(QSQRT2.from_int(a), QSQRT2.mul(QSQRT2.from_int(b), QSQRT2.generator()))


CENTROID_DOMAINS = {
    "GF(2)": (PrimeField(2), lambda draw: draw(st.integers(0, 1))),
    "GF(7)": (PrimeField(7), lambda draw: draw(st.integers(0, 6))),
    "Q ints": (QQ, lambda draw: draw(st.integers(-3, 3))),
    "Q fractions": (
        QQ,
        lambda draw: QQ.div(draw(st.integers(-3, 3)), draw(st.sampled_from((1, 2, 3)))),
    ),
    "Q(sqrt 2)": (QSQRT2, _sqrt2_element),
}


@st.composite
def centroid_cases(draw):
    """(f, eta or None): a small map over one of the domains, with most
    entries zero or a basis vector, so that zero and repeated equations,
    degenerate maps and non-full images all occur."""
    d, element = CENTROID_DOMAINS[draw(st.sampled_from(sorted(CENTROID_DOMAINS)))]
    m, n = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    zero = d.zero()

    def entry():
        kind = draw(st.sampled_from(("zero", "zero", "unit", "any")))
        if kind == "zero":
            return (zero,) * n
        if kind == "unit":
            t = draw(st.integers(0, n - 1))
            return tuple(d.one() if s == t else zero for s in range(n))
        return tuple(element(draw) for _ in range(n))

    tensor = tuple(tuple(entry() for _ in range(m)) for _ in range(m))
    f = BilinearMap(field_carrier(d, m), field_carrier(d, n), tensor)
    eta = None
    if draw(st.booleans()):
        eta = Matrix.from_rows(d, [[element(draw) for _ in range(n)] for _ in range(m)])
    return f, eta


@settings(max_examples=200, deadline=None)
@given(centroid_cases())
def test_centroid_of_matches_the_dense_system(case):
    f, eta = case
    got, want = centroid_of(f, eta), dense_centroid_of(f, eta)
    assert repr([a.entries for a in got.algebra.basis]) == repr(
        [a.entries for a in want.algebra.basis]
    )
    assert repr([c.entries for c in got.action_on_image]) == repr(
        [c.entries for c in want.action_on_image]
    )
    assert got.image == want.image


@pytest.mark.parametrize("name", ["R3-q", "h3x2+q", "q-mul4"])
def test_centroid_of_matches_the_dense_system_on_golden_rings(name):
    r = golden_ring(name)
    identity = Matrix.identity(r.carrier.domain, r.dim)
    for eta in (None, identity):
        got, want = centroid_of(r.as_bilinear(), eta), dense_centroid_of(r.as_bilinear(), eta)
        assert repr([a.entries for a in got.algebra.basis]) == repr(
            [a.entries for a in want.algebra.basis]
        )
        assert repr([c.entries for c in got.action_on_image]) == repr(
            [c.entries for c in want.action_on_image]
        )
