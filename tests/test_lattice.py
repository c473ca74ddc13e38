"""`modules.Lattice` against the helpers it replaced.

The references are the old bodies, written out here: `solve_int` with the
kernel it used to return, membership and canonical generators that each
rebuild [G | relations], the intersection from the kernel of [A | -B],
`_integer_kernel` with its hand-built -relation blocks, `quotient_invariants`
from a fresh Smith form, and `SubmoduleBasis.coords_of` and
`submodule_adapted_basis` solving one system per call.  Ambient modules are
direct sums of free and cyclic (Z/2, Z/3, Z/4, Z/6) lines; generator lists
may be empty or hold zero vectors, and most probes are combinations of the
generators.
"""

import io
import os
import sys
from contextlib import redirect_stdout
from math import gcd, lcm

from hypothesis import given, settings, strategies as st

from ringlab.bilinear import BilinearMap, module_carrier, two_sided_kernel
from ringlab.cli import main
from ringlab.domains import ZZ
from ringlab.linalg import (
    Matrix,
    hermite_column_form,
    kernel_basis_int,
    smith_normal_form,
)
from ringlab.modules import (
    Lattice,
    ModuleDesc,
    SubmoduleBasis,
    _unimodular_inverse,
    cyclic,
    free_line,
    generator_matrix,
    relation_matrix,
    submodule_adapted_basis,
)

LINES = (free_line(), cyclic(2), cyclic(3), cyclic(4), cyclic(6))


# -- the replaced bodies -----------------------------------------------------------


def old_solve_int(m, b):
    u, d, v = smith_normal_form(m)
    c = u.apply(tuple(b))
    y = [0] * m.cols
    r = min(m.rows, m.cols)
    for i in range(m.rows):
        di = d.get(i, i) if i < r else 0
        if di == 0:
            if i < len(c) and c[i] != 0:
                return None
        else:
            if c[i] % di != 0:
                return None
            y[i] = c[i] // di
    x = v.apply(tuple(y))
    return tuple(x), kernel_basis_int(m)


def old_stacked(m, gens):
    return generator_matrix(m, gens).hstack(relation_matrix(m))


def _lift(m, x):
    return tuple(int(c) for c in m.reduce(x))


def old_canonical_gens(m, gens):
    h = hermite_column_form(old_stacked(m, gens))
    out = []
    for j in range(h.cols):
        elem = m.reduce(h.col(j))
        if not m.is_zero_elem(elem):
            out.append(elem)
    return out


def old_contains(m, gens, x):
    return old_solve_int(old_stacked(m, gens), _lift(m, x)) is not None


def old_intersection(desc, gens_a, gens_b):
    ga, gb = old_stacked(desc, gens_a), old_stacked(desc, gens_b)
    neg_gb = Matrix.from_rows(ga.domain, [[-x for x in gb.row(i)] for i in range(gb.rows)])
    kern = kernel_basis_int(ga.hstack(neg_gb))
    vectors = []
    for j in range(kern.cols):
        coeffs = kern.col(j)[: ga.cols]
        vectors.append(tuple(ga.apply(coeffs)))
    return old_canonical_gens(desc, vectors)


def old_integer_kernel(f):
    m_desc, n_desc = f.m.desc, f.n.desc
    lam_n = relation_matrix(n_desc)
    blocks = []
    for j in range(f.m.dim):
        for left in (True, False):
            block = []
            for t in range(f.n.dim):
                row = [
                    int(f.tensor[i][j][t] if left else f.tensor[j][i][t])
                    for i in range(f.m.dim)
                ]
                block.append(row)
            blocks.append(block)
    q = lam_n.cols
    width = f.m.dim + len(blocks) * q
    rows = []
    for b, block in enumerate(blocks):
        for t in range(f.n.dim):
            row = [0] * width
            row[: f.m.dim] = block[t]
            for c in range(q):
                row[f.m.dim + b * q + c] = -lam_n.get(t, c)
            rows.append(row)
    if not rows:
        gens = [tuple(1 if k == i else 0 for k in range(f.m.dim)) for i in range(f.m.dim)]
        return old_canonical_gens(m_desc, gens)
    kern = kernel_basis_int(Matrix.from_rows(ZZ, rows))
    gens = [tuple(kern.col(j)[: f.m.dim]) for j in range(kern.cols)]
    return old_canonical_gens(m_desc, gens)


def old_quotient_invariants(m, gens):
    _, d, _ = smith_normal_form(old_stacked(m, gens))
    r = min(d.rows, d.cols)
    diag = [d.get(i, i) for i in range(r)]
    torsion = [x for x in diag if x not in (0, 1)]
    free_rank = (m.dim - r) + sum(1 for x in diag if x == 0)
    return tuple(torsion) + (0,) * free_rank


def old_coords_of(sub, x):
    sol = old_solve_int(old_stacked(sub.ambient, sub.basis), _lift(sub.ambient, x))
    return None if sol is None else sub.desc.reduce(sol[0][: len(sub.basis)])


def old_adapted_basis(m, gens):
    b = hermite_column_form(old_stacked(m, gens))
    if b.cols == 0:
        return SubmoduleBasis(m, ModuleDesc(()), ())
    rel = relation_matrix(m)
    x_cols = [old_solve_int(b, rel.col(j))[0] for j in range(rel.cols)]
    x = Matrix.from_cols(ZZ, x_cols) if x_cols else Matrix(ZZ, b.cols, 0, ())
    u, d, _ = smith_normal_form(x)
    u_inv = _unimodular_inverse(u)
    summands, basis = [], []
    for i in range(b.cols):
        di = d.get(i, i) if i < min(d.rows, d.cols) else 0
        if di != 1:
            summands.append(free_line() if di == 0 else cyclic(di))
            basis.append(m.reduce(b.apply(u_inv.col(i))))
    return SubmoduleBasis(m, ModuleDesc(tuple(summands)), tuple(basis))


# -- strategies ----------------------------------------------------------------------


def _combine(m, coeffs, vectors):
    acc = m.zero()
    for c, v in zip(coeffs, vectors):
        acc = m.add(acc, m.scale_int(c, v))
    return acc


def descs(min_dim=0, max_dim=3):
    return st.lists(st.sampled_from(LINES), min_size=min_dim, max_size=max_dim).map(ModuleDesc)


def vectors(m):
    return st.lists(st.integers(-6, 6), min_size=m.dim, max_size=m.dim).map(m.reduce)


@st.composite
def families(draw, m, max_size=4):
    """Up to max_size vectors of m, most of them combinations of two or three."""
    vector = vectors(m)
    base = draw(st.lists(vector, min_size=1, max_size=3))
    out = []
    for _ in range(draw(st.integers(0, max_size))):
        kind = draw(st.sampled_from(("free", "combo", "combo", "zero")))
        if kind == "free":
            out.append(draw(vector))
        elif kind == "zero":
            out.append(m.zero())
        else:
            coeffs = draw(st.lists(st.integers(-3, 3), min_size=len(base), max_size=len(base)))
            out.append(_combine(m, coeffs, base))
    return out


@st.composite
def cases(draw):
    m = draw(descs())
    return m, draw(families(m)), draw(families(m)), draw(families(m))


@st.composite
def bilinear_maps(draw):
    """A Z-bilinear f: M x M -> N whose entries the torsion of M kills."""
    m, n = draw(descs(1, 3)), draw(descs(1, 2))
    tensor = []
    for i in range(m.dim):
        row = []
        for j in range(m.dim):
            entry = []
            for line in n.summands:
                orders = [m.summands[k].modulus for k in (i, j) if m.summands[k].modulus]
                if line.modulus:
                    step = lcm(*(line.modulus // gcd(line.modulus, q) for q in orders))
                    entry.append(step * draw(st.integers(0, line.modulus - 1)))
                else:
                    entry.append(0 if orders else draw(st.integers(-3, 3)))
            row.append(n.reduce(entry))
        tensor.append(tuple(row))
    return BilinearMap(module_carrier(m), module_carrier(n), tuple(tensor))


# -- properties ----------------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(cases(), st.data())
def test_rows_contains_and_coords_match_the_old_helpers(case, data):
    m, gens, probes, _ = case
    lat = Lattice.span(m, gens)
    assert list(lat.rows) == old_canonical_gens(m, gens)
    coeffs = data.draw(st.lists(st.integers(-4, 4), min_size=len(gens), max_size=len(gens)))
    inside = _combine(m, coeffs, gens)
    assert lat.contains(inside)
    for x in [inside] + probes:
        expected = old_solve_int(old_stacked(m, gens), _lift(m, x))
        got = lat.coords(x)
        assert got == (None if expected is None else expected[0][: len(gens)])
        assert lat.contains(x) == old_contains(m, gens, x)
        if got is not None:
            assert _combine(m, got, gens) == m.reduce(x)


@settings(max_examples=200, deadline=None)
@given(cases())
def test_intersect_and_quotient_invariants_match_the_old_helpers(case):
    m, a, b, _ = case
    left, right = Lattice.span(m, a), Lattice.span(m, b)
    assert list(left.intersect(right).rows) == old_intersection(m, a, b)
    assert list(right.intersect(left).rows) == old_intersection(m, b, a)
    assert left.quotient_invariants() == old_quotient_invariants(m, a)


@settings(max_examples=200, deadline=None)
@given(cases(), st.data())
def test_two_generating_sets_of_one_lattice_give_equal_rows(case, data):
    m, gens, _, _ = case
    combos = []
    for _ in range(3):
        coeffs = data.draw(st.lists(st.integers(-3, 3), min_size=len(gens), max_size=len(gens)))
        combos.append(_combine(m, coeffs, gens))
    combos += data.draw(st.permutations(gens)) + [m.zero()]
    assert Lattice.span(m, combos).rows == Lattice.span(m, gens).rows


@settings(max_examples=150, deadline=None)
@given(cases(), st.data())
def test_adapted_basis_and_its_coords_match_the_old_bodies(case, data):
    m, gens, _, _ = case
    sub = submodule_adapted_basis(m, gens)
    assert sub == old_adapted_basis(m, gens)
    coeffs = data.draw(st.lists(st.integers(-4, 4), min_size=len(gens), max_size=len(gens)))
    x = _combine(m, coeffs, gens)
    assert sub.coords_of(x) == old_coords_of(sub, x)


@settings(max_examples=150, deadline=None)
@given(bilinear_maps())
def test_two_sided_kernel_matches_the_hand_built_blocks(f):
    assert two_sided_kernel(f) == old_integer_kernel(f)


# -- cost ---------------------------------------------------------------------------------


def test_analyze_on_r3_over_z_computes_few_smith_forms(monkeypatch):
    """Each lattice computes its Smith form once; the per-coordinate solves
    and the dropped kernels of `solve_int` took 188 on this input."""
    from ringlab import linalg

    real, calls = linalg.smith_normal_form, []

    def counted(m):
        calls.append(m)
        return real(m)

    # find every submodule binding before patching one: reading a lazily
    # registered module runs it, and a module run after the patch would bind
    # counted; the package itself reads the name from linalg on each access
    holders = [
        mod
        for mod in list(sys.modules.values())
        if mod and mod.__name__.startswith("ringlab.")
        and getattr(mod, "smith_normal_form", None) is real
    ]
    for mod in holders:
        monkeypatch.setattr(mod, "smith_normal_form", counted)
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden", "inputs", "R3-z.json")
    with redirect_stdout(io.StringIO()):
        assert main(["analyze", path, "--format", "json"]) == 0
    assert 0 < len(calls) <= 20
