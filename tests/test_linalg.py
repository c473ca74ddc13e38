from fractions import Fraction
from math import gcd
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from ringlab.domains import Extension, PrimeField, QQ, ZZ
from ringlab.errors import InvariantViolation, NonFieldDomain, NotInvertible, PipelineError
from ringlab.linalg import (
    Matrix,
    det_int,
    echelon,
    hermite_column_form,
    inverse,
    kernel_basis,
    kernel_basis_int,
    rref,
    smith_normal_form,
    solve,
    solve_int,
)


def qmat(rows):
    return Matrix.from_rows(QQ, [[Fraction(x) for x in r] for r in rows])


def zmat(rows):
    return Matrix.from_rows(ZZ, [list(r) for r in rows])


def test_rref_identity():
    m = Matrix.identity(QQ, 2)
    r, pivots, rank = rref(m)
    assert r.eq(m) and pivots == (0, 1) and rank == 2


def test_rref_single_row():
    m = qmat([[1, 1]])
    r, _, rank = rref(m)
    assert r.eq(m) and rank == 1


def test_rref_gf5():
    gf5 = PrimeField(5)
    m = Matrix.from_rows(gf5, [[2, 4], [1, 2]])
    r, pivots, rank = rref(m)
    # hand row-reduction: R1 * inv(2) = (1, 2); R2 - R1 = 0
    assert r.row_list() == [[1, 2], [0, 0]]
    assert rank == 1 and pivots == (0,)


def test_rref_is_left_equivalent_and_idempotent():
    m = qmat([[1, 2, 3], [2, 4, 6], [0, 1, 1]])
    r, _, rank = rref(m)
    # same row space: each rref row solvable from original rows and vice versa
    assert rref(r)[0].eq(r)
    assert rref(m.transpose().hstack(r.transpose()))[2] == rank


def test_kernel_zero_map():
    assert kernel_basis(QQ, [(0, 0), (0, 0)], 2) == [(1, 0), (0, 1)]


def test_kernel_of_no_rows_is_every_unit_vector():
    assert kernel_basis(QQ, [], 3) == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    assert kernel_basis(QQ, [], 0) == []


def test_kernel_single_relation():
    (vec,) = kernel_basis(QQ, qmat([[1, 1]]).row_list(), 2)
    assert vec[0] == -vec[1] != 0


def test_kernel_injective_gf3():
    gf3 = PrimeField(3)
    assert kernel_basis(gf3, [{0: 1}, {1: 1}], 2) == []


def test_solve_identity():
    x, _ = solve(Matrix.identity(QQ, 2), (Fraction(1), Fraction(2)))
    assert x == (Fraction(1), Fraction(2))


def test_solve_homogeneous_kernel():
    res = solve(qmat([[1, 1]]), (Fraction(0),))
    assert res is not None
    x, kern = res
    assert x == (0, 0) and len(kern) == 1


def test_solve_inconsistent():
    assert solve(qmat([[0]]), (Fraction(1),)) is None


def test_solve_requires_field():
    with pytest.raises(NonFieldDomain):
        rref(zmat([[1]]))


def test_inverse_of_the_empty_matrix_is_empty():
    assert inverse(Matrix(QQ, 0, 0, ())) == Matrix(QQ, 0, 0, ())


def test_inverse_roundtrip():
    m = qmat([[1, 2], [3, 5]])
    assert m.mul(inverse(m)).eq(Matrix.identity(QQ, 2))


def test_inverse_of_a_singular_matrix_is_not_invertible():
    from ringlab.reports import _stage

    singular = qmat([[1, 2], [2, 4]])
    with pytest.raises(NotInvertible, match="^matrix is singular$") as caught:
        inverse(singular)
    assert isinstance(caught.value, InvariantViolation)
    assert isinstance(caught.value, ZeroDivisionError)
    with pytest.raises(PipelineError) as caught:
        _stage("inverse", inverse, singular)
    assert caught.value.stage == "inverse"
    assert isinstance(caught.value.cause, NotInvertible)


# -- integer routines --------------------------------------------------------


def minor_gcd_invariants(m):
    """Independent SNF oracle: d_k = gcd of all k x k minors; the k-th
    invariant factor is d_k / d_{k-1}."""
    rows, cols = m.rows, m.cols
    out = []
    prev = 1
    for k in range(1, min(rows, cols) + 1):
        g = 0
        for ri in combinations(range(rows), k):
            for ci in combinations(range(cols), k):
                g = gcd(g, det_int(m.submatrix(ri, ci)))
        if g == 0:
            break
        out.append(g // prev)
        prev = g
    return out


def assert_valid_snf(m):
    u, d, v = smith_normal_form(m)
    assert u.mul(m).mul(v).eq(d)
    assert det_int(u) in (1, -1) and det_int(v) in (1, -1)
    diag = [d.get(i, i) for i in range(min(d.rows, d.cols))]
    for i in range(d.rows):
        for j in range(d.cols):
            if i != j:
                assert d.get(i, j) == 0
    for a, b in zip(diag, diag[1:]):
        assert a >= 0 and (a == 0 and b == 0 or b % a == 0 if a else b == 0)
    expected = minor_gcd_invariants(m)
    assert diag[: len(expected)] == expected
    return diag


def test_snf_identity():
    u, d, v = smith_normal_form(Matrix.identity(ZZ, 2))
    assert d.eq(Matrix.identity(ZZ, 2))


def test_snf_diag_2_3():
    diag = assert_valid_snf(zmat([[2, 0], [0, 3]]))
    assert diag == [1, 6]


def test_snf_single_entry():
    diag = assert_valid_snf(zmat([[2]]))
    assert diag == [2]


def test_snf_rectangular():
    assert_valid_snf(zmat([[2, 4, 4], [-6, 6, 12]]))


def test_kernel_int():
    m = zmat([[2, 4]])
    k = kernel_basis_int(m)
    assert k.cols == 1
    col = k.col(0)
    assert 2 * col[0] + 4 * col[1] == 0
    assert gcd(col[0], col[1]) == 1  # saturated


def test_solve_int_divisibility():
    assert solve_int(zmat([[2]]), (3,)) is None
    assert solve_int(zmat([[2]]), (6,)) == (3,)


def test_solve_int_computes_one_smith_form(monkeypatch):
    from ringlab import linalg

    calls = []
    real = linalg.smith_normal_form
    monkeypatch.setattr(linalg, "smith_normal_form", lambda m: calls.append(m) or real(m))
    assert solve_int(zmat([[2, 4], [0, 6]]), (2, 6)) is not None
    assert len(calls) == 1


def test_hermite_canonical():
    h = hermite_column_form(zmat([[2, 1], [0, 0]]))
    assert h.rows == 2 and h.cols == 1
    assert h.col(0) == (1, 0)
    h2 = hermite_column_form(zmat([[4, 6], [0, 0]]))
    assert h2.col(0) == (2, 0)


@st.composite
def small_int_matrix(draw):
    rows = draw(st.integers(1, 4))
    cols = draw(st.integers(1, 4))
    entries = draw(
        st.lists(st.integers(-9, 9), min_size=rows * cols, max_size=rows * cols)
    )
    return Matrix(ZZ, rows, cols, tuple(entries))


@settings(max_examples=60, deadline=None)
@given(small_int_matrix())
def test_snf_properties(m):
    assert_valid_snf(m)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 3),
    st.integers(1, 3),
    st.data(),
)
def test_solve_roundtrip_rational(rows, cols, data):
    entries = data.draw(
        st.lists(
            st.fractions(max_denominator=6),
            min_size=rows * cols,
            max_size=rows * cols,
        )
    )
    x = data.draw(st.lists(st.fractions(max_denominator=6), min_size=cols, max_size=cols))
    m = Matrix(QQ, rows, cols, tuple(entries))
    b = m.apply(tuple(x))
    res = solve(m, b)
    assert res is not None
    assert m.apply(res[0]) == b


# -- the row kernel against a dense reference elimination ------------------

SQRT2 = Extension(QQ, [-2, 0, 1])
KERNEL_DOMAINS = [PrimeField(2), PrimeField(7), QQ, SQRT2]


def reference_rref(d, rows, ncols):
    """Dense Gauss-Jordan from add, mul and inv alone: every row operation
    runs over every column, and zero tests compare against from_int(0)."""
    zero, minus_one = d.from_int(0), d.from_int(-1)
    rows = [list(r) for r in rows]
    pivots = []
    for col in range(ncols):
        top = len(pivots)
        sel = next((r for r in range(top, len(rows)) if rows[r][col] != zero), None)
        if sel is None:
            continue
        rows[top], rows[sel] = rows[sel], rows[top]
        inv = d.inv(rows[top][col])
        rows[top] = [d.mul(inv, x) for x in rows[top]]
        for r in range(len(rows)):
            if r != top:
                f = d.mul(minus_one, rows[r][col])
                rows[r] = [d.add(x, d.mul(f, y)) for x, y in zip(rows[r], rows[top])]
        pivots.append(col)
    return rows, tuple(pivots)


def reference_kernel(d, reduced, pivots, ncols):
    """The kernel vectors read off a reduced form, one per free column."""
    zero, one, minus_one = d.from_int(0), d.from_int(1), d.from_int(-1)
    out = []
    for fc in range(ncols):
        if fc not in pivots:
            vec = [zero] * ncols
            vec[fc] = one
            for r, pc in enumerate(pivots):
                vec[pc] = d.mul(minus_one, reduced[r][fc])
            out.append(tuple(vec))
    return out


def q_value(n, den):
    """A Q domain value: an int when integral, else a Fraction."""
    c = Fraction(n, den)
    return c.numerator if c.denominator == 1 else c


def entry_strategy(d):
    if isinstance(d, PrimeField):
        return st.integers(0, d.p - 1)
    q = st.builds(q_value, st.integers(-4, 4), st.integers(1, 4))
    if d == QQ:
        return q
    return st.tuples(q, q)


@st.composite
def matrices_with_rhs(draw, d):
    rows, cols = draw(st.integers(0, 6)), draw(st.integers(0, 7))
    zero = d.from_int(0)
    cell = st.one_of(st.just(zero), entry_strategy(d))
    entries = [[draw(cell) for _ in range(cols)] for _ in range(rows)]
    # zero out some rows and some columns outright
    for r in draw(st.sets(st.integers(0, max(rows - 1, 0)), max_size=2)):
        if r < rows:
            entries[r] = [zero] * cols
    for c in draw(st.sets(st.integers(0, max(cols - 1, 0)), max_size=2)):
        for row in entries:
            if c < cols:
                row[c] = zero
    m = Matrix.from_rows(d, entries) if rows else Matrix(d, 0, cols, ())
    if draw(st.booleans()):
        b = m.apply(tuple(draw(cell) for _ in range(cols)))  # consistent
    else:
        b = tuple(draw(cell) for _ in range(rows))
    return m, b


def assert_q_normal(values):
    for v in values:
        assert type(v) is (int if Fraction(v).denominator == 1 else Fraction), v


@pytest.mark.parametrize("d", KERNEL_DOMAINS, ids=str)
def test_row_kernel_matches_dense_reference(d):
    @settings(max_examples=150, deadline=None)
    @given(matrices_with_rhs(d))
    def check(case):
        check_against_reference(d, *case)

    check()


def test_row_kernel_keeps_integral_rationals_as_ints():
    # 1/2 - (1/2)*1 and 1 - 2*(1/2) are integral results of Fraction arithmetic
    half = Fraction(1, 2)
    for rows in ([[half, 1], [half, 0]], [[2, 1, half], [1, half, 3]], [[half, half], [1, 3]]):
        m = Matrix.from_rows(QQ, rows)
        check_against_reference(QQ, m, (1, half))


def check_against_reference(d, m, b):
    dense_rows = [m.row(i) for i in range(m.rows)]
    reduced, pivots, rk = rref(m)
    ref_rows, ref_pivots = reference_rref(d, dense_rows, m.cols)
    assert [list(reduced.row(i)) for i in range(reduced.rows)] == ref_rows
    assert (reduced.rows, reduced.cols) == (m.rows, m.cols)
    assert pivots == ref_pivots and rk == len(ref_pivots)

    kern = kernel_basis(d, dense_rows, m.cols)
    ref_kern = reference_kernel(d, ref_rows, ref_pivots, m.cols)
    assert kern == ref_kern

    # the same rows as {column: entry} dicts, zeros kept, last row first
    last_first = dense_rows[::-1]
    sparse_rows = [dict(enumerate(row)) for row in last_first]
    sparse_pivots, sparse_reduced, enlarged = echelon(d, sparse_rows)
    zero = d.from_int(0)
    assert sparse_pivots == ref_pivots
    assert [[row.get(j, zero) for j in range(m.cols)] for row in sparse_reduced] == ref_rows[:rk]
    assert all(x != zero for row in sparse_reduced for x in row.values())
    ranks = [len(reference_rref(d, last_first[:k], m.cols)[1]) for k in range(m.rows + 1)]
    assert enlarged == [k for k in range(m.rows) if ranks[k + 1] > ranks[k]]
    assert kernel_basis(d, sparse_rows, m.cols) == ref_kern

    res = solve(m, b)
    aug_rows, aug_pivots = reference_rref(
        d, [m.row(i) + (b[i],) for i in range(m.rows)], m.cols + 1
    )
    if m.cols in aug_pivots:
        assert res is None
    else:
        x, solve_kern = res
        ref_x = [d.from_int(0)] * m.cols
        for r, pc in enumerate(aug_pivots):
            ref_x[pc] = aug_rows[r][m.cols]
        assert list(x) == ref_x and m.apply(x) == tuple(b)
        assert solve_kern == kern

    if m.rows == m.cols:
        n, one = m.rows, d.from_int(1)
        units = [tuple(one if k == i else zero for k in range(n)) for i in range(n)]
        inv_rows, inv_pivots = reference_rref(d, [r + e for r, e in zip(dense_rows, units)], 2 * n)
        if inv_pivots == tuple(range(n)):
            assert inverse(m).row_list() == [r[n:] for r in inv_rows]
        else:
            with pytest.raises(NotInvertible):
                inverse(m)
    if d == QQ:
        assert_q_normal(reduced.entries)
        assert_q_normal(x for row in sparse_reduced for x in row.values())
        assert_q_normal(x for vec in kern for x in vec)
        if res is not None:
            assert_q_normal(res[0])
