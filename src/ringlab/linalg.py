"""Exact linear algebra: echelon forms, kernels, solving, and Smith/Hermite
normal forms over the coefficient domains.

Matrices are immutable row-major tuples; all routines are pure functions.
Field routines (rref, kernel_basis, solve) require a field domain and run
every row operation through the domain's add_scaled kernel; solve reads its
kernel off its reduction of [m | b], whose first m.cols columns are the
reduced form of m.  The integer routines (smith_normal_form, hermite and the
integer solve/kernel) require INTEGERS.
"""

from __future__ import annotations

from .domains import Domain, ZZ, require_field
from .errors import DimensionMismatch, NonFieldDomain, NotInvertible
from .records import record


def unit_vectors(domain: Domain, n: int) -> list:
    """The standard basis e_0, ..., e_(n-1) of domain^n, as row tuples."""
    z, o = domain.zero(), domain.one()
    return [tuple(o if k == i else z for k in range(n)) for i in range(n)]


@record
class Matrix:
    domain: Domain
    rows: int
    cols: int
    entries: tuple

    def __post_init__(self):
        if len(self.entries) != self.rows * self.cols:
            raise DimensionMismatch(
                f"{self.rows}x{self.cols} matrix needs {self.rows * self.cols} entries, "
                f"got {len(self.entries)}"
            )

    @staticmethod
    def from_rows(domain: Domain, rows) -> "Matrix":
        rows = [tuple(r) for r in rows]
        ncols = len(rows[0]) if rows else 0
        for r in rows:
            if len(r) != ncols:
                raise DimensionMismatch("ragged rows")
        flat = tuple(x for r in rows for x in r)
        return Matrix(domain, len(rows), ncols, flat)

    @staticmethod
    def from_cols(domain: Domain, cols) -> "Matrix":
        cols = [tuple(c) for c in cols]
        nrows = len(cols[0]) if cols else 0
        return Matrix.from_rows(domain, [[c[i] for c in cols] for i in range(nrows)])

    @staticmethod
    def identity(domain: Domain, n: int) -> "Matrix":
        return Matrix(domain, n, n, tuple(c for row in unit_vectors(domain, n) for c in row))

    @staticmethod
    def zero(domain: Domain, rows: int, cols: int) -> "Matrix":
        z = domain.zero()
        return Matrix(domain, rows, cols, (z,) * (rows * cols))

    def get(self, i: int, j: int):
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def col(self, j: int) -> tuple:
        return tuple(self.entries[i * self.cols + j] for i in range(self.rows))

    def row_list(self):
        return [list(self.row(i)) for i in range(self.rows)]

    def transpose(self) -> "Matrix":
        return Matrix.from_rows(self.domain, [self.col(j) for j in range(self.cols)])

    def is_zero(self) -> bool:
        return all(self.domain.is_zero(x) for x in self.entries)

    def hstack(self, other: "Matrix") -> "Matrix":
        if self.rows != other.rows:
            raise DimensionMismatch("hstack needs equal row counts")
        return Matrix.from_rows(
            self.domain, [self.row(i) + other.row(i) for i in range(self.rows)]
        )

    def submatrix(self, row_idx, col_idx) -> "Matrix":
        return Matrix.from_rows(
            self.domain, [[self.get(i, j) for j in col_idx] for i in row_idx]
        )

    def mul(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise DimensionMismatch(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        d = self.domain
        cols = range(other.cols)
        out = []
        for i in range(self.rows):
            acc = [d.zero()] * other.cols
            for k, x in enumerate(self.row(i)):
                if not d.is_zero(x):
                    d.add_scaled(acc, x, other.row(k), cols)
            out += acc
        return Matrix(d, self.rows, other.cols, tuple(out))

    def apply(self, vec) -> tuple:
        """Matrix times coordinate sequence."""
        if len(vec) != self.cols:
            raise DimensionMismatch(f"vector length {len(vec)} != {self.cols} columns")
        d = self.domain
        out = []
        for i in range(self.rows):
            acc = d.zero()
            for x, y in zip(self.row(i), vec):
                acc = d.add(acc, d.mul(x, y))
            out.append(acc)
        return tuple(out)

    def add(self, other: "Matrix") -> "Matrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatch("matrix addition shape mismatch")
        d = self.domain
        return Matrix(
            d, self.rows, self.cols,
            tuple(d.add(x, y) for x, y in zip(self.entries, other.entries)),
        )

    def sub(self, other: "Matrix") -> "Matrix":
        d = self.domain
        return self.add(
            Matrix(d, other.rows, other.cols, tuple(d.neg(x) for x in other.entries))
        )

    def scale(self, c) -> "Matrix":
        d = self.domain
        return Matrix(d, self.rows, self.cols, tuple(d.mul(c, x) for x in self.entries))

    def eq(self, other: "Matrix") -> bool:
        return (
            (self.rows, self.cols) == (other.rows, other.cols)
            and all(self.domain.eq(x, y) for x, y in zip(self.entries, other.entries))
        )


# -- field linear algebra --------------------------------------------------


def rref(m: Matrix):
    """Reduced row-echelon form over a field: (matrix, pivot columns, rank).
    The pivot row is zero before col, so its normalisation and each row
    update run over its nonzero columns only."""
    require_field(m.domain, "rref")
    d = m.domain
    zero = d.zero()
    rows = m.row_list()
    pivots = []
    piv_row = 0
    for col in range(m.cols):
        sel = next((r for r in range(piv_row, m.rows) if not d.is_zero(rows[r][col])), None)
        if sel is None:
            continue
        rows[piv_row], rows[sel] = rows[sel], rows[piv_row]
        found = rows[piv_row]
        support = [j for j in range(col, m.cols) if not d.is_zero(found[j])]
        inv = d.inv(found[col])
        prow = rows[piv_row] = [zero] * m.cols
        for j in support:
            prow[j] = d.mul(inv, found[j])
        for r, row in enumerate(rows):
            if r != piv_row and not d.is_zero(row[col]):
                d.add_scaled(row, d.neg(row[col]), prow, support)
        pivots.append(col)
        piv_row += 1
    flat = tuple(x for row in rows for x in row)
    return Matrix(d, m.rows, m.cols, flat), tuple(pivots), len(pivots)


def rank(m: Matrix) -> int:
    return rref(m)[2]


def _kernel_from(reduced: Matrix, pivots, cols: int) -> Matrix:
    """Kernel columns of a reduced form's first cols columns, which hold every pivot."""
    d = reduced.domain
    basis = []
    for fc in (j for j in range(cols) if j not in pivots):
        vec = [d.zero()] * cols
        vec[fc] = d.one()
        for r, pc in enumerate(pivots):
            vec[pc] = d.neg(reduced.get(r, fc))
        basis.append(vec)
    return Matrix.from_cols(d, basis) if basis else Matrix(d, cols, 0, ())


def kernel_basis(m: Matrix) -> Matrix:
    """Columns spanning {x : m.x = 0}, over a field; cols - rank columns."""
    reduced, pivots, _ = rref(m)
    return _kernel_from(reduced, pivots, m.cols)


def solve(m: Matrix, b):
    """Particular solution of m.x = b plus a kernel basis, or None.

    b is a coordinate sequence of length m.rows.
    """
    require_field(m.domain, "solve")
    if len(b) != m.rows:
        raise DimensionMismatch(f"rhs length {len(b)} != {m.rows} rows")
    d = m.domain
    aug = m.hstack(Matrix.from_cols(d, [b]))
    reduced, pivots, _ = rref(aug)
    if m.cols in pivots:
        return None
    x = [d.zero()] * m.cols
    for r, pc in enumerate(pivots):
        x[pc] = reduced.get(r, m.cols)
    return tuple(x), _kernel_from(reduced, pivots, m.cols)


def inverse(m: Matrix) -> Matrix:
    require_field(m.domain, "inverse")
    if m.rows != m.cols:
        raise DimensionMismatch("only square matrices invert")
    aug = m.hstack(Matrix.identity(m.domain, m.rows))
    reduced, pivots, rk = rref(aug)
    if rk < m.rows or any(p >= m.rows for p in pivots):
        raise NotInvertible("matrix is singular")
    return reduced.submatrix(range(m.rows), range(m.rows, 2 * m.rows))


# -- integer linear algebra -------------------------------------------------


def _check_int(m: Matrix, what: str):
    if m.domain != ZZ:
        raise NonFieldDomain(f"{what} requires the INTEGERS domain")


def det_int(m: Matrix) -> int:
    """Determinant of an integer matrix by fraction-free Bareiss elimination."""
    _check_int(m, "det_int")
    if m.rows != m.cols:
        raise DimensionMismatch("determinant of a non-square matrix")
    n = m.rows
    if n == 0:
        return 1
    a = [list(m.row(i)) for i in range(n)]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for r in range(k + 1, n):
                if a[r][k] != 0:
                    a[k], a[r] = a[r], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def smith_normal_form(m: Matrix):
    """(U, D, V) with U.m.V = D, U and V unimodular, D diagonal with
    nonnegative d_i and d_i | d_{i+1}."""
    _check_int(m, "smith_normal_form")
    a = [list(m.row(i)) for i in range(m.rows)]
    nr, nc = m.rows, m.cols
    u = [[1 if i == j else 0 for j in range(nr)] for i in range(nr)]
    v = [[1 if i == j else 0 for j in range(nc)] for i in range(nc)]

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for r in a:
            r[i], r[j] = r[j], r[i]
        for r in v:
            r[i], r[j] = r[j], r[i]

    def add_row(src, dst, c):
        # row dst += c * row src
        a[dst] = [x + c * y for x, y in zip(a[dst], a[src])]
        u[dst] = [x + c * y for x, y in zip(u[dst], u[src])]

    def add_col(src, dst, c):
        for r in a:
            r[dst] += c * r[src]
        for r in v:
            r[dst] += c * r[src]

    def negate_row(i):
        a[i] = [-x for x in a[i]]
        u[i] = [-x for x in u[i]]

    t = 0
    while t < min(nr, nc):
        # find smallest nonzero entry in the remaining block
        pivot = None
        best = None
        for i in range(t, nr):
            for j in range(t, nc):
                x = abs(a[i][j])
                if x != 0 and (best is None or x < best):
                    best = x
                    pivot = (i, j)
        if pivot is None:
            break
        swap_rows(t, pivot[0])
        swap_cols(t, pivot[1])
        if a[t][t] < 0:
            negate_row(t)
        # clear row and column t; restart if a remainder shrinks the pivot
        dirty = False
        for i in range(t + 1, nr):
            if a[i][t] != 0:
                q = a[i][t] // a[t][t]
                add_row(t, i, -q)
                if a[i][t] != 0:
                    dirty = True
        for j in range(t + 1, nc):
            if a[t][j] != 0:
                q = a[t][j] // a[t][t]
                add_col(t, j, -q)
                if a[t][j] != 0:
                    dirty = True
        if dirty:
            continue
        # force divisibility: fold any non-multiple into column t
        offender = None
        for i in range(t + 1, nr):
            for j in range(t + 1, nc):
                if a[i][j] % a[t][t] != 0:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            add_row(offender, t, 1)
            continue
        t += 1

    return (
        Matrix.from_rows(ZZ, u),
        Matrix.from_rows(ZZ, a),
        Matrix.from_rows(ZZ, v),
    )


def hermite_column_form(m: Matrix) -> Matrix:
    """Column-style Hermite normal form of the integer column lattice.

    Zero columns are dropped; pivots are positive, entries above are not
    reduced -- entries to the *right* of each pivot row are reduced into
    [0, pivot).  Canonical generators for a column lattice.
    """
    _check_int(m, "hermite_column_form")
    cols = [list(m.col(j)) for j in range(m.cols)]
    n = m.rows
    placed = 0
    for row in range(n):
        # gcd-combine columns beyond `placed` until one nonzero entry remains
        while True:
            nz = [k for k in range(placed, len(cols)) if cols[k][row] != 0]
            if not nz:
                break
            k0 = min(nz, key=lambda k: (abs(cols[k][row]), k))
            cols[placed], cols[k0] = cols[k0], cols[placed]
            clean = True
            for k in range(placed + 1, len(cols)):
                if cols[k][row] != 0:
                    q = cols[k][row] // cols[placed][row]
                    cols[k] = [x - q * y for x, y in zip(cols[k], cols[placed])]
                    if cols[k][row] != 0:
                        clean = False
            if clean:
                break
        if placed >= len(cols) or cols[placed][row] == 0:
            continue
        if cols[placed][row] < 0:
            cols[placed] = [-x for x in cols[placed]]
        # reduce earlier columns' entries on this row into [0, pivot)
        p = cols[placed][row]
        for k in range(placed):
            q = cols[k][row] // p
            if q:
                cols[k] = [x - q * y for x, y in zip(cols[k], cols[placed])]
        placed += 1
    kept = [c for c in cols if any(x != 0 for x in c)]
    if not kept:
        return Matrix(ZZ, n, 0, ())
    return Matrix.from_cols(ZZ, kept)


def kernel_basis_int(m: Matrix) -> Matrix:
    """Columns forming a lattice basis of {x in Z^cols : m.x = 0}."""
    _check_int(m, "kernel_basis_int")
    _, d, v = smith_normal_form(m)
    free = [j for j in range(m.cols) if j >= min(m.rows, m.cols) or d.get(j, j) == 0]
    if not free:
        return Matrix(ZZ, m.cols, 0, ())
    return v.submatrix(range(m.cols), free)


def solve_smith(snf, b):
    """Integer solution of m.x = b from m's Smith form (U, D, V), or None."""
    u, d, v = snf
    c = u.apply(tuple(b))
    y = [0] * v.rows
    r = min(d.rows, d.cols)
    for i in range(u.rows):
        di = d.get(i, i) if i < r else 0
        if di == 0:
            if c[i] != 0:
                return None
        else:
            if c[i] % di != 0:
                return None
            y[i] = c[i] // di
    return v.apply(tuple(y))


def solve_int(m: Matrix, b):
    """Integer solution of m.x = b, or None; one Smith form per call."""
    _check_int(m, "solve_int")
    if len(b) != m.rows:
        raise DimensionMismatch(f"rhs length {len(b)} != {m.rows} rows")
    return solve_smith(smith_normal_form(m), b)
