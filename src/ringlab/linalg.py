"""Exact linear algebra: echelon forms, kernels, solving, and Smith/Hermite
normal forms over the coefficient domains.

Matrices are immutable row-major tuples; all routines are pure functions.
echelon is the one row reduction over a field: it reads sparse or dense
rows and runs every row operation through the domain's add_scaled kernel.
rref, kernel_basis, solve, inverse and bilinear.Subspace read it; solve
reduces [m | b] and inverse [m | I].  The integer routines
(smith_normal_form, hermite and the integer solve/kernel) require INTEGERS.
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


def _add_scaled(d: Domain, acc: dict, c, row: dict):
    """acc += c * row on sparse rows; an entry that cancels stays as a zero."""
    for j in row:
        if j not in acc:
            acc[j] = d.zero()
    d.add_scaled(acc, c, row, row)


def echelon(domain: Domain, rows):
    """The reduced row-echelon form of the span of rows, over a field.

    Each row is a {column: entry} dict or a sequence.  Each row is reduced
    against the pivot rows found so far, which are zero at each other's
    pivots; a row left nonzero is normalised at its first column, and that
    column is cleared from the earlier pivot rows.  Returns the pivots in
    ascending order, the reduced rows as {column: nonzero entry} dicts in
    the same order, and the indices of the rows that enlarged the span.
    The reduced form of a row space is unique, so the order of the rows
    changes the work, never the result.
    """
    require_field(domain, "echelon")
    d = domain
    is_zero = d.is_zero
    found = {}  # pivot column -> its row, zero left of it and at every other pivot
    enlarged = []
    for k, row in enumerate(rows):
        items = row.items() if isinstance(row, dict) else enumerate(row)
        v = {j: x for j, x in items if not is_zero(x)}
        for p in [j for j in v if j in found]:
            _add_scaled(d, v, d.neg(v[p]), found[p])
        v = {j: x for j, x in v.items() if not is_zero(x)}
        if not v:
            continue
        p = min(v)
        inv = d.inv(v[p])
        v = {j: d.mul(inv, x) for j, x in v.items()}
        for r in found.values():
            if p in r:
                if not is_zero(r[p]):
                    _add_scaled(d, r, d.neg(r[p]), v)
                del r[p]
        found[p] = v
        enlarged.append(k)
    pivots = tuple(sorted(found))
    reduced = [{j: x for j, x in found[p].items() if not is_zero(x)} for p in pivots]
    return pivots, reduced, enlarged


def rref(m: Matrix):
    """The reduced row-echelon form of m as a Matrix of m's shape, its rows
    past the rank zero: (matrix, pivot columns, rank)."""
    d = m.domain
    pivots, reduced, _ = echelon(d, (m.row(i) for i in range(m.rows)))
    zero = d.zero()
    entries = tuple(row.get(j, zero) for row in reduced for j in range(m.cols))
    entries += (zero,) * ((m.rows - len(pivots)) * m.cols)
    return Matrix(d, m.rows, m.cols, entries), pivots, len(pivots)


def _kernel_from(d: Domain, pivots, reduced, width: int) -> list:
    """The kernel vectors of the first width columns of an echelon form
    whose pivots all lie among them, one per free column."""
    pivot_set = set(pivots)
    kernel = {j: [d.zero()] * width for j in range(width) if j not in pivot_set}
    for j, vec in kernel.items():
        vec[j] = d.one()
    for pc, row in zip(pivots, reduced):
        for j, c in row.items():
            if j in kernel:
                kernel[j][pc] = d.neg(c)
    return [tuple(vec) for vec in kernel.values()]


def kernel_basis(domain: Domain, rows, width: int) -> list:
    """{x in domain^width : r.x = 0 for every row r}, over a field: one
    vector per free column, 1 there and 0 at the other free columns.
    rows are {column: entry} dicts or sequences, as echelon reads them."""
    pivots, reduced, _ = echelon(domain, rows)
    return _kernel_from(domain, pivots, reduced, width)


def solve(m: Matrix, b):
    """Particular solution of m.x = b plus a kernel basis, or None.

    b is a coordinate sequence of length m.rows.
    """
    if len(b) != m.rows:
        raise DimensionMismatch(f"rhs length {len(b)} != {m.rows} rows")
    d = m.domain
    pivots, reduced, _ = echelon(d, (m.row(i) + (b[i],) for i in range(m.rows)))
    if m.cols in pivots:
        return None
    x = [d.zero()] * m.cols
    for pc, row in zip(pivots, reduced):
        x[pc] = row.get(m.cols, x[pc])
    return tuple(x), _kernel_from(d, pivots, reduced, m.cols)


def inverse(m: Matrix) -> Matrix:
    if m.rows != m.cols:
        raise DimensionMismatch("only square matrices invert")
    d, n = m.domain, m.rows
    units = unit_vectors(d, n)
    pivots, reduced, _ = echelon(d, (m.row(i) + units[i] for i in range(n)))
    if pivots != tuple(range(n)):
        raise NotInvertible("matrix is singular")
    zero = d.zero()
    return Matrix(d, n, n, tuple(row.get(n + j, zero) for row in reduced for j in range(n)))


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
