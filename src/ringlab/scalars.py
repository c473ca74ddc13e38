"""The largest scalar ring of a bilinear map and its relatives: symmetric
endomorphisms Sym_f(M), their commutant Z(f), the relation-preserving ring
P(f) with its induced action on the image, the enumerated Z_n chain used
as a brute-force oracle, scalar-driven decomposition, and the A(R)
computation for ring multiplication maps.

P(f), A(R) and the ring centroid come from one linear system,
centroid_of: the A in End(M) with f(Ax, y) = f(x, Ay) = C f(x, y) for a
linear C on im(f), optionally with A eta = eta C.  For nondegenerate f
this centroid is the stabilizer of ker(f-bar) inside Z(f), because
f(ABx, y) = f(BAx, y) for every B in Sym_f.  Sym_f, Z(f), that
stabilizer and the Z_n chain, which enumerates achievable sums over
small prime fields, are kept as independent oracles.
"""

from __future__ import annotations

from itertools import combinations

from . import artinian, gfenum
from .bilinear import (
    BilinearMap,
    FIELD,
    Subspace,
    field_carrier,
    image_submodule,
    is_full,
    restrict,
    rows_through,
    two_sided_kernel,
)
from .domains import Domain, PrimeField
from .errors import (
    DegenerateInput,
    DimensionMismatch,
    EnumerationTooLarge,
    InvariantViolation,
    NonFieldDomain,
    UnsupportedDomain,
    ValidationError,
)
from .linalg import Matrix, echelon, inverse, kernel_basis
from .records import field, record, replace

_ZN_ENUM_CAP = 81  # |M| cap for the enumerated diagnostic


@record
class EndoAlgebra:
    """A subspace of End(M) with a canonical (echelonized) basis."""

    domain: Domain
    dim: int
    basis: tuple  # of Matrix
    closed: bool
    unital: bool
    space: Subspace = field(repr=False, compare=False)  # spanned by the basis entries

    @staticmethod
    def from_vectors(domain: Domain, dim: int, vectors) -> "EndoAlgebra":
        spanned = Subspace.span(domain, vectors, dim * dim)
        # the same span with its echelon rows as basis, so coords read them
        space = Subspace(domain, dim * dim, spanned.rows, spanned.pivots, spanned.rows)
        mats = tuple(Matrix(domain, dim, dim, r) for r in space.rows)
        closed = all(space.contains(a.mul(b).entries) for a in mats for b in mats)
        unital = space.contains(Matrix.identity(domain, dim).entries)
        return EndoAlgebra(domain, dim, mats, closed, unital, space)

    @property
    def rank(self) -> int:
        return len(self.basis)

    def vectors(self):
        return [m.entries for m in self.basis]

    def contains(self, mat: Matrix) -> bool:
        return self.space.contains(mat.entries)

    def coords_of(self, mat: Matrix):
        return self.space.coords(mat.entries)

    def combine(self, coeffs) -> Matrix:
        acc = Matrix.zero(self.domain, self.dim, self.dim)
        for c, b in zip(coeffs, self.basis):
            acc = acc.add(b.scale(c))
        return acc

    def equal(self, other: "EndoAlgebra") -> bool:
        return self.vectors() == other.vectors()

    def is_commutative(self) -> bool:
        # a b = b a is symmetric in (a, b) and holds on the diagonal
        return all(a.mul(b).eq(b.mul(a)) for a, b in combinations(self.basis, 2))


def _require_field_map(f: BilinearMap, what: str):
    if f.m.kind != FIELD:
        raise NonFieldDomain(f"{what} needs a field carrier")


def tensor_matrix(f: BilinearMap) -> Matrix:
    """The structure matrix of f-bar: rows = N coordinates, columns indexed
    by basis pairs (i, j) flattened as i * dim + j."""
    d = f.m.domain
    n = f.m.dim
    rows = []
    for t in range(f.n.dim):
        row = []
        for i in range(n):
            for j in range(n):
                row.append(f.tensor[i][j][t])
        rows.append(tuple(row))
    return Matrix.from_rows(d, rows) if rows else Matrix(d, 0, n * n, ())


def symmetric_endos(f: BilinearMap) -> EndoAlgebra:
    """Solution space of f(Ax, y) = f(x, Ay) on all basis pairs."""
    _require_field_map(f, "symmetric_endos")
    d = f.m.domain
    n = f.m.dim
    zero = d.zero()
    rows = []
    for i in range(n):
        for j in range(n):
            for t in range(f.n.dim):
                row = {}
                for l in range(n):
                    row[l * n + i] = d.add(row.get(l * n + i, zero), f.tensor[l][j][t])
                    row[l * n + j] = d.sub(row.get(l * n + j, zero), f.tensor[i][l][t])
                rows.append(row)
    return EndoAlgebra.from_vectors(d, n, kernel_basis(d, rows, n * n))


def z_center(f: BilinearMap, sym: EndoAlgebra | None = None) -> EndoAlgebra:
    """Elements of Sym_f(M) commuting with all of Sym_f(M)."""
    if sym is None:
        sym = symmetric_endos(f)
    d = sym.domain
    rows = []
    for b in sym.basis:
        comms = [a.mul(b).sub(b.mul(a)) for a in sym.basis]
        for r in range(sym.dim):
            for c in range(sym.dim):
                rows.append(tuple(comm.get(r, c) for comm in comms))
    kern = kernel_basis(d, rows, sym.rank)
    return EndoAlgebra.from_vectors(d, sym.dim, [sym.combine(v).entries for v in kern])


def _tensor_action_vector(a_mat: Matrix, kappa, n: int, d: Domain):
    """(A (x) id) applied to a flattened tensor kappa."""
    out = [d.zero()] * (n * n)
    for l in range(n):
        for j in range(n):
            acc = d.zero()
            for i in range(n):
                acc = d.add(acc, d.mul(a_mat.get(l, i), kappa[i * n + j]))
            out[l * n + j] = acc
    return tuple(out)


def _stabilizer_inside(f: BilinearMap, z: EndoAlgebra, kernel_vectors) -> EndoAlgebra:
    """{A in span(z): f-bar((A (x) id) kappa) = 0 for all kappa}."""
    d = f.m.domain
    n = f.m.dim
    tmat = tensor_matrix(f)
    rows = []
    for kappa in kernel_vectors:
        images = [
            tmat.apply(_tensor_action_vector(a, kappa, n, d)) for a in z.basis
        ]
        for t in range(f.n.dim):
            rows.append(tuple(img[t] for img in images))
    kern = kernel_basis(d, rows, z.rank)
    return EndoAlgebra.from_vectors(d, n, [z.combine(v).entries for v in kern])


@record
class ScalarRingReport:
    """A ring of scalars of f with its action on the image of f."""

    algebra: EndoAlgebra
    image: Subspace                # im(f), with its echelon rows as basis
    action_on_image: tuple         # one Matrix per algebra basis element
    bilinear_certified: bool

    @property
    def image_rows(self) -> tuple:
        return self.image.rows


def centroid_of(f: BilinearMap, eta: Matrix | None = None) -> ScalarRingReport:
    """The A in End(M) with f(Ax, y) = f(x, Ay) = C f(x, y) for a linear C
    on im(f), and, when eta (dim M x dim N) is given, A eta = eta C on im(f).

    The unknowns are the n^2 entries of A.  The echelon of tensor_matrix(f)
    picks the first basis pairs p_k whose values span im(f) and writes
    every pair's value in the basis f(p_k); C is fixed by C f(p_k) =
    f(A p_k), so every condition is linear in A.  Each C is returned in
    the coordinates of the echelon image rows.

    Each condition is built as a sparse row (unknown -> coefficient) from
    the nonzero entries of the reduced tensor matrix and of eta f, and
    kernel_basis reads these rows as they are built.
    """
    _require_field_map(f, "centroid_of")
    d = f.m.domain
    n = f.m.dim
    zero = d.zero()

    def moved(rows, q, left=True):
        """For each sparse row v over basis pairs, the linear form A -> v at
        (A e_i, e_j), or at (e_i, A e_j), where q = (i, j), as a sparse row."""
        i, j = divmod(q, n)
        at = [(l * n + i, l * n + j) if left else (l * n + j, i * n + l) for l in range(n)]
        return [{u: v[w] for u, w in at if w in v} for v in rows]

    equations = []

    def keep(plus, minus):
        row = dict(plus)
        for u, c in minus.items():
            row[u] = d.sub(row.get(u, zero), c)
        equations.append(row)

    tmat = tensor_matrix(f)
    pairs, coef, _ = echelon(d, tmat.row_list())  # column q: f(q) in the basis f(p_k)
    images = [moved(coef, p) for p in pairs]  # C f(p_k) = f(A p_k)
    for q in range(n * n):
        scaled = [{} for _ in pairs]  # C f(q)
        for row, image in zip(coef, images):
            if q in row:
                for acc, form in zip(scaled, image):
                    for u, v in form.items():
                        acc[u] = d.add(acc.get(u, zero), d.mul(row[q], v))
        for left in (True, False):
            for acc, form in zip(scaled, moved(coef, q, left)):
                keep(acc, form)
    if eta is not None:
        eta_f = [
            {q: c for q, c in enumerate(row) if not d.is_zero(c)} for row in eta.mul(tmat).row_list()
        ]
        for p in pairs:
            # A eta f(p_k) = eta C f(p_k) = eta f(A p_k)
            for u, form in enumerate(moved(eta_f, p)):
                keep({u * n + s: row[p] for s, row in enumerate(eta_f) if p in row}, form)
    algebra = EndoAlgebra.from_vectors(d, n, kernel_basis(d, equations, n * n))
    # C = [f(A p_k)] B^-1 with B = [f(p_k)], both read at the pivots of
    # the echelon image rows, which are the image-row coordinates
    image = Subspace.span(d, image_submodule(f), f.n.dim)
    b_inv = inverse(tmat.submatrix(image.pivots, pairs))

    def at_lead(a, q):
        i, j = divmod(q, n)
        value = f.combine((a.get(l, i), l, j) for l in range(n))
        return [value[t] for t in image.pivots]

    action = tuple(
        Matrix.from_cols(d, [at_lead(a, p) for p in pairs]).mul(b_inv) for a in algebra.basis
    )
    return ScalarRingReport(algebra, image, action, False)


def _certified(f: BilinearMap, report: ScalarRingReport, name: str) -> ScalarRingReport:
    """The report with its closure invariants and bilinearity certified."""
    p = report.algebra
    if not p.unital or not p.closed or not p.is_commutative():
        raise InvariantViolation(f"{name} failed the unital commutative closure invariants")
    if not _certify_bilinearity(f, report):
        raise InvariantViolation(f"{name} bilinearity certificate failed")
    return replace(report, bilinear_certified=True)


def p_of_f(f: BilinearMap) -> ScalarRingReport:
    """The largest scalar ring of a nondegenerate bilinear map.

    P(f) is the centroid of f, solved by centroid_of: the A with
    f(Ax, y) = f(x, Ay) = C f(x, y).  It equals the stabilizer of
    ker(f-bar) inside Z(f) because for every B in Sym_f,
    f(ABx, y) = f(BAx, y), so nondegeneracy puts A in the commutant of
    Sym_f.  The report carries the action on im(f) and certifies that f
    is bilinear over the result.
    """
    _require_field_map(f, "p_of_f")
    if two_sided_kernel(f):
        raise DegenerateInput(
            "C(f) is nonzero; split off the foundation before computing P(f)"
        )
    return _certified(f, centroid_of(f), "P(f)")


def _apply_action_in_n(report: ScalarRingReport, index: int, value, d: Domain, n_dim: int):
    """A . value for value in N coordinates, via the image basis."""
    coords = report.image.coords(value)
    if coords is None:
        return None
    moved = report.action_on_image[index].apply(coords)
    return rows_through([moved], report.image_rows, field_carrier(d, n_dim))[0]


def _certify_bilinearity(f: BilinearMap, report: ScalarRingReport) -> bool:
    """f(Ax, y) = f(x, Ay) = A f(x, y), exactly, on all basis pairs.

    A f(b_i, b_j) is read off the image coordinates of f(b_i, b_j), found
    once per pair, and the N-vectors of A on the image basis, found once
    per A."""
    d = f.m.domain
    n = f.m.dim
    width = range(f.n.dim)
    actions = []
    for a, on_image in zip(report.algebra.basis, report.action_on_image):
        # A b_i = sum of c b_l over the nonzero entries (c, l) of column i
        cols = [
            [(a.get(l, i), l) for l in range(n) if not d.is_zero(a.get(l, i))]
            for i in range(n)
        ]
        columns = [on_image.col(k) for k in range(on_image.cols)]
        moved = rows_through(columns, report.image_rows, field_carrier(d, f.n.dim))
        actions.append((cols, moved))
    for i in range(n):
        for j in range(n):
            coords = report.image.coords(f.tensor[i][j]) if f.support[i][j] else ()
            if coords is None:
                return False
            terms = [(c, k) for k, c in enumerate(coords) if not d.is_zero(c)]
            for cols, moved in actions:
                left = f.combine((c, l, j) for c, l in cols[i])
                right = f.combine((c, i, l) for c, l in cols[j])
                scaled = [d.zero()] * len(width)
                for c, k in terms:
                    d.add_scaled(scaled, c, moved[k], width)
                if left != right or left != tuple(scaled):
                    return False
    return True


# -- enumerated Z_n diagnostic ---------------------------------------------------


def _simple_tensor_rows(f: BilinearMap):
    """All simple tensors x (x) y: the values of the universal map M x M -> M (x) M."""
    n = f.m.dim
    universal = tuple(
        tuple(tuple(int(t == i * n + j) for t in range(n * n)) for j in range(n))
        for i in range(n)
    )
    return gfenum.products(universal, f.m.domain.p)


def _relation_span_from_sums(f: BilinearMap, sums):
    """Differences of equal-f-sum tensors, as a canonical GF(p) span."""
    n = f.m.dim
    tmat = [
        [f.tensor[i][j][t] for i in range(n) for j in range(n)] for t in range(f.n.dim)
    ]
    gens = gfenum.equal_image_differences(sums, tmat, f.m.domain.p)
    return Subspace.span(f.m.domain, gens, n * n).rows


def z_n_diagnostic(f: BilinearMap, n: int) -> EndoAlgebra:
    """Exact Z_n(f) over a small prime field by enumerating all sums of at
    most n products; validates the kernel-stabilizer shortcut."""
    chain, _ = z_n_chain(f, n)
    # the chain is constant past its stabilization point
    return chain[min(n, len(chain)) - 1]


def z_n_chain(f: BilinearMap, max_n: int):
    """[Z_1, ..., Z_k] with k <= max_n, stopping early at stabilization.

    Returns (chain, stabilized_at) where stabilized_at is the first n
    with Z_n = Z_{n+1}, or None if the chain kept moving.
    """
    _require_field_map(f, "z_n_chain")
    if not isinstance(f.m.domain, PrimeField):
        raise UnsupportedDomain("the Z_n diagnostic enumerates prime fields only")
    p = f.m.domain.p
    if p**f.m.dim > _ZN_ENUM_CAP:
        raise EnumerationTooLarge(
            f"|M| = {p}^{f.m.dim} exceeds the diagnostic cap {_ZN_ENUM_CAP}"
        )
    z = z_center(f)
    if not z.basis:
        # every stabilizer inside the zero algebra is itself (dim M = 0)
        return [z] * min(2, max_n), (1 if max_n >= 2 else None)
    simple = _simple_tensor_rows(f)
    sums = simple
    chain = []
    stabilized_at = None
    for level in range(1, max_n + 1):
        span = _relation_span_from_sums(f, sums)
        chain.append(_stabilizer_inside(f, z, span))
        if len(chain) >= 2 and chain[-1].equal(chain[-2]) and stabilized_at is None:
            stabilized_at = level - 1
            break
        if level < max_n:
            sums = gfenum.sumset(sums, simple, p)
    return chain, stabilized_at


# -- scalar-driven decomposition ---------------------------------------------------


def endo_commutative_algebra(endo: EndoAlgebra) -> artinian.CommutativeAlgebra:
    """A closed unital commutative EndoAlgebra as an abstract algebra."""
    d = endo.domain
    tensor = []
    for a in endo.basis:
        row = []
        for b in endo.basis:
            coords = endo.coords_of(a.mul(b))
            if coords is None:
                raise InvariantViolation("endomorphism algebra is not closed")
            row.append(coords)
        tensor.append(tuple(row))
    unit = endo.coords_of(Matrix.identity(d, endo.dim))
    if unit is None:
        raise InvariantViolation("endomorphism algebra has no identity")
    return artinian.CommutativeAlgebra(d, endo.rank, tuple(tensor), unit)


@record
class BilinearComponent:
    map: BilinearMap
    m_rows: tuple
    n_rows: tuple
    local: artinian.LocalFactor


@record
class BilinearDecomposition:
    components: tuple
    scalar_report: ScalarRingReport
    scalar_algebra: artinian.CommutativeAlgebra

    @property
    def blocks(self):
        return tuple((c.map.tensor, c.m_rows, c.n_rows) for c in self.components)


def decompose_via_scalars(f: BilinearMap, seed: int = 0) -> BilinearDecomposition:
    """Split a full nondegenerate map along the idempotents of P(f)."""
    _require_field_map(f, "decompose_via_scalars")
    if not is_full(f):
        raise ValidationError("decompose_via_scalars needs a full map")
    report = p_of_f(f)
    d = f.m.domain
    algebra = endo_commutative_algebra(report.algebra)
    factors = artinian.local_decomposition(algebra, seed)
    components = []
    for lf in factors:
        e_m = report.algebra.combine(lf.idempotent)
        # f is full, so the image rows are the standard basis of N
        e_n = Matrix.zero(d, f.n.dim, f.n.dim)
        for c, act in zip(lf.idempotent, report.action_on_image):
            e_n = e_n.add(act.scale(c))
        m_rows = Subspace.span(d, [e_m.col(j) for j in range(e_m.cols)], f.m.dim).rows
        n_rows = Subspace.span(d, [e_n.col(j) for j in range(e_n.cols)], f.n.dim).rows
        comp_map = BilinearMap(
            field_carrier(d, len(m_rows)),
            field_carrier(d, len(n_rows)),
            restrict(f.evaluate, d, m_rows, n_rows),
        )
        components.append(
            BilinearComponent(comp_map, tuple(m_rows), tuple(n_rows), lf)
        )
    deco = BilinearDecomposition(tuple(components), report, algebra)
    _verify_component_structure(f, deco)
    return deco


def _verify_component_structure(f: BilinearMap, deco: BilinearDecomposition):
    d = f.m.domain
    if sum(len(c.m_rows) for c in deco.components) != f.m.dim:
        raise InvariantViolation("component M blocks do not fill M")
    if sum(len(c.n_rows) for c in deco.components) != f.n.dim:
        raise InvariantViolation("component N blocks do not fill N")
    for i, a in enumerate(deco.components):
        for j, b in enumerate(deco.components):
            if i == j:
                continue
            for x in a.m_rows:
                for y in b.m_rows:
                    if not f.n.is_zero(f.evaluate(x, y)):
                        raise InvariantViolation("cross-component product is nonzero")
    for comp in deco.components:
        sub_report = p_of_f(comp.map)
        if sub_report.algebra.rank != comp.local.algebra.dim:
            raise InvariantViolation(
                "component scalar ring does not match its local factor"
            )


# -- A(R): the largest ring of scalars of a ring multiplication ---------------------


@record
class ScalarActionReport:
    """A(R) acting on R/Ann(R), with the compatible action on R^2."""

    algebra: EndoAlgebra          # on quotient coordinates
    action_on_square: tuple       # one Matrix per basis element, in R^2 basis coords
    quotient_rows: tuple          # lifts of the R/Ann basis, in R coordinates
    annihilator_rows: tuple
    square_rows: tuple            # basis of R^2, in R coordinates
    eta: Matrix                   # R^2 basis -> quotient coordinates
    quotient_map: BilinearMap     # f' itself


def largest_scalar_action(
    mult: BilinearMap, ann_rows, square_rows
) -> ScalarActionReport:
    """A(R) = {A in P(f') : A is eta-linear}, f' the induced quotient map.

    mult is the ring multiplication R x R -> R over a field carrier;
    ann_rows and square_rows are canonical bases of Ann(R) and R^2.
    """
    _require_field_map(mult, "largest_scalar_action")
    if mult.m.dim != mult.n.dim:
        raise DimensionMismatch("ring multiplication must map R x R into R")
    if not square_rows:
        raise DegenerateInput("zero multiplication: the quotient map is degenerate")
    d = mult.m.domain
    dim = mult.m.dim
    q_rows = Subspace.span(d, ann_rows, dim).complement()
    fprime = BilinearMap(
        field_carrier(d, len(q_rows)),
        field_carrier(d, len(square_rows)),
        restrict(mult.evaluate, d, q_rows, square_rows),
    )
    if two_sided_kernel(fprime):
        raise InvariantViolation("induced quotient map is degenerate")
    # eta: the class of each R^2 basis vector in the quotient
    change = Subspace.span(d, list(q_rows) + list(ann_rows), dim)
    eta_cols = []
    for s in square_rows:
        coords = change.coords(s)
        if coords is None:
            raise InvariantViolation("R^2 vector outside R")
        eta_cols.append(coords[: len(q_rows)])
    eta = Matrix.from_cols(d, eta_cols)
    rep = _certified(fprime, centroid_of(fprime, eta), "A(R)")
    if len(rep.image_rows) != len(square_rows):
        raise InvariantViolation("the quotient map does not fill R^2")
    # f' is full, so its image rows are the R^2 basis: C is in R^2 coords
    return ScalarActionReport(
        algebra=rep.algebra,
        action_on_square=rep.action_on_image,
        quotient_rows=tuple(q_rows),
        annihilator_rows=tuple(ann_rows),
        square_rows=tuple(square_rows),
        eta=eta,
        quotient_map=fprime,
    )
