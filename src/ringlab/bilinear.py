"""Bilinear maps on formal modules: two-sided kernel, image, fullness,
foundation/addition splitting, divisible/bounded splitting, and width.

A Carrier is the home of one side of a map: a finite-dimensional vector
space over an exact field, a finitely generated Z-module given by a
formal summand list, or a mixed divisible-plus-torsion formal sum.  The
general case M1 != M2 is not modeled; maps are f: M x M -> N presented by
a structure tensor tensor[i][j] = f(b_i, b_j) in N-coordinates.

BilinearMap builds support[i][j], the t with tensor[i][j][t] nonzero, once;
evaluate, combine, its commutativity and associativity witness walks (the
one law check behind RingPresentation's flags and CommutativeAlgebra),
RingPresentation's Lie walk, scalars' bilinearity certificate and lie's
ad rows read it, not the dense tensor.

A RingPresentation is a map M x M -> M read as a ring.  It certifies each
of its flags in full the first time it is read, so a sub-ring whose flags
nobody reads is never walked; the ring pipelines on it are in rings.

Subspace is the one echelon type over a field: every span, membership,
coordinate, complement, intersection and greedy basis extension in
ringlab goes through it.  Its rows, pivots and greedy picks all come from
one linalg.echelon of the spanning vectors.

Carrier.span is the one place that picks a span type: a Subspace over a
field, a modules.Lattice over Z, a BlockSpan of the two on a mixed
carrier.  All three answer rows, contains, intersect and full.
"""

from __future__ import annotations

import operator
from functools import cached_property
from math import lcm

from . import gfenum, modules
from .domains import Domain, PrimeField, QQ, Rationals, ZZ
from .errors import (
    DimensionMismatch,
    NoSplit,
    SearchBoundExceeded,
    UnsupportedDomain,
    ValidationError,
)
from .linalg import Matrix, echelon, inverse, kernel_basis, unit_vectors
from .records import record

FIELD = "field"
INTEGER = "integer"
MIXED = "mixed"


@record
class Carrier:
    """One side of a bilinear map; see the module docstring."""

    domain: Domain | None
    dim: int
    desc: modules.ModuleDesc | None

    @property
    def kind(self) -> str:
        if self.domain is not None and self.domain.is_field:
            return FIELD
        if self.domain == ZZ:
            return INTEGER
        return MIXED

    def zero(self):
        if self.kind == FIELD:
            return (self.domain.zero(),) * self.dim
        return self.desc.zero()

    def reduce(self, coords):
        if len(coords) != self.dim:
            raise DimensionMismatch(f"expected {self.dim} coordinates, got {len(coords)}")
        if self.kind == FIELD:
            return tuple(coords)
        return self.desc.reduce(coords)

    def add(self, a, b):
        if self.kind == FIELD:
            d = self.domain
            return tuple(d.add(x, y) for x, y in zip(a, b))
        return self.desc.add(a, b)

    def neg(self, a):
        if self.kind == FIELD:
            return tuple(self.domain.neg(x) for x in a)
        return self.desc.neg(a)

    def is_zero(self, a) -> bool:
        if self.kind == FIELD:
            return all(self.domain.is_zero(x) for x in a)
        return self.desc.is_zero_elem(a)

    def eq(self, a, b) -> bool:
        return self.is_zero(self.add(a, self.neg(b)))

    def span(self, vectors):
        """The submodule spanned by vectors, in the carrier's span type."""
        if self.kind == FIELD:
            return Subspace.span(self.domain, vectors, self.dim)
        if self.kind == INTEGER:
            return modules.Lattice.span(self.desc, vectors)
        return BlockSpan.span(self.desc, vectors)

    def describe(self) -> str:
        if self.kind == FIELD:
            return f"{self.domain.describe()}^{self.dim}"
        return self.desc.describe()


def field_carrier(domain: Domain, dim: int) -> Carrier:
    if not domain.is_field:
        raise ValidationError("field_carrier needs a field domain")
    return Carrier(domain, dim, None)


def module_carrier(desc: modules.ModuleDesc) -> Carrier:
    """Carrier for a formal sum; pure-rational sums become Q-vector spaces."""
    if desc.is_divisible():
        return field_carrier(QQ, desc.dim)
    if desc.is_fg_integral():
        return Carrier(ZZ, desc.dim, desc)
    return Carrier(None, desc.dim, desc)


@record
class BilinearMap:
    m: Carrier
    n: Carrier
    tensor: tuple  # tensor[i][j] = f(b_i, b_j) coordinates in N

    def __post_init__(self):
        tensor = tuple(
            tuple(self.n.reduce(entry) for entry in row) for row in self.tensor
        )
        if len(tensor) != self.m.dim or any(len(row) != self.m.dim for row in tensor):
            raise DimensionMismatch("tensor shape must be dim(M) x dim(M)")
        object.__setattr__(self, "tensor", tensor)
        self._validate_cross_structure()
        # support[i][j]: the t with f(b_i, b_j)_t nonzero, as Domain.add_scaled
        # reads them; built once, not a field, so ==, hash and repr see only
        # the tensor
        nonzero = (
            (lambda c, z=self.n.domain.is_zero: not z(c))
            if self.n.kind == FIELD
            else (lambda c: c != 0)
        )
        support = tuple(
            tuple(tuple(t for t, c in enumerate(e) if nonzero(c)) for e in row)
            for row in tensor
        )
        object.__setattr__(self, "support", support)

    def _validate_cross_structure(self):
        """Torsion and divisibility constraints forced by Z-bilinearity.

        An entry indexed by a cyclic basis vector of order q is killed by
        q; an entry indexed by a divisible basis vector must itself be
        divisible.  Together these force divisible x bounded pairs to 0.
        """
        m_desc = self.m.desc
        n_desc = self.n.desc
        if self.m.kind == FIELD and self.n.kind == FIELD:
            if self.m.domain != self.n.domain:
                raise ValidationError(
                    "both sides of a bilinear map must share the scalar domain"
                )
            return
        if (self.m.kind == FIELD) != (self.n.kind == FIELD):
            m_desc = m_desc or _field_desc(self.m)
            n_desc = n_desc or _field_desc(self.n)
            if m_desc is None or n_desc is None:
                raise ValidationError("cannot mix an extension field side with modules")
        for i in range(self.m.dim):
            si = m_desc.summands[i]
            for j in range(self.m.dim):
                for entry, label in ((self.tensor[i][j], "row"), (self.tensor[j][i], "col")):
                    if si.kind == modules.CYCLIC:
                        killed = n_desc.scale_int(si.modulus, entry)
                        if not n_desc.is_zero_elem(killed):
                            raise ValidationError(
                                f"entry f involving torsion basis vector {i} "
                                f"(order {si.modulus}) is not killed by the order"
                            )
                    if si.kind == modules.RATIONAL:
                        for t, st in enumerate(n_desc.summands):
                            if st.kind != modules.RATIONAL and entry[t] != 0:
                                raise ValidationError(
                                    f"entry f involving divisible basis vector {i} "
                                    "has non-divisible support"
                                )

    def _arith(self):
        """(zero, is_zero, add, mul): the field's, or exact int/Fraction
        arithmetic that N reduces at the end."""
        if self.m.kind == FIELD:
            d = self.m.domain
            return d.zero(), d.is_zero, d.add, d.mul
        return 0, (lambda c: c == 0), operator.add, operator.mul

    def combine(self, terms):
        """The sum of c * f(b_i, b_j) over the (c, i, j) in terms, read off
        the nonzero coordinates in support and reduced in N; over a field
        through Domain.add_scaled."""
        zero, _, add, mul = self._arith()
        acc = [zero] * self.n.dim
        tensor, support = self.tensor, self.support
        if self.m.kind == FIELD:
            add_scaled = self.m.domain.add_scaled
            for c, i, j in terms:
                if support[i][j]:
                    add_scaled(acc, c, tensor[i][j], support[i][j])
        else:
            for c, i, j in terms:
                entry = tensor[i][j]
                for t in support[i][j]:
                    acc[t] = add(acc[t], mul(c, entry[t]))
        return self.n.reduce(tuple(acc))

    def evaluate(self, x, y):
        x = self.m.reduce(x)
        y = self.m.reduce(y)
        # zero coordinates are skipped, so Fraction scalars never touch
        # cyclic coordinates
        _, is_zero, _, mul = self._arith()
        return self.combine(
            (mul(xi, yj), i, j)
            for i, xi in enumerate(x)
            if not is_zero(xi)
            for j, yj in enumerate(y)
            if not is_zero(yj)
        )

    def commutativity_witness(self):
        """The first basis pair (i, j), i < j in row-major order, with
        f(b_i, b_j) != f(b_j, b_i); None when f is symmetric.  Entries are
        canonical, so equal nonzero coordinates mean equal entries."""
        s, t, n = self.support, self.tensor, self.m.dim
        for i in range(n):
            for j in range(i + 1, n):
                if s[i][j] != s[j][i] or any(t[i][j][u] != t[j][i][u] for u in s[i][j]):
                    return (i, j)
        return None

    def associativity_witness(self):
        """For f: M x M -> M, the first basis triple (i, j, k) in row-major
        order with (b_i b_j) b_k != b_i (b_j b_k); None when f is
        associative.  Each side is one combine over the nonzero coordinates
        of one product."""
        s, t, n, eq = self.support, self.tensor, self.m.dim, self.n.eq
        for i in range(n):
            for j in range(n):
                sij, tij = s[i][j], t[i][j]
                for k in range(n):
                    left = [(tij[u], u, k) for u in sij]
                    right = [(t[j][k][u], i, u) for u in s[j][k]]
                    if left or right:
                        a, b = self.combine(left), self.combine(right)
                        if a != b and not eq(a, b):  # unequal coordinates may agree in N
                            return (i, j, k)
        return None

    def entries(self):
        for i in range(self.m.dim):
            for j in range(self.m.dim):
                yield (i, j), self.tensor[i][j]

    def describe(self) -> str:
        return f"{self.m.describe()} x {self.m.describe()} -> {self.n.describe()}"


@record
class RingPresentation:
    """A ring on a carrier with multiplication tensor[i][j] = b_i * b_j.

    The associative, commutative and lie flags are computed on all basis
    triples the first time each is read, never trusted from input.
    """

    carrier: Carrier
    tensor: tuple

    def __post_init__(self):
        bil = BilinearMap(self.carrier, self.carrier, self.tensor)
        object.__setattr__(self, "tensor", bil.tensor)
        object.__setattr__(self, "_bilinear", bil)

    @cached_property
    def associative(self) -> bool:
        return self._bilinear.associativity_witness() is None

    @cached_property
    def commutative(self) -> bool:
        return self._bilinear.commutativity_witness() is None

    @cached_property
    def lie(self) -> bool:
        return self.lie_witness() is None

    def as_bilinear(self) -> BilinearMap:
        return self._bilinear

    @cached_property
    def ann_rows(self) -> tuple:
        """Canonical generators of Ann(R), computed once per presentation."""
        return tuple(two_sided_kernel(self._bilinear))

    @cached_property
    def square_rows(self) -> tuple:
        """Canonical generators of R^2, computed once per presentation."""
        return tuple(_ideal_closure(self, image_submodule(self._bilinear)))

    @property
    def dim(self) -> int:
        return self.carrier.dim

    def _basis(self):
        if self.carrier.kind == FIELD:
            return unit_vectors(self.carrier.domain, self.dim)
        out = []
        for i in range(self.dim):
            coords = list(self.carrier.zero())
            coords[i] = 1
            out.append(self.carrier.reduce(coords))
        return out

    def mult(self, x, y):
        return self._bilinear.evaluate(x, y)

    def lie_witness(self):
        """The first basis pair (i, j) with b_i b_i != 0 or b_i b_j != -b_j b_i,
        else the first basis triple (i, j, k) that breaks Jacobi; None for a
        Lie ring."""
        f = self._bilinear
        c = self.carrier
        s, t, n = f.support, self.tensor, self.dim
        for i in range(n):
            if s[i][i]:
                return (i, i)
            for j in range(n):
                if not c.is_zero(c.add(t[i][j], t[j][i])):
                    return (i, j)
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    # b_i(b_j b_k) + b_j(b_k b_i) + b_k(b_i b_j)
                    jac = [(t[j][k][u], i, u) for u in s[j][k]]
                    jac += [(t[k][i][u], j, u) for u in s[k][i]]
                    jac += [(t[i][j][u], k, u) for u in s[i][j]]
                    if jac and not c.is_zero(f.combine(jac)):
                        return (i, j, k)
        return None


def _ideal_closure(r: RingPresentation, gens):
    """The ideal generated by the canonical generators gens: re-span them
    with their products by each basis vector on either side until stable."""
    f = r.as_bilinear()
    basis = r._basis()
    while True:
        extra = [p for g in gens for b in basis for p in (f.evaluate(g, b), f.evaluate(b, g))]
        new_gens = list(r.carrier.span(list(gens) + extra).rows)
        if new_gens == gens:
            return gens
        gens = new_gens


def _field_desc(carrier: Carrier) -> modules.ModuleDesc | None:
    """Formal-sum shape of a field carrier when one exists."""
    if isinstance(carrier.domain, Rationals):
        return modules.ModuleDesc(tuple(modules.rational_line() for _ in range(carrier.dim)))
    if isinstance(carrier.domain, PrimeField):
        p = carrier.domain.p
        return modules.ModuleDesc(tuple(modules.cyclic(p) for _ in range(carrier.dim)))
    return None


# -- subspaces over a field ----------------------------------------------------


@record
class Subspace:
    """A subspace of domain^width spanned by basis, the caller's vectors in
    order: rows are its reduced echelon basis, pivots their lead columns.
    For an independent basis, coords(v) maps v read at the pivots to basis
    through the inverse of basis's pivot-column block, computed once.
    """

    domain: Domain
    width: int
    rows: tuple
    pivots: tuple
    basis: tuple

    @staticmethod
    def span(domain: Domain, vectors, width: int) -> "Subspace":
        basis = tuple(tuple(v) for v in vectors)
        pivots, reduced, _ = echelon(domain, basis)
        zero = domain.zero()
        rows = tuple(tuple(row.get(j, zero) for j in range(width)) for row in reduced)
        return Subspace(domain, width, rows, pivots, basis)

    @property
    def independent(self) -> bool:
        return len(self.rows) == len(self.basis)

    @property
    def full(self) -> bool:
        return len(self.rows) == self.width

    def _echelon_coords(self, v):
        """v read at the pivots, or None when those entries do not rebuild v."""
        d = self.domain
        at_pivots = [v[p] for p in self.pivots]
        rest = list(v)
        for c, row in zip(at_pivots, self.rows):
            if not d.is_zero(c):
                d.add_scaled(rest, d.neg(c), row, range(self.width))
        return None if any(not d.is_zero(x) for x in rest) else at_pivots

    def contains(self, v) -> bool:
        return self._echelon_coords(v) is not None

    @cached_property
    def _to_basis(self):
        """Columns of the inverse of basis's pivot-column block."""
        if not self.independent:
            raise ValidationError("coordinates need an independent basis")
        block = [[b[p] for b in self.basis] for p in self.pivots]
        inv = inverse(Matrix.from_rows(self.domain, block))
        return [inv.col(s) for s in range(inv.cols)]

    def coords(self, v):
        """Coordinates of v in basis, or None."""
        at_pivots = self._echelon_coords(v)
        if at_pivots is None:
            return None
        d = self.domain
        acc = [d.zero()] * len(self.basis)
        for c, col in zip(at_pivots, self._to_basis):
            if not d.is_zero(c):
                d.add_scaled(acc, c, col, range(len(acc)))
        return tuple(acc)

    def complement(self):
        """The standard basis vectors at the non-pivot columns."""
        units = unit_vectors(self.domain, self.width)
        return [e for i, e in enumerate(units) if i not in self.pivots]

    def intersect(self, other: "Subspace") -> "Subspace":
        """By Zassenhaus: in the echelon span of (u, u) for u in rows and
        (w, 0) for w in other.rows, the rows led past the first half hold
        the intersection in their second half."""
        d, w = self.domain, self.width
        both = [u + u for u in self.rows] + [x + (d.zero(),) * w for x in other.rows]
        both = Subspace.span(d, both, 2 * w)
        return Subspace.span(d, [r[w:] for r, p in zip(both.rows, both.pivots) if p >= w], w)

    def extend(self, candidates):
        """Indices of the candidates that enlarge the span, greedily in order."""
        k = len(self.rows)
        _, _, enlarged = echelon(self.domain, list(self.rows) + list(candidates))
        return [i - k for i in enlarged[k:]]


@record
class BlockSpan:
    """A submodule of a mixed formal sum without free lines, blockwise: a
    Subspace over Q on the divisible lines, a Lattice on the bounded ones.
    Ann(R), R^2 and Delta(R) on a mixed carrier are such sums, since a
    divisible and a bounded basis vector multiply to 0."""

    ambient: modules.ModuleDesc
    divisible: Subspace
    bounded: modules.Lattice

    @staticmethod
    def span(ambient: modules.ModuleDesc, vectors) -> "BlockSpan":
        _, m_b, (d_idx, b_idx) = modules.divisible_bounded_split(ambient)
        vectors = list(vectors)
        return BlockSpan(
            ambient,
            Subspace.span(QQ, [modules.project_coords(v, d_idx) for v in vectors], len(d_idx)),
            modules.Lattice.span(m_b, [modules.project_coords(v, b_idx) for v in vectors]),
        )

    def _parts(self):
        m = self.ambient
        return (m.divisible_part, self.divisible), (m.bounded_part, self.bounded)

    @cached_property
    def rows(self) -> tuple:
        m = self.ambient
        return tuple(
            modules.reassemble_coords(m, [(idx, r)]) for idx, p in self._parts() for r in p.rows
        )

    def contains(self, x) -> bool:
        return all(p.contains(modules.project_coords(x, idx)) for idx, p in self._parts())

    def intersect(self, other: "BlockSpan") -> "BlockSpan":
        d, b = self.divisible.intersect(other.divisible), self.bounded.intersect(other.bounded)
        return BlockSpan(self.ambient, d, b)

    @property
    def full(self) -> bool:
        return self.divisible.full and self.bounded.full


# ringbench's trace spans wrap these three by name; ringlab itself calls Subspace


def canonical_span_rows(domain: Domain, vectors, width: int):
    return list(Subspace.span(domain, vectors, width).rows)


def complement_rows(domain: Domain, span_rows_, width: int):
    return Subspace.span(domain, span_rows_, width).complement()


def coords_in_rows(domain: Domain, rows, vec):
    return Subspace.span(domain, rows, len(vec)).coords(vec)


def restrict(mult, domain: Domain, m_rows, n_rows):
    """Structure tensor of mult on m_rows, in n_rows coordinates (a field).

    Entry [a][b] holds the coordinates of mult(m_rows[a], m_rows[b]) in
    n_rows; a product outside their span raises ValidationError.
    """
    # with no target rows only zero products have coordinates, at any width
    target = Subspace.span(domain, n_rows, len(n_rows[0]) if n_rows else 0)
    tensor = []
    for x in m_rows:
        row = []
        for y in m_rows:
            coords = target.coords(mult(x, y))
            if coords is None:
                raise ValidationError("a product left the span of the target rows")
            row.append(coords)
        tensor.append(tuple(row))
    return tuple(tensor)


def rows_through(rows, base_rows, carrier: Carrier):
    """Interpret rows given in base_rows-coordinates back into the ambient."""
    if carrier.kind == FIELD:
        add, mul = carrier.domain.add, carrier.domain.mul
    else:
        add, mul = operator.add, operator.mul
    out = []
    for row in rows:
        vec = list(carrier.zero())
        for c, base in zip(row, base_rows):
            for t in range(carrier.dim):
                vec[t] = add(vec[t], mul(c, base[t]))
        out.append(carrier.reduce(vec))
    return out


# -- kernel and image ----------------------------------------------------------


def _field_kernel(f: BilinearMap):
    d = f.m.domain
    rows = []
    for j in range(f.m.dim):
        for t in range(f.n.dim):
            rows.append(tuple(f.tensor[i][j][t] for i in range(f.m.dim)))
            rows.append(tuple(f.tensor[j][i][t] for i in range(f.m.dim)))
    return list(Subspace.span(d, kernel_basis(d, rows, f.m.dim), f.m.dim).rows)


def _integer_kernel(f: BilinearMap):
    """C(f) is the preimage of 0 in N^(2m) under x -> (f(x, b_j), f(b_j, x))_j.
    A rational line of N asks for an exact zero with no relation, so its
    row is cleared of denominators and the line counts as free."""
    m, n = f.m.dim, f.n.dim
    rows = [
        [f.tensor[i][j][t] if left else f.tensor[j][i][t] for i in range(m)]
        for j in range(m)
        for left in (True, False)
        for t in range(n)
    ]
    scales = [lcm(*(c.denominator for c in row)) for row in rows]
    entries = tuple(int(c * s) for row, s in zip(rows, scales) for c in row)
    stacked = Matrix(ZZ, len(rows), m, entries)
    lines = tuple(
        modules.free_line() if s.kind == modules.RATIONAL else s for s in _desc_of(f.n).summands
    )
    zero = modules.Lattice.span(modules.ModuleDesc(lines * (2 * m)), ())
    return list(modules.Lattice.span(f.m.desc, zero.preimage(stacked)).rows)


def two_sided_kernel(f: BilinearMap):
    """Canonical generators of C(f) = {x : f(x, M) = f(M, x) = 0}."""
    if f.m.kind == FIELD:
        return _field_kernel(f)
    if f.m.kind == INTEGER:
        return _integer_kernel(f)
    f_d, f_c, (d_idx, b_idx) = torsion_split(f)
    return [
        modules.reassemble_coords(f.m.desc, [(idx[0], gen)])
        for idx, part in ((d_idx, f_d), (b_idx, f_c))
        for gen in two_sided_kernel(part)
    ]


def image_submodule(f: BilinearMap):
    """Canonical generators of <f(M, M)> inside N.  On a mixed N the image
    is blockwise only when M splits too, so an M with a free line is
    refused first."""
    if f.n.kind == MIXED:
        modules.divisible_bounded_split(_desc_of(f.m))
    return list(f.n.span([entry for _, entry in f.entries()]).rows)


def is_full(f: BilinearMap) -> bool:
    return f.n.span(image_submodule(f)).full


def is_nondegenerate(f: BilinearMap) -> bool:
    return not two_sided_kernel(f)


def is_identically_degenerate(f: BilinearMap) -> bool:
    return all(f.n.is_zero(entry) for _, entry in f.entries())


# -- torsion split -------------------------------------------------------------


def _desc_of(carrier: Carrier) -> modules.ModuleDesc:
    desc = carrier.desc or _field_desc(carrier)
    if desc is None:
        raise UnsupportedDomain(
            "no formal-sum shape for this carrier (extension field)"
        )
    return desc


def torsion_split(f: BilinearMap):
    """(f_D, f_C, ((M_D idx, N_D idx), (M_B idx, N_B idx))).

    f_D is the restriction to the divisible parts, f_C to the bounded
    parts; cross blocks are zero by the construction invariant.
    """
    m_desc = _desc_of(f.m)
    n_desc = _desc_of(f.n)
    m_d, m_b, (m_didx, m_bidx) = modules.divisible_bounded_split(m_desc)
    n_d, n_b, (n_didx, n_bidx) = modules.divisible_bounded_split(n_desc)
    tensor_d = tuple(
        tuple(
            tuple(f.tensor[i][j][t] for t in n_didx)
            for j in m_didx
        )
        for i in m_didx
    )
    tensor_b = tuple(
        tuple(
            tuple(f.tensor[i][j][t] for t in n_bidx)
            for j in m_bidx
        )
        for i in m_bidx
    )
    f_d = BilinearMap(module_carrier(m_d), module_carrier(n_d), tensor_d)
    f_c = BilinearMap(module_carrier(m_b), module_carrier(n_b), tensor_b)
    return f_d, f_c, ((m_didx, n_didx), (m_bidx, n_bidx))


# -- foundation / addition -----------------------------------------------------


@record
class BilinearSplit:
    foundation: BilinearMap
    addition: BilinearMap
    m_foundation_basis: tuple
    m_kernel_basis: tuple
    n_image_basis: tuple
    n_complement_basis: tuple

    @property
    def blocks(self):
        return (
            (self.foundation.tensor, self.m_foundation_basis, self.n_image_basis),
            (self.addition.tensor, self.m_kernel_basis, self.n_complement_basis),
        )


def foundation_addition_split(f: BilinearMap) -> BilinearSplit:
    """Split f into a full nondegenerate foundation and a degenerate addition.

    Over a field the complements always exist; over a f.g. Z-module the
    kernel and image must split off, otherwise NoSplit says which side
    obstructed.
    """
    kernel_gens = two_sided_kernel(f)
    image_gens = image_submodule(f)
    if f.m.kind == FIELD:
        d = f.m.domain
        m_found = f.m.span(kernel_gens).complement()
        n_comp = f.n.span(image_gens).complement()
        foundation = BilinearMap(
            field_carrier(d, len(m_found)),
            field_carrier(d, len(image_gens)),
            restrict(f.evaluate, d, m_found, image_gens),
        )
        addition = BilinearMap(
            field_carrier(d, len(kernel_gens)),
            field_carrier(d, len(n_comp)),
            tuple(
                tuple((d.zero(),) * len(n_comp) for _ in kernel_gens)
                for _ in kernel_gens
            ),
        )
        return BilinearSplit(
            foundation,
            addition,
            tuple(m_found),
            tuple(kernel_gens),
            tuple(image_gens),
            tuple(n_comp),
        )
    if f.m.kind != INTEGER or f.n.kind != INTEGER:
        raise UnsupportedDomain(
            "foundation/addition over mixed carriers: split the torsion first"
        )
    m_found_gens = modules.split_complement(kernel_gens, f.m.desc)
    if m_found_gens is None:
        raise NoSplit("C(f) does not split off inside M", which="kernel")
    n_comp_gens = modules.split_complement(image_gens, f.n.desc)
    if n_comp_gens is None:
        raise NoSplit("im(f) does not split off inside N", which="image")
    m_found = modules.submodule_adapted_basis(f.m.desc, m_found_gens)
    image = modules.submodule_adapted_basis(f.n.desc, image_gens)
    kernel = modules.submodule_adapted_basis(f.m.desc, kernel_gens)
    n_comp = modules.submodule_adapted_basis(f.n.desc, n_comp_gens)
    tensor = []
    for a in m_found.basis:
        row = []
        for b in m_found.basis:
            row.append(image.coords_of(f.evaluate(a, b)))
        tensor.append(tuple(row))
    foundation = BilinearMap(
        module_carrier(m_found.desc), module_carrier(image.desc), tuple(tensor)
    )
    zero_row = tuple(module_carrier(n_comp.desc).zero() for _ in kernel.basis)
    addition = BilinearMap(
        module_carrier(kernel.desc),
        module_carrier(n_comp.desc),
        tuple(zero_row for _ in kernel.basis),
    )
    return BilinearSplit(
        foundation,
        addition,
        tuple(m_found.basis),
        tuple(kernel.basis),
        tuple(image.basis),
        tuple(n_comp.basis),
    )


def verify_reassembly(f: BilinearMap, blocks) -> bool:
    """Exact check that f is the direct sum of its blocks.

    blocks are (tensor, m_rows, n_rows) triples: tensor is the block's
    structure tensor on m_rows in n_rows coordinates.  Over a field the
    m_rows of all blocks must form a basis of M; then, by bilinearity, f
    is reassembled exactly when every pair of rows in one block multiplies
    to its tensor entry lifted through n_rows, and every pair from two
    blocks multiplies to zero.  Over Z the rows are adapted generators.
    """
    if f.m.kind == FIELD:
        rows = [row for _, m_rows, _ in blocks for row in m_rows]
        if len(rows) != f.m.dim or not f.m.span(rows).independent:
            return False
    for i, (tensor, m_rows, n_rows) in enumerate(blocks):
        for j, (_, other_rows, _) in enumerate(blocks):
            for a, x in enumerate(m_rows):
                for b, y in enumerate(other_rows):
                    if i == j:
                        expected = rows_through([tensor[a][b]], n_rows, f.n)[0]
                    else:
                        expected = f.n.zero()
                    if not f.n.eq(expected, f.evaluate(x, y)):
                        return False
    return True


# -- width ----------------------------------------------------------------------


@record
class WidthReport:
    width: int | None
    upper_bound: int
    exact: bool
    certificates: tuple

    def describe(self) -> str:
        if self.exact:
            return f"width {self.width} (exact)"
        return f"width <= {self.upper_bound}"


_WIDTH_ENUM_CAP = 3**6


def width(f: BilinearMap, search_bound: int = 16) -> WidthReport:
    """Exact width by sumset search over small prime fields; the dim-im
    upper bound with one-product certificates over infinite fields."""
    image = image_submodule(f)
    if not image:
        return WidthReport(0, 0, True, ())
    if f.m.kind == FIELD and isinstance(f.m.domain, PrimeField):
        p = f.m.domain.p
        if p**f.m.dim <= _WIDTH_ENUM_CAP:
            return _width_bfs(f, image, search_bound)
    if f.m.kind == FIELD:
        certs = _pivot_entry_certificates(f)
        bound = len(image)
        exact = bound <= 1
        return WidthReport(bound if exact else None, bound, exact, certs)
    raise UnsupportedDomain("width is computed over field carriers in v1")


def _pivot_entry_certificates(f: BilinearMap):
    """Tensor entries forming a basis of im(f): each im-basis vector is a
    single product, so every element is a sum of dim-im products."""
    pairs, entries = zip(*f.entries())
    picked = Subspace.span(f.n.domain, (), f.n.dim).extend(entries)
    return tuple(pairs[k] for k in picked)


def _width_bfs(f: BilinearMap, image, search_bound: int) -> WidthReport:
    p = f.m.domain.p
    k = gfenum.product_width(f.tensor, image, p, search_bound)
    if k is None:
        raise SearchBoundExceeded(f"width exceeded the search bound {search_bound}")
    return WidthReport(k, k, True, ())
