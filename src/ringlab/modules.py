"""Formal finite direct sums of rational lines, free integer lines and
cyclic torsion lines, with the divisible + bounded decomposition and
Smith-form split-complement tests for finitely generated Z-modules.

A module element is a coordinate tuple against the summand list: Fraction
on a rational line, int on a free line, int reduced mod m on a cyclic
line.  Submodules are handled by generator sequences, never by closure.

Lattice is the one submodule type over Z: every span, membership,
coordinate, preimage, kernel, intersection and quotient in ringlab goes
through it, and only it presents a submodule as [G | relations] or calls
kernel_basis_int.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import lcm

from .domains import QQ, Residues, ZZ
from .errors import (
    ElementNotInModule,
    InvariantViolation,
    NotOmegaStableShape,
    ValidationError,
)
from .linalg import (
    Matrix,
    hermite_column_form,
    kernel_basis_int,
    smith_normal_form,
    solve_int,
    solve_smith,
)
from .records import record

RATIONAL = "rational"
FREE = "free"
CYCLIC = "cyclic"


@record
class Summand:
    kind: str
    modulus: int = 0

    def __post_init__(self):
        if self.kind not in (RATIONAL, FREE, CYCLIC):
            raise ValidationError(f"unknown summand kind {self.kind!r}")
        if self.kind == CYCLIC and self.modulus < 2:
            raise ValidationError(f"cyclic modulus must be >= 2, got {self.modulus}")
        if self.kind != CYCLIC and self.modulus != 0:
            raise ValidationError("only cyclic summands carry a modulus")

    def describe(self) -> str:
        return {RATIONAL: "Q", FREE: "Z"}.get(self.kind, f"Z/{self.modulus}")


def rational_line() -> Summand:
    return Summand(RATIONAL)


def free_line() -> Summand:
    return Summand(FREE)


def cyclic(m: int) -> Summand:
    return Summand(CYCLIC, m)


@record
class ModuleDesc:
    summands: tuple

    def __post_init__(self):
        object.__setattr__(self, "summands", tuple(self.summands))

    @property
    def dim(self) -> int:
        return len(self.summands)

    def indices(self, kind: str) -> tuple:
        return tuple(i for i, s in enumerate(self.summands) if s.kind == kind)

    @property
    def divisible_part(self) -> tuple:
        return self.indices(RATIONAL)

    @property
    def bounded_part(self) -> tuple:
        return self.indices(CYCLIC)

    @property
    def free_part(self) -> tuple:
        return self.indices(FREE)

    def is_divisible(self) -> bool:
        return all(s.kind == RATIONAL for s in self.summands)

    def is_bounded(self) -> bool:
        return all(s.kind == CYCLIC for s in self.summands)

    def is_fg_integral(self) -> bool:
        return all(s.kind in (FREE, CYCLIC) for s in self.summands)

    def exponent(self) -> int:
        if not self.is_bounded():
            raise ValidationError("exponent is defined for bounded modules only")
        return lcm(*(s.modulus for s in self.summands)) if self.summands else 1

    def coord_domain(self, i: int):
        s = self.summands[i]
        if s.kind == RATIONAL:
            return QQ
        if s.kind == FREE:
            return ZZ
        return Residues(s.modulus)

    def moduli(self) -> tuple:
        """0 for a free line, m for a cyclic line; rational lines rejected."""
        if not self.is_fg_integral():
            raise ValidationError("moduli vector exists for f.g. Z-modules only")
        return tuple(s.modulus if s.kind == CYCLIC else 0 for s in self.summands)

    def describe(self) -> str:
        if not self.summands:
            return "0"
        return " + ".join(s.describe() for s in self.summands)

    def zero(self) -> tuple:
        out = []
        for s in self.summands:
            out.append(Fraction(0) if s.kind == RATIONAL else 0)
        return tuple(out)

    def reduce(self, coords) -> tuple:
        if len(coords) != self.dim:
            raise ElementNotInModule(
                f"expected {self.dim} coordinates, got {len(coords)}"
            )
        out = []
        for s, c in zip(self.summands, coords):
            if s.kind == RATIONAL:
                if isinstance(c, float):
                    raise ElementNotInModule("rational coordinates must be exact")
                out.append(Fraction(c))
            elif s.kind == FREE:
                if not isinstance(c, int):
                    raise ElementNotInModule(f"free-line coordinate must be an integer, got {c!r}")
                out.append(c)
            else:
                if not isinstance(c, int):
                    raise ElementNotInModule(f"cyclic coordinate must be an integer, got {c!r}")
                out.append(c % s.modulus)
        return tuple(out)

    def add(self, a, b) -> tuple:
        return self.reduce(tuple(x + y for x, y in zip(a, b)))

    def neg(self, a) -> tuple:
        return self.reduce(tuple(-x for x in a))

    def scale_int(self, n: int, a) -> tuple:
        return self.reduce(tuple(n * x for x in a))

    def is_zero_elem(self, a) -> bool:
        return self.reduce(a) == self.zero()


@record
class ModuleElement:
    parent: ModuleDesc
    coords: tuple

    def __post_init__(self):
        object.__setattr__(self, "coords", self.parent.reduce(self.coords))


def _coords_of(x, ambient: ModuleDesc) -> tuple:
    if isinstance(x, ModuleElement):
        if x.parent != ambient:
            raise ElementNotInModule("element belongs to a different module")
        return x.coords
    return ambient.reduce(tuple(x))


# -- divisible / bounded decomposition ---------------------------------------


def divisible_bounded_split(m: ModuleDesc):
    """Split a formal sum into its divisible and bounded parts.

    Returns (M_D, M_B, (divisible indices, bounded indices)); the index
    tuples are the embeddings that reassemble m.  A free integer line is
    neither divisible nor bounded and is rejected.
    """
    if m.free_part:
        raise NotOmegaStableShape(
            "free integer line at position(s) "
            f"{list(m.free_part)}: no divisible + bounded decomposition"
        )
    d_idx = m.divisible_part
    b_idx = m.bounded_part
    m_d = ModuleDesc(tuple(m.summands[i] for i in d_idx))
    m_b = ModuleDesc(tuple(m.summands[i] for i in b_idx))
    return m_d, m_b, (d_idx, b_idx)


def project_coords(coords, idx) -> tuple:
    return tuple(coords[i] for i in idx)


def reassemble_coords(m: ModuleDesc, parts) -> tuple:
    """Inverse of projecting onto disjoint index tuples covering m."""
    out = list(m.zero())
    for idx, coords in parts:
        for i, c in zip(idx, coords):
            out[i] = c
    return m.reduce(tuple(out))


def torsion_part(m: ModuleDesc) -> ModuleDesc:
    return ModuleDesc(tuple(m.summands[i] for i in m.bounded_part))


# -- f.g. Z-module machinery --------------------------------------------------


def relation_matrix(m: ModuleDesc) -> Matrix:
    """Columns m_i * e_i for each cyclic summand; presentation of m as a
    cokernel Z^n / im(relations)."""
    moduli = m.moduli()
    cols = [
        tuple(mod if j == i else 0 for j in range(m.dim))
        for i, mod in enumerate(moduli)
        if mod
    ]
    if not cols:
        return Matrix(ZZ, m.dim, 0, ())
    return Matrix.from_cols(ZZ, cols)


def _lift_int(m: ModuleDesc, coords) -> tuple:
    return tuple(int(c) for c in m.reduce(coords))


def generator_matrix(m: ModuleDesc, gens) -> Matrix:
    cols = [_lift_int(m, _coords_of(g, m)) for g in gens]
    if not cols:
        return Matrix(ZZ, m.dim, 0, ())
    return Matrix.from_cols(ZZ, cols)


@record
class Lattice:
    """The submodule of a f.g. Z-module generated by gens, the integer twin
    of bilinear.Subspace.  matrix = [G | relations] presents it as a column
    lattice in Z^n; its Smith form and Hermite form (Cohen, GTM 138, 2.4)
    are each computed at most once, and every span, membership, coordinate,
    preimage, intersection and quotient over Z reads off them.
    """

    ambient: ModuleDesc
    gens: tuple
    matrix: Matrix

    @staticmethod
    def span(ambient: ModuleDesc, gens) -> "Lattice":
        gens = tuple(gens)
        return Lattice(
            ambient, gens, generator_matrix(ambient, gens).hstack(relation_matrix(ambient))
        )

    @cached_property
    def smith(self):
        return smith_normal_form(self.matrix)

    @cached_property
    def hermite(self) -> Matrix:
        """The nonzero Hermite columns: a Z-basis of the column lattice."""
        return hermite_column_form(self.matrix)

    @cached_property
    def rows(self) -> tuple:
        """Canonical generators: the Hermite columns reduced in ambient."""
        m, h = self.ambient, self.hermite
        reduced = (m.reduce(h.col(j)) for j in range(h.cols))
        return tuple(x for x in reduced if not m.is_zero_elem(x))

    def coords(self, x):
        """Integer coefficients on gens that sum to x, or None."""
        sol = solve_smith(self.smith, _lift_int(self.ambient, _coords_of(x, self.ambient)))
        return None if sol is None else sol[: len(self.gens)]

    def contains(self, x) -> bool:
        return self.coords(x) is not None

    def preimage(self, a: Matrix):
        """Generators of {y : a.y in the lattice}: the first a.cols entries
        of a kernel basis of [a | -matrix]."""
        m = self.matrix
        entries = tuple(
            x for i in range(a.rows) for x in a.row(i) + tuple(-y for y in m.row(i))
        )
        kern = kernel_basis_int(Matrix(ZZ, a.rows, a.cols + m.cols, entries))
        return [kern.col(j)[: a.cols] for j in range(kern.cols)]

    def intersect(self, other: "Lattice") -> "Lattice":
        a = self.matrix
        return Lattice.span(self.ambient, [a.apply(y) for y in other.preimage(a)])

    def quotient_invariants(self) -> tuple:
        """Invariant factors of ambient / lattice: (d_1, ..., d_r, 0 ... for
        free rank), with the trivial d_i = 1 entries dropped."""
        _, d, _ = self.smith
        r = min(d.rows, d.cols)
        diag = [d.get(i, i) for i in range(r)]
        torsion = [x for x in diag if x not in (0, 1)]
        free_rank = (self.ambient.dim - r) + sum(1 for x in diag if x == 0)
        return tuple(torsion) + (0,) * free_rank

    @property
    def full(self) -> bool:
        return self.quotient_invariants() == ()


def _unimodular_inverse(u: Matrix) -> Matrix:
    """Exact integer inverse of a unimodular integer matrix."""
    n = u.rows
    q = Matrix.from_rows(QQ, [[Fraction(u.get(i, j)) for j in range(n)] for i in range(n)])
    from .linalg import inverse

    qi = inverse(q)
    return Matrix.from_rows(
        ZZ, [[int(qi.get(i, j)) for j in range(n)] for i in range(n)]
    )


@record
class SubmoduleBasis:
    """A f.g. submodule in adapted coordinates.

    `desc` is the abstract shape, `basis` the ambient elements realizing
    its summands (column k generates the k-th summand of `desc`).
    """

    ambient: ModuleDesc
    desc: ModuleDesc
    basis: tuple  # ambient coordinate tuples

    @cached_property
    def _lattice(self) -> Lattice:
        return Lattice.span(self.ambient, self.basis)

    def coords_of(self, x) -> tuple:
        """Coordinates of an ambient element x known to lie in the span."""
        raw = self._lattice.coords(x)
        if raw is None:
            raise ElementNotInModule("element is outside the submodule")
        return self.desc.reduce(raw)


def submodule_adapted_basis(m: ModuleDesc, gens) -> SubmoduleBasis:
    """Abstract shape of <gens> with an adapted generating set.

    The lattice of the submodule is B = HNF([G | relations]); expressing
    the relations in B-coordinates and taking Smith form yields invariant
    factors, i.e. the submodule's own summand list.
    """
    b = Lattice.span(m, gens).hermite
    if b.cols == 0:
        return SubmoduleBasis(m, ModuleDesc(()), ())
    # express each relation column in the lattice basis
    in_b = Lattice.span(ModuleDesc((free_line(),) * m.dim), [b.col(j) for j in range(b.cols)])
    rel = relation_matrix(m)
    x_cols = [in_b.coords(rel.col(j)) for j in range(rel.cols)]
    if None in x_cols:
        raise InvariantViolation("adapted-basis check: a relation lies outside its own lattice")
    x = Matrix.from_cols(ZZ, x_cols) if x_cols else Matrix(ZZ, b.cols, 0, ())
    u, d, _ = smith_normal_form(x)
    u_inv = _unimodular_inverse(u)
    summands = []
    basis = []
    for i in range(b.cols):
        di = d.get(i, i) if i < min(d.rows, d.cols) else 0
        col = u_inv.col(i)
        elem = m.reduce(b.apply(col))
        if di == 1:
            continue  # trivial summand
        summands.append(free_line() if di == 0 else cyclic(di))
        basis.append(elem)
    return SubmoduleBasis(m, ModuleDesc(tuple(summands)), tuple(basis))


def split_complement(gens, ambient: ModuleDesc, kill=()):
    """Generators of a direct complement of <gens> in ambient, or None.

    Searches for a retraction r: ambient -> <gens> restricting to the
    identity on the generators (equivalently an idempotent endomorphism
    onto the submodule); the complement is the image of 1 - r.  Extra
    `kill` elements are forced into the kernel of r, so the returned
    complement contains them.  Absence of a retraction proves no
    complement exists.
    """
    if not ambient.is_fg_integral():
        raise ValidationError("split_complement needs a f.g. Z-module ambient")
    g = generator_matrix(ambient, gens)
    lam = relation_matrix(ambient)
    kill_cols = [_lift_int(ambient, _coords_of(w, ambient)) for w in kill]
    n, k, q = ambient.dim, g.cols, lam.cols
    if k == 0:
        basis = [
            tuple(1 if j == i else 0 for j in range(n)) for i in range(n)
        ]
        return list(Lattice.span(ambient, basis).rows)

    moduli = ambient.moduli()
    # unknown layout: a = (a_1 .. a_n) in Z^(n*k), then auxiliary relation
    # multipliers for each congruence row-block
    rows = []
    rhs = []
    aux_count = 0

    def new_block(coeff_of_a, target):
        """Append n equations: sum_i coeff_i * (G a_i) - lam * aux = target."""
        nonlocal aux_count
        block = [[0] * (n * k) for _ in range(n)]
        for i, ci in enumerate(coeff_of_a):
            if ci == 0:
                continue
            for r in range(n):
                for c in range(k):
                    block[r][i * k + c] += ci * g.get(r, c)
        for r in range(n):
            rows.append((block[r], aux_count))
            rhs.append(target[r])
        aux_count += 1

    # (1) well-definedness on each cyclic summand
    for i in range(n):
        if moduli[i]:
            coeff = [0] * n
            coeff[i] = moduli[i]
            new_block(coeff, [0] * n)
    # (2) retraction fixes each generator
    for j in range(k):
        coeff = [g.get(i, j) for i in range(n)]
        target = [g.get(i, j) for i in range(n)]
        new_block(coeff, target)
    # (3) kill constraints map to zero
    for w in kill_cols:
        new_block(list(w), [0] * n)

    width = n * k + aux_count * q
    full_rows = []
    for (block_row, aux_index) in rows:
        row = list(block_row) + [0] * (aux_count * q)
        full_rows.append((row, aux_index))
    # insert -lam columns for each block's auxiliary variables
    lam_rows = [lam.row(i) for i in range(n)]
    assembled = []
    for idx, (row, aux_index) in enumerate(full_rows):
        r_in_block = idx % n
        base = n * k + aux_index * q
        for c in range(q):
            row[base + c] = -lam_rows[r_in_block][c]
        assembled.append(row)

    system = Matrix.from_rows(ZZ, assembled) if assembled else Matrix(ZZ, 0, width, ())
    sol = solve_int(system, tuple(rhs))
    if sol is None:
        return None
    a_flat = sol[: n * k]
    # retraction matrix column i is G * a_i
    r_cols = []
    for i in range(n):
        a_i = tuple(a_flat[i * k : (i + 1) * k])
        r_cols.append(g.apply(a_i))
    complement_gens = []
    for i in range(n):
        col = [(1 if j == i else 0) - r_cols[i][j] for j in range(n)]
        complement_gens.append(tuple(col))
    return list(Lattice.span(ambient, complement_gens).rows)
