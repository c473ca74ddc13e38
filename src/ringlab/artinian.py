"""Finite-dimensional commutative unital algebras over an exact field:
radical, decomposition into local factors, J-series with the r_k witness,
and fields of representatives by Hensel lifting.

Splitting strategy: probe elements (basis vectors, then a deterministic
seeded stream; exhaustive over small prime fields), compute minimal
polynomials, and turn a coprime factorization of a probe's minimal
polynomial into exact orthogonal idempotents of the subalgebra it
generates; recurse on the blocks.  A block is accepted as local once a
probe exhibits a primitive residue element, certifying that the residue
ring is a field; that probe is the factor's residue primitive.  The split
tree is walked once from A itself: each block is built, certified and
probed one time.  Over an extension field the tree is walked on the
algebra with scalars restricted to the prime base, and only its leaf
idempotents come back up.

CommutativeAlgebra multiplies and certifies its laws through one
bilinear.BilinearMap, as RingPresentation does: its evaluate and witness walks.
"""

from __future__ import annotations

import random
from itertools import combinations

from .bilinear import BilinearMap, Subspace, field_carrier, restrict, rows_through
from .domains import Domain, Extension, PrimeField, Rationals, poly_xgcd
from .errors import (
    ActionNotWellFormed,
    InvariantViolation,
    NonFieldDomain,
    ProbeFailure,
    ValidationError,
)
from .linalg import Matrix, kernel_basis, solve, unit_vectors
from .polynomials import Poly, gcd as poly_gcd, poly_factor
from .records import record

_PROBE_ROUNDS = 40
_EXHAUSTIVE_CAP = 2048


@record
class CommutativeAlgebra:
    """Unital commutative associative algebra by structure constants.

    tensor[i][j] = coordinates of b_i * b_j; mult is the evaluate of a
    BilinearMap whose witness walks check the laws on all basis triples.
    """

    base: Domain
    dim: int
    tensor: tuple
    unit: tuple

    def __post_init__(self):
        if not self.base.is_field:
            raise NonFieldDomain("commutative algebras are constructed over fields")
        z = self.base.zero()
        tensor = tuple(
            tuple(tuple(self.base.add(c, z) for c in entry) for entry in row)
            for row in self.tensor
        )
        object.__setattr__(self, "tensor", tensor)
        object.__setattr__(self, "unit", tuple(self.base.add(c, z) for c in self.unit))
        carrier = field_carrier(self.base, self.dim)
        f = BilinearMap(carrier, carrier, tensor)
        # not a field: an instance attribute, so ==, hash and repr ignore it
        object.__setattr__(self, "mult", f.evaluate)
        self._verify_laws(f)

    @staticmethod
    def from_tensor(base: Domain, tensor, unit=None) -> "CommutativeAlgebra":
        """Build an algebra, locating the unit by a linear solve if absent."""
        dim = len(tensor)
        if unit is None:
            rows = [
                tuple(tensor[k][i][t] for k in range(dim)) for i in range(dim) for t in range(dim)
            ]
            rhs = tuple(c for e in unit_vectors(base, dim) for c in e)
            res = solve(Matrix.from_rows(base, rows), rhs)
            if res is None:
                raise ValidationError("algebra has no unit element")
            unit = res[0]
        return CommutativeAlgebra(base, dim, tensor, unit)

    def _verify_laws(self, f: BilinearMap):
        pair = f.commutativity_witness()
        if pair is not None:
            raise ValidationError("multiplication not commutative at (%d,%d)" % pair)
        for b_i in unit_vectors(self.base, self.dim):
            if self.mult(self.unit, b_i) != b_i:
                raise ValidationError("unit law fails")
        triple = f.associativity_witness()
        if triple is not None:
            raise ValidationError("multiplication not associative at (%d,%d,%d)" % triple)

    def left_mult_matrix(self, x) -> Matrix:
        cols = [self.mult(x, e) for e in unit_vectors(self.base, self.dim)]
        return Matrix.from_cols(self.base, cols)

    def power(self, x, n: int) -> tuple:
        acc = self.unit
        base = x
        while n > 0:
            if n & 1:
                acc = self.mult(acc, base)
            base = self.mult(base, base)
            n >>= 1
        return acc

    def evaluate_poly(self, poly: Poly, x) -> tuple:
        d = self.base
        acc = (d.zero(),) * self.dim
        for c in reversed(poly.coeffs):
            acc = self.mult(acc, x)
            acc = tuple(d.add(a, d.mul(c, u)) for a, u in zip(acc, self.unit))
        return acc

    def minimal_polynomial(self, x) -> Poly:
        d = self.base
        powers, power = [], self.unit
        while True:
            # the first power in the span of the ones before it
            coords = Subspace.span(d, powers, self.dim).coords(power)
            if coords is not None:
                return Poly(d, tuple(d.neg(c) for c in coords) + (d.one(),))
            powers.append(power)
            power = self.mult(power, x)

    def is_zero_elem(self, x) -> bool:
        return all(self.base.is_zero(c) for c in x)


# -- radical -------------------------------------------------------------------


def radical(a: CommutativeAlgebra):
    """Canonical basis (echelon rows) of the ideal of nilpotent elements.

    Char 0: kernel of the trace form.  GF(p): kernel of the iterated
    p-power map (GF(p)-linear in a commutative algebra of char p).
    GF(p^k): the nilpotents are those of the algebra restricted to GF(p),
    so the rows of that radical, lifted, span it over the extension.
    """
    d = a.base
    if isinstance(d, (Rationals,)) or (isinstance(d, Extension) and d.char == 0):
        traces = []
        for basis_k in unit_vectors(d, a.dim):
            m = a.left_mult_matrix(basis_k)
            tr = d.zero()
            for i in range(a.dim):
                tr = d.add(tr, m.get(i, i))
            traces.append(tr)
        rows = []
        for i in range(a.dim):
            row = []
            for j in range(a.dim):
                acc = d.zero()
                for k in range(a.dim):
                    acc = d.add(acc, d.mul(a.tensor[i][j][k], traces[k]))
                row.append(acc)
            rows.append(tuple(row))
        return list(Subspace.span(d, kernel_basis(d, rows, a.dim), a.dim).rows)
    if isinstance(d, PrimeField):
        p = d.p
        e = 1
        while p**e < a.dim:
            e += 1
        cols = []
        for x in unit_vectors(d, a.dim):
            for _ in range(e):
                x = a.power(x, p)
            cols.append(x)
        # the c with (sum c_k b_k)^(p^e) = sum c_k x_k = 0: one row per coordinate
        return list(Subspace.span(d, kernel_basis(d, zip(*cols), a.dim), a.dim).rows)
    restricted, up = _restrict_scalars(a)  # an extension of GF(p)
    lifted = [up(row) for row in radical(restricted)]
    return list(Subspace.span(d, lifted, a.dim).rows)


# -- local decomposition -------------------------------------------------------


@record
class LocalFactor:
    """One local block of a decomposed algebra, in original coordinates."""

    idempotent: tuple        # original coordinates
    basis: tuple             # rows, original coordinates
    algebra: CommutativeAlgebra  # structure on the block basis
    radical_rows: tuple      # rows, block coordinates
    nilpotency_index: int
    residue_primitive: tuple  # block coordinates
    residue_minpoly: Poly     # irreducible over the base
    residue_degree: int
    projection: Matrix        # block coords -> residue coords (powers of the primitive)

    def residue_domain(self):
        if self.residue_degree == 1:
            return self.algebra.base
        return Extension(
            self.algebra.base, self.residue_minpoly.coeffs, check_irreducible=False
        )


def _probe_stream(a: CommutativeAlgebra, seed: int):
    d = a.base
    yield from unit_vectors(d, a.dim)
    if isinstance(d, PrimeField) and d.p**a.dim <= _EXHAUSTIVE_CAP:
        # exhaustive and therefore decisive over a small prime field
        p = d.p
        for n in range(1, p**a.dim):
            coords = []
            k = n
            for _ in range(a.dim):
                coords.append(d.from_int(k % p))
                k //= p
            yield tuple(coords)
        return
    rng = random.Random(seed)

    def scalar():
        if isinstance(d, Extension):
            return d.parse([rng.randint(-9, 9) for _ in range(d.degree)])
        return d.from_int(rng.randint(-9, 9))

    for _ in range(_PROBE_ROUNDS):
        yield tuple(scalar() for _ in range(a.dim))


def _crt_idempotents(a: CommutativeAlgebra, u, factors):
    """Exact orthogonal idempotents of k[u] from coprime primary factors
    of the minimal polynomial of u."""
    d = a.base
    m = Poly(d, (d.one(),))
    primaries = []
    for f, e in factors:
        primary = Poly(d, (d.one(),))
        for _ in range(e):
            primary = primary.mul(f)
        primaries.append(primary)
        m = m.mul(primary)
    out = []
    for primary in primaries:
        g = m.exact_div(primary)
        # g * s = 1 mod primary
        _, s, _ = poly_xgcd(d, g.coeffs, primary.coeffs)
        h = g.mul(Poly(d, s)).mod(m)
        e_elem = a.evaluate_poly(h, u)
        if a.mult(e_elem, e_elem) != e_elem:
            raise InvariantViolation("CRT idempotent check: e * e != e")
        out.append(e_elem)
    return out


def _subalgebra_on(a: CommutativeAlgebra, idempotent):
    """Block e*A as an algebra with unit e, plus its basis rows."""
    d = a.base
    cols = [a.mult(idempotent, e) for e in unit_vectors(d, a.dim)]
    basis_rows = Subspace.span(d, cols, a.dim).rows
    tensor = restrict(a.mult, d, basis_rows, basis_rows)
    unit_coords = Subspace.span(d, basis_rows, a.dim).coords(idempotent)
    block = CommutativeAlgebra(d, len(basis_rows), tensor, unit_coords)
    return block, basis_rows


def _restrict_scalars(a: CommutativeAlgebra):
    """View an algebra over an extension field as one over the prime base.

    Idempotents are ring-theoretic, so splitting can be found downstairs
    and mapped back; basis vector (i, j) downstairs is t^j * b_i.
    """
    ext = a.base
    base = ext.base
    deg = ext.degree
    dim = a.dim * deg
    t_gen = ext.generator()

    def up(coords_down):
        out = []
        for i in range(a.dim):
            c = ext.zero()
            power = ext.one()
            for j in range(deg):
                c = ext.add(c, ext.mul(ext.from_base(coords_down[i * deg + j]), power))
                power = ext.mul(power, t_gen)
            out.append(c)
        return tuple(out)

    basis_up = []
    for i in range(a.dim):
        for j in range(deg):
            power = ext.one()
            for _ in range(j):
                power = ext.mul(power, t_gen)
            coords = [ext.zero()] * a.dim
            coords[i] = power
            basis_up.append(tuple(coords))

    def down(coords_up):
        out = []
        for c in coords_up:
            out.extend(list(c))
        return tuple(out)

    tensor = []
    for x in basis_up:
        row = []
        for y in basis_up:
            row.append(down(a.mult(x, y)))
        tensor.append(tuple(row))
    unit = down(tuple(a.unit))
    restricted = CommutativeAlgebra(base, dim, tuple(tensor), unit)
    return restricted, up


def _split_once(a: CommutativeAlgebra, rad_rows, seed: int):
    """One splitting step on a block with radical rows rad_rows:
    idempotents from some probe, or a locality certificate.

    A probe whose minimal polynomial has two coprime primary parts yields
    exact CRT idempotents; one whose minimal polynomial is a power of an
    irreducible f of degree dim(A/rad) certifies A is local (the residue
    lcm of component minimal polynomials can only reach full degree with
    a single component), and (u, f) is its residue primitive.
    """
    residue_dim = a.dim - len(rad_rows)
    for u in _probe_stream(a, seed):
        m = a.minimal_polynomial(u)
        if m.degree < 1:
            continue
        factors = poly_factor(m)
        if len(factors) >= 2:
            return ("split", _crt_idempotents(a, u, factors))
        f, _ = factors[0]
        if f.degree == residue_dim:
            return ("local", (u, f))
    raise ProbeFailure(
        "probing exhausted without a split or a primitive residue element"
    )


def _radical_power_rows(a: CommutativeAlgebra, rad_rows):
    """Bases of J, J^2, ... until zero; returns the list (without J^0)."""
    powers = []
    current = list(rad_rows)
    while current:
        powers.append(tuple(current))
        next_products = []
        for x in current:
            for g in rad_rows:
                next_products.append(a.mult(x, g))
        current = Subspace.span(a.base, next_products, a.dim).rows
    return powers


def _residue_projection(a: CommutativeAlgebra, u, minpoly: Poly, rad_rows):
    d = a.base
    deg = minpoly.degree
    powers = [a.unit]
    for _ in range(deg - 1):
        powers.append(a.mult(powers[-1], u))
    change = Subspace.span(d, list(powers) + list(rad_rows), a.dim)
    rows = []
    for basis_i in unit_vectors(d, a.dim):
        coords = change.coords(basis_i)
        if coords is None:
            raise InvariantViolation("residue basis check: powers and radical miss the factor")
        rows.append(coords[:deg])
    return Matrix.from_rows(d, rows).transpose()


def local_decomposition(a: CommutativeAlgebra, seed: int = 0):
    """Complete orthogonal primitive idempotents with their local blocks."""
    if a.dim == 0:
        return []
    if isinstance(a.base, Extension):
        restricted, up = _restrict_scalars(a)
        down = [leaf[0] for leaf in _split_tree(restricted, seed)]
        _verify_complete_orthogonal(restricted, down)
        return [_extension_factor(a, up(e), seed) for e in down]
    factors = [_local_factor(*leaf) for leaf in _split_tree(a, seed)]
    _verify_complete_orthogonal(a, [f.idempotent for f in factors])
    return factors


def _split_tree(a: CommutativeAlgebra, seed: int):
    """The leaves of A's split tree over Q or GF(p), in walk order: one
    (idempotent, block, basis rows, radical rows, (u, f)) per local block.

    The root block is A on its own basis; every other block is built once
    from A by _subalgebra_on, and its radical and probes run once.
    """
    carrier = field_carrier(a.base, a.dim)
    leaves = []

    def walk(idempotent, block, basis_rows):
        rad_rows = radical(block)
        verdict, payload = _split_once(block, rad_rows, seed)
        if verdict == "local":
            leaves.append((idempotent, block, basis_rows, rad_rows, payload))
            return
        # block coordinates -> original coordinates
        for e_orig in rows_through(payload, basis_rows, carrier):
            walk(e_orig, *_subalgebra_on(a, e_orig))

    walk(a.unit, a, unit_vectors(a.base, a.dim))
    return leaves


def _extension_factor(a: CommutativeAlgebra, idempotent, seed: int) -> LocalFactor:
    """The local block of A over an extension field at a leaf idempotent.

    There is no v1 factorization over an extension, but the block is
    local (its idempotent is primitive downstairs), so every minimal
    polynomial is primary and its squarefree part is the irreducible itself.
    """
    block, basis_rows = _subalgebra_on(a, idempotent)
    rad_rows = radical(block)
    residue_dim = block.dim - len(rad_rows)
    for u in _probe_stream(block, seed):
        m = block.minimal_polynomial(u)
        if m.degree < 1:
            continue
        f = m.exact_div(poly_gcd(m, m.derivative())).monic()
        if f.degree == residue_dim:
            return _local_factor(idempotent, block, basis_rows, rad_rows, (u, f))
    raise ProbeFailure("no primitive residue element found for a local factor")


def _local_factor(idempotent, block, basis_rows, rad_rows, primitive) -> LocalFactor:
    u, f = primitive
    powers = _radical_power_rows(block, rad_rows)
    return LocalFactor(
        idempotent=tuple(idempotent),
        basis=tuple(basis_rows),
        algebra=block,
        radical_rows=tuple(rad_rows),
        nilpotency_index=len(powers) + 1 if rad_rows else 1,
        residue_primitive=tuple(u),
        residue_minpoly=f,
        residue_degree=f.degree,
        projection=_residue_projection(block, u, f, rad_rows),
    )


def _verify_complete_orthogonal(a: CommutativeAlgebra, idempotents):
    d = a.base
    total = (d.zero(),) * a.dim
    for e in idempotents:
        if a.mult(e, e) != tuple(e):
            raise InvariantViolation("idempotent check: a decomposition element is not idempotent")
        if a.is_zero_elem(e):
            raise InvariantViolation("idempotent check: a decomposition idempotent is zero")
        total = tuple(d.add(x, y) for x, y in zip(total, e))
    if total != tuple(a.unit):
        raise InvariantViolation("completeness check: the idempotents do not sum to 1")
    # e f = f e: the algebra is certified commutative
    for e, f in combinations(idempotents, 2):
        if not a.is_zero_elem(a.mult(e, f)):
            raise InvariantViolation("orthogonality check: two idempotents do not annihilate")


# -- J-series and r_k ----------------------------------------------------------


@record
class JSeriesReport:
    layer_dims: tuple  # dim_k(J^i / J^{i+1}) for i = 0, 1, ...
    r_k: int


def j_series(lf: LocalFactor) -> JSeriesReport:
    """Layer dimensions of A > J > J^2 > ... > 0 over the residue field."""
    block = lf.algebra
    powers = [unit_vectors(block.base, block.dim)]
    powers.extend(list(rows) for rows in _radical_power_rows(block, lf.radical_rows))
    dims = [len(Subspace.span(block.base, rows, block.dim).rows) for rows in powers]
    dims.append(0)
    layers = []
    for a, b in zip(dims, dims[1:]):
        diff = a - b
        if diff % lf.residue_degree:
            raise InvariantViolation("J-series layer check: not divisible by the residue degree")
        layers.append(diff // lf.residue_degree)
    return JSeriesReport(tuple(layers), sum(layers))


def r_k_module(lf: LocalFactor, action) -> int:
    """r_k of a module over the factor, given matrices for the block basis.

    action[i] is the matrix of the i-th block basis vector acting on the
    module; the matrices must satisfy the block's structure constants.
    """
    block = lf.algebra
    d = block.base
    if len(action) != block.dim:
        raise ActionNotWellFormed("need one action matrix per block basis vector")
    mdim = action[0].rows if action else 0
    for m in action:
        if m.rows != mdim or m.cols != mdim:
            raise ActionNotWellFormed("action matrices must be square of equal size")
    # structure constants must be respected
    for i in range(block.dim):
        for j in range(block.dim):
            prod = action[i].mul(action[j])
            expected = Matrix.zero(d, mdim, mdim)
            for k, c in enumerate(block.tensor[i][j]):
                expected = expected.add(action[k].scale(c))
            if not prod.eq(expected):
                raise ActionNotWellFormed(f"action violates structure constants at ({i},{j})")
    unit_matrix = Matrix.zero(d, mdim, mdim)
    for k, c in enumerate(block.unit):
        unit_matrix = unit_matrix.add(action[k].scale(c))
    if not unit_matrix.eq(Matrix.identity(d, mdim)):
        raise ActionNotWellFormed("unit does not act as the identity")

    def act(element_rows, space_rows):
        out = []
        for rad_elem in element_rows:
            mat = Matrix.zero(d, mdim, mdim)
            for k, c in enumerate(rad_elem):
                mat = mat.add(action[k].scale(c))
            for v in space_rows:
                out.append(mat.apply(v))
        return Subspace.span(d, out, mdim).rows

    current = unit_vectors(d, mdim)
    dims = [len(Subspace.span(d, current, mdim).rows)]
    while True:
        current = act(lf.radical_rows, current)
        dims.append(len(current))
        if not current:
            break
        if len(dims) > block.dim + mdim + 2:
            raise InvariantViolation("J-filtration check: the filtration did not terminate")
    total = 0
    for a, b in zip(dims, dims[1:]):
        diff = a - b
        if diff % lf.residue_degree:
            raise InvariantViolation("module layer check: not divisible by the residue degree")
        total += diff // lf.residue_degree
    return total


# -- field of representatives ---------------------------------------------------


@record
class FieldOfRepresentatives:
    basis: tuple        # rows in block coordinates: 1, s, ..., s^(d-1)
    lifted_root: tuple  # block coordinates of the Hensel-lifted primitive
    minpoly: Poly


def field_of_representatives(lf: LocalFactor) -> FieldOfRepresentatives:
    """Subfield L with L + J = A and L isomorphic to the residue field.

    Newton-iterates the residue primitive against its minimal polynomial;
    separability makes the derivative invertible in the local ring, and
    nilpotency of J terminates the iteration.
    """
    block = lf.algebra
    d = block.base
    f = lf.residue_minpoly
    fprime = f.derivative()
    s = lf.residue_primitive
    for _ in range(2 * lf.nilpotency_index + 2):
        value = block.evaluate_poly(f, s)
        if block.is_zero_elem(value):
            break
        deriv = block.evaluate_poly(fprime, s)
        res = solve(block.left_mult_matrix(deriv), block.unit)
        if res is None:
            raise InvariantViolation("Hensel lifting: the derivative is not invertible")
        inv = res[0]
        correction = block.mult(value, inv)
        s = tuple(d.sub(a, b) for a, b in zip(s, correction))
    else:
        raise InvariantViolation("Hensel convergence check: no root within the index bound")
    basis = [block.unit]
    for _ in range(lf.residue_degree - 1):
        basis.append(block.mult(basis[-1], s))
    # L  J = 0: the basis together with the radical must be independent
    stacked = list(basis) + list(lf.radical_rows)
    if not Subspace.span(d, stacked, block.dim).independent:
        raise InvariantViolation("subfield check: the lifted subfield meets the radical")
    return FieldOfRepresentatives(tuple(basis), tuple(s), f)
