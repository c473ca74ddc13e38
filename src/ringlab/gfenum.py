"""Dense enumeration over GF(p) for the brute-force oracles, in plain Python.

Rows are tuples of ints reduced mod p, and a row set is a tuple of rows in
the order they first occur, so every output is deterministic.  Arithmetic
mod a prime on small integers is exact, so nothing here leaves exact
arithmetic.  The row-set functions (products, sumset, span_rows, ...) serve
the Z_n chain and the tests.  The width searches, closure_width on given
values and product_width on the products of a structure tensor, return only
a count: each k-fold sumset is a bitmap in one int over the base-p keys of
span coordinates, and a step translates it by mask-and-shift pairs, one per
nonzero digit of the value added.
"""

from __future__ import annotations

from itertools import product
from operator import add, mul

from .domains import PrimeField
from .errors import EnumerationTooLarge, InvariantViolation
from .linalg import echelon

_ENUM_CAP = 40_000_000
# digit masks kept per width search; past this many bits a mask is rebuilt
# at each use, so that r (p - 1) masks of p^r bits never all stay alive
_MASK_CACHE_BITS = 1 << 28


def all_vectors(p: int, dim: int) -> tuple:
    """All p^dim coordinate rows in lexicographic order, least digit last."""
    return tuple(product(range(p), repeat=dim))


def pack_rows(rows, p: int) -> list:
    """Base-p integer keys, the first entry most significant, so that the
    keys of rows reduced mod p sort as the rows do."""
    keys = []
    for row in rows:
        key = 0
        for a in row:
            key = key * p + a
        keys.append(key)
    return keys


def unique_rows(rows, p: int) -> tuple:
    """The distinct rows, each reduced mod p, in first-occurrence order."""
    return tuple(dict.fromkeys(map(tuple, rows)))


def sumset(a, b, p: int, cap: int = _ENUM_CAP) -> tuple:
    """Unique rows of {x + y mod p : x in a, y in b}, in first-occurrence
    order with x outer."""
    if len(a) * len(b) > cap:
        raise EnumerationTooLarge(
            f"sumset of {len(a)} x {len(b)} rows exceeds the enumeration cap"
        )
    return unique_rows(
        (tuple([(u + v) % p for u, v in zip(x, y)]) for x in a for y in b), p
    )


def products(tensor, p: int) -> tuple:
    """Unique values f(x, y) over all x, y in GF(p)^m, x outer, for the
    bilinear map with int structure tensor tensor[i][j] = f(b_i, b_j), m >= 1."""
    vectors = all_vectors(p, len(tensor))
    n = len(tensor[0][0])
    values = {}
    for x in vectors:
        # left[e] = f(x, b_e), before reduction mod p
        left = [
            [sum(xd * tensor[d][e][t] for d, xd in enumerate(x) if xd) for t in range(n)]
            for e in range(len(tensor))
        ]
        for y in vectors:
            row = [0] * n
            for ye, entry in zip(y, left):
                if ye:
                    row = [u + ye * v for u, v in zip(row, entry)]
            values[tuple([u % p for u in row])] = None
    return tuple(values)


def same_row_set(a, b, p: int) -> bool:
    return set(map(tuple, a)) == set(map(tuple, b))


def span_rows(gens, p: int) -> tuple:
    """All GF(p)-combinations of the generator rows (the subgroup they span)."""
    acc = ((0,) * (len(gens[0]) if gens else 0),)
    for g in gens:
        acc = sumset(acc, [tuple(c * a % p for a in g) for c in range(p)], p)
    return acc


def closure_width(values, gens, p: int, bound: int) -> int | None:
    """The least k such that every element of the span of gens is a sum of
    exactly k rows of values; None once k passes bound.  gens are the
    reduced echelon rows of a nonzero span and values nonempty int rows in
    it.  k = 1 is tested before the bound is consulted.

    A span element is fixed by its r entries at the pivot columns of gens,
    read as a base-p key as pack_rows reads a row."""
    gens, pivots = _echelon(gens, p)
    keys = set(pack_rows(_pivot_coords(values, gens, pivots, p), p))
    return _width(keys, None, p, len(gens), bound)


def product_width(tensor, gens, p: int, bound: int) -> int | None:
    """closure_width of all f(x, y), x, y in GF(p)^m, for the map with int
    structure tensor tensor[i][j] = f(b_i, b_j), m >= 1, and gens the
    reduced echelon rows of its image, without making any product as a row.

    As f(cx, y) = f(x, cy), the products are the union over one x per line
    (first nonzero coordinate 1) of the images of y -> f(x, y), subspaces
    read in pivot coordinates and told apart by their reduced echelon rows.
    Their elements are enumerated once, for the keys of the values; a step
    adds the subspaces basis vector by basis vector, or the values one by
    one where that takes fewer translations."""
    gens, pivots = _echelon(gens, p)
    r, m = len(gens), len(tensor)
    flat = _pivot_coords((e for row in tensor for e in row), gens, pivots, p)
    # multiples[i][c]: c f(b_i, b_j) for j = 0..m-1, r coordinates each, flat
    multiples = [
        [[c * a for j in range(m) for a in flat[i * m + j]] for c in range(p)]
        for i in range(m)
    ]
    images = {}
    for x in all_vectors(p, m):
        if next((a for a in x if a), 0) != 1:
            continue
        acc = [0] * (m * r)
        for i, xi in enumerate(x):
            if xi:
                acc = list(map(add, acc, multiples[i][xi]))
        images.setdefault(tuple([a % p for a in acc]), None)
    field = PrimeField(p)
    bases = {}
    for image in images:
        _, reduced, _ = echelon(field, (image[j * r : (j + 1) * r] for j in range(m)))
        bases.setdefault(tuple(tuple(row.get(t, 0) for t in range(r)) for row in reduced), None)
    weights = [p ** (r - 1 - t) for t in range(r)]
    keys = {0}
    for basis in bases:
        span = [(0,) * r]
        for b in basis:
            steps = [tuple(c * a for a in b) for c in range(p)]
            span = [tuple(map(add, s, step)) for s in span for step in steps]
        keys.update(sum([a % p * w for a, w in zip(s, weights)]) for s in span)
    return _width(keys, list(bases), p, r, bound)


def _echelon(gens, p: int):
    """gens reduced mod p and their pivot columns (the first nonzero entry,
    or 0 for a zero row).  A span past _ENUM_CAP is refused here, before
    any value is read."""
    gens = [tuple(a % p for a in g) for g in gens]
    r = len(gens)
    if p**r > _ENUM_CAP:
        raise EnumerationTooLarge(f"a span of {p}^{r} elements exceeds the enumeration cap")
    pivots = [next((j for j, a in enumerate(g) if a), 0) for g in gens]
    return gens, pivots


def _pivot_coords(values, gens, pivots, p: int) -> list:
    """Each value's entries at the pivots: the combination of gens it must be."""
    refusal = InvariantViolation(
        "width search: the values are not combinations of the echelon rows "
        "read at their pivots"
    )
    if any(g[c] != int(i == k) for i, g in enumerate(gens) for k, c in enumerate(pivots)):
        raise refusal
    width = len(gens[0])
    out = []
    for value in values:
        value = [a % p for a in value]
        if len(value) != width:
            raise refusal
        coords = tuple(value[c] for c in pivots)
        combo = [0] * width
        for c, g in zip(coords, gens):
            if c:
                combo = [u + c * v for u, v in zip(combo, g)]
        if any((u - v) % p for u, v in zip(combo, value)):
            raise refusal
        out.append(coords)
    return out


def _width(keys, bases, p: int, r: int, bound: int) -> int | None:
    """The width search on the distinct keys of the values and, for
    product_width, the bases (span coordinates) of subspaces whose union
    they are.  Each k-fold sumset is a bitmap over the p^r keys; before
    each step the work that sumset would refuse is refused."""
    size = p**r
    masks = {}

    def mask(w, low):
        """Keys whose digit of weight w is below low."""
        bits = masks.get((w, low))
        if bits is None:
            bits = _repeat((1 << low * w) - 1, p * w, size // (p * w))
            if (len(masks) + 1) * size <= _MASK_CACHE_BITS:
                masks[(w, low)] = bits
        return bits

    def translate(bits, moves):
        for w, a in moves:
            kept = bits & mask(w, p - a)
            bits = (kept << a * w) | ((bits ^ kept) >> (p - a) * w)
        return bits

    weights = [p ** (r - 1 - t) for t in range(r)]
    spans = None
    if bases is not None and sum(map(len, bases)) * (p - 1) < len(keys) - (0 in keys):
        spans = [[[(w, a) for w, a in zip(weights, b) if a] for b in basis] for basis in bases]
    else:
        singles = [_digit_moves(key, p) for key in keys]
    reach = _bitmap(keys, size)
    full = (1 << size) - 1
    k = 1
    while reach != full:
        k += 1
        if k > bound:
            return None
        count = reach.bit_count()
        if count * len(keys) > _ENUM_CAP:
            raise EnumerationTooLarge(
                f"sumset of {count} x {len(keys)} rows exceeds the enumeration cap"
            )
        step = 0
        if spans is None:
            for moves in singles:
                step |= translate(reach, moves)
        else:
            for basis in spans:
                cur = reach
                for moves in basis:
                    for _ in range(p - 1):
                        cur |= translate(cur, moves)
                step |= cur
        reach = step
    return k


def _digit_moves(key: int, p: int) -> list:
    """(weight, digit) for each nonzero base-p digit of key."""
    moves, w = [], 1
    while key:
        key, a = divmod(key, p)
        if a:
            moves.append((w, a))
        w *= p
    return moves


def _bitmap(keys, size: int) -> int:
    """The int whose bit key is set for each key, all keys below size."""
    bits = bytearray((size + 7) // 8)
    for key in keys:
        bits[key >> 3] |= 1 << (key & 7)
    return int.from_bytes(bits, "little")


def _repeat(block: int, period: int, count: int) -> int:
    """count copies of the period-bit block, the first in the lowest bits."""
    out, filled = 0, 0
    while count:
        if count & 1:
            out |= block << filled
            filled += period
        count >>= 1
        if count:
            block |= block << period
            period *= 2
    return out


def equal_image_differences(rows, matrix, p: int) -> list:
    """Group the rows by their image under the int matrix (row . line mod p
    for each line of matrix) and return each row minus the first row of its
    group, as int tuples, group by group in key order."""
    groups = {}
    for row in rows:
        image = tuple(sum(map(mul, line, row)) % p for line in matrix)
        groups.setdefault(image, []).append(row)
    out = []
    for image in sorted(groups):
        base = groups[image][0]
        out += [tuple((u - v) % p for u, v in zip(row, base)) for row in groups[image][1:]]
    return out
