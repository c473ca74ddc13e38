"""Dense enumeration over GF(p) for the brute-force oracles.

Callers pass plain int rows and get back either plain ints or opaque row
sets that they only hand back to this module.  A row set is a numpy int16
array of rows reduced mod p; numpy is imported inside the functions, so
only a GF(p) enumeration loads it.  Arithmetic mod a prime on small
integers is exact, so nothing here leaves exact arithmetic.  Every
enumeration runs in a fixed order, and the functions that return row sets
keep rows in the order they first occur, so every output is deterministic.
The row-set functions (products, sumset, span_rows, ...) serve the Z_n
chain and the tests.  The width searches, closure_width on given values
and product_width on the products of a structure tensor, return only a
count: they mark the base-p keys of span coordinates in a bitmap and
make, sort or deduplicate no row set.
"""

from __future__ import annotations

from .errors import EnumerationTooLarge, InvariantViolation

_CHUNK_ROWS = 1 << 16
_ENUM_CAP = 40_000_000


def all_vectors(p: int, dim: int):
    """All p^dim coordinate rows in lexicographic order, least digit last."""
    import numpy as np

    if dim == 0:
        return np.zeros((1, 0), dtype=np.int16)
    grids = np.indices((p,) * dim).reshape(dim, -1).T
    return grids.astype(np.int16)


def pack_rows(rows, p: int):
    """Base-p integer keys; canonical (sorted) unique representation.
    Raises EnumerationTooLarge when a key could pass the int64 range."""
    import numpy as np

    if rows.shape[1] == 0:
        return np.zeros(len(rows), dtype=np.int64)
    if p ** rows.shape[1] > 1 << 63:
        raise EnumerationTooLarge(
            f"{rows.shape[1]} coordinates mod {p} do not fit 64-bit row keys"
        )
    weights = (p ** np.arange(rows.shape[1] - 1, -1, -1)).astype(np.int64)
    return rows.astype(np.int64) @ weights


def unique_rows(rows, p: int):
    """The distinct rows in first-occurrence order: the least original index
    of each run of equal keys after an unstable sort (no stable sort)."""
    import numpy as np

    keys = pack_rows(rows, p)
    order = np.argsort(keys)
    keys = keys[order]
    starts = np.flatnonzero(np.r_[len(keys) > 0, keys[1:] != keys[:-1]])
    return rows[np.sort(np.minimum.reduceat(order, starts))]


def _unique_chunks(blocks, p: int):
    """Unique rows of the concatenated blocks (arrays whose last axis runs
    along a row) in first-occurrence order, deduplicating each block as it
    is made."""
    import numpy as np

    pieces = []
    seen = np.zeros(0, dtype=np.int64)
    for block in blocks:
        block = unique_rows(block.reshape(-1, block.shape[-1]), p)
        keys = pack_rows(block, p)
        new = ~np.isin(keys, seen)
        seen = np.concatenate([seen, keys[new]])
        pieces.append(block[new].astype(np.int16))
    return np.concatenate(pieces)


def sumset(a, b, p: int, cap: int = _ENUM_CAP):
    """Unique rows of {x + y mod p : x in a, y in b}, chunked."""
    if len(a) * len(b) > cap:
        raise EnumerationTooLarge(
            f"sumset of {len(a)} x {len(b)} rows exceeds the enumeration cap"
        )
    if len(a) == 0 or len(b) == 0:
        return a[:0]
    step = max(1, _CHUNK_ROWS // len(b))
    starts = range(0, len(a), step)
    return _unique_chunks(((a[s : s + step, None] + b[None]) % p for s in starts), p)


def products(tensor, p: int):
    """Unique values f(x, y) over all x, y in GF(p)^m, for the bilinear map
    with int structure tensor tensor[i][j] = f(b_i, b_j), m >= 1."""
    import numpy as np

    xs = all_vectors(p, len(tensor)).astype(np.int64)
    left = np.einsum("ad,det->aet", xs, np.asarray(tensor, dtype=np.int64)) % p
    step = max(1, _CHUNK_ROWS // len(xs))
    starts = range(0, len(xs), step)
    return _unique_chunks(
        (np.einsum("aet,be->abt", left[s : s + step], xs) % p for s in starts), p
    )


def same_row_set(a, b, p: int) -> bool:
    import numpy as np

    ka = np.unique(pack_rows(a, p))
    kb = np.unique(pack_rows(b, p))
    return len(ka) == len(kb) and bool(np.all(ka == kb))


def span_rows(gens, p: int):
    """All GF(p)-combinations of the generator rows (the subgroup they span)."""
    import numpy as np

    acc = np.zeros((1, gens.shape[1]), dtype=np.int16)
    for g in gens:
        acc = sumset(acc, (np.arange(p)[:, None] * g % p).astype(np.int16), p)
    return acc


def closure_width(values, gens, p: int, bound: int) -> int | None:
    """The least k such that every element of the span of gens is a sum of
    exactly k rows of values; None once k passes bound.  gens are the
    reduced echelon rows of a nonzero span and values nonempty int rows in
    it (or a row set).  k = 1 is tested before the bound is consulted.

    A span element is fixed by its r entries at the pivot columns of gens,
    read as a base-p key as pack_rows reads a row."""
    return _width(values, gens, p, bound, lambda coords: [pack_rows(coords, p)])


def product_width(tensor, gens, p: int, bound: int) -> int | None:
    """closure_width of all f(x, y), x, y in GF(p)^m, for the map with int
    structure tensor tensor[i][j] = f(b_i, b_j), m >= 1, and gens the
    reduced echelon rows of its image, without making any product as a row.
    Each key is built pivot by pivot from the tensor's pivot entries; as
    f(cx, y) = f(x, cy), x runs over one vector per line (first nonzero
    coordinate 1), and y = 0 gives the key 0."""
    import numpy as np

    def keys(coords):
        coords = coords.astype(np.int32)  # the cap keeps every key under 2^31
        ys = all_vectors(p, len(coords)).astype(np.int32)
        xs = ys[ys[np.arange(len(ys)), (ys != 0).argmax(axis=1)] == 1]
        step = max(1, _CHUNK_ROWS // len(ys))
        for s in range(0, len(xs), step):
            out = 0
            for t in range(coords.shape[-1]):
                out = out * p + xs[s : s + step] @ coords[:, :, t] @ ys.T % p
            yield out

    return _width(tensor, gens, p, bound, keys)


def _width(values, gens, p: int, bound: int, key_chunks) -> int | None:
    """closure_width's search on values (int rows over the columns of gens,
    in an array of any shape), keyed by the chunks that key_chunks yields
    from their pivot entries.  A span past _ENUM_CAP is refused before
    anything is read, and each value must be the combination of gens its
    pivot entries give.  Each k-fold sumset is a bitmap over the p^r keys,
    made digit by digit mod p (_add_keys); nothing is sorted or
    deduplicated, and each step refuses the work that sumset would refuse."""
    import numpy as np

    gens = np.asarray(gens, dtype=np.int64) % p
    r = len(gens)
    if p**r > _ENUM_CAP:
        raise EnumerationTooLarge(f"a span of {p}^{r} elements exceeds the enumeration cap")
    values = np.asarray(values, dtype=np.int64) % p
    pivots = (gens != 0).argmax(axis=1)
    coords = values[..., pivots]
    if not (
        np.array_equal(gens[:, pivots], np.eye(r, dtype=np.int64))
        and np.array_equal(coords @ gens % p, values)
    ):
        raise InvariantViolation(
            "width search: the values are not combinations of the echelon rows "
            "read at their pivots"
        )
    reach = np.zeros(p**r, dtype=bool)
    for chunk in key_chunks(coords):
        reach[chunk] = True
    value_keys = np.flatnonzero(reach)
    groups = _digit_groups(p, r)
    k = 1
    while not reach.all():
        k += 1
        if k > bound:
            return None
        keys = np.flatnonzero(reach)
        if len(keys) * len(value_keys) > _ENUM_CAP:
            raise EnumerationTooLarge(
                f"sumset of {len(keys)} x {len(value_keys)} rows exceeds the enumeration cap"
            )
        reach = _add_keys(keys, value_keys, groups, p, len(reach))
    return k


def _digit_groups(p: int, r: int):
    """Split r base-p digits, least significant first, into groups of at
    most max(1, r // 2) digits: (weight, block, table) per group of size
    digits, where weight is p^(the group's lowest digit), block is p^size
    and table[x * block + y] is weight times the digitwise sum mod p of the
    size-digit numbers x and y.  No table has more than p^r entries: for
    r = 1 the one digit adds mod p and table is None."""
    import numpy as np

    step = max(1, r // 2)
    groups = []
    for low in range(0, r, step):
        size, weight = min(step, r - low), p**low
        table = None
        if 2 * size <= r:
            x = np.arange(p**size, dtype=np.int32)
            table = sum(
                (x[:, None] // p**d + x[None, :] // p**d) % p * p**d for d in range(size)
            )
            table = (table * weight).ravel()
        groups.append((weight, p**size, table))
    return groups


def _add_keys(keys, value_keys, groups, p: int, length: int):
    """Bitmap of length entries marking every key + value key, digitwise mod p,
    over chunks of about _CHUNK_ROWS pairs."""
    import numpy as np

    parts = []
    for weight, block, table in groups:
        left = (keys // weight % block).astype(np.int32)
        right = (value_keys // weight % block).astype(np.int32)
        parts.append((left if table is None else left * block, right, weight, table))
    out = np.zeros(length, dtype=bool)
    step = max(1, _CHUNK_ROWS // len(value_keys))
    for s in range(0, len(keys), step):
        total = 0
        for left, right, weight, table in parts:
            pair = left[s : s + step, None] + right
            total = total + (pair % p * weight if table is None else table.take(pair))
        out[total] = True
    return out


def equal_image_differences(rows, matrix, p: int) -> list:
    """Group the rows by their image under the int matrix (rows @ matrix^T
    mod p) and return each row minus the first row of its group, as int
    tuples, group by group in key order."""
    import numpy as np

    matrix = np.asarray(matrix, dtype=np.int64).reshape(-1, rows.shape[1])
    keys = pack_rows(rows.astype(np.int64) @ matrix.T % p, p)
    order = np.argsort(keys, kind="stable")
    rows, keys = rows[order].astype(np.int64), keys[order]
    first = np.flatnonzero(np.r_[True, keys[1:] != keys[:-1]])
    base = np.repeat(first, np.diff(np.r_[first, len(keys)]))
    later = np.arange(len(keys)) != base
    return [tuple(r) for r in ((rows[later] - rows[base[later]]) % p).tolist()]
