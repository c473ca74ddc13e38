"""Dense enumeration over GF(p) for the brute-force oracles.

Callers pass plain int rows and get back either plain ints or opaque row
sets that they only hand back to this module.  A row set is a numpy int16
array of rows reduced mod p; numpy is imported inside the functions, so
only a GF(p) enumeration loads it.  Arithmetic mod a prime on small
integers is exact, so nothing here leaves exact arithmetic.  Every
enumeration runs in a fixed order and keeps rows in the order they first
occur, so every output is deterministic.
"""

from __future__ import annotations

from .errors import EnumerationTooLarge

_CHUNK_ROWS = 1 << 16


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


def sumset(a, b, p: int, cap: int = 40_000_000):
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
    k rows of values; None once k passes bound.  Both are nonempty int rows
    (values may also be a row set).  k = 1 is tested before the bound is
    consulted."""
    import numpy as np

    values = np.asarray(values, dtype=np.int16) % p
    target = span_rows(np.asarray(gens, dtype=np.int16) % p, p)
    reach = values
    k = 1
    while not same_row_set(np.concatenate([reach, target]), reach, p):
        k += 1
        if k > bound:
            return None
        reach = sumset(reach, values, p)
    return k


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
