"""The chunked GF(p) enumerations against plain-Python loops."""

import itertools
import random

import numpy as np
import pytest

from ringlab import gfenum
from ringlab.errors import EnumerationTooLarge


def random_rows(rng, p, count, width):
    return [tuple(rng.randrange(p) for _ in range(width)) for _ in range(count)]


def as_tuples(row_set):
    return [tuple(r) for r in row_set.tolist()]


def test_sumset_dedupes_across_chunks_in_first_occurrence_order(monkeypatch):
    p = 3
    rng = random.Random(5)
    a, b = random_rows(rng, p, 40, 4), random_rows(rng, p, 7, 4)
    expected = {}
    for x in a:
        for y in b:
            expected.setdefault(tuple((u + v) % p for u, v in zip(x, y)), None)
    # 7 rows of b per row of a: each chunk holds the sums of two rows of a
    monkeypatch.setattr(gfenum, "_CHUNK_ROWS", 14)
    rows = gfenum.sumset(np.array(a, dtype=np.int16), np.array(b, dtype=np.int16), p)
    assert as_tuples(rows) == list(expected)


def test_products_match_the_bilinear_map_on_all_pairs(monkeypatch):
    p, m, n = 3, 3, 2
    rng = random.Random(11)
    tensor = tuple(tuple(random_rows(rng, p, m, n)) for _ in range(m))
    expected = {}
    for x in itertools.product(range(p), repeat=m):
        for y in itertools.product(range(p), repeat=m):
            value = tuple(
                sum(x[i] * y[j] * tensor[i][j][t] for i in range(m) for j in range(m)) % p
                for t in range(n)
            )
            expected.setdefault(value, None)
    monkeypatch.setattr(gfenum, "_CHUNK_ROWS", 50)
    assert as_tuples(gfenum.products(tensor, p)) == list(expected)


def test_equal_image_differences_matches_a_grouping_loop():
    p = 3
    rng = random.Random(2)
    rows = random_rows(rng, p, 60, 4)
    matrix = random_rows(rng, p, 2, 4)
    groups = {}
    for row in rows:
        image = tuple(sum(a * b for a, b in zip(line, row)) % p for line in matrix)
        groups.setdefault(image, []).append(row)
    expected = []
    for image in sorted(groups):
        base = groups[image][0]
        expected += [tuple((u - v) % p for u, v in zip(r, base)) for r in groups[image][1:]]
    row_set = np.array(rows, dtype=np.int16)
    assert gfenum.equal_image_differences(row_set, matrix, p) == expected


def test_pack_rows_refuses_keys_past_int64():
    # 7^22 < 2^63 < 7^23: 22 columns still pack exactly, 23 would wrap
    top = np.full((1, 22), 6, dtype=np.int16)
    assert int(gfenum.pack_rows(top, 7)[0]) == 7**22 - 1
    with pytest.raises(EnumerationTooLarge):
        gfenum.pack_rows(np.zeros((1, 23), dtype=np.int16), 7)


def test_unique_rows_keeps_first_occurrences_past_one_chunk():
    p = 7
    rng = random.Random(8)
    # repeats drawn from a pool of 30000 rows, so first occurrences reach far
    # past the first 2^16 rows
    pool = random_rows(rng, p, 30000, 6)
    rows = [rng.choice(pool) for _ in range((1 << 16) + 20000)]
    expected = {}
    for row in rows:
        expected.setdefault(row, None)
    unique = gfenum.unique_rows(np.array(rows, dtype=np.int16), p)
    assert as_tuples(unique) == list(expected)
