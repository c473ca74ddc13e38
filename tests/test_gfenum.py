"""The chunked GF(p) enumerations against plain-Python loops, the bitmap
width search against the row-set search it replaced, and the product-key
width search against the bitmap search on deduplicated products."""

import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ringlab import gfenum
from ringlab.bilinear import Subspace, field_carrier
from ringlab.domains import PrimeField
from ringlab.errors import EnumerationTooLarge, InvariantViolation
from ringlab.rings import RingPresentation, parse_word, verbal_ideal


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


# -- closure_width ---------------------------------------------------------------------


def head_closure_width(values, gens, p, bound):
    """The replaced body: k-fold sumsets as deduplicated row sets, until they
    hold every row of the span."""
    values = np.asarray(values, dtype=np.int16) % p
    target = gfenum.span_rows(np.asarray(gens, dtype=np.int16) % p, p)
    reach = values
    k = 1
    while not gfenum.same_row_set(np.concatenate([reach, target]), reach, p):
        k += 1
        if k > bound:
            return None
        reach = gfenum.sumset(reach, values, p)
    return k


def outcome(search, *args):
    try:
        return search(*args)
    except EnumerationTooLarge:
        return EnumerationTooLarge


def echelon_rows(p, vectors, width):
    return list(Subspace.span(PrimeField(p), vectors, width).rows)


@st.composite
def tensors(draw):
    """(p, tensor, echelon rows of its image): a random map GF(p)^m x GF(p)^m
    -> GF(p)^n with a nonzero image, many entries zero or a basis vector."""
    p = draw(st.sampled_from((2, 3, 5)))
    m = draw(st.integers(1, 2 if p == 5 else 3))
    n = draw(st.integers(1, 4 if p == 5 else 6))
    units = [tuple(int(t == s) for t in range(n)) for s in range(n)]
    entry = st.one_of(
        st.just((0,) * n), st.sampled_from(units), st.tuples(*[st.integers(0, p - 1)] * n)
    )
    tensor = tuple(tuple(draw(entry) for _ in range(m)) for _ in range(m))
    gens = echelon_rows(p, [e for row in tensor for e in row], n)
    if not gens:
        tensor = ((tuple(1 if t == 0 else 0 for t in range(n)),) * m,) * m
        gens = echelon_rows(p, [e for row in tensor for e in row], n)
    return p, tensor, gens


@settings(max_examples=150, deadline=None)
@given(tensors(), st.sampled_from((1, 2, 16)))
def test_closure_width_on_products_matches_the_row_set_search(case, bound):
    p, tensor, gens = case
    values = gfenum.products(tensor, p)
    expected = head_closure_width(values, gens, p, bound)
    assert gfenum.closure_width(values, gens, p, bound) == expected


@settings(max_examples=150, deadline=None)
@given(st.sampled_from((2, 3, 5)), st.integers(1, 5), st.data(), st.sampled_from((1, 2, 16)))
def test_closure_width_on_span_subsets_matches_the_row_set_search(p, n, data, bound):
    """Values drawn from the span as int tuples, with or without zero, so
    that widths past 2 and spans never covered both occur."""
    if p == 5:
        n = min(n, 4)
    row = st.tuples(*[st.integers(0, p - 1)] * n)
    gens = echelon_rows(p, data.draw(st.lists(row, min_size=1, max_size=4)), n)
    coeffs = st.tuples(*[st.integers(0, p - 1)] * len(gens))
    values = set()
    for c in data.draw(st.lists(coeffs, min_size=1, max_size=20)):
        values.add(tuple(sum(a * g[t] for a, g in zip(c, gens)) % p for t in range(n)))
    values = sorted(values)
    if not gens:
        gens, values = [(1,) + (0,) * (n - 1)], [(1,) + (0,) * (n - 1)]
    expected = head_closure_width(values, gens, p, bound)
    assert gfenum.closure_width(values, gens, p, bound) == expected


@settings(max_examples=100, deadline=None)
@given(tensors(), st.sampled_from((4, 9, 30, 120, 600)))
def test_closure_width_refuses_work_where_the_row_set_search_did(case, cap):
    """With the enumeration cap lowered, both searches stop with
    EnumerationTooLarge on the same inputs: at once when the span has more
    than cap elements, or at the step whose sumset would pass it."""
    p, tensor, gens = case
    values = gfenum.products(tensor, p)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(gfenum.sumset, "__defaults__", (cap,))
        patch.setattr(gfenum, "_ENUM_CAP", cap)
        expected = outcome(head_closure_width, values, gens, p, 16)
        assert outcome(gfenum.closure_width, values, gens, p, 16) == expected
        assert outcome(gfenum.product_width, tensor, gens, p, 16) == expected


def test_closure_width_allows_a_step_of_exactly_cap_sums(monkeypatch):
    values, gens = [(0, 0), (1, 0), (0, 1), (1, 1)], [(1, 0), (0, 1)]
    for cap, expected in ((16, 2), (15, EnumerationTooLarge)):
        monkeypatch.setattr(gfenum.sumset, "__defaults__", (cap,))
        monkeypatch.setattr(gfenum, "_ENUM_CAP", cap)
        assert outcome(head_closure_width, values, gens, 3, 4) == expected
        assert outcome(gfenum.closure_width, values, gens, 3, 4) == expected


def test_closure_width_refuses_a_span_past_the_cap_before_enumerating():
    gens = [tuple(int(i == j) for j in range(26)) for i in range(26)]
    with pytest.raises(EnumerationTooLarge, match="2\\^26"):
        gfenum.closure_width(gens, gens, 2, 4)


def test_closure_width_sorts_and_dedupes_nothing(monkeypatch):
    p = 3
    tensor = tuple(
        tuple(tuple(int(t == 3 * i + j) for t in range(9)) for j in range(3)) for i in range(3)
    )
    values = gfenum.products(tensor, p)
    gens = echelon_rows(p, [e for row in tensor for e in row], 9)
    for name in ("unique", "argsort", "sort", "isin", "concatenate"):
        monkeypatch.setattr(np, name, None)
    # every 3x3 matrix over GF(3) is a sum of three rank-one matrices
    assert gfenum.closure_width(values, gens, p, 16) == 3
    for name in ("unique_rows", "products", "pack_rows"):
        monkeypatch.setattr(gfenum, name, None)
    assert gfenum.product_width(tensor, gens, p, 16) == 3


def test_closure_width_refuses_values_outside_the_echelon_span():
    with pytest.raises(InvariantViolation, match="width search"):
        gfenum.closure_width([(0, 1, 0)], [(1, 0, 2)], 3, 4)
    # (1, 1, 0) is in the span of these rows, but they are not reduced
    with pytest.raises(InvariantViolation, match="width search"):
        gfenum.closure_width([(1, 1, 0)], [(1, 1, 0), (0, 1, 0)], 3, 4)


# -- product_width ----------------------------------------------------------------------


def head_bitmap_width(values, gens, p, bound):
    """The body closure_width had when product_width came in, loop and all;
    run on products(tensor, p) it is the width search product_width replaced."""
    gens = np.asarray(gens, dtype=np.int64) % p
    r = len(gens)
    if p**r > gfenum._ENUM_CAP:
        raise EnumerationTooLarge(f"a span of {p}^{r} elements exceeds the enumeration cap")
    values = np.asarray(values, dtype=np.int64) % p
    pivots = (gens != 0).argmax(axis=1)
    coords = values[:, pivots]
    if not (
        np.array_equal(gens[:, pivots], np.eye(r, dtype=np.int64))
        and np.array_equal(coords @ gens % p, values)
    ):
        raise InvariantViolation("width search")
    reach = np.zeros(p**r, dtype=bool)
    reach[gfenum.pack_rows(coords, p)] = True
    value_keys = np.flatnonzero(reach)
    groups = gfenum._digit_groups(p, r)
    k = 1
    while not reach.all():
        k += 1
        if k > bound:
            return None
        keys = np.flatnonzero(reach)
        if len(keys) * len(value_keys) > gfenum._ENUM_CAP:
            raise EnumerationTooLarge("sumset exceeds the enumeration cap")
        reach = gfenum._add_keys(keys, value_keys, groups, p, len(reach))
    return k


def head_product_width(tensor, gens, p, bound):
    return head_bitmap_width(gfenum.products(tensor, p), gens, p, bound)


def tensor_of(p, m, n, entries):
    """The int tensor with the given {(i, j): entry}, zero elsewhere."""
    return tuple(tuple(entries.get((i, j), (0,) * n) for j in range(m)) for i in range(m))


# m = 1; a degenerate map (b_2 multiplies to zero); a non-full image (one
# codomain line unused); the 3x3 outer product over GF(3), of width 3
PRODUCT_CASES = {
    "m1-gf5": (5, tensor_of(5, 1, 2, {(0, 0): (2, 3)})),
    "degenerate-gf3": (3, tensor_of(3, 3, 2, {(0, 1): (1, 0), (1, 0): (2, 0), (1, 1): (0, 1)})),
    "not-full-gf2": (2, tensor_of(2, 2, 4, {(0, 0): (1, 0, 0, 0), (1, 1): (0, 1, 1, 0)})),
    "outer3x3-gf3": (
        3,
        tuple(
            tuple(tuple(int(t == 3 * i + j) for t in range(9)) for j in range(3))
            for i in range(3)
        ),
    ),
}


@pytest.mark.parametrize("bound", (1, 2, 16))
@pytest.mark.parametrize("name", sorted(PRODUCT_CASES))
def test_product_width_on_named_maps(name, bound):
    p, tensor = PRODUCT_CASES[name]
    gens = echelon_rows(p, [e for row in tensor for e in row], len(tensor[0][0]))
    expected = outcome(head_product_width, tensor, gens, p, bound)
    assert outcome(gfenum.product_width, tensor, gens, p, bound) == expected


@settings(max_examples=200, deadline=None)
@given(tensors(), st.sampled_from((1, 2, 16)))
def test_product_width_matches_the_search_on_deduplicated_products(case, bound):
    p, tensor, gens = case
    expected = head_product_width(tensor, gens, p, bound)
    assert gfenum.product_width(tensor, gens, p, bound) == expected


def test_product_width_keys_past_one_chunk(monkeypatch):
    p, tensor = PRODUCT_CASES["outer3x3-gf3"]
    gens = echelon_rows(p, [e for row in tensor for e in row], 9)
    # 27 values of y per chunk row: each chunk holds one or two x
    monkeypatch.setattr(gfenum, "_CHUNK_ROWS", 50)
    assert gfenum.product_width(tensor, gens, p, 16) == 3


def test_product_width_refuses_entries_outside_the_echelon_span():
    tensor = tensor_of(3, 2, 3, {(0, 0): (1, 0, 2), (1, 0): (0, 1, 0)})
    with pytest.raises(InvariantViolation, match="width search"):
        gfenum.product_width(tensor, [(1, 0, 2)], 3, 4)
    # rows spanning the entries, but not reduced
    with pytest.raises(InvariantViolation, match="width search"):
        gfenum.product_width(tensor, [(1, 1, 2), (0, 1, 0)], 3, 4)


def test_product_width_refuses_a_span_past_the_cap_before_enumerating():
    gens = [tuple(int(i == j) for j in range(26)) for i in range(26)]
    tensor = tensor_of(2, 1, 26, {(0, 0): gens[0]})
    with pytest.raises(EnumerationTooLarge, match="2\\^26"):
        gfenum.product_width(tensor, gens, 2, 4)


def _gf3_ring(seed, dim):
    rng = random.Random(seed)
    tensor = tuple(
        tuple(tuple(rng.choice((0, 0, 1, 2)) for _ in range(dim)) for _ in range(dim))
        for _ in range(dim)
    )
    return RingPresentation(field_carrier(PrimeField(3), dim), tensor)


@pytest.mark.parametrize("word", ["x*x", "(x*x)*y", "x*(y*x)", "(x*y)*x"])
@pytest.mark.parametrize("seed", range(4))
def test_verbal_width_matches_the_row_set_search(word, seed):
    r = _gf3_ring(seed, 3)
    f, term = r.as_bilinear(), parse_word(word)
    names = term.variables()
    vectors = itertools.product(range(3), repeat=r.dim)
    values = sorted(
        {
            term.evaluate(f, dict(zip(names, combo)))
            for combo in itertools.product(list(vectors), repeat=len(names))
        }
    )
    rep = verbal_ideal(r, word)
    if not rep.generators:
        assert rep.width.width == 0
        return
    bound = 2 * len(rep.generators) + 4
    expected = head_closure_width(values, rep.generators, 3, bound)
    assert expected is not None
    assert rep.width.exact and rep.width.width == expected
