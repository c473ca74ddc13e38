"""The GF(p) row-set enumerations against plain-Python loops, and both width
searches (closure_width, product_width) against a naive k-fold sumset on
Python sets, refusals included."""

import functools
import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from ringlab import gfenum
from ringlab.bilinear import Subspace, field_carrier
from ringlab.domains import PrimeField
from ringlab.errors import EnumerationTooLarge, InvariantViolation
from ringlab.rings import RingPresentation, parse_word, verbal_ideal


def random_rows(rng, p, count, width):
    return [tuple(rng.randrange(p) for _ in range(width)) for _ in range(count)]


def test_sumset_dedupes_in_first_occurrence_order():
    p = 3
    rng = random.Random(5)
    a, b = random_rows(rng, p, 40, 4), random_rows(rng, p, 7, 4)
    expected = {}
    for x in a:
        for y in b:
            expected.setdefault(tuple((u + v) % p for u, v in zip(x, y)), None)
    assert gfenum.sumset(a, b, p) == tuple(expected)


def test_sumset_refuses_more_pairs_than_its_cap():
    a, b = [(0, 1)] * 4, [(1, 1)] * 3
    assert gfenum.sumset(a, b, 2, cap=12) == ((1, 0),)
    with pytest.raises(EnumerationTooLarge, match="sumset of 4 x 3 rows"):
        gfenum.sumset(a, b, 2, cap=11)


def test_products_match_the_bilinear_map_on_all_pairs():
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
    assert gfenum.products(tensor, p) == tuple(expected)


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
    assert gfenum.equal_image_differences(rows, matrix, p) == expected


def test_pack_rows_keys_are_exact_past_int64():
    # 7^22 < 2^63 < 7^23: a key of 23 columns mod 7 passes the int64 range
    assert gfenum.pack_rows([(6,) * 23, (0,) * 22 + (1,)], 7) == [7**23 - 1, 1]
    rows = random_rows(random.Random(4), 5, 50, 6)
    keys = gfenum.pack_rows(rows, 5)
    assert sorted(range(50), key=keys.__getitem__) == sorted(range(50), key=rows.__getitem__)


def test_unique_rows_keeps_first_occurrences_past_one_chunk():
    p = 7
    rng = random.Random(8)
    # repeats drawn from a pool of 30000 rows, so first occurrences reach
    # past the first 2^16 rows
    pool = random_rows(rng, p, 30000, 6)
    rows = [rng.choice(pool) for _ in range((1 << 16) + 20000)]
    assert gfenum.unique_rows(rows, p) == tuple(dict.fromkeys(rows))


def test_span_rows_holds_every_combination_once():
    p, gens = 3, [(1, 2, 0), (0, 1, 1)]
    expected = {
        tuple((a * u + b * v) % p for u, v in zip(*gens))
        for a in range(p)
        for b in range(p)
    }
    span = gfenum.span_rows(gens, p)
    assert len(span) == 9 and set(span) == expected
    assert gfenum.same_row_set(span, sorted(expected), p)
    assert not gfenum.same_row_set(span, sorted(expected)[1:], p)


# -- the naive k-fold sumset ------------------------------------------------------------

OUTSIDE = (
    "width search: the values are not combinations of the echelon rows read at their pivots"
)


def naive_width(values, gens, p, bound):
    """k-fold sumsets as Python sets of rows until they hold all p^r rows of
    the span, refusing where the width searches refuse: a span past the cap
    before any value is read, a value that is not the combination of gens
    its pivot entries give, and a step of more than cap sums."""
    gens = [tuple(a % p for a in g) for g in gens]
    r = len(gens)
    if p**r > gfenum._ENUM_CAP:
        raise EnumerationTooLarge(f"a span of {p}^{r} elements exceeds the enumeration cap")
    pivots = [next((j for j, a in enumerate(g) if a), 0) for g in gens]
    if any(g[c] != int(i == k) for i, g in enumerate(gens) for k, c in enumerate(pivots)):
        raise InvariantViolation(OUTSIDE)
    values = {tuple(a % p for a in v) for v in values}
    for v in values:
        combo = tuple(sum(v[c] * g[t] for c, g in zip(pivots, gens)) % p for t in range(len(v)))
        if len(v) != len(gens[0]) or combo != v:
            raise InvariantViolation(OUTSIDE)
    reach, k = set(values), 1
    while len(reach) < p**r:
        k += 1
        if k > bound:
            return None
        if len(reach) * len(values) > gfenum._ENUM_CAP:
            raise EnumerationTooLarge(
                f"sumset of {len(reach)} x {len(values)} rows exceeds the enumeration cap"
            )
        reach = {tuple([(u + v) % p for u, v in zip(x, y)]) for x in reach for y in values}
    return k


def naive_products(tensor, p):
    m, n = len(tensor), len(tensor[0][0])
    vectors = list(itertools.product(range(p), repeat=m))
    return {
        tuple(
            sum(x[i] * y[j] * tensor[i][j][t] for i in range(m) for j in range(m)) % p
            for t in range(n)
        )
        for x in vectors
        for y in vectors
    }


def outcome(search, *args):
    """The search's answer, or the type and message of its refusal."""
    try:
        return search(*args)
    except (EnumerationTooLarge, InvariantViolation) as exc:
        return type(exc), str(exc)


def echelon_rows(p, vectors, width):
    return list(Subspace.span(PrimeField(p), vectors, width).rows)


# (m, n) bounds per prime that keep the naive sumsets small
SHAPES = {2: (3, 7), 3: (3, 5), 5: (2, 3), 7: (2, 3)}


@st.composite
def tensors(draw):
    """(p, tensor, echelon rows of its image): a random map GF(p)^m x GF(p)^m
    -> GF(p)^n with a nonzero image, many entries zero or a basis vector."""
    p = draw(st.sampled_from(sorted(SHAPES)))
    m = draw(st.integers(1, SHAPES[p][0]))
    n = draw(st.integers(1, SHAPES[p][1]))
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


@settings(max_examples=200, deadline=None)
@given(tensors(), st.sampled_from((1, 2, 16)), st.sampled_from((4, 30, 600, None)))
def test_width_searches_match_a_naive_sumset(case, bound, cap):
    """Over GF(2), GF(3), GF(5) and GF(7), with the cap as it is or lowered:
    the same width, or a refusal at the same step with the same message."""
    p, tensor, gens = case
    products = naive_products(tensor, p)
    with pytest.MonkeyPatch.context() as patch:
        if cap is not None:
            patch.setattr(gfenum, "_ENUM_CAP", cap)
        expected = outcome(naive_width, products, gens, p, bound)
        assert outcome(gfenum.product_width, tensor, gens, p, bound) == expected
        assert outcome(gfenum.closure_width, sorted(products), gens, p, bound) == expected


# -- closure_width ---------------------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(tensors(), st.sampled_from((1, 2, 16)))
def test_closure_width_on_products_matches_the_row_set_search(case, bound):
    p, tensor, gens = case
    values = gfenum.products(tensor, p)
    expected = naive_width(values, gens, p, bound)
    assert gfenum.closure_width(values, gens, p, bound) == expected


@settings(max_examples=150, deadline=None)
@given(st.sampled_from((2, 3, 5, 7)), st.integers(1, 5), st.data(), st.sampled_from((1, 2, 16)))
def test_closure_width_on_span_subsets_matches_the_row_set_search(p, n, data, bound):
    """Values drawn from the span as int tuples, repeated, with or without
    zero, so that widths past 2 and spans never covered both occur."""
    n = min(n, SHAPES[p][1])
    row = st.tuples(*[st.integers(0, p - 1)] * n)
    gens = echelon_rows(p, data.draw(st.lists(row, min_size=1, max_size=4)), n)
    coeffs = st.tuples(*[st.integers(0, p - 1)] * len(gens))
    values = [
        tuple(sum(a * g[t] for a, g in zip(c, gens)) % p for t in range(n))
        for c in data.draw(st.lists(coeffs, min_size=1, max_size=20))
    ]
    if not gens:
        gens, values = [(1,) + (0,) * (n - 1)], [(1,) + (0,) * (n - 1)]
    expected = naive_width(values, gens, p, bound)
    assert gfenum.closure_width(values, gens, p, bound) == expected


@settings(max_examples=100, deadline=None)
@given(tensors(), st.sampled_from((4, 9, 30, 120, 600)))
def test_closure_width_refuses_work_where_the_row_set_search_did(case, cap):
    """With the enumeration cap lowered, the searches stop with the same
    EnumerationTooLarge on the same inputs: at once when the span has more
    than cap elements, or at the step whose sumset would pass it."""
    p, tensor, gens = case
    values = gfenum.products(tensor, p)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(gfenum, "_ENUM_CAP", cap)
        expected = outcome(naive_width, values, gens, p, 16)
        assert outcome(gfenum.closure_width, values, gens, p, 16) == expected
        assert outcome(gfenum.product_width, tensor, gens, p, 16) == expected


def test_closure_width_allows_a_step_of_exactly_cap_sums(monkeypatch):
    values, gens = [(0, 0), (1, 0), (0, 1), (1, 1)], [(1, 0), (0, 1)]
    refusal = (EnumerationTooLarge, "sumset of 4 x 4 rows exceeds the enumeration cap")
    for cap, expected in ((16, 2), (15, refusal)):
        monkeypatch.setattr(gfenum, "_ENUM_CAP", cap)
        assert outcome(naive_width, values, gens, 3, 4) == expected
        assert outcome(gfenum.closure_width, values, gens, 3, 4) == expected


def test_closure_width_refuses_a_span_past_the_cap_before_enumerating():
    gens = [tuple(int(i == j) for j in range(26)) for i in range(26)]
    with pytest.raises(EnumerationTooLarge, match="2\\^26"):
        gfenum.closure_width(gens, gens, 2, 4)


def test_closure_width_sorts_and_dedupes_nothing(monkeypatch):
    """The width searches go through no row-set function: no sumset,
    dedupe, span or product rows."""
    p = 3
    tensor = tuple(
        tuple(tuple(int(t == 3 * i + j) for t in range(9)) for j in range(3)) for i in range(3)
    )
    values = gfenum.products(tensor, p)
    gens = echelon_rows(p, [e for row in tensor for e in row], 9)
    for name in ("unique_rows", "sumset", "span_rows", "same_row_set", "products"):
        monkeypatch.setattr(gfenum, name, None)
    # every 3x3 matrix over GF(3) is a sum of three rank-one matrices
    assert gfenum.closure_width(values, gens, p, 16) == 3
    assert gfenum.product_width(tensor, gens, p, 16) == 3


def test_closure_width_refuses_values_outside_the_echelon_span():
    with pytest.raises(InvariantViolation, match="width search"):
        gfenum.closure_width([(0, 1, 0)], [(1, 0, 2)], 3, 4)
    # (1, 1, 0) is in the span of these rows, but they are not reduced
    with pytest.raises(InvariantViolation, match="width search"):
        gfenum.closure_width([(1, 1, 0)], [(1, 1, 0), (0, 1, 0)], 3, 4)


# -- product_width ----------------------------------------------------------------------


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


@functools.lru_cache(maxsize=None)
def named_case(name, bound):
    """(p, tensor, echelon rows of the image, the naive outcome)."""
    p, tensor = PRODUCT_CASES[name]
    gens = echelon_rows(p, [e for row in tensor for e in row], len(tensor[0][0]))
    return p, tensor, gens, outcome(naive_width, naive_products(tensor, p), gens, p, bound)


@pytest.mark.parametrize("bound", (1, 2, 16))
@pytest.mark.parametrize("name", sorted(PRODUCT_CASES))
def test_product_width_on_named_maps(name, bound):
    p, tensor, gens, expected = named_case(name, bound)
    assert outcome(gfenum.product_width, tensor, gens, p, bound) == expected


@settings(max_examples=200, deadline=None)
@given(tensors(), st.sampled_from((1, 2, 16)))
def test_product_width_matches_the_search_on_deduplicated_products(case, bound):
    p, tensor, gens = case
    expected = naive_width(naive_products(tensor, p), gens, p, bound)
    assert gfenum.product_width(tensor, gens, p, bound) == expected


@pytest.mark.parametrize("name", sorted(PRODUCT_CASES))
def test_width_searches_rebuild_masks_past_the_cache(monkeypatch, name):
    """With no room for cached digit masks, each is rebuilt at each use."""
    p, tensor, gens, expected = named_case(name, 16)
    monkeypatch.setattr(gfenum, "_MASK_CACHE_BITS", 0)
    assert gfenum.product_width(tensor, gens, p, 16) == expected
    assert gfenum.closure_width(gfenum.products(tensor, p), gens, p, 16) == expected


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
    values = {
        term.evaluate(f, dict(zip(names, combo)))
        for combo in itertools.product(list(vectors), repeat=len(names))
    }
    rep = verbal_ideal(r, word)
    if not rep.generators:
        assert rep.width.width == 0
        return
    bound = 2 * len(rep.generators) + 4
    expected = naive_width(values, rep.generators, 3, bound)
    assert expected is not None
    assert rep.width.exact and rep.width.width == expected
