import functools
import random
from fractions import Fraction
from math import factorial

import pytest

from ringlab import linalg
from ringlab.bilinear import field_carrier
from ringlab.domains import Extension, QQ, Rationals
from ringlab.errors import (
    AlgebraMismatch,
    ClassTooLarge,
    InvariantViolation,
    NotLie,
    NotNilpotent,
    UnsupportedDomain,
    ValidationError,
)
from ringlab.lie import (
    GroupElement,
    _dynkin_terms,
    _dynkin_trie,
    _trunc_log_of_product,
    bch,
    central_series_and_center,
    group_commutator,
    group_decompose,
    group_identity,
    group_inv,
    group_mul,
    group_pow,
    iterated_commutator,
    verify_nilpotent_lie,
)
from ringlab.rings import RingPresentation


def qring(dim, entries, domain=QQ):
    tensor = [
        [
            tuple(domain.from_int(c) for c in entries.get((i, j), (0,) * dim))
            for j in range(dim)
        ]
        for i in range(dim)
    ]
    return RingPresentation(field_carrier(domain, dim), tuple(tensor))


def h3():
    return verify_nilpotent_lie(
        qring(3, {(0, 1): (0, 0, 1), (1, 0): (0, 0, -1)})
    )


def free_nilpotent_c3():
    """Free class-3 rank-2: basis x, y, (x,y), (x,(x,y)), (y,(x,y))."""
    entries = {
        (0, 1): (0, 0, 1, 0, 0),
        (1, 0): (0, 0, -1, 0, 0),
        (0, 2): (0, 0, 0, 1, 0),
        (2, 0): (0, 0, 0, -1, 0),
        (1, 2): (0, 0, 0, 0, 1),
        (2, 1): (0, 0, 0, 0, -1),
    }
    return verify_nilpotent_lie(qring(5, entries))


def filiform(dim, domain=QQ):
    """[e1, e_i] = e_{i+1} for i = 2..dim-1: nilpotency class dim - 1."""
    entries = {}
    for i in range(1, dim - 1):
        unit = tuple(int(t == i + 1) for t in range(dim))
        entries[(0, i)] = unit
        entries[(i, 0)] = tuple(-u for u in unit)
    return verify_nilpotent_lie(qring(dim, entries, domain))


def heisenberg_sum(k):
    """k blocks [x_b, y_b] = z_b plus one abelian line."""
    dim = 3 * k + 1
    entries = {}
    for b in range(k):
        unit = tuple(int(t == 3 * b + 2) for t in range(dim))
        entries[(3 * b, 3 * b + 1)] = unit
        entries[(3 * b + 1, 3 * b)] = tuple(-u for u in unit)
    return verify_nilpotent_lie(qring(dim, entries))


def rand_frac(rng, span=9, den=5):
    return Fraction(rng.randint(-span, span), rng.randint(1, den))


def rand_elem(rng, dim):
    return tuple(rand_frac(rng) for _ in range(dim))


# -- verification -------------------------------------------------------------


def test_verify_h3():
    l = h3()
    assert l.nilpotency_class == 2
    assert [len(rows) for rows in l.lower_central_series] == [3, 1]
    assert l.lower_central_series[1] == ((Fraction(0), Fraction(0), Fraction(1)),)


def test_verify_abelian_class1():
    l = verify_nilpotent_lie(qring(2, {}))
    assert l.nilpotency_class == 1


def test_verify_rejects_non_nilpotent():
    # (x, y) = y
    r = qring(2, {(0, 1): (0, 1), (1, 0): (0, -1)})
    with pytest.raises(NotNilpotent):
        verify_nilpotent_lie(r)


def test_verify_rejects_non_lie():
    r = qring(2, {(0, 0): (0, 1)})  # (x,x) != 0
    with pytest.raises(NotLie) as excinfo:
        verify_nilpotent_lie(r)
    assert excinfo.value.witness == (0, 0)


def test_verify_class3():
    l = free_nilpotent_c3()
    assert l.nilpotency_class == 3
    assert [len(rows) for rows in l.lower_central_series] == [5, 3, 2]


# -- the matrix oracle for h3 ----------------------------------------------------


def h3_matrix_bch(u, v):
    """Exact BCH in h3 via 3x3 unitriangular exp/log."""

    def mat_exp(a, b, c):
        # exp of a E12 + b E23 + c E13
        return (a, b, c + a * b / 2)

    def mat_log(a, b, c):
        return (a, b, c - a * b / 2)

    def mat_mul(m1, m2):
        a1, b1, c1 = m1
        a2, b2, c2 = m2
        # (I + N1)(I + N2): entries of the product's strictly upper parts
        return (a1 + a2, b1 + b2, c1 + c2 + a1 * b2)

    return mat_log(*mat_mul(mat_exp(*u), mat_exp(*v)))


def test_bch_h3_basis_pair():
    l = h3()
    z = bch(l, (1, 0, 0), (0, 1, 0))
    assert z == (1, 1, Fraction(1, 2))


def test_bch_identity_element():
    l = h3()
    x = (Fraction(3, 7), Fraction(-2), Fraction(5, 3))
    assert bch(l, x, (0, 0, 0)) == x
    assert bch(l, (0, 0, 0), x) == x


def test_bch_matches_matrix_oracle_200_random_pairs():
    l = h3()
    rng = random.Random(42)
    for _ in range(200):
        u = rand_elem(rng, 3)
        v = rand_elem(rng, 3)
        assert bch(l, u, v) == h3_matrix_bch(u, v)


def test_bch_class3_coefficient_one_twelfth():
    l = free_nilpotent_c3()
    z = bch(l, (1, 0, 0, 0, 0), (0, 1, 0, 0, 0))
    # x + y + (1/2)(x,y) + (1/12)(x,(x,y)) - (1/12)(y,(x,y))
    assert z == (1, 1, Fraction(1, 2), Fraction(1, 12), Fraction(-1, 12))


# -- the truncated log and the Hall-word table ------------------------------------------


def trunc_mul(a, b, c):
    """Product in the free associative algebra truncated at degree c."""
    out = {}
    for wa, ca in a.items():
        for wb, cb in b.items():
            if len(wa) + len(wb) > c:
                continue
            w = wa + wb
            out[w] = out.get(w, Fraction(0)) + ca * cb
    return {w: v for w, v in out.items() if v}


def trunc_log_by_products(c):
    """Reference: log(e^x e^y) truncated at degree c, by Fraction products
    of whole truncated series."""

    def exp_letter(letter):
        out = {(): Fraction(1)}
        term = {(): Fraction(1)}
        for k in range(1, c + 1):
            term = trunc_mul(term, {(letter,): Fraction(1, k)}, c)
            for w, v in term.items():
                out[w] = out.get(w, Fraction(0)) + v
        return out

    prod = trunc_mul(exp_letter("x"), exp_letter("y"), c)
    u = {w: v for w, v in prod.items() if w}
    out = {}
    term = {(): Fraction(1)}
    for k in range(1, c + 1):
        term = trunc_mul(term, u, c)
        for w, v in term.items():
            out[w] = out.get(w, Fraction(0)) + Fraction((-1) ** (k + 1), k) * v
    return {w: v for w, v in out.items() if v}


@pytest.mark.parametrize("c", range(1, 9))
def test_trunc_log_matches_the_product_expansion(c):
    assert _trunc_log_of_product(c) == trunc_log_by_products(c)


def hall_words_rank2(c):
    """Hall words on letters 'x' < 'y' up to length c, as nested tuples."""

    def length(w):
        return 1 if isinstance(w, str) else length(w[0]) + length(w[1])

    def key(w):
        return (length(w), str(w))

    words = [["x", "y"]]
    for n in range(2, c + 1):
        new = []
        flat = [w for level in words for w in level]
        for u in flat:
            for v in flat:
                if length(u) + length(v) != n:
                    continue
                if key(u) >= key(v):
                    continue
                if not isinstance(v, str):
                    if key(v[0]) > key(u):
                        continue
                new.append((u, v))
        words.append(sorted(new, key=key))
    return [w for level in words for w in level]


def expand_bracket(word, c):
    if isinstance(word, str):
        return {(word,): Fraction(1)}
    left = expand_bracket(word[0], c)
    right = expand_bracket(word[1], c)
    out = dict(trunc_mul(left, right, c))
    for w, v in trunc_mul(right, left, c).items():
        out[w] = out.get(w, Fraction(0)) - v
    return {w: v for w, v in out.items() if v}


@functools.lru_cache(maxsize=None)
def bch_hall_table(c):
    """((hall word, coefficient), ...): log(e^x e^y) on the Hall basis,
    solved from the Hall words' expansions in the truncated free
    associative algebra; classes <= 4."""
    if c > 4:
        raise ClassTooLarge("the Hall table is kept for classes <= 4")
    words = hall_words_rank2(c)
    expansions = [expand_bracket(w, c) for w in words]
    target = trunc_log_by_products(c)
    monomials = sorted({w for e in expansions for w in e} | set(target))
    rows = [tuple(e.get(mon, Fraction(0)) for e in expansions) for mon in monomials]
    rhs = tuple(target.get(mon, Fraction(0)) for mon in monomials)
    res = linalg.solve(linalg.Matrix.from_rows(QQ, rows), rhs)
    if res is None:
        raise InvariantViolation("Hall table: the Hall expansion system is inconsistent")
    return tuple(zip(words, res[0]))


def evaluate_hall_word(l, word, x, y):
    if word == "x":
        return x
    if word == "y":
        return y
    return l.bracket(evaluate_hall_word(l, word[0], x, y), evaluate_hall_word(l, word[1], x, y))


def bch_via_hall_table(l, x, y):
    """BCH through the Hall-word table; classes <= 4, over Q."""
    d = l.domain
    if not isinstance(d, Rationals):
        raise UnsupportedDomain("the Hall table path is rational-only")
    acc = [d.zero()] * l.dim
    for word, coeff in bch_hall_table(l.nilpotency_class):
        if coeff == 0:
            continue
        d.add_scaled(acc, coeff, evaluate_hall_word(l, word, x, y), range(l.dim))
    return tuple(acc)


def test_hall_table_known_coefficients():
    table = dict(bch_hall_table(4))
    assert table["x"] == 1 and table["y"] == 1
    assert table[("x", "y")] == Fraction(1, 2)
    assert table[("x", ("x", "y"))] == Fraction(1, 12)
    assert table[("y", ("x", "y"))] == Fraction(-1, 12)
    assert table[("y", ("x", ("x", "y")))] == Fraction(-1, 24)
    assert table[("x", ("x", ("x", "y")))] == 0
    assert table[("y", ("y", ("x", "y")))] == 0


def test_hall_table_failed_solve_is_invariant_violation(monkeypatch):
    bch_hall_table.cache_clear()
    monkeypatch.setattr(linalg, "solve", lambda m, b: None)
    try:
        with pytest.raises(InvariantViolation, match="Hall expansion system"):
            bch_hall_table(3)
    finally:
        bch_hall_table.cache_clear()


def test_hall_table_path_agrees_with_dynkin():
    rng = random.Random(9)
    for l in (h3(), free_nilpotent_c3()):
        for _ in range(25):
            u = rand_elem(rng, l.dim)
            v = rand_elem(rng, l.dim)
            assert bch(l, u, v) == bch_via_hall_table(l, u, v)


def dynkin_word_by_word(l, x, y):
    """Reference: each Dynkin word evaluated on its own by nested brackets."""
    d = l.domain
    acc = [d.zero()] * l.dim
    for coeff, word in _dynkin_terms(l.nilpotency_class):
        value = (x, y)[word[-1]]
        for letter in reversed(word[:-1]):
            value = l.bracket((x, y)[letter], value)
        scalar = d.div(d.from_int(coeff.numerator), d.from_int(coeff.denominator))
        acc = [d.add(a, d.mul(scalar, v)) for a, v in zip(acc, value)]
    return tuple(acc)


def trie_words(children, suffix=()):
    for letter, (scalar, grandchildren) in children:
        word = (letter,) + suffix
        if scalar is not None:
            yield word, scalar
        yield from trie_words(grandchildren, word)


@pytest.mark.parametrize("c", range(1, 9))
def test_dynkin_trie_holds_each_word_once(c):
    words = sorted(trie_words(_dynkin_trie(c, QQ)))
    assert words == sorted((word, coeff) for coeff, word in _dynkin_terms(c))


def dynkin_terms_by_compositions(c):
    """Reference: Dynkin's formula summed over every composition
    (r_1, s_1) ... (r_k, s_k), independent of the log expansion."""
    totals = {}

    def pairs(limit):
        for r in range(limit + 1):
            for s in range(limit + 1 - r):
                if r + s >= 1:
                    yield r, s

    def extend(seq, used, n):
        if seq:
            coeff_den = 1
            for r, s in seq:
                coeff_den *= factorial(r) * factorial(s)
            coeff = Fraction((-1) ** (n - 1), n) / (used * coeff_den)
            word = []
            for r, s in seq:
                word.extend([0] * r)
                word.extend([1] * s)
            word = tuple(word)
            totals[word] = totals.get(word, Fraction(0)) + coeff
        if used >= c:
            return
        for r, s in pairs(c - used):
            extend(seq + [(r, s)], used + r + s, n + 1)

    extend([], 0, 0)
    merged = []
    for word, coeff in totals.items():
        if coeff == 0:
            continue
        if len(word) >= 2 and word[-1] == word[-2]:
            continue
        merged.append((coeff, word))
    return tuple(merged)


@pytest.mark.parametrize("c", range(1, 9))
def test_dynkin_terms_match_composition_enumeration(c):
    terms = _dynkin_terms(c)
    reference = dynkin_terms_by_compositions(c)
    assert len(terms) == len(reference)
    assert {w: k for k, w in terms} == {w: k for k, w in reference}


@pytest.mark.parametrize("dim", range(5, 9))
def test_bch_matches_word_by_word_on_filiform(dim):
    l = filiform(dim)
    assert l.nilpotency_class == dim - 1
    rng = random.Random(dim)
    basis = [tuple(int(t == i) for t in range(dim)) for i in range(dim)]
    pairs = [(rand_elem(rng, dim), rand_elem(rng, dim)) for _ in range(3)]
    pairs += [(basis[0], basis[1]), (basis[1], basis[0]), (basis[0], rand_elem(rng, dim))]
    for u, v in pairs:
        assert bch(l, u, v, 8) == dynkin_word_by_word(l, u, v)


def test_bch_matches_word_by_word_on_h3_squared_plus_q():
    l = heisenberg_sum(2)
    rng = random.Random(12)
    for _ in range(20):
        u, v = rand_elem(rng, l.dim), rand_elem(rng, l.dim)
        assert bch(l, u, v) == dynkin_word_by_word(l, u, v)


def test_bch_over_an_extension_carrier():
    qsqrt2 = Extension(QQ, [Fraction(-2), Fraction(0), Fraction(1)])
    l = filiform(5, qsqrt2)
    rng = random.Random(4)

    def rand_ext():
        # a + b*sqrt(2) as the coefficient pair (a, b)
        return tuple((rand_frac(rng), rand_frac(rng)) for _ in range(l.dim))

    for _ in range(5):
        u, v = rand_ext(), rand_ext()
        assert bch(l, u, v) == dynkin_word_by_word(l, u, v)


# -- group axioms ------------------------------------------------------------------


def test_group_axioms_random_triples():
    rng = random.Random(7)
    for l in (h3(), free_nilpotent_c3()):
        e = group_identity(l)
        for _ in range(100):
            g = GroupElement(l, rand_elem(rng, l.dim))
            h = GroupElement(l, rand_elem(rng, l.dim))
            k = GroupElement(l, rand_elem(rng, l.dim))
            assert group_mul(group_mul(g, h), k).log == group_mul(g, group_mul(h, k)).log
            assert group_mul(g, e).log == g.log
            assert group_mul(g, group_inv(g)).log == e.log


def test_power_laws_random_rationals():
    rng = random.Random(8)
    for l in (h3(), free_nilpotent_c3()):
        for _ in range(50):
            g = GroupElement(l, rand_elem(rng, l.dim))
            a = rand_frac(rng)
            b = rand_frac(rng)
            ga = group_pow(g, a)
            gb = group_pow(g, b)
            assert group_mul(ga, gb).log == group_pow(g, a + b).log
            assert group_pow(ga, b).log == group_pow(g, a * b).log
            assert group_pow(g, 1).log == g.log


def test_square_root_squares_back():
    rng = random.Random(10)
    l = h3()
    for _ in range(50):
        g = GroupElement(l, rand_elem(rng, 3))
        half = group_pow(g, Fraction(1, 2))
        assert group_mul(half, half).log == g.log


def test_half_power_example():
    l = h3()
    g = GroupElement(l, (1, 0, 0))
    assert group_pow(g, Fraction(1, 2)).log == (Fraction(1, 2), 0, 0)


def test_algebra_mismatch():
    g = GroupElement(h3(), (1, 0, 0))
    h = GroupElement(free_nilpotent_c3(), (1, 0, 0, 0, 0))
    with pytest.raises(AlgebraMismatch):
        group_mul(g, h)


# -- commutators --------------------------------------------------------------------


def test_commutator_h3_is_exp_bracket():
    l = h3()
    g = GroupElement(l, (1, 0, 0))
    h = GroupElement(l, (0, 1, 0))
    rep = group_commutator(g, h)
    assert rep.commutator.log == (0, 0, 1)
    assert rep.bracket == (0, 0, 1)
    assert rep.class2_exact
    assert rep.identity_iff_bracket_zero


def test_commutator_commuting_pair():
    l = h3()
    g = GroupElement(l, (1, 0, 0))
    rep = group_commutator(g, group_pow(g, Fraction(3, 2)))
    assert rep.commutator.is_identity()
    assert l.ring.carrier.is_zero(rep.bracket)


def test_commutator_class3_deviation_in_l3():
    l = free_nilpotent_c3()
    rng = random.Random(11)
    for _ in range(25):
        g = GroupElement(l, rand_elem(rng, 5))
        h = GroupElement(l, rand_elem(rng, 5))
        rep = group_commutator(g, h)
        assert rep.identity_iff_bracket_zero
        assert rep.deviation_in_l3


def test_iterated_commutator_chain():
    l = free_nilpotent_c3()
    g = GroupElement(l, (1, 0, 0, 0, 0))
    h = GroupElement(l, (0, 1, 0, 0, 0))
    rep = iterated_commutator([g, h, g])
    # [(x,y), x] = -(x,(x,y))
    assert rep.bracket == (0, 0, 0, -1, 0)
    assert rep.identity_iff_bracket_zero


@pytest.mark.parametrize("count", [0, 1])
def test_iterated_commutator_needs_two_elements(count):
    g = GroupElement(free_nilpotent_c3(), (1, 0, 0, 0, 0))
    with pytest.raises(ValidationError, match="at least two elements"):
        iterated_commutator([g] * count)


# -- naturality ---------------------------------------------------------------------


def test_bch_commutes_with_projection_to_abelianization():
    l = h3()
    ab = verify_nilpotent_lie(qring(2, {}))
    rng = random.Random(12)
    for _ in range(50):
        u = rand_elem(rng, 3)
        v = rand_elem(rng, 3)
        z = bch(l, u, v)
        assert (z[0], z[1]) == bch(ab, u[:2], v[:2])


# -- correspondence -----------------------------------------------------------------


def test_center_h3():
    rep = central_series_and_center(h3())
    assert rep.center_rows == ((0, 0, 1),)
    assert rep.centre_certified
    assert rep.series_group_closed
    assert rep.series_commutator_drop


def test_center_abelian_is_everything():
    l = verify_nilpotent_lie(qring(2, {}))
    rep = central_series_and_center(l)
    assert len(rep.center_rows) == 2
    assert rep.centre_certified


def test_center_free_c3_is_l3():
    l = free_nilpotent_c3()
    rep = central_series_and_center(l)
    assert len(rep.center_rows) == 2
    assert set(rep.center_rows) == set(l.lower_central_series[2])
    assert rep.series_group_closed and rep.series_commutator_drop


# -- group decomposition ---------------------------------------------------------------


def test_group_decompose_h3_plus_abelian():
    entries = {(0, 1): (0, 0, 1, 0), (1, 0): (0, 0, -1, 0)}
    l = verify_nilpotent_lie(qring(4, entries))
    deco = group_decompose(l)
    assert len(deco.factors) == 1
    assert not deco.factors[0].abelian
    assert len(deco.abelian_factor_rows) == 1
    assert deco.cross_commutators_trivial


def test_group_decompose_two_heisenbergs():
    entries = {
        (0, 1): (0, 0, 1, 0, 0, 0),
        (1, 0): (0, 0, -1, 0, 0, 0),
        (3, 4): (0, 0, 0, 0, 0, 1),
        (4, 3): (0, 0, 0, 0, 0, -1),
    }
    l = verify_nilpotent_lie(qring(6, entries))
    deco = group_decompose(l)
    assert len(deco.factors) == 2
    assert deco.cross_commutators_trivial


def test_group_decompose_abelian_only():
    l = verify_nilpotent_lie(qring(2, {}))
    deco = group_decompose(l)
    assert deco.factors == ()
    assert len(deco.abelian_factor_rows) == 2
