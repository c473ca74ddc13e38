"""Nilpotent Lie algebras over characteristic-zero fields and their
Mal'cev groups in log coordinates: the Dynkin form of the
Baker-Campbell-Hausdorff product, group arithmetic with rational
exponents, the central-series and center correspondence, and the
group-level decomposition pipeline.

BCH is evaluated directly in the target algebra in Dynkin's form, each
bracket word's coefficient read off log(e^x e^y) in the truncated free
associative algebra.  The words sit in a suffix trie, so each distinct
suffix costs one application of ad_x or ad_y (sparse rows read off the
structure tensor) and a zero suffix prunes every word through it.  A
table of coefficients on Hall words (classes <= 4) is solved once from
the same expansion and kept as a cross-check.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, lru_cache, reduce

from .bilinear import Subspace
from .domains import QQ, Rationals
from .errors import (
    AlgebraMismatch,
    ClassTooLarge,
    InvariantViolation,
    NotLie,
    NotNilpotent,
    UnsupportedDomain,
    ValidationError,
)
from .linalg import Matrix, unit_vectors
from .records import record
from .rings import RingDecomposition, RingPresentation, annihilator, decompose_char0

BCH_CLASS_CAP = 6


@record
class NilpotentLieAlgebra:
    ring: RingPresentation
    nilpotency_class: int
    lower_central_series: tuple  # bases of L^1 > L^2 > ... > L^c (nonzero terms)

    @property
    def dim(self) -> int:
        return self.ring.dim

    @property
    def domain(self):
        return self.ring.carrier.domain

    @cached_property
    def series_spaces(self):
        """One Subspace per term of lower_central_series, then the zero one."""
        terms = self.lower_central_series + ((),)
        return tuple(Subspace.span(self.domain, rows, self.dim) for rows in terms)

    def bracket(self, x, y):
        return self.ring.mult(x, y)

    def zero(self):
        return self.ring.carrier.zero()


def verify_nilpotent_lie(r: RingPresentation) -> NilpotentLieAlgebra:
    """Certify antisymmetry, Jacobi and nilpotency; compute the series."""
    if r.carrier.kind != "field" or r.carrier.domain.char != 0:
        raise UnsupportedDomain(
            "Mal'cev correspondence needs a characteristic-zero field carrier"
        )
    if not r.lie:
        witness = r.lie_witness()
        raise NotLie(f"antisymmetry/Jacobi fails at basis triple {witness}", witness)
    if r.dim == 0:
        return NilpotentLieAlgebra(r, 0, ())
    d = r.carrier.domain
    basis = unit_vectors(d, r.dim)
    series = [tuple(basis)]
    current = basis
    while True:
        produced = []
        for x in basis:
            for g in current:
                produced.append(r.mult(x, g))
        nxt = Subspace.span(d, produced, r.dim).rows
        if not nxt:
            break
        if nxt == tuple(current):
            raise NotNilpotent(
                f"lower central series stabilizes at dimension {len(nxt)}"
            )
        series.append(nxt)
        current = nxt
    return NilpotentLieAlgebra(r, len(series), tuple(series))


# -- Dynkin's formula ----------------------------------------------------------


def _trunc_mul(a: dict, b: dict, c: int) -> dict:
    """Product in the free associative algebra truncated at degree c."""
    out = {}
    for wa, ca in a.items():
        for wb, cb in b.items():
            if len(wa) + len(wb) > c:
                continue
            w = wa + wb
            out[w] = out.get(w, Fraction(0)) + ca * cb
    return {w: v for w, v in out.items() if v}


def _trunc_log_of_product(c: int) -> dict:
    """log(e^x e^y) in the free associative algebra truncated at degree c;
    both BCH paths (the Dynkin terms and the Hall table) read it."""
    def exp_letter(letter):
        out = {(): Fraction(1)}
        term = {(): Fraction(1)}
        for k in range(1, c + 1):
            term = _trunc_mul(term, {(letter,): Fraction(1, k)}, c)
            for w, v in term.items():
                out[w] = out.get(w, Fraction(0)) + v
        return out

    prod = _trunc_mul(exp_letter("x"), exp_letter("y"), c)
    u = {w: v for w, v in prod.items() if w}
    out = {}
    term = {(): Fraction(1)}
    for k in range(1, c + 1):
        term = _trunc_mul(term, u, c)
        for w, v in term.items():
            out[w] = out.get(w, Fraction(0)) + Fraction((-1) ** (k + 1), k) * v
    return {w: v for w, v in out.items() if v}


@lru_cache(maxsize=None)
def _dynkin_terms(c: int):
    """[(coefficient, word)] for all words of length <= c; word letters are
    0 (the first argument) and 1 (the second).

    A word's Dynkin coefficient is its coefficient in log(e^x e^y) over
    its length (Dynkin-Specht-Wever).  Words whose last two letters agree
    are dropped (their innermost bracket vanishes identically).
    """
    return tuple(
        (coeff / len(w), tuple(0 if letter == "x" else 1 for letter in w))
        for w, coeff in _trunc_log_of_product(c).items()
        if len(w) < 2 or w[-1] != w[-2]
    )


@lru_cache(maxsize=None)
def _dynkin_trie(c: int, d):
    """``_dynkin_terms(c)`` as a trie read from the innermost letter, so
    words sharing a suffix share its evaluation: ((letter, (scalar,
    children)), ...), scalar being the coefficient in d of the word spelt
    from the root down to that node, or None when no word ends there."""
    root = {}
    for coeff, word in _dynkin_terms(c):
        children = root
        for letter in reversed(word):
            node = children.setdefault(letter, [None, {}])
            children = node[1]
        node[0] = d.div(d.from_int(coeff.numerator), d.from_int(coeff.denominator))

    def freeze(children):
        return tuple(
            (letter, (s, freeze(grand))) for letter, (s, grand) in children.items()
        )

    return freeze(root)


def _ad_rows(f, d, x):
    """ad_x read off the nonzero structure coordinates f.support as sparse
    rows: row t lists the pairs (j, [x, e_j]_t) whose entry is nonzero."""
    n = len(x)
    cols = [[d.zero()] * n for _ in range(n)]
    for i, xi in enumerate(x):
        if not d.is_zero(xi):
            for col, entry, ts in zip(cols, f.tensor[i], f.support[i]):
                d.add_scaled(col, xi, entry, ts)
    return [
        [(j, col[t]) for j, col in enumerate(cols) if not d.is_zero(col[t])]
        for t in range(n)
    ]


def bch(l: NilpotentLieAlgebra, x, y, max_class: int | None = None):
    """log(exp x . exp y) by the Dynkin summation, exact.

    Bracket words longer than the nilpotency class vanish, so the series
    is finite; the class cap bounds its words (104 at class 7, 552 at 10).
    """
    cap = BCH_CLASS_CAP if max_class is None else max_class
    c = l.nilpotency_class
    if c > cap:
        raise ClassTooLarge(f"class {c} exceeds the BCH cap {cap}")
    d = l.domain
    args = (l.ring.carrier.reduce(x), l.ring.carrier.reduce(y))
    ads = [_ad_rows(l.ring.as_bilinear(), d, a) for a in args]
    zero = d.zero()
    acc = [zero] * l.dim
    stack = [(node, args[letter]) for letter, node in _dynkin_trie(c, d)]
    while stack:
        (scalar, children), value = stack.pop()
        live = {j: v for j, v in enumerate(value) if not d.is_zero(v)}
        if not live:
            continue  # every word through a zero suffix vanishes
        if scalar is not None:
            d.add_scaled(acc, scalar, value, live)
        for letter, child in children:
            image = [
                reduce(d.add, (d.mul(e, live[j]) for j, e in row if j in live), zero)
                for row in ads[letter]
            ]
            stack.append((child, image))
    return tuple(acc)


# -- the group in log coordinates -------------------------------------------------


@record
class GroupElement:
    algebra: NilpotentLieAlgebra
    log: tuple

    def __post_init__(self):
        object.__setattr__(self, "log", self.algebra.ring.carrier.reduce(self.log))

    def is_identity(self) -> bool:
        return self.algebra.ring.carrier.is_zero(self.log)


def group_identity(l: NilpotentLieAlgebra) -> GroupElement:
    return GroupElement(l, l.zero())


def _same_algebra(g: GroupElement, h: GroupElement):
    if g.algebra is not h.algebra and g.algebra != h.algebra:
        raise AlgebraMismatch("group elements from different algebras")


def group_mul(g: GroupElement, h: GroupElement, max_class: int | None = None) -> GroupElement:
    _same_algebra(g, h)
    return GroupElement(g.algebra, bch(g.algebra, g.log, h.log, max_class))


def group_inv(g: GroupElement) -> GroupElement:
    return GroupElement(g.algebra, g.algebra.ring.carrier.neg(g.log))


def group_pow(g: GroupElement, a) -> GroupElement:
    d = g.algebra.domain
    scalar = d.mul(d.from_int(a.numerator), d.inv(d.from_int(a.denominator)))
    return GroupElement(
        g.algebra, tuple(d.mul(scalar, c) for c in g.log)
    )


@record
class CommutatorReport:
    commutator: GroupElement
    bracket: tuple            # the leading Lie bracket (log g, log h)
    identity_iff_bracket_zero: bool
    class2_exact: bool | None  # commutator == exp(bracket), when class <= 2
    deviation_in_l3: bool | None  # commutator . exp(bracket)^-1 in exp(L^3)


def group_commutator(
    g: GroupElement, h: GroupElement, max_class: int | None = None
) -> CommutatorReport:
    """g^-1 h^-1 g h with the leading-term certificates."""
    _same_algebra(g, h)
    l = g.algebra
    comm = group_mul(
        group_mul(group_inv(g), group_inv(h), max_class),
        group_mul(g, h, max_class),
        max_class,
    )
    bracket = l.bracket(g.log, h.log)
    bracket_zero = l.ring.carrier.is_zero(bracket)
    equivalence = comm.is_identity() == bracket_zero
    class2 = None
    deviation = None
    if l.nilpotency_class <= 2:
        class2 = comm.log == tuple(bracket)
    else:
        diff = bch(l, comm.log, l.ring.carrier.neg(bracket), max_class)
        deviation = l.series_spaces[2].contains(diff)
    return CommutatorReport(comm, tuple(bracket), equivalence, class2, deviation)


def iterated_commutator(gs) -> CommutatorReport:
    """Left-normed [g_1, ..., g_n] with the bracket-chain certificate."""
    if len(gs) < 2:
        raise ValidationError("an iterated commutator needs at least two elements")
    l = gs[0].algebra
    report = group_commutator(gs[0], gs[1])
    comm = report.commutator
    chain = report.bracket
    for g in gs[2:]:
        _same_algebra(comm, g)
        report = group_commutator(comm, g)
        comm = report.commutator
        chain = l.bracket(chain, g.log)
    equivalence = comm.is_identity() == l.ring.carrier.is_zero(chain)
    return CommutatorReport(comm, tuple(chain), equivalence, None, None)


# -- correspondence reports ---------------------------------------------------------


@record
class CorrespondenceReport:
    center_rows: tuple              # Ann(L): log coordinates of Z(G)
    centre_certified: bool          # commutes with all basis exps iff in Ann
    series_group_closed: bool       # bch of L^i elements stays in L^i
    series_commutator_drop: bool    # [exp L^i, exp L] lands in exp(L^{i+1})


def central_series_and_center(
    l: NilpotentLieAlgebra, max_class: int | None = None
) -> CorrespondenceReport:
    d = l.domain
    ann = annihilator(l.ring)
    centre = Subspace.span(d, ann, l.dim)
    basis = unit_vectors(d, l.dim)
    centre_ok = True
    for a in ann:
        ga = GroupElement(l, a)
        for b in basis:
            gb = GroupElement(l, b)
            if not group_commutator(ga, gb, max_class).commutator.is_identity():
                centre_ok = False
    # a non-central log must fail to commute with some basis exp
    for b in basis:
        if centre.contains(b):
            continue
        gb = GroupElement(l, b)
        if all(
            group_commutator(gb, GroupElement(l, c), max_class).commutator.is_identity()
            for c in basis
        ):
            centre_ok = False
    closed_ok = True
    drop_ok = True
    for depth, rows in enumerate(l.lower_central_series):
        for u in rows:
            for v in rows:
                if not l.series_spaces[depth].contains(bch(l, u, v, max_class)):
                    closed_ok = False
        for u in rows:
            gu = GroupElement(l, u)
            for b in basis:
                log_comm = group_commutator(
                    gu, GroupElement(l, b), max_class
                ).commutator.log
                # past the last term, series_spaces holds the zero subspace
                if not l.series_spaces[depth + 1].contains(log_comm):
                    drop_ok = False
    return CorrespondenceReport(
        center_rows=tuple(ann),
        centre_certified=centre_ok,
        series_group_closed=closed_ok,
        series_commutator_drop=drop_ok,
    )


# -- group-level decomposition --------------------------------------------------------


@record
class GroupFactor:
    algebra: NilpotentLieAlgebra
    rows: tuple
    residue_degree: int
    abelian: bool


@record
class GroupDecomposition:
    factors: tuple
    abelian_factor_rows: tuple
    ring_decomposition: RingDecomposition
    cross_commutators_trivial: bool


def group_decompose(
    l: NilpotentLieAlgebra, seed: int = 0, max_class: int | None = None
) -> GroupDecomposition:
    """Decompose the underlying Lie ring, pull the factors through exp,
    and certify that cross-factor commutators are trivial."""
    deco = decompose_char0(l.ring, seed)
    factors = []
    for comp in deco.components:
        sub = verify_nilpotent_lie(comp.ring)
        factors.append(
            GroupFactor(
                algebra=sub,
                rows=comp.rows,
                residue_degree=comp.residue_degree,
                abelian=sub.nilpotency_class <= 1,
            )
        )
    blocks = [list(f.rows) for f in factors]
    blocks.append(list(deco.addition_rows))
    cross_ok = True
    for i, a in enumerate(blocks):
        for j, b in enumerate(blocks):
            if i == j:
                continue
            for u in a:
                for v in b:
                    gu = GroupElement(l, u)
                    gv = GroupElement(l, v)
                    if not group_commutator(gu, gv, max_class).commutator.is_identity():
                        cross_ok = False
    return GroupDecomposition(
        factors=tuple(factors),
        abelian_factor_rows=tuple(deco.addition_rows),
        ring_decomposition=deco,
        cross_commutators_trivial=cross_ok,
    )


# -- Hall-word table (cross-check for classes <= 4) -----------------------------------


def _hall_words_rank2(c: int):
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


def _expand_bracket(word, c: int) -> dict:
    if isinstance(word, str):
        return {(word,): Fraction(1)}
    left = _expand_bracket(word[0], c)
    right = _expand_bracket(word[1], c)
    lr = _trunc_mul(left, right, c)
    rl = _trunc_mul(right, left, c)
    out = dict(lr)
    for w, v in rl.items():
        out[w] = out.get(w, Fraction(0)) - v
    return {w: v for w, v in out.items() if v}


@lru_cache(maxsize=None)
def bch_hall_table(c: int):
    """((hall word, coefficient), ...): log(e^x e^y) on the Hall basis.

    Derived by expanding Hall words into the truncated free associative
    algebra and solving against the log the Dynkin terms also read.
    """
    if c > 4:
        raise ClassTooLarge("the Hall table is kept for classes <= 4")
    words = _hall_words_rank2(c)
    expansions = [_expand_bracket(w, c) for w in words]
    target = _trunc_log_of_product(c)
    monomials = sorted({w for e in expansions for w in e} | set(target))
    rows = [
        tuple(e.get(mon, Fraction(0)) for e in expansions) for mon in monomials
    ]
    rhs = tuple(target.get(mon, Fraction(0)) for mon in monomials)
    from .linalg import solve

    res = solve(Matrix.from_rows(QQ, rows), rhs)
    if res is None:
        raise InvariantViolation("Hall table: the Hall expansion system is inconsistent")
    return tuple(zip(words, res[0]))


def _evaluate_hall_word(l: NilpotentLieAlgebra, word, x, y):
    if word == "x":
        return x
    if word == "y":
        return y
    return l.bracket(
        _evaluate_hall_word(l, word[0], x, y), _evaluate_hall_word(l, word[1], x, y)
    )


def bch_via_hall_table(l: NilpotentLieAlgebra, x, y):
    """BCH through the cached Hall-word table; classes <= 4 only."""
    d = l.domain
    if not isinstance(d, Rationals):
        raise UnsupportedDomain("the Hall table path is rational-only")
    acc = [d.zero()] * l.dim
    for word, coeff in bch_hall_table(l.nilpotency_class):
        if coeff == 0:
            continue
        d.add_scaled(acc, coeff, _evaluate_hall_word(l, word, x, y), range(l.dim))
    return tuple(acc)
