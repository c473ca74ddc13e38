"""Nilpotent Lie algebras over characteristic-zero fields and their
Mal'cev groups in log coordinates: the Dynkin form of the
Baker-Campbell-Hausdorff product, group arithmetic with rational
exponents, the central-series and center correspondence, and the
group-level decomposition pipeline.

BCH is evaluated directly in the target algebra in Dynkin's form, each
bracket word's coefficient read off log(e^x e^y) in the truncated free
associative algebra.  The words sit in a suffix trie, so each distinct
suffix costs one application of ad_x or ad_y (sparse rows read off the
structure tensor) and a zero suffix prunes every word through it.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, lru_cache, reduce
from math import comb, factorial, lcm

from . import rings
from .bilinear import RingPresentation, Subspace
from .errors import (
    AlgebraMismatch,
    ClassTooLarge,
    NotLie,
    NotNilpotent,
    UnsupportedDomain,
    ValidationError,
)
from .linalg import unit_vectors
from .records import record

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


def _trunc_log_of_product(c: int) -> dict:
    """log(e^x e^y) in the free associative algebra truncated at degree c,
    as {word: coefficient}.

    u = e^x e^y - 1 is kept by word length n with each coefficient times n!,
    so x^a y^b (a + b = n) has the int C(n, a), and a product of parts of
    lengths i and j is an int times C(i + j, i).  The powers u^k stay in
    ints, the k-th summed with weight lcm(1..c)/k, and each word's
    coefficient becomes one Fraction at the end."""
    u = [{}] + [
        {("x",) * a + ("y",) * (n - a): comb(n, a) for a in range(n + 1)}
        for n in range(1, c + 1)
    ]
    scale = lcm(*range(1, c + 1))
    totals = [{} for _ in range(c + 1)]
    power = u
    for k in range(1, c + 1):
        weight = scale // k if k % 2 else -(scale // k)
        for n in range(k, c + 1):
            total = totals[n]
            for w, v in power[n].items():
                total[w] = total.get(w, 0) + weight * v
        if k == c:
            break
        # u^(k+1) by length: a part of u^k (length i >= k) times a part of u
        following = [{} for _ in range(c + 1)]
        for n in range(k + 1, c + 1):
            out = following[n]
            for i in range(k, n):
                binomial = comb(n, i)
                for wa, va in power[i].items():
                    for wb, vb in u[n - i].items():
                        out[wa + wb] = out.get(wa + wb, 0) + binomial * va * vb
        power = following
    return {
        w: Fraction(v, scale * factorial(n))
        for n in range(1, c + 1)
        for w, v in totals[n].items()
        if v
    }


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
    ann = rings.annihilator(l.ring)
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
    ring_decomposition: rings.RingDecomposition
    cross_commutators_trivial: bool


def group_decompose(
    l: NilpotentLieAlgebra, seed: int = 0, max_class: int | None = None
) -> GroupDecomposition:
    """Decompose the underlying Lie ring, pull the factors through exp,
    and certify that cross-factor commutators are trivial."""
    deco = rings.decompose_char0(l.ring, seed)
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
