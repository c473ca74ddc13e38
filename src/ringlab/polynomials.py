"""Dense univariate polynomials and desk-scale exact factorization.

Over GF(p): squarefree decomposition, distinct-degree and equal-degree
splitting (the equal-degree stage walks a deterministic candidate stream,
so output order is reproducible).

Over Q (v1 scope): squarefree decomposition, rational root extraction,
quadratic/cubic handling, quartics via the resolvent cubic, and
irreducibility certification by reduction modulo small primes.  Degrees
whose factorization cannot be settled this way raise UnsupportedDegree.
"""

from __future__ import annotations

from math import gcd as int_gcd, isqrt

from .domains import (
    Domain,
    Extension,
    PrimeField,
    QQ,
    Rationals,
    poly_add,
    poly_divmod,
    poly_gcd,
    poly_mod,
    poly_mul,
    poly_trim,
)
from .errors import InvariantViolation, UnsupportedDegree, UnsupportedDomain, ValidationError
from .records import record


@record
class Poly:
    """Dense polynomial, constant term first, no trailing zeros."""

    domain: Domain
    coeffs: tuple

    def __post_init__(self):
        object.__setattr__(self, "coeffs", poly_trim(self.domain, self.coeffs))

    @staticmethod
    def from_ints(domain: Domain, ints) -> "Poly":
        return Poly(domain, tuple(domain.from_int(n) for n in ints))

    @staticmethod
    def x(domain: Domain) -> "Poly":
        return Poly(domain, (domain.zero(), domain.one()))

    @staticmethod
    def constant(domain: Domain, c) -> "Poly":
        return Poly(domain, (c,))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1  # zero polynomial has degree -1

    def is_zero(self) -> bool:
        return not self.coeffs

    def leading(self):
        if self.is_zero():
            raise InvariantViolation("leading coefficient check: the polynomial is zero")
        return self.coeffs[-1]

    def monic(self) -> "Poly":
        if self.is_zero():
            return self
        inv = self.domain.inv(self.leading())
        return Poly(self.domain, tuple(self.domain.mul(inv, c) for c in self.coeffs))

    def add(self, other: "Poly") -> "Poly":
        return Poly(self.domain, poly_add(self.domain, self.coeffs, other.coeffs))

    def sub(self, other: "Poly") -> "Poly":
        d = self.domain
        return Poly(d, poly_add(d, self.coeffs, tuple(d.neg(c) for c in other.coeffs)))

    def mul(self, other: "Poly") -> "Poly":
        return Poly(self.domain, poly_mul(self.domain, self.coeffs, other.coeffs))

    def divmod(self, other: "Poly"):
        q, r = poly_divmod(self.domain, self.coeffs, other.coeffs)
        return Poly(self.domain, q), Poly(self.domain, r)

    def mod(self, other: "Poly") -> "Poly":
        return Poly(self.domain, poly_mod(self.domain, self.coeffs, other.coeffs))

    def exact_div(self, other: "Poly") -> "Poly":
        q, r = self.divmod(other)
        if not r.is_zero():
            raise InvariantViolation("exact division check: the remainder is nonzero")
        return q

    def derivative(self) -> "Poly":
        d = self.domain
        out = [
            d.mul(d.from_int(i), c)
            for i, c in enumerate(self.coeffs)
            if i >= 1
        ]
        return Poly(d, tuple(out))

    def evaluate(self, a):
        d = self.domain
        acc = d.zero()
        for c in reversed(self.coeffs):
            acc = d.add(d.mul(acc, a), c)
        return acc

    def compose(self, other: "Poly") -> "Poly":
        acc = Poly(self.domain, ())
        for c in reversed(self.coeffs):
            acc = acc.mul(other).add(Poly.constant(self.domain, c))
        return acc

    def eq(self, other: "Poly") -> bool:
        return self.degree == other.degree and all(
            self.domain.eq(a, b) for a, b in zip(self.coeffs, other.coeffs)
        )

    def format(self, var: str = "x") -> str:
        if self.is_zero():
            return "0"
        terms = []
        for i, c in enumerate(self.coeffs):
            if self.domain.is_zero(c):
                continue
            if isinstance(self.domain, Extension):
                # a coefficient is itself a polynomial in the generator t
                s = self.domain.format_text(c)
                s = f"({s})" if " + " in s else s
            else:
                s = self.domain.format(c)
            if i == 0:
                terms.append(f"{s}")
            elif i == 1:
                terms.append(f"{s}*{var}" if s != "1" else var)
            else:
                terms.append(f"{s}*{var}^{i}" if s != "1" else f"{var}^{i}")
        return " + ".join(terms)


def gcd(a: Poly, b: Poly) -> Poly:
    return Poly(a.domain, poly_gcd(a.domain, a.coeffs, b.coeffs))


def pow_mod(base: Poly, exponent: int, modulus: Poly) -> Poly:
    result = Poly.constant(base.domain, base.domain.one())
    base = base.mod(modulus)
    while exponent > 0:
        if exponent & 1:
            result = result.mul(base).mod(modulus)
        base = base.mul(base).mod(modulus)
        exponent >>= 1
    return result


# -- squarefree decompositions ----------------------------------------------


def _squarefree_q(f: Poly):
    """Yun's algorithm; [(g, multiplicity)] with f monic = prod g^m."""
    out = []
    a = gcd(f, f.derivative())
    b = f.exact_div(a)
    c = f.derivative().exact_div(a)
    d = c.sub(b.derivative())
    i = 1
    while b.degree > 0:
        ai = gcd(b, d)
        b = b.exact_div(ai)
        c = d.exact_div(ai)
        d = c.sub(b.derivative())
        if ai.degree > 0:
            out.append((ai.monic(), i))
        i += 1
    return out


def _pth_root_gfp(f: Poly) -> Poly:
    # over GF(p), f with f' = 0 means f(x) = g(x^p) = g(x)^p, same coeffs
    p = f.domain.p
    return Poly(f.domain, tuple(f.coeffs[i] for i in range(0, len(f.coeffs), p)))


def _squarefree_gfp(f: Poly):
    p = f.domain.p
    out = {}

    def accumulate(g: Poly, mult: int):
        if mult in out:
            out[mult] = out[mult].mul(g)
        else:
            out[mult] = g

    c = gcd(f, f.derivative())
    w = f.exact_div(c)
    i = 1
    while w.degree > 0:
        y = gcd(w, c)
        fac = w.exact_div(y)
        if fac.degree > 0:
            accumulate(fac.monic(), i)
        w = y
        c = c.exact_div(y)
        i += 1
    if c.degree > 0:
        for g, m in _squarefree_gfp(_pth_root_gfp(c)):
            accumulate(g, m * p)
    return [(g, m) for m, g in sorted(out.items())]


# -- factorization over GF(p) ------------------------------------------------


def _distinct_degree_gfp(f: Poly):
    """f squarefree monic -> [(product of degree-d irreducibles, d)]."""
    p = f.domain.p
    out = []
    x = Poly.x(f.domain)
    h = x
    rest = f
    d = 0
    while rest.degree > 2 * (d + 1) - 1 and rest.degree > 0:
        d += 1
        h = pow_mod(h, p, rest)
        g = gcd(rest, h.sub(x))
        if g.degree > 0:
            out.append((g.monic(), d))
            rest = rest.exact_div(g)
            h = h.mod(rest)
    if rest.degree > 0:
        out.append((rest.monic(), rest.degree))
    return out


def _candidate_polys(domain: PrimeField, max_degree: int):
    """Deterministic stream of nonconstant polynomials of degree < max_degree."""
    p = domain.p
    count = p ** max_degree
    for n in range(p, count):
        digits = []
        k = n
        while k:
            digits.append(domain.from_int(k % p))
            k //= p
        yield Poly(domain, tuple(digits))


def _equal_degree_split_gfp(f: Poly, d: int):
    """Split monic squarefree f, all of whose factors have degree d."""
    if f.degree == d:
        return [f]
    p = f.domain.p
    one = Poly.constant(f.domain, f.domain.one())
    for h in _candidate_polys(f.domain, f.degree):
        if p == 2:
            # trace map over GF(2^d)
            t = h.mod(f)
            acc = t
            for _ in range(d - 1):
                t = t.mul(t).mod(f)
                acc = acc.add(t).mod(f)
            g = gcd(f, acc)
        else:
            e = pow_mod(h, (p**d - 1) // 2, f)
            g = gcd(f, e.sub(one))
        if 0 < g.degree < f.degree:
            g = g.monic()
            return _equal_degree_split_gfp(g, d) + _equal_degree_split_gfp(
                f.exact_div(g).monic(), d
            )
    raise InvariantViolation("equal-degree split check: the candidate stream ran out without a split")


def _factor_gfp(f: Poly):
    out = []
    for squarefree, mult in _squarefree_gfp(f.monic()):
        for block, d in _distinct_degree_gfp(squarefree):
            for irreducible in _equal_degree_split_gfp(block, d):
                out.append((irreducible, mult))
    return out


# -- factorization over Q -----------------------------------------------------


def _to_integer_coeffs(f: Poly):
    denominator = 1
    for c in f.coeffs:
        denominator = denominator * c.denominator // int_gcd(denominator, c.denominator)
    return [int(c * denominator) for c in f.coeffs]


def _divisors(n: int):
    n = abs(n)
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def _rational_roots(f: Poly):
    """All rational roots of f (with multiplicity 1; f assumed squarefree)."""
    roots = []
    ints = _to_integer_coeffs(f)
    while ints and ints[0] == 0:
        roots.append(QQ.zero())
        ints = ints[1:]
    if len(ints) <= 1:
        return roots
    a0, an = ints[0], ints[-1]
    seen = set()
    for u in _divisors(a0):
        for v in _divisors(an):
            for sign in (1, -1):
                cand = QQ.div(sign * u, v)
                if cand in seen:
                    continue
                seen.add(cand)
                if f.evaluate(cand) == 0:
                    roots.append(cand)
    return roots


def _rational_sqrt(q):
    """The square root of q in Q, or None if q is not a rational square."""
    if q < 0:
        return None
    nr, dr = isqrt(q.numerator), isqrt(q.denominator)
    if nr * nr == q.numerator and dr * dr == q.denominator:
        return QQ.div(nr, dr)
    return None


def _factor_quadratic_q(f: Poly):
    # monic x^2 + bx + c, no precondition on roots
    b, c = f.coeffs[1], f.coeffs[0]
    root = _rational_sqrt(QQ.sub(QQ.mul(b, b), QQ.mul(4, c)))
    if root is None:
        return [f]
    r1 = QQ.div(QQ.sub(root, b), 2)
    r2 = QQ.div(QQ.neg(QQ.add(b, root)), 2)
    return [Poly(QQ, (QQ.neg(r1), 1)), Poly(QQ, (QQ.neg(r2), 1))]


def _factor_quartic_q(f: Poly):
    """Monic quartic with no rational roots: split into quadratics or certify
    irreducible, via the resolvent cubic of the depressed form."""
    s = QQ.div(f.coeffs[3], 4)
    g = f.compose(Poly(QQ, (QQ.neg(s), 1)))  # depressed: y^4 + P y^2 + Q y + R
    P, Q, R = g.coeffs[2], g.coeffs[1], g.coeffs[0]
    back = Poly(QQ, (s, 1))

    def undepress(quads):
        return [q.compose(back).monic() for q in quads]

    p2_4r = QQ.sub(QQ.mul(P, P), QQ.mul(4, R))
    if Q == 0:
        # biquadratic: (y^2 + u)(y^2 + v), u + v = P, uv = R
        disc = _rational_sqrt(p2_4r)
        if disc is not None:
            u = QQ.div(QQ.add(P, disc), 2)
            v = QQ.div(QQ.sub(P, disc), 2)
            return undepress([Poly(QQ, (u, 0, 1)), Poly(QQ, (v, 0, 1))])
        # fall through: a biquadratic may still split with a != 0
    resolvent = Poly(QQ, (QQ.neg(QQ.mul(Q, Q)), p2_4r, QQ.mul(2, P), 1))
    for z in _rational_roots(resolvent):
        if z <= 0:
            continue
        a = _rational_sqrt(z)
        if a is None:
            continue
        pz, qa = QQ.add(P, z), QQ.div(Q, a)
        b = QQ.div(QQ.sub(pz, qa), 2)
        c = QQ.div(QQ.add(pz, qa), 2)
        if QQ.mul(b, c) == R:
            return undepress([Poly(QQ, (b, a, 1)), Poly(QQ, (c, QQ.neg(a), 1))])
    return [f]


_CERTIFICATION_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43)


def _certify_irreducible_modp(f: Poly) -> bool:
    """True if f is irreducible mod some small prime where it stays squarefree
    of full degree (which certifies irreducibility over Q)."""
    ints = _to_integer_coeffs(f)
    for p in _CERTIFICATION_PRIMES:
        if ints[-1] % p == 0:
            continue
        gf = PrimeField(p)
        fp = Poly.from_ints(gf, ints)
        if fp.degree != f.degree:
            continue
        if gcd(fp, fp.derivative()).degree != 0:
            continue
        if len(_factor_gfp(fp)) == 1:
            return True
    return False


def _factor_squarefree_q(f: Poly):
    """Factor a monic squarefree rational polynomial within the v1 scope."""
    if f.degree == 1:
        return [f]
    factors = []
    rest = f
    for root in sorted(_rational_roots(f)):
        linear = Poly(QQ, (QQ.neg(root), 1))
        factors.append(linear)
        rest = rest.exact_div(linear)
    if rest.degree == 0:
        return factors
    if rest.degree == 1:
        return factors + [rest.monic()]
    if rest.degree == 2:
        return factors + _factor_quadratic_q(rest)
    if rest.degree == 3:
        return factors + [rest]  # cubic with no rational root is irreducible
    if rest.degree == 4:
        quartic = _factor_quartic_q(rest)
        out = factors
        for q in quartic:
            out = out + (_factor_quadratic_q(q) if q.degree == 2 else [q])
        return out
    if _certify_irreducible_modp(rest):
        return factors + [rest]
    raise UnsupportedDegree(
        f"cannot settle degree-{rest.degree} rational factorization in v1 "
        "(squarefree, roots, quartic resolvent, mod-p certification all inconclusive)"
    )


def _factor_q(f: Poly):
    out = []
    for squarefree, mult in _squarefree_q(f.monic()):
        for irreducible in _factor_squarefree_q(squarefree):
            out.append((irreducible.monic(), mult))
    return out


def poly_factor(f: Poly):
    """Irreducible factorization [(factor, multiplicity)], monic factors,
    deterministic order.  Product of factor^multiplicity equals f up to
    the leading unit."""
    if isinstance(f.domain, Rationals):
        factor_fn = _factor_q
    elif isinstance(f.domain, PrimeField):
        factor_fn = _factor_gfp
    else:
        raise UnsupportedDomain(
            f"poly_factor supports Q and prime fields in v1, got {f.domain.describe()}"
        )
    if f.degree < 1:
        raise ValidationError("poly_factor needs degree >= 1")
    merged = {}
    for factor, mult in factor_fn(f):
        key = factor.coeffs
        if key in merged:
            merged[key] = (factor, merged[key][1] + mult)
        else:
            merged[key] = (factor, mult)
    out = sorted(
        merged.values(),
        key=lambda fm: (fm[0].degree, [fm[0].domain.format(c) for c in fm[0].coeffs]),
    )
    return out


def is_irreducible(f: Poly) -> bool:
    if f.degree < 1:
        return False
    factors = poly_factor(f)
    return len(factors) == 1 and factors[0][1] == 1
