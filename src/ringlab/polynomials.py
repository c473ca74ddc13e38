"""Dense univariate polynomials and exact factorization over GF(p) and Q.

Over GF(p): squarefree decomposition, distinct-degree and equal-degree
splitting (the equal-degree stage walks a deterministic candidate stream,
so output order is reproducible).

Over Q: Yun's squarefree decomposition of the primitive integer multiple,
then Zassenhaus' method for each squarefree part: factor it modulo the
smallest suitable prime p, Hensel-lift the factors modulo p^k past a
Landau-Mignotte bound, and recombine them into integer factors that exact
division confirms.  It settles every degree.
"""

from __future__ import annotations

from itertools import combinations
from math import gcd as int_gcd, isqrt, lcm

from .domains import (
    Domain,
    Extension,
    PrimeField,
    QQ,
    Rationals,
    Residues,
    ZZ,
    _is_prime,
    poly_add,
    poly_divmod,
    poly_gcd,
    poly_mod,
    poly_mul,
    poly_neg,
    poly_trim,
    poly_xgcd,
)
from .errors import InvariantViolation, UnsupportedDomain, ValidationError
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


# Over Q the decomposition runs on integer coefficient lists (constant term
# first): a primitive divisor of an integer polynomial divides it over Z
# (Gauss), so every quotient below is exact and no Fraction is made.


def _primitive_z(h):
    """h divided by its content, with a positive leading coefficient."""
    if not h:
        return h
    content = int_gcd(*h)
    return [c // content for c in h] if h[-1] > 0 else [-c // content for c in h]


def _integer_form(f: Poly):
    """The primitive integer multiple of a nonzero rational polynomial, with a
    positive leading coefficient."""
    denominator = lcm(*(c.denominator for c in f.coeffs))
    return _primitive_z([int(c * denominator) for c in f.coeffs])


def _gcd_z(a, b):
    """The primitive gcd of two integer polynomials, by primitive pseudo-remainders."""
    a, b = _primitive_z(a), _primitive_z(b)
    if len(a) < len(b):
        a, b = b, a
    while b:
        r, lead = a, b[-1]
        while len(r) >= len(b):
            c, shift = r[-1], len(r) - len(b)
            r = [lead * x for x in r]
            for j, y in enumerate(b):
                r[shift + j] -= c * y
            r.pop()
            while r and not r[-1]:
                r.pop()
        a, b = b, _primitive_z(r)
    return a


def _quotient_z(g, h):
    quo = _exact_quotient_z(g, h)
    if quo is None:
        raise InvariantViolation("exact division check: the remainder is nonzero")
    return quo


def _derivative_z(g):
    return [i * c for i, c in enumerate(g) if i]


def _squarefree_z(g):
    """Yun's algorithm over Z: [(h, multiplicity)] with g = prod h^m for g
    primitive with a positive leading coefficient; each h is primitive with a
    positive leading coefficient."""
    out = []
    dg = _derivative_z(g)
    a = _gcd_z(g, dg)
    b, c = _quotient_z(g, a), _quotient_z(dg, a)
    d = poly_add(ZZ, c, poly_neg(ZZ, _derivative_z(b)))
    i = 1
    while len(b) > 1:
        ai = _gcd_z(b, d)
        b, c = _quotient_z(b, ai), _quotient_z(d, ai)
        d = poly_add(ZZ, c, poly_neg(ZZ, _derivative_z(b)))
        if len(ai) > 1:
            out.append((ai, i))
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


def _factor_squarefree_gfp(f: Poly):
    """The monic irreducible factors of a monic squarefree f over GF(p)."""
    return [h for block, d in _distinct_degree_gfp(f) for h in _equal_degree_split_gfp(block, d)]


def _factor_gfp(f: Poly):
    return [
        (irreducible, mult)
        for squarefree, mult in _squarefree_gfp(f.monic())
        for irreducible in _factor_squarefree_gfp(squarefree)
    ]


# -- factorization over Q: Zassenhaus -----------------------------------------


def _exact_quotient_z(g, h):
    """g / h for integer coefficient lists, or None if h does not divide g over Z."""
    g = list(g)
    quo = [0] * (len(g) - len(h) + 1)
    for i in range(len(quo) - 1, -1, -1):
        c, r = divmod(g[i + len(h) - 1], h[-1])
        if r:
            return None
        quo[i] = c
        for j, y in enumerate(h):
            g[i + j] -= c * y
    return None if any(g) else quo


def _hensel_lift_pair(G: Poly, a: Poly, b: Poly, k: int):
    """Monic A = a and B = b (mod p) with G = A*B (mod p^k): G monic over
    Residues(p^k), a and b monic and coprime over GF(p) with G = a*b (mod p)."""
    gf, ring = a.domain, G.domain
    _, s, t = poly_xgcd(gf, a.coeffs, b.coeffs)  # s*a + t*b = 1
    s, t = Poly(gf, s), Poly(gf, t)
    A, B = Poly.from_ints(ring, a.coeffs), Poly.from_ints(ring, b.coeffs)
    q = gf.p
    for _ in range(k - 1):
        # G - A*B = q*e (mod p*q); correct A by q*alpha and B by q*beta with
        # alpha*b + beta*a = e, deg alpha < deg a and deg beta < deg b
        e = Poly.from_ints(gf, [c // q for c in G.sub(A.mul(B)).coeffs])
        quo, alpha = e.mul(t).divmod(a)
        beta = e.mul(s).add(quo.mul(b))
        A = A.add(Poly.from_ints(ring, [q * c for c in alpha.coeffs]))
        B = B.add(Poly.from_ints(ring, [q * c for c in beta.coeffs]))
        q *= gf.p
    return A, B


def _zassenhaus(g):
    """The irreducible factors over Z of a primitive squarefree integer
    polynomial g (coefficient list, positive leading coefficient), each
    primitive with a positive leading coefficient."""
    lc = g[-1]
    p = 2
    while True:
        if lc % p and _is_prime(p):
            gp = Poly.from_ints(PrimeField(p), g)
            if gcd(gp, gp.derivative()).degree == 0:
                break
        p += 1
    # the prime search has checked that gp is squarefree
    modular = _factor_squarefree_gfp(gp.monic())
    # Landau-Mignotte: a factor h of g has |h_i| <= 2^deg(g) * |g|_2, so h
    # scaled to leading coefficient lc lies in (-p^k/2, p^k/2)
    bound = lc * 2 ** (len(g) - 1) * (isqrt(sum(c * c for c in g)) + 1)
    k = 1
    while p**k <= 2 * bound:
        k += 1
    ring = Residues(p**k)
    rest = Poly.from_ints(ring, [c * pow(lc, -1, ring.m) for c in g])
    lifted = []
    for a in modular[:-1]:
        # rest = a * (the later modular factors) mod p
        b = Poly.from_ints(a.domain, rest.coeffs).exact_div(a)
        factor, rest = _hensel_lift_pair(rest, a, b, k)
        lifted.append(factor)
    lifted.append(rest)
    # recombine subsets of the lifted factors, smallest first: a subset whose
    # product times lc is, read symmetrically mod p^k, a divisor of g over Z
    # gives an irreducible factor, since every smaller subset is gone
    factors = []
    size = 1
    while 2 * size <= len(lifted):
        for subset in combinations(range(len(lifted)), size):
            product = Poly.constant(ring, lc)
            for i in subset:
                product = product.mul(lifted[i])
            h = [c - ring.m if 2 * c > ring.m else c for c in product.coeffs]
            content = int_gcd(*h)
            h = [c // content for c in h]
            quo = _exact_quotient_z(g, h)
            if quo is not None:
                factors.append(h)
                g, lc = quo, quo[-1]
                lifted = [f for i, f in enumerate(lifted) if i not in subset]
                break
        else:
            size += 1
    return factors + [g]


def _factor_q(f: Poly):
    out = []
    for squarefree, mult in _squarefree_z(_integer_form(f)):
        for irreducible in _zassenhaus(squarefree):
            out.append((Poly.from_ints(QQ, irreducible).monic(), mult))
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
