"""Exact coefficient domains.

A Domain supplies arithmetic on plain Python values: for the rationals an
int when the value is integral and a Fraction otherwise, int for integers /
prime fields / residue rings, and tuples of base-field values for simple
algebraic extensions.  Every operation is exact; nothing here ever rounds.
Besides the element operations, each domain has one in-place row kernel,
add_scaled (acc[j] += c * row[j]), that elimination and every sparse
accumulation run through; Q, GF(p) and Z inline its arithmetic.

Domains are immutable and hashable, so any value may be shared freely
across threads.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import NonFieldDomain, NotInvertible, ValidationError


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


class Domain:
    """Common interface; concrete domains override the arithmetic."""

    is_field = False
    char = 0
    kind = "abstract"

    def zero(self):
        return self.from_int(0)

    def one(self):
        return self.from_int(1)

    def from_int(self, n: int):
        raise NotImplementedError

    def add(self, a, b):
        raise NotImplementedError

    def neg(self, a):
        raise NotImplementedError

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def mul(self, a, b):
        raise NotImplementedError

    def inv(self, a):
        raise NonFieldDomain(f"{self} has no division")

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def is_zero(self, a) -> bool:
        return a == self.zero()

    def eq(self, a, b) -> bool:
        return self.sub(a, b) == self.zero()

    def add_scaled(self, acc, c, row, cols):
        """acc[j] += c * row[j] for each j in cols, in place on acc (a list,
        or a dict that holds every j)."""
        add, mul = self.add, self.mul
        for j in cols:
            acc[j] = add(acc[j], mul(c, row[j]))

    def element_seed(self, n: int):
        """Deterministic element stream for probing; n = 0, 1, 2, ..."""
        return self.from_int(n)

    # -- literal I/O ------------------------------------------------------

    def parse(self, obj):
        raise NotImplementedError

    def format(self, a):
        raise NotImplementedError

    def describe(self) -> str:
        raise NotImplementedError

    def __repr__(self):
        return self.describe()


class Rationals(Domain):
    """Q with values kept as int when integral and as Fraction otherwise.

    Nearly every entry met in practice is a small integer, and int arithmetic
    costs a fraction of Fraction arithmetic.  The mix is invisible to callers:
    int and Fraction agree on str, == and hash, so reports, dict keys and
    cache keys are the same whichever type a value has.  Every operation
    below returns an int exactly when its result is integral; callers divide
    only through div (a raw / on two ints would give a float).
    """

    is_field = True
    char = 0
    kind = "rationals"

    def from_int(self, n):
        return int(n)

    def add(self, a, b):
        c = a + b
        return c if type(c) is int or c.denominator != 1 else c.numerator

    def neg(self, a):
        c = -a
        return c if type(c) is int or c.denominator != 1 else c.numerator

    def sub(self, a, b):
        c = a - b
        return c if type(c) is int or c.denominator != 1 else c.numerator

    def mul(self, a, b):
        c = a * b
        return c if type(c) is int or c.denominator != 1 else c.numerator

    def inv(self, a):
        if a == 0:
            raise NotInvertible("inverse of 0")
        c = Fraction(a.denominator, a.numerator)
        return c.numerator if c.denominator == 1 else c

    def is_zero(self, a) -> bool:
        return a == 0

    def add_scaled(self, acc, c, row, cols):
        for j in cols:
            x = acc[j] + c * row[j]
            acc[j] = x if type(x) is int or x.denominator != 1 else x.numerator

    def parse(self, obj):
        if isinstance(obj, bool) or isinstance(obj, float):
            raise ValidationError(f"rational literals must be exact, got {obj!r}")
        if isinstance(obj, int):
            return obj
        if isinstance(obj, str):
            text = obj.strip()
            digits = text.removeprefix("-")
            try:
                if digits.isascii() and digits.isdigit():
                    return int(text)  # the common case, without Fraction's regex
                c = Fraction(text)
            except (ValueError, ZeroDivisionError):
                raise ValidationError(f"not a rational literal: {obj!r}") from None
            return c.numerator if c.denominator == 1 else c
        raise ValidationError(f"not a rational literal: {obj!r}")

    def format(self, a):
        return str(a)

    def describe(self):
        return "Q"

    def __eq__(self, other):
        return isinstance(other, Rationals)

    def __hash__(self):
        return hash("Q")


class Integers(Domain):
    is_field = False
    char = 0
    kind = "integers"

    def from_int(self, n):
        return int(n)

    def add(self, a, b):
        return a + b

    def neg(self, a):
        return -a

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def is_zero(self, a) -> bool:
        return a == 0

    def add_scaled(self, acc, c, row, cols):
        for j in cols:
            acc[j] += c * row[j]

    def parse(self, obj):
        if isinstance(obj, bool) or isinstance(obj, float):
            raise ValidationError(f"integer literals must be exact ints, got {obj!r}")
        if isinstance(obj, int):
            return obj
        if isinstance(obj, str):
            try:
                return int(obj.strip())
            except ValueError:
                raise ValidationError(f"not an integer literal: {obj!r}") from None
        raise ValidationError(f"not an integer literal: {obj!r}")

    def format(self, a):
        return str(a)

    def describe(self):
        return "Z"

    def __eq__(self, other):
        return isinstance(other, Integers)

    def __hash__(self):
        return hash("Z")


class _ResidueDomain(Domain):
    """GF(p) and Z/m, whose modulus is char: one reader for their literals,
    an int or a string "a" or "a mod n" (n the modulus)."""

    def parse(self, obj):
        name = self.describe()
        if isinstance(obj, (bool, float)):
            raise ValidationError(f"{name} literals must be exact ints, got {obj!r}")
        if isinstance(obj, str):
            value, mod, modulus = obj.strip().partition(" mod ")
            try:
                if mod and int(modulus) != self.char:
                    raise ValidationError(f"literal {obj!r} has wrong modulus for {name}")
                obj = int(value)
            except ValueError:
                raise ValidationError(f"not a {name} literal: {obj!r}") from None
        if isinstance(obj, int):
            return obj % self.char
        raise ValidationError(f"not a {name} literal: {obj!r}")


class PrimeField(_ResidueDomain):
    is_field = True
    kind = "prime_field"

    def __init__(self, p: int):
        if not _is_prime(p):
            raise ValidationError(f"GF modulus must be prime, got {p}")
        self.p = p
        self.char = p

    def from_int(self, n):
        return n % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def is_zero(self, a) -> bool:
        return a == 0

    def add_scaled(self, acc, c, row, cols):
        p = self.p
        for j in cols:
            acc[j] = (acc[j] + c * row[j]) % p

    def inv(self, a):
        a %= self.p
        if a == 0:
            raise NotInvertible("inverse of 0")
        return pow(a, self.p - 2, self.p)

    def format(self, a):
        return str(a % self.p)

    def describe(self):
        return f"GF({self.p})"

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("GF", self.p))


class Residues(_ResidueDomain):
    """Z/m for composite m: element arithmetic only.

    Linear algebra over composite residues is intentionally not provided;
    mixed-module questions go through INTEGERS plus Smith normal form.
    """

    is_field = False
    kind = "residues"

    def __init__(self, m: int):
        if m < 2:
            raise ValidationError(f"residue modulus must be >= 2, got {m}")
        self.m = m
        self.char = m

    def from_int(self, n):
        return n % self.m

    def add(self, a, b):
        return (a + b) % self.m

    def neg(self, a):
        return (-a) % self.m

    def mul(self, a, b):
        return (a * b) % self.m

    def format(self, a):
        return str(a % self.m)

    def describe(self):
        return f"Z/{self.m}"

    def __eq__(self, other):
        return isinstance(other, Residues) and other.m == self.m

    def __hash__(self):
        return hash(("Z/", self.m))


# -- raw polynomial helpers over a base domain ----------------------------
# Coefficient tuples, constant term first, trailing zeros stripped.  These
# exist here (not in polynomials.py) so Extension arithmetic has no import
# cycle; polynomials.py builds the public Poly type on top.


def poly_trim(domain, coeffs):
    coeffs = list(coeffs)
    while coeffs and domain.is_zero(coeffs[-1]):
        coeffs.pop()
    return tuple(coeffs)


def poly_add(domain, a, b):
    n = max(len(a), len(b))
    out = []
    for i in range(n):
        x = a[i] if i < len(a) else domain.zero()
        y = b[i] if i < len(b) else domain.zero()
        out.append(domain.add(x, y))
    return poly_trim(domain, out)


def poly_neg(domain, a):
    return tuple(domain.neg(x) for x in a)


def poly_mul(domain, a, b):
    if not a or not b:
        return ()
    out = [domain.zero()] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if domain.is_zero(x):
            continue
        for j, y in enumerate(b):
            out[i + j] = domain.add(out[i + j], domain.mul(x, y))
    return poly_trim(domain, out)


def poly_divmod(domain, a, b):
    """Exact division with remainder over a field."""
    if not b:
        raise NotInvertible("polynomial division by zero")
    rem = list(a)
    quo = [domain.zero()] * max(0, len(a) - len(b) + 1)
    lead_inv = domain.inv(b[-1])
    for i in range(len(rem) - len(b), -1, -1):
        c = domain.mul(rem[i + len(b) - 1], lead_inv)
        if domain.is_zero(c):
            continue
        quo[i] = c
        for j, y in enumerate(b):
            rem[i + j] = domain.sub(rem[i + j], domain.mul(c, y))
    return poly_trim(domain, quo), poly_trim(domain, rem)


def poly_mod(domain, a, b):
    return poly_divmod(domain, a, b)[1]


def poly_xgcd(domain, a, b):
    """Monic gcd g with s*a + t*b = g, over a field."""
    r0, r1 = poly_trim(domain, a), poly_trim(domain, b)
    s0, s1 = (domain.one(),), ()
    t0, t1 = (), (domain.one(),)
    while r1:
        q, r = poly_divmod(domain, r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, poly_add(domain, s0, poly_neg(domain, poly_mul(domain, q, s1)))
        t0, t1 = t1, poly_add(domain, t0, poly_neg(domain, poly_mul(domain, q, t1)))
    if r0:
        c = domain.inv(r0[-1])
        scale = (c,)
        r0 = poly_mul(domain, r0, scale)
        s0 = poly_mul(domain, s0, scale)
        t0 = poly_mul(domain, t0, scale)
    return r0, s0, t0


def poly_gcd(domain, a, b):
    return poly_xgcd(domain, a, b)[0]


class Extension(Domain):
    """Simple algebraic extension base[t]/(minpoly).

    Elements are coefficient tuples of length deg(minpoly), constant term
    first, over the base domain.  The base must be RATIONALS or a prime
    field and the minimal polynomial irreducible of degree >= 2.
    """

    is_field = True
    kind = "extension"

    def __init__(self, base: Domain, minpoly, check_irreducible: bool = True):
        if not isinstance(base, (Rationals, PrimeField)):
            raise ValidationError("extension base must be Q or a prime field")
        minpoly = poly_trim(base, tuple(minpoly))
        if len(minpoly) < 3:
            raise ValidationError("extension minimal polynomial must have degree >= 2")
        lead = minpoly[-1]
        if not base.eq(lead, base.one()):
            inv = base.inv(lead)
            minpoly = tuple(base.mul(c, inv) for c in minpoly)
        self.base = base
        self.minpoly = minpoly
        self.degree = len(minpoly) - 1
        self.char = base.char
        if check_irreducible:
            self._check_irreducible()

    def _check_irreducible(self):
        from .polynomials import Poly, is_irreducible

        if not is_irreducible(Poly(self.base, self.minpoly)):
            raise ValidationError("extension minimal polynomial is reducible")

    def _lift(self, coeffs):
        coeffs = tuple(coeffs)[: self.degree]
        return coeffs + (self.base.zero(),) * (self.degree - len(coeffs))

    def from_int(self, n):
        return self._lift((self.base.from_int(n),))

    def from_base(self, a):
        return self._lift((a,))

    def generator(self):
        return self._lift((self.base.zero(), self.base.one()))

    def add(self, a, b):
        return tuple(self.base.add(x, y) for x, y in zip(a, b))

    def neg(self, a):
        return tuple(self.base.neg(x) for x in a)

    def mul(self, a, b):
        prod = poly_mul(self.base, a, b)
        return self._lift(poly_mod(self.base, prod, self.minpoly))

    def inv(self, a):
        ap = poly_trim(self.base, a)
        if not ap:
            raise NotInvertible("inverse of 0")
        g, s, _ = poly_xgcd(self.base, ap, self.minpoly)
        if len(g) != 1:
            raise NotInvertible("element is not invertible (reducible minpoly?)")
        s = poly_mul(self.base, s, (self.base.inv(g[0]),))
        return self._lift(s)

    def is_zero(self, a):
        return all(self.base.is_zero(x) for x in a)

    def eq(self, a, b):
        return all(self.base.eq(x, y) for x, y in zip(a, b))

    def element_seed(self, n: int):
        # enumerate tuples over the base seed stream, diagonal-ish
        coeffs = []
        k = n
        for _ in range(self.degree):
            coeffs.append(self.base.element_seed(k % 7 + k // 7))
            k //= 7
        return self._lift(coeffs)

    def parse(self, obj):
        if isinstance(obj, list):
            if len(obj) > self.degree:
                raise ValidationError(
                    f"extension literal has {len(obj)} coefficients, degree is {self.degree}"
                )
            return self._lift(tuple(self.base.parse(x) for x in obj))
        return self.from_base(self.base.parse(obj))

    def format(self, a):
        return [self.base.format(x) for x in a]

    def format_text(self, a, var="t"):
        terms = []
        for i, c in enumerate(a):
            if self.base.is_zero(c):
                continue
            s = self.base.format(c)
            if i == 0:
                terms.append(s)
            else:
                power = var if i == 1 else f"{var}^{i}"
                terms.append(power if s == "1" else f"{s}*{power}")
        return " + ".join(terms) if terms else "0"

    def describe(self):
        inner = ",".join(self.base.format(c) for c in self.minpoly)
        return f"{self.base.describe()}[t]/({inner})"

    def __eq__(self, other):
        return (
            isinstance(other, Extension)
            and other.base == self.base
            and other.minpoly == self.minpoly
        )

    def __hash__(self):
        return hash(("ext", self.base, self.minpoly))


QQ = Rationals()
ZZ = Integers()


def require_field(domain: Domain, what: str = "operation"):
    if not domain.is_field:
        raise NonFieldDomain(f"{what} requires a field domain, got {domain.describe()}")
