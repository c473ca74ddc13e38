"""Seeded input families for the ringlab benchmark.

Every family is built here from its definition, in exact arithmetic that
does not touch ringlab, and written as a plain JSON document.  The seed
only relabels: it permutes the basis and flips the signs of basis vectors
(or, for the small GF(2)/GF(3) maps, applies a random invertible change of
basis).  Structure constants stay small integers, so the work ringlab does
on a rung is nearly the same for every seed, while the bytes it reads are
not.

Each builder returns a ``Doc``: the JSON document plus what the benchmark
needs to check the report against the construction (the basis change, the
defining polynomial, the matrix representation, ...).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction


@dataclass
class Doc:
    name: str
    document: dict
    meta: dict = field(default_factory=dict)


# -- coefficient domains --------------------------------------------------------


class Q:
    """Rational coefficients as Fraction; written as strings."""

    p = 0

    @staticmethod
    def norm(a):
        return Fraction(a)

    @staticmethod
    def write(a):
        return str(Fraction(a))

    @staticmethod
    def domain():
        return "Q"


class GF:
    """Integers mod a prime p; written as plain ints."""

    def __init__(self, p):
        self.p = p

    def norm(self, a):
        return int(a) % self.p

    def write(self, a):
        return int(a) % self.p

    def domain(self):
        return {"gf": self.p}


class Z:
    """Integer coefficients on a free Z-module."""

    p = 0

    @staticmethod
    def norm(a):
        return int(a)

    @staticmethod
    def write(a):
        return int(a)

    @staticmethod
    def domain():
        return "Z"


# -- basis changes ----------------------------------------------------------------


def signed_permutation(rng: random.Random, n: int, fixed=()):
    """New basis f_i = sign[i] * e_{perm[i]}; the indices in fixed stay put."""
    moving = [i for i in range(n) if i not in fixed]
    shuffled = moving[:]
    rng.shuffle(shuffled)
    perm = list(range(n))
    for i, j in zip(moving, shuffled):
        perm[i] = j
    signs = [rng.choice((1, -1)) for _ in range(n)]
    return perm, signs


def relabel_tensor(tensor, perm, signs):
    """The structure tensor of a square product in the basis f_i = s_i e_{perm[i]}.

    f_i f_j = s_i s_j sum_k T[perm i][perm j][k] e_k, and e_{perm[l]} = s_l f_l.
    """
    n = len(perm)
    return [
        [
            [
                signs[i] * signs[j] * signs[l] * tensor[perm[i]][perm[j]][perm[l]]
                for l in range(n)
            ]
            for j in range(n)
        ]
        for i in range(n)
    ]


def relabel_vector(vec, perm, signs):
    """Coordinates of an old-basis vector in the new basis."""
    return [signs[l] * vec[perm[l]] for l in range(len(perm))]


def unlabel_vector(coords, perm, signs):
    """Old-basis coordinates of a new-basis vector."""
    out = [0] * len(perm)
    for l, c in enumerate(coords):
        out[perm[l]] = signs[l] * c
    return out


def document(kind, ring, names, tensor, **extra):
    doc = {
        "kind": kind,
        "domain": ring.domain(),
        "basis": list(names),
        "table": [[[ring.write(c) for c in cell] for cell in row] for row in tensor],
    }
    doc.update(extra)
    return doc


def zero_tensor(n, m=None):
    m = n if m is None else m
    return [[[0] * m for _ in range(n)] for _ in range(n)]


# -- nilpotent Lie algebras --------------------------------------------------------


def heisenberg_sum(k: int):
    """H3^k + Q: blocks [x_b, y_b] = z_b, plus one abelian line (dim 3k+1)."""
    n = 3 * k + 1
    t = zero_tensor(n)
    for b in range(k):
        x, y, z = 3 * b, 3 * b + 1, 3 * b + 2
        t[x][y][z] = 1
        t[y][x][z] = -1
    return t


def filiform(n: int):
    """L_n: [e_1, e_i] = e_{i+1} for 2 <= i < n (class n - 1)."""
    t = zero_tensor(n)
    for i in range(1, n - 1):
        t[0][i][i + 1] = 1
        t[i][0][i + 1] = -1
    return t


def _unit(size, r, c):
    m = [[0] * size for _ in range(size)]
    m[r][c] = 1
    return m


def heisenberg_rep(k: int):
    """Faithful nilpotent matrices for H3^k + Q, old basis order.

    Block b (3x3): x -> E12, y -> E23, z -> E13; the abelian line is E12 of
    a trailing 2x2 block.  Size 3k + 2.
    """
    size = 3 * k + 2
    mats = []
    for b in range(k):
        o = 3 * b
        mats += [_unit(size, o, o + 1), _unit(size, o + 1, o + 2), _unit(size, o, o + 2)]
    mats.append(_unit(size, 3 * k, 3 * k + 1))
    return mats


def filiform_rep(n: int):
    """The affine representation of L_n = <e_1> x| V, V = <e_2..e_n>.

    In n x n matrices on V + (one affine coordinate): e_1 is the shift
    e_i -> e_{i+1} on V, e_i (i >= 2) is the translation by e_i.
    """
    mats = []
    shift = [[0] * n for _ in range(n)]
    for i in range(n - 2):  # V index i is e_{i+2}
        shift[i + 1][i] = 1
    mats.append(shift)
    for i in range(n - 1):
        mats.append(_unit(n, i, n - 1))
    return mats


def unit_vector(n, i):
    return [int(k == i) for k in range(n)]


def lie_doc(rng, name, tensor, rep, centre_old, fixed=(), **expected):
    """A Lie document plus its representation and centre in the new basis."""
    n = len(tensor)
    perm, signs = signed_permutation(rng, n, fixed)
    # rho(f_i) = s_i rho(e_{perm i})
    new_rep = [
        [[signs[i] * c for c in row] for row in rep[perm[i]]] for i in range(n)
    ]
    names = [f"v{i}" for i in range(n)]
    centre_rows = [relabel_vector(unit_vector(n, i), perm, signs) for i in centre_old]
    return Doc(
        name,
        document("lie", Q, names, relabel_tensor(tensor, perm, signs)),
        dict(expected, names=names, rep=new_rep, centre=len(centre_rows), centre_rows=centre_rows),
    )


def heisenberg_doc(rng, k):
    return lie_doc(
        rng,
        f"h3x{k}+q",
        heisenberg_sum(k),
        heisenberg_rep(k),
        centre_old=[3 * b + 2 for b in range(k)] + [3 * k],
        cls=2,
        series=[3 * k + 1, k],
        factors=[(3, 2)] * k,
        abelian_dim=1,
    )


def filiform_doc(rng, n):
    return lie_doc(
        rng,
        f"L{n}",
        filiform(n),
        filiform_rep(n),
        centre_old=[n - 1],
        # ringlab's centre certificate stops at the first basis vector that
        # does not commute, so where e_1 sits sets how many group
        # commutators run; keeping it first keeps a rung's cost seed-free.
        fixed=(0,),
        cls=n - 1,
        series=[n] + list(range(n - 2, 0, -1)),
        factors=[(n, n - 1)],
        abelian_dim=0,
    )


def group_element(rng, n):
    """A dense element: every coordinate a nonzero a/b with |a|, b <= 9."""
    out = []
    for _ in range(n):
        num = rng.choice([v for v in range(-9, 10) if v])
        out.append(Fraction(num, rng.randint(1, 9)))
    return out


def element_text(coords):
    return "(" + ",".join(str(c) for c in coords) + ")"


# -- the ring family R_k -------------------------------------------------------------


def ring_family(k: int, ring):
    """R_k: k blocks with x y = z, y x = (b+2) z, x x = z, plus a zero line."""
    n = 3 * k + 1
    t = zero_tensor(n)
    for b in range(k):
        x, y, z = 3 * b, 3 * b + 1, 3 * b + 2
        t[x][y][z] = 1
        t[y][x][z] = b + 2
        t[x][x][z] = 1
    return [[[ring.norm(c) for c in cell] for cell in row] for row in t]


def ring_doc(rng, k, ring, field):
    """R_k over ring; field names the pipeline: "Q", "GF" or "Z"."""
    n = 3 * k + 1
    perm, signs = signed_permutation(rng, n)
    tensor = relabel_tensor(ring_family(k, ring), perm, signs)
    tensor = [[[ring.norm(c) for c in cell] for cell in row] for row in tensor]
    names = [f"r{i}" for i in range(n)]
    extra = {"summands": ["Z"] * n} if field == "Z" else {}
    squares = [3 * b + 2 for b in range(k)]
    rows = lambda old: [relabel_vector(unit_vector(n, i), perm, signs) for i in old]
    return Doc(
        f"R{k}-{field.lower()}{ring.p or ''}",
        document("ring", ring, names, tensor, **extra),
        {
            "k": k,
            "p": ring.p,
            "field": field,
            "names": names,
            "ann_rows": rows(squares + [3 * k]),
            "sq_rows": rows(squares),
        },
    )


# -- truncated polynomial algebras F[t]/(f) -----------------------------------------


def pmul(a, b, ring):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return [ring.norm(c) for c in out]


def pmod(a, f, ring):
    """Remainder of a by the monic f."""
    a = [ring.norm(c) for c in a]
    d = len(f) - 1
    for top in range(len(a) - 1, d - 1, -1):
        c = a[top]
        if c:
            for i in range(d + 1):
                a[top - d + i] = ring.norm(a[top - d + i] - c * f[i])
    return a[:d] + [0] * max(0, d - len(a))


def ppow(a, e, ring):
    out = [ring.norm(1)]
    for _ in range(e):
        out = pmul(out, a, ring)
    return out


def product_of(factors, ring):
    f = [ring.norm(1)]
    for p, e in factors:
        f = pmul(f, ppow(p, e, ring), ring)
    return f


def monomial_tensor(f, ring):
    """Structure constants of F[t]/(f) on 1, t, ..., t^(d-1)."""
    d = len(f) - 1
    t = zero_tensor(d)
    for i in range(d):
        for j in range(d):
            mono = [0] * (i + j) + [1]
            t[i][j] = pmod(mono, f, ring)
    return t


def algebra_doc(rng, name, factors, ring, kind="commutative-algebra"):
    """F[t]/(prod p^e) on a signed permutation of the monomial basis.

    factors: [(monic irreducible p, constant term first), e].
    """
    f = product_of(factors, ring)
    d = len(f) - 1
    perm, signs = signed_permutation(rng, d)
    tensor = relabel_tensor(monomial_tensor(f, ring), perm, signs)
    tensor = [[[ring.norm(c) for c in cell] for cell in row] for row in tensor]
    names = [f"a{i}" for i in range(d)]
    extra = {}
    if kind == "commutative-algebra":
        unit = relabel_vector([1] + [0] * (d - 1), perm, signs)
        extra["unit"] = [ring.write(c) for c in unit]
    return Doc(
        name,
        document(kind, ring, names, tensor, **extra),
        {"f": f, "factors": factors, "perm": perm, "signs": signs, "p": ring.p},
    )


# Fixed factorisations, one per degree.  Over Q every squarefree part is
# within ringlab's factoriser: rational roots, then degree <= 4 or an
# irreducible certified mod a small prime.  Over GF(7) each p is
# irreducible mod 7 (checked by the benchmark's tests).
Q_ALGEBRAS = {
    6: [([1, 0, 1], 2), ([-2, 1], 2)],
}

GF7_ALGEBRAS = {
    10: [([5, 0, 0, 1], 2), ([1, 0, 1], 1), ([6, 1], 2)],
}

# Multiplication maps F[t]/(f) x F[t]/(f) -> F[t]/(f), as bilinear documents.
Q_MULT_MAP = [([1, 0, 1], 1), ([-2, 1], 2)]
GF7_MULT_MAP = [([5, 0, 0, 1], 1), ([1, 0, 1], 1), ([6, 1], 2)]

# Q[t]/((t^2 - 2)^2) re-read over Q(sqrt 2).
EXTENSION_FACTORS = [([-2, 0, 1], 2)]
EXTENSION_MINPOLY = "-2,0,1"
# Over Q(sqrt 2): (t - r)^2 and (t + r)^2 -> (dim, index, residue degree)
EXTENSION_LOCAL = [(2, 2, 1), (2, 2, 1)]


# -- small GF(2)/GF(3) maps for the width enumeration ---------------------------------


def random_invertible(rng, n, p):
    """A random invertible n x n matrix mod p and its inverse."""
    while True:
        m = [[rng.randrange(p) for _ in range(n)] for _ in range(n)]
        inv = _inverse_mod_p(m, p)
        if inv is not None:
            return m, inv


def outer_product_doc(rng, a, b, p):
    """f((x, y), (x', y')) = x (x) y' on M = F^a + F^b, N = F^(a b).

    The image is every a x b matrix and its width is min(a, b): a matrix of
    rank r is a sum of r products and of no fewer.  The seed applies a random
    invertible change of basis on M and on N.
    """
    n, m = a + b, a * b
    t = zero_tensor(n, m)
    for i in range(a):
        for j in range(b):
            t[i][a + j][i * b + j] = 1
    g, _ = random_invertible(rng, n, p)  # new basis u_r = sum_s g[r][s] e_s
    _, hinv = random_invertible(rng, m, p)  # w_r = sum_s h[r][s] e_s, e_s = sum_r hinv[s][r] w_r
    new = zero_tensor(n, m)
    for r1 in range(n):
        for r2 in range(n):
            old = [0] * m
            for s1 in range(n):
                if g[r1][s1]:
                    for s2 in range(n):
                        if g[r2][s2]:
                            c = g[r1][s1] * g[r2][s2]
                            for k in range(m):
                                old[k] += c * t[s1][s2][k]
            new[r1][r2] = [
                sum(old[s] * hinv[s][r] for s in range(m)) % p for r in range(m)
            ]
    ring = GF(p)
    doc = document(
        "bilinear",
        ring,
        [f"m{i}" for i in range(n)],
        new,
        codomain={"basis": [f"n{i}" for i in range(m)]},
    )
    return Doc(f"outer{a}x{b}-gf{p}", doc, {"width": min(a, b), "image": m, "dim": n})


def _inverse_mod_p(m, p):
    """The inverse of m mod p, or None if m is singular."""
    n = len(m)
    rows = [list(r) + [1 if i == j else 0 for j in range(n)] for i, r in enumerate(m)]
    for c in range(n):
        pivot = next((r for r in range(c, n) if rows[r][c] % p), None)
        if pivot is None:
            return None
        rows[c], rows[pivot] = rows[pivot], rows[c]
        inv = pow(rows[c][c], -1, p)
        rows[c] = [v * inv % p for v in rows[c]]
        for r in range(n):
            if r != c and rows[r][c] % p:
                f = rows[r][c]
                rows[r] = [(v - f * w) % p for v, w in zip(rows[r], rows[c])]
    return [r[n:] for r in rows]
