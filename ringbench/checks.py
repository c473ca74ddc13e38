"""Independent checks of ringlab's reports.

Nothing here imports ringlab.  Every expected value follows from how the
benchmark built its input (families.py): spans are compared by rank with
the benchmark's own elimination, idempotents are multiplied out modulo the
defining polynomial, and Mal'cev products are recomputed as exp/log of
exact nilpotent matrices in a faithful representation.

Each check takes the command's stdout and returns a list of problems; an
empty list means the report is right.  A report that cannot be read where a
check expects it raises (LookupError, TypeError, ValueError), which the
caller counts as a wrong report.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

from families import pmod, pmul, ppow, relabel_vector, unlabel_vector

# -- exact linear algebra over Q or GF(p) -----------------------------------------


def _norm(p):
    if p:
        return lambda a: int(a) % p
    return Fraction


def eliminate(rows, p=0, ncols=None):
    """Reduced row echelon form over Q (p = 0) or GF(p), pivoting only in
    the first ncols columns; returns (rows, pivot columns)."""
    norm = _norm(p)
    rows = [[norm(c) for c in r] for r in rows]
    if ncols is None:
        ncols = len(rows[0]) if rows else 0
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        pivot = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = pow(rows[r][c], -1, p) if p else 1 / rows[r][c]
        rows[r] = [norm(v * inv) for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [norm(v - f * w) for v, w in zip(rows[i], rows[r])]
        pivots.append(c)
    return rows, pivots


def rank(rows, p=0):
    """Rank of a list of coordinate rows over Q (p = 0) or GF(p)."""
    return len(eliminate(rows, p)[1])


def same_span(rows, expected, p=0):
    return rank(rows, p) == rank(expected, p) == rank(list(rows) + list(expected), p)


def solve(columns, target):
    """Coefficients c with sum c_i columns[i] = target over Q, or None."""
    n = len(columns)
    aug = [[col[k] for col in columns] + [target[k]] for k in range(len(target))]
    rows, pivots = eliminate(aug, 0, n)
    if any(row[n] for row in rows[len(pivots):]):
        return None
    out = [Fraction(0)] * n
    for row, c in zip(rows, pivots):
        out[c] = row[n]
    return out


# -- parsing ringlab's element text ---------------------------------------------------


def parse_element(text, names, p=0):
    """Coordinates of 'c*name + name + -name ...' (ringlab's element text)."""
    index = {name: i for i, name in enumerate(names)}
    coords = [0] * len(names)
    if text == "0":
        return coords
    for term in text.split(" + "):
        coef, _, name = term.rpartition("*")
        if not coef:
            coef, name = ("-1", name[1:]) if name.startswith("-") else ("1", name)
        coords[index[name]] += int(coef) if p else Fraction(coef)
    return [_norm(p)(c) for c in coords]


def parse_tuple(text):
    return [Fraction(part) for part in text.strip("()").split(",")]


def residue_degree(text, base):
    """Degree of ringlab's residue-field text 'BASE' or 'BASE[t]/(... t^d)'."""
    if text == base:
        return 1
    exps = [int(e) for e in re.findall(r"t\^(\d+)", text)]
    return max(exps) if exps else 1


# -- nilpotent matrices ---------------------------------------------------------------


def mat_mul(a, b):
    n = len(a)
    out = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        ai = a[i]
        for k in range(n):
            if ai[k]:
                bk = b[k]
                oi = out[i]
                for j in range(n):
                    if bk[j]:
                        oi[j] += ai[k] * bk[j]
    return out


def mat_add(a, b, scale=1):
    return [[x + scale * y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def identity(n):
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def mat_exp(x):
    """exp of a nilpotent matrix: the finite sum of x^k / k!."""
    n = len(x)
    out = identity(n)
    term = identity(n)
    for k in range(1, n + 1):
        term = [[v / k for v in row] for row in mat_mul(term, x)]
        if not any(any(row) for row in term):
            break
        out = mat_add(out, term)
    return out


def mat_log(u):
    """log of a unipotent matrix: the finite sum of (-1)^(k+1) (u - 1)^k / k."""
    n = len(u)
    nil = mat_add(u, identity(n), -1)
    out = [[Fraction(0)] * n for _ in range(n)]
    power = identity(n)
    for k in range(1, n + 1):
        power = mat_mul(power, nil)
        if not any(any(row) for row in power):
            break
        out = mat_add(out, power, Fraction((-1) ** (k + 1), k))
    return out


def mat_pow(u, e):
    n = len(u)
    out = identity(n)
    for _ in range(e):
        out = mat_mul(out, u)
    return out


class MatrixGroup:
    """The Mal'cev group of a Lie algebra given by a faithful nilpotent
    representation rep[i] of its basis vectors."""

    def __init__(self, rep):
        self.rep = [[[Fraction(v) for v in row] for row in m] for m in rep]
        self.flat = [[v for row in m for v in row] for m in self.rep]

    def matrix(self, coords):
        n = len(self.rep[0])
        out = [[Fraction(0)] * n for _ in range(n)]
        for c, m in zip(coords, self.rep):
            if c:
                out = mat_add(out, m, c)
        return out

    def coords(self, matrix):
        out = solve(self.flat, [v for row in matrix for v in row])
        if out is None:
            raise ValueError("matrix is outside the represented algebra")
        return out

    def mul(self, x, y):
        return self.coords(mat_log(mat_mul(mat_exp(self.matrix(x)), mat_exp(self.matrix(y)))))

    def comm(self, x, y):
        gx, gy = mat_exp(self.matrix(x)), mat_exp(self.matrix(y))
        ix = mat_exp(self.matrix([-c for c in x]))
        iy = mat_exp(self.matrix([-c for c in y]))
        return self.coords(mat_log(mat_mul(mat_mul(ix, iy), mat_mul(gx, gy))))

    def bracket(self, x, y):
        a, b = self.matrix(x), self.matrix(y)
        return self.coords(mat_add(mat_mul(a, b), mat_mul(b, a), -1))

    def is_power(self, result, x, exponent):
        """exp(result)^q == exp(x)^p for exponent = p/q (q > 0)."""
        e = Fraction(exponent)
        gx = mat_exp(self.matrix(x))
        if e.numerator < 0:
            gx = mat_exp(self.matrix([-c for c in x]))
        return mat_pow(mat_exp(self.matrix(result)), e.denominator) == mat_pow(
            gx, abs(e.numerator)
        )


# -- report checks ------------------------------------------------------------------------


class Problems(list):
    def expect(self, what, got, want):
        if got != want:
            self.append(f"{what}: got {got!r}, want {want!r}")


def _rows(report, key, names, p):
    return [parse_element(t, names, p) for t in report[key]]


def check_lie(stdout, meta):
    """analyze on H3^k + Q or L_n."""
    pr = Problems()
    rep = json.loads(stdout)
    names = meta["names"]
    pr.expect("kind", rep.get("kind"), "lie")
    pr.expect("nilpotency_class", rep.get("nilpotency_class"), meta["cls"])
    pr.expect("lower_central_series_dims", rep.get("lower_central_series_dims"), meta["series"])
    for key in ("center", "annihilator"):
        rows = _rows(rep, key, names, 0)
        if len(rows) != meta["centre"] or not same_span(rows, meta["centre_rows"]):
            pr.append(f"{key}: {rep.get(key)} is not the centre of the construction")
    pr.expect(
        "correspondence",
        rep.get("correspondence"),
        {"center_certified": True, "series_group_closed": True, "series_commutator_drop": True},
    )
    factors = sorted(
        (f.get("dim"), f.get("class"), f.get("abelian"), f.get("residue_degree"))
        for f in rep.get("group_factors", [])
    )
    want = sorted((d, c, False, 1) for d, c in meta["factors"])
    pr.expect("group_factors", factors, want)
    pr.expect("abelian_factor_dim", rep.get("abelian_factor_dim"), meta["abelian_dim"])
    pr.expect("cross_commutators_trivial", rep.get("cross_commutators_trivial"), True)
    pr.expect(
        "categoricity",
        rep.get("categoricity"),
        {
            "structurally_satisfied": len(want) == 1 and meta["abelian_dim"] == 0,
            "components": len(want),
            "addition_dim": meta["abelian_dim"],
        },
    )
    return pr


def check_ring(stdout, meta):
    """analyze on R_k over Q, GF(7) or Z."""
    pr = Problems()
    rep = json.loads(stdout)
    k, p, names = meta["k"], meta["p"], meta["names"]
    pr.expect("kind", rep.get("kind"), "ring")
    pr.expect(
        "flags", rep.get("flags"), {"associative": True, "commutative": False, "lie": False}
    )
    for key, want in (("annihilator", meta["ann_rows"]), ("square_ideal", meta["sq_rows"])):
        rows = _rows(rep, key, names, p)
        if len(rows) != len(want) or not same_span(rows, want, p):
            pr.append(f"{key}: {rep.get(key)} is not the span the construction gives")
    pr.expect("foundation", rep.get("foundation"), {"dim": 3 * k, "addition_dim": 1})
    if meta["field"] == "Q":
        comps = rep.get("components", [])
        pr.expect("components", len(comps), k)
        for i, c in enumerate(comps):
            pr.expect(f"components[{i}].dim", c.get("dim"), 3)
            pr.expect(f"components[{i}].residue_degree", c.get("residue_degree"), 1)
            pr.expect(f"components[{i}].enrichment_verified", c.get("enrichment_verified"), True)
            pr.expect(f"components[{i}].is_lie", c.get("is_lie"), False)
        pr.expect("addition_dim", rep.get("addition_dim"), 1)
        pr.expect("reassembly_exact", rep.get("reassembly_exact"), True)
        cat = rep.get("categoricity", {})
        pr.expect(
            "categoricity",
            (cat.get("structurally_satisfied"), cat.get("components"), cat.get("addition_dim")),
            (False, k, 1),
        )
    elif meta["field"] == "GF":
        # each central factor is the preimage of one block plus Ann(R)
        dims = [c.get("dim") for c in rep.get("central_product", [])]
        pr.expect("central_product dims", dims, [2 + k + 1] * k)
    else:
        pr.expect("note", rep.get("note"), "scalar-ring pipeline over Z carriers is outside v1")
    return pr


def _poly_of(coords, meta):
    """The polynomial (monomial coefficients) of a new-basis element."""
    return [meta["ring"].norm(c) for c in unlabel_vector(coords, meta["perm"], meta["signs"])]


def _mulmod(a, b, meta, ring):
    return pmod(pmul(a, b, ring), meta["f"], ring)


def check_algebra(stdout, meta):
    """analyze on F[t]/(f) with the fixed factorisation of f."""
    pr = Problems()
    rep = json.loads(stdout)
    ring, names, f = meta["ring"], meta["names"], meta["f"]
    d = len(f) - 1
    p = ring.p
    pr.expect("kind", rep.get("kind"), "commutative-algebra")
    pr.expect("dim", rep.get("dim"), d)
    factors = meta["factors"]
    # the radical is the ideal generated by the product of the distinct p's
    if meta.get("extension"):
        pr.expect("radical dim", len(rep.get("radical", [])), meta["radical_dim"])
    else:
        rad = [1]
        for q, _ in factors:
            rad = pmul(rad, q, ring)
        want = [
            relabel_vector(pmod(pmul(rad, [0] * j + [1], ring), f, ring), meta["perm"], meta["signs"])
            for j in range(d)
        ]
        rows = _rows(rep, "radical", names, p)
        if not same_span(rows, want, p) or len(rows) != rank(want, p):
            pr.append(f"radical: {rep.get('radical')} is not rad(f) * F[t]/(f)")
    entries = rep.get("local_factors", [])
    shapes = sorted(
        (
            e.get("dim"),
            e.get("nilpotency_index"),
            e.get("field_of_representatives", {}).get("degree"),
        )
        for e in entries
    )
    pr.expect("local factor shapes", shapes, meta["local"])
    for i, e in enumerate(entries):
        index = e.get("nilpotency_index")
        pr.expect(f"local_factors[{i}].j_layers", e.get("j_layers"), [1] * (index or 0))
        pr.expect(f"local_factors[{i}].r_k", e.get("r_k"), index)
        pr.expect(
            f"local_factors[{i}].lifted_root_satisfies_minpoly",
            e.get("field_of_representatives", {}).get("lifted_root_satisfies_minpoly"),
            True,
        )
    pr.expect("r_k_total", rep.get("r_k_total"), sum(index for _, index, _ in meta["local"]))
    if meta.get("extension"):
        return pr
    idem = [_poly_of(parse_element(e["idempotent"], names, p), meta) for e in entries]
    one = [ring.norm(1)] + [ring.norm(0)] * (d - 1)
    zero = [ring.norm(0)] * d
    total = zero
    for i, a in enumerate(idem):
        total = [ring.norm(x + y) for x, y in zip(total, a)]
        for j, b in enumerate(idem):
            want = a if i == j else zero
            if _mulmod(a, b, meta, ring) != want:
                pr.append(f"idempotents {i}, {j} are not orthogonal idempotents")
        # e_i lives on exactly one primary part: p^e e_i = 0 for one factor
        killers = [
            n
            for n, (q, e) in enumerate(factors)
            if _mulmod(pmod(ppow(q, e, ring), f, ring), a, meta, ring) == zero
        ]
        if len(killers) != 1:
            pr.append(f"idempotent {i} is not supported on one primary factor")
        else:
            q, e = factors[killers[0]]
            pr.expect(f"local_factors[{i}] dim", entries[i].get("dim"), e * (len(q) - 1))
    if total != one:
        pr.append("idempotents do not sum to 1")
    return pr


def check_mult_map(stdout, meta):
    """analyze on the multiplication map of F[t]/(f) as a bilinear document."""
    pr = Problems()
    rep = json.loads(stdout)
    d = len(meta["f"]) - 1
    _check_full_map(rep, meta, d, d, pr)
    w = rep.get("width", "")
    m = re.fullmatch(r"width (\d+) \(exact\)|width <= (\d+)", w)
    if not m or (m.group(1) and m.group(1) != "1") or (m.group(2) and not 1 <= int(m.group(2)) <= d):
        pr.append(f"width: {w!r} contradicts width 1 (every a = a * 1)")
    scalar = rep.get("largest_scalar_ring", {})
    pr.expect(
        "largest_scalar_ring",
        scalar,
        {"dim": d, "bilinear_certified": True, "local_factors": len(meta["factors"])},
    )
    comps = sorted(
        (
            c.get("dim_m"),
            c.get("dim_n"),
            c.get("scalar_dim"),
            c.get("nilpotency_index"),
            residue_degree(c.get("residue_field", ""), meta["base"]),
        )
        for c in rep.get("components", [])
    )
    want = sorted((e * (len(q) - 1),) * 3 + (e, len(q) - 1) for q, e in meta["factors"])
    pr.expect("components", comps, want)
    return pr


def check_outer(stdout, meta):
    """analyze on the outer-product map F^a + F^b -> F^(ab)."""
    pr = Problems()
    rep = json.loads(stdout)
    _check_full_map(rep, meta, meta["dim"], meta["image"], pr)
    pr.expect("width", rep.get("width"), f"width {meta['width']} (exact)")
    pr.expect(
        "largest_scalar_ring",
        rep.get("largest_scalar_ring"),
        {"dim": 1, "bilinear_certified": True, "local_factors": 1},
    )
    comps = [
        (c.get("dim_m"), c.get("dim_n"), c.get("scalar_dim"), c.get("nilpotency_index"))
        for c in rep.get("components", [])
    ]
    pr.expect("components", comps, [(meta["dim"], meta["image"], 1, 1)])
    return pr


def _check_full_map(rep, meta, dim_m, dim_n, pr):
    pr.expect("kind", rep.get("kind"), "bilinear")
    pr.expect("two_sided_kernel", rep.get("two_sided_kernel"), [])
    image = _rows(rep, "image", meta["codomain_names"], meta["p"])
    if rank(image, meta["p"]) != dim_n or len(image) != dim_n:
        pr.append(f"image: {rep.get('image')} is not the whole codomain")
    for key, want in (
        ("is_full", True),
        ("is_nondegenerate", True),
        ("is_identically_degenerate", False),
        ("reassembly_exact", True),
    ):
        pr.expect(key, rep.get(key), want)
    pr.expect(
        "foundation",
        rep.get("foundation"),
        {"dim": dim_m, "codomain_dim": dim_n, "reassembly_exact": True},
    )
    pr.expect("addition", rep.get("addition"), {"dim": 0})


def check_malcev(stdout, meta):
    """malcev mul / pow / comm against the matrix group."""
    pr = Problems()
    out = json.loads(stdout)
    group, op = meta["group"], meta["op"]
    x, y = meta["x"], meta.get("y")
    pr.expect("operation", out.get("operation"), op)
    result = parse_tuple(out["result"])
    if op == "mul":
        pr.expect("mul", result, group.mul(x, y))
    elif op == "pow":
        if len(result) != len(x) or not group.is_power(result, x, meta["exponent"]):
            pr.append(f"pow: exp(result)^q != exp(x)^p for {meta['exponent']}")
    else:
        pr.expect("comm", result, group.comm(x, y))
        bracket = group.bracket(x, y)
        pr.expect("bracket", parse_tuple(out["bracket"]), bracket)
        pr.expect(
            "identity_iff_bracket_zero", out.get("identity_iff_bracket_zero"), True
        )
        if meta["cls"] <= 2:
            pr.expect("class2_exact", out.get("class2_exact"), True)
        elif "class2_exact" in out:
            pr.append("class2_exact reported above class 2")
    return pr


def check_selftest(stdout, meta):
    pr = Problems()
    if "status: pass" not in stdout.splitlines():
        pr.append("selftest did not report 'status: pass'")
    return pr
