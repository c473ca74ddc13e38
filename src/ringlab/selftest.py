"""Brute-force oracle suites behind the `selftest` command.

Every suite is seeded and deterministic: two runs of the same level
produce byte-identical reports.  Failures become report content, not
exceptions, so a broken build still prints a diagnosis.
"""

from __future__ import annotations

import random
from fractions import Fraction
from importlib import resources

from . import documents, reports
from .bilinear import BilinearMap, RingPresentation, field_carrier, foundation_addition_split
from .domains import PrimeField, QQ, ZZ
from .errors import NoSplit, RinglabError
from .lie import GroupElement, bch, group_mul, verify_nilpotent_lie
from .linalg import Matrix, det_int, smith_normal_form
from .scalars import p_of_f, z_n_chain

FIXTURE_NAMES = (
    "h3",
    "h3-plus-abelian",
    "paper-example-r",
    "gf2-diagonal",
    "q-x2-2-squared",
)


def fixture_text(name: str) -> str:
    return (
        resources.files("ringlab.fixtures").joinpath(f"{name}.json").read_text("utf-8")
    )


def load_fixture(name: str) -> documents.InputDocument:
    return documents.load_document(fixture_text(name))


# -- suites -------------------------------------------------------------------


def _suite_snf(count: int) -> dict:
    rng = random.Random(20240611)
    checks = 0
    failures = []
    for case in range(count):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        m = Matrix(
            ZZ, rows, cols,
            tuple(rng.randint(-9, 9) for _ in range(rows * cols)),
        )
        u, d, v = smith_normal_form(m)
        ok = u.mul(m).mul(v).eq(d)
        ok = ok and det_int(u) in (1, -1) and det_int(v) in (1, -1)
        diag = [d.get(i, i) for i in range(min(rows, cols))]
        for a, b in zip(diag, diag[1:]):
            ok = ok and a >= 0 and (b % a == 0 if a else b == 0)
        checks += 1
        if not ok:
            failures.append(f"case {case}")
    return {"checks": checks, "failures": failures}


def _random_foundation(rng, p: int, dim_m: int, dim_n: int):
    gf = PrimeField(p)
    tensor = tuple(
        tuple(
            tuple(rng.randrange(p) for _ in range(dim_n)) for _ in range(dim_m)
        )
        for _ in range(dim_m)
    )
    f = BilinearMap(field_carrier(gf, dim_m), field_carrier(gf, dim_n), tensor)
    split = foundation_addition_split(f)
    return split.foundation


def generate_enumeration_instances(full: bool):
    """Deterministic full-nondegenerate GF instances for the P(f) oracle."""
    rng = random.Random(902211)
    shapes = [(2, 2, 1), (2, 2, 2), (2, 3, 2)]
    if full:
        shapes += [(3, 2, 1), (3, 2, 2), (2, 3, 3), (3, 3, 2), (3, 3, 3)]
    out = []
    per_shape = 3 if full else 2
    for p, dim_m, dim_n in shapes:
        produced = 0
        while produced < per_shape:
            f = _random_foundation(rng, p, dim_m, dim_n)
            if f.m.dim == 0:
                continue
            out.append(f)
            produced += 1
    return out


def _suite_p_enumeration(full: bool) -> dict:
    instances = generate_enumeration_instances(full)
    checks = 0
    failures = []
    for idx, f in enumerate(instances):
        chain, stabilized = z_n_chain(f, 5)
        rep = p_of_f(f)
        checks += 1
        if stabilized is None:
            failures.append(f"instance {idx}: chain did not stabilize by n=5")
        elif not chain[-1].equal(rep.algebra):
            failures.append(f"instance {idx}: P(f) != stabilized Z_n")
    return {"instances": len(instances), "checks": checks, "failures": failures}


def _h3_algebra():
    zero = QQ.zero()
    one = QQ.one()
    tensor = [[(zero, zero, zero) for _ in range(3)] for _ in range(3)]
    tensor[0][1] = (zero, zero, one)
    tensor[1][0] = (zero, zero, -one)
    r = RingPresentation(
        field_carrier(QQ, 3), tuple(tuple(row) for row in tensor)
    )
    return verify_nilpotent_lie(r)


def _matrix_oracle(u, v):
    a1, b1, c1 = u
    a2, b2, c2 = v
    e1 = (a1, b1, c1 + a1 * b1 / 2)
    e2 = (a2, b2, c2 + a2 * b2 / 2)
    prod = (e1[0] + e2[0], e1[1] + e2[1], e1[2] + e2[2] + e1[0] * e2[1])
    return (prod[0], prod[1], prod[2] - prod[0] * prod[1] / 2)


def _suite_bch(pairs: int) -> dict:
    l = _h3_algebra()
    rng = random.Random(5150)
    checks = 0
    failures = []
    for case in range(pairs):
        u = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(3))
        v = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(3))
        checks += 1
        if bch(l, u, v) != _matrix_oracle(u, v):
            failures.append(f"pair {case}")
    # associativity spot checks
    for case in range(max(10, pairs // 10)):
        g, h, k = (
            GroupElement(l, tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(3)))
            for _ in range(3)
        )
        checks += 1
        if group_mul(group_mul(g, h), k).log != group_mul(g, group_mul(h, k)).log:
            failures.append(f"assoc {case}")
    return {"checks": checks, "failures": failures}


def _suite_fixtures() -> dict:
    checks = 0
    failures = []
    for name in FIXTURE_NAMES:
        try:
            doc = load_fixture(name)
            round_trip = documents.load_document(documents.serialize_document(doc))
            checks += 1
            if documents.serialize_document(round_trip) != documents.serialize_document(doc):
                failures.append(f"{name}: round trip changed the document")
        except OSError as exc:
            failures.append(f"{name}: missing fixture ({exc})")
            continue
        except RinglabError as exc:
            failures.append(f"{name}: {exc}")
            continue
    # pinned pipeline facts
    try:
        doc = load_fixture("paper-example-r")
        from .rings import annihilator, foundation_addition, square_ideal

        r = doc.ring()
        checks += 1
        if annihilator(r) != [(0, 0, 1)] or square_ideal(r) != [(0, 0, 2)]:
            failures.append("paper-example-r: Ann or R^2 mismatch")
        checks += 1
        try:
            foundation_addition(r)
            failures.append("paper-example-r: expected NoSplit")
        except NoSplit:
            pass
    except (OSError, RinglabError) as exc:
        failures.append(f"paper-example-r: {exc}")
    try:
        doc = load_fixture("h3")
        rep = reports.analyze(doc)
        checks += 1
        if not rep["categoricity"]["structurally_satisfied"]:
            failures.append("h3: categoricity verdict wrong")
    except (OSError, RinglabError) as exc:
        failures.append(f"h3: {exc}")
    try:
        doc = load_fixture("q-x2-2-squared")
        rep = reports.analyze(doc)
        checks += 1
        factor = rep["local_factors"][0]
        if not factor["field_of_representatives"]["lifted_root_satisfies_minpoly"]:
            failures.append("q-x2-2-squared: Hensel root fails its minimal polynomial")
        if rep["r_k_total"] != 2:
            failures.append("q-x2-2-squared: r_k mismatch")
    except (OSError, RinglabError) as exc:
        failures.append(f"q-x2-2-squared: {exc}")
    try:
        doc = load_fixture("gf2-diagonal")
        rep = reports.analyze(doc)
        checks += 1
        if len(rep.get("central_product", [])) != 2:
            failures.append("gf2-diagonal: expected two central factors")
    except (OSError, RinglabError) as exc:
        failures.append(f"gf2-diagonal: {exc}")
    return {"checks": checks, "failures": failures}


def run_selftest(level: str = "quick") -> dict:
    full = level == "full"
    suites = {
        "snf_remultiplication": _suite_snf(40 if full else 25),
        "p_of_f_enumeration": _suite_p_enumeration(full),
        "bch_matrix_oracle": _suite_bch(200 if full else 50),
        "fixtures": _suite_fixtures(),
    }
    total_checks = sum(s["checks"] for s in suites.values())
    total_failures = [
        f"{name}: {fail}" for name, s in suites.items() for fail in s["failures"]
    ]
    return {
        "level": level,
        "suites": suites,
        "total_checks": total_checks,
        "failures": total_failures,
        "status": "pass" if not total_failures else "fail",
    }
