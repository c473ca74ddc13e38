"""The four workloads: which commands each runs, on which seeded inputs.

A workload is an ordered list of ringlab commands (``Op``); one round runs
each once, in its own process.  ``top`` names the commands on the largest input of
each family that the workload grows, whose summed time is reported as
``top_rung_ref``.  Rung
sizes keep a round near 5 s on a 2-core machine, so that a run measures
several rounds and each command's fastest round can be taken.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field

import checks
import families as F

# ringlab's BCH cap; `--max-class 8` on a class-7 algebra should lift it.
KNOWN_FAULT = "exceeds the BCH cap 6"


@dataclass
class Op:
    name: str
    args: list
    check: object
    meta: dict = field(default_factory=dict)
    # stderr text of a failure that is expected on every run (a known fault)
    fault: str | None = None


@dataclass
class Workload:
    ops: list
    top: tuple


class Writer:
    """Writes each generated document once, under the run's directory."""

    def __init__(self, root):
        self.root = root
        os.makedirs(root, exist_ok=True)

    def __call__(self, doc):
        path = os.path.join(self.root, doc.name + ".json")
        with open(path, "w", encoding="utf-8") as out:
            json.dump(doc.document, out, indent=1)
        return path


def _analyze(path, doc, check, *extra, **meta):
    return Op(
        f"analyze {doc.name}",
        ["analyze", path, "--format", "json", *extra],
        check,
        dict(doc.meta, **meta),
    )


def _shapes(factors):
    """(dim, nilpotency index, residue degree) of each primary part p^e."""
    return sorted((e * (len(p) - 1), e, len(p) - 1) for p, e in factors)


def _algebra_meta(doc, ring):
    names = doc.document["basis"]
    return dict(
        ring=ring,
        names=names,
        codomain_names=names,
        local=_shapes(doc.meta["factors"]),
        base="Q" if ring is F.Q else f"GF({ring.p})",
    )


def lie_q(rng, write):
    """analyze on H3^k + Q (k = 1, 2) and filiform L_n (n = 4..6) over Q."""
    docs = [F.heisenberg_doc(rng, k) for k in (1, 2)]
    docs += [F.filiform_doc(rng, n) for n in (4, 5, 6)]
    ops = [_analyze(write(d), d, checks.check_lie) for d in docs]
    return Workload(ops, ("analyze h3x2+q", "analyze L6"))


def malcev_q(rng, write):
    """Single malcev mul / comm / pow on H3^3 + Q and L_7, plus mul and comm
    on the class-7 L_8 with --max-class 8."""
    ops = []
    docs = [F.heisenberg_doc(rng, 3), F.filiform_doc(rng, 7)]
    l8 = F.filiform_doc(rng, 8)
    for doc in docs + [l8]:
        path = write(doc)
        n = len(doc.document["basis"])
        group = checks.MatrixGroup(doc.meta["rep"])
        x, y = F.group_element(rng, n), F.group_element(rng, n)
        exponent = rng.choice(("2", "3", "1/2", "3/2", "2/3"))
        base = dict(group=group, x=x, y=y, cls=doc.meta["cls"])
        extra = ["--max-class", "8"] if doc is l8 else []
        fault = KNOWN_FAULT if doc is l8 else None
        variants = [("mul", [F.element_text(y)]), ("comm", [F.element_text(y)])]
        if doc is not l8:
            variants.append(("pow", [exponent]))
        for op, rest in variants:
            ops.append(
                Op(
                    f"malcev {op} {doc.name}",
                    ["malcev", op, path, F.element_text(x), *rest, "--format", "json", *extra],
                    checks.check_malcev,
                    dict(base, op=op, exponent=exponent),
                    fault,
                )
            )
    # all three commands on H3^3 + Q: more measured work than one of them
    top = tuple(f"malcev {op} h3x3+q" for op in ("mul", "comm", "pow"))
    return Workload(ops, top)


def ring_q(rng, write):
    """R_3 over Q; Q[t]/(f) of degree 6; the degree-4 multiplication map as
    a bilinear document; one --extension re-read."""
    ops = []
    d = F.ring_doc(rng, 3, F.Q, "Q")
    ops.append(_analyze(write(d), d, checks.check_ring))
    for deg, factors in F.Q_ALGEBRAS.items():
        d = F.algebra_doc(rng, f"q-alg{deg}", factors, F.Q)
        ops.append(_analyze(write(d), d, checks.check_algebra, **_algebra_meta(d, F.Q)))
    d = F.algebra_doc(rng, "q-mul4", F.Q_MULT_MAP, F.Q, kind="bilinear")
    ops.append(_analyze(write(d), d, checks.check_mult_map, **_algebra_meta(d, F.Q)))
    d = F.algebra_doc(rng, "q-ext", F.EXTENSION_FACTORS, F.Q)
    meta = dict(_algebra_meta(d, F.Q), extension=True, local=F.EXTENSION_LOCAL, radical_dim=2)
    ops.append(
        _analyze(write(d), d, checks.check_algebra, f"--extension={F.EXTENSION_MINPOLY}", **meta)
    )
    return Workload(ops, ("analyze R3-q",))


def finite_z(rng, write):
    """The same shapes over GF(7), GF(3) maps for the width enumeration,
    R_3 over Z, and selftest quick."""
    gf7 = F.GF(7)
    ops = []
    d = F.ring_doc(rng, 3, gf7, "GF")
    ops.append(_analyze(write(d), d, checks.check_ring))
    for deg, factors in F.GF7_ALGEBRAS.items():
        d = F.algebra_doc(rng, f"gf7-alg{deg}", factors, gf7)
        ops.append(_analyze(write(d), d, checks.check_algebra, **_algebra_meta(d, gf7)))
    d = F.algebra_doc(rng, "gf7-mul7", F.GF7_MULT_MAP, gf7, kind="bilinear")
    ops.append(_analyze(write(d), d, checks.check_mult_map, **_algebra_meta(d, gf7)))
    for a, b, p in ((2, 3, 3), (3, 3, 3)):
        d = F.outer_product_doc(rng, a, b, p)
        ops.append(
            _analyze(write(d), d, checks.check_outer, p=p, codomain_names=d.document["codomain"]["basis"])
        )
    d = F.ring_doc(rng, 3, F.Z, "Z")
    ops.append(_analyze(write(d), d, checks.check_ring))
    ops.append(Op("selftest quick", ["selftest", "quick"], checks.check_selftest))
    return Workload(ops, ("analyze gf7-mul7", "analyze outer3x3-gf3"))


WORKLOADS = {
    "lie-q": lie_q,
    "malcev-q": malcev_q,
    "ring-q": ring_q,
    "finite-z": finite_z,
}


def build(name, seed, root):
    """The workload's ops on inputs generated from seed, written under root."""
    rng = random.Random(f"{name}:{seed}")
    return WORKLOADS[name](rng, Writer(root))
