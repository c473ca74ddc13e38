"""Tests of the benchmark's own oracles, generators and bookkeeping.

    python -m pytest ringbench -q

None of these import ringlab: they check that the independent side of the
benchmark is right on small cases worked by hand.
"""

from __future__ import annotations

import json
import os
import random
from fractions import Fraction

import checks
import families as F
import run
import workloads

HALF = Fraction(1, 2)


def bracket(tensor, x, y):
    n = len(tensor)
    out = [0] * len(tensor[0][0])
    for i in range(n):
        for j in range(n):
            if x[i] and y[j]:
                for k, c in enumerate(tensor[i][j]):
                    out[k] += x[i] * y[j] * c
    return out


def unit(n, i):
    return F.unit_vector(n, i)


# -- matrix representations -------------------------------------------------------


def test_representations_are_lie_homomorphisms_after_relabelling():
    for doc in (F.heisenberg_doc(random.Random(1), 2), F.filiform_doc(random.Random(2), 5)):
        table = [[[Fraction(c) for c in cell] for cell in row] for row in doc.document["table"]]
        group = checks.MatrixGroup(doc.meta["rep"])
        n = len(table)
        for i in range(n):
            for j in range(n):
                assert group.bracket(unit(n, i), unit(n, j)) == bracket(table, unit(n, i), unit(n, j))


def test_bch_at_class_2_is_x_plus_y_plus_half_bracket():
    group = checks.MatrixGroup(F.heisenberg_rep(1))
    x = [Fraction(2), Fraction(-3, 4), Fraction(5), Fraction(1)]
    y = [Fraction(1, 3), Fraction(7), Fraction(0), Fraction(-2)]
    br = bracket(F.heisenberg_sum(1), x, y)
    assert group.mul(x, y) == [a + b + HALF * c for a, b, c in zip(x, y, br)]
    # at class 2 the group commutator is exp of the bracket
    assert group.comm(x, y) == br


def test_bch_at_class_3_has_the_twelfth_terms():
    t = F.filiform(4)
    group = checks.MatrixGroup(F.filiform_rep(4))
    x = [Fraction(1), Fraction(2), Fraction(0), Fraction(-1)]
    y = [Fraction(-2), Fraction(1, 3), Fraction(5), Fraction(0)]
    xy = bracket(t, x, y)
    want = [
        a + b + HALF * c + Fraction(1, 12) * (d + e)
        for a, b, c, d, e in zip(x, y, xy, bracket(t, x, xy), bracket(t, y, [-v for v in xy]))
    ]
    assert group.mul(x, y) == want


def test_power_oracle():
    group = checks.MatrixGroup(F.filiform_rep(5))
    x = [Fraction(1, 2), Fraction(3), Fraction(-1), Fraction(2, 7), Fraction(1)]
    assert group.is_power([3 * c for c in x], x, "3")
    assert group.is_power([c / 2 for c in x], x, "1/2")
    assert not group.is_power(x, x, "2")


# -- parsing and spans -------------------------------------------------------------------


def test_parse_element_reads_ringlab_element_text():
    names = ["a0", "a1", "a2"]
    assert checks.parse_element("a0 + -3/4*a2", names) == [1, 0, Fraction(-3, 4)]
    assert checks.parse_element("-a1 + 5*a2", names, 7) == [0, 6, 5]
    assert checks.parse_element("0", names) == [0, 0, 0]


def test_rank_and_span():
    assert checks.rank([[1, 2], [2, 4]]) == 1
    assert checks.rank([[1, 2], [2, 4]], 3) == 1
    assert checks.rank([[1, 1], [1, 2]], 7) == 2
    assert checks.same_span([[1, 1], [0, 1]], [[1, 0], [0, 3]])
    assert not checks.same_span([[1, 1]], [[1, 0]])


def test_residue_degree():
    assert checks.residue_degree("Q", "Q") == 1
    assert checks.residue_degree("GF(7)[t]/(1 + 3*t + t^2)", "GF(7)") == 2


# -- families ------------------------------------------------------------------------------


def test_relabelled_tensor_gives_the_same_products():
    rng = random.Random(5)
    tensor = F.ring_family(2, F.Q)
    perm, signs = F.signed_permutation(rng, 7)
    new = F.relabel_tensor(tensor, perm, signs)
    x = [rng.randint(-3, 3) for _ in range(7)]
    y = [rng.randint(-3, 3) for _ in range(7)]
    old_product = bracket(tensor, F.unlabel_vector(x, perm, signs), F.unlabel_vector(y, perm, signs))
    assert F.relabel_vector(old_product, perm, signs) == bracket(new, x, y)


def test_fixed_factors_are_irreducible():
    for factors, p in [(f, 7) for f in F.GF7_ALGEBRAS.values()] + [(F.GF7_MULT_MAP, 7)]:
        assert len({tuple(q) for q, _ in factors}) == len(factors)
        for q, _ in factors:
            assert len(q) - 1 <= 3 and q[-1] == 1
            if len(q) > 2:  # degree 2 or 3: irreducible iff no root
                assert all(sum(c * r**i for i, c in enumerate(q)) % p for r in range(p))
    for factors in list(F.Q_ALGEBRAS.values()) + [F.Q_MULT_MAP, F.EXTENSION_FACTORS]:
        for q, _ in factors:
            assert q[-1] == 1
            if len(q) == 3:  # monic quadratic: no rational root iff disc is no square
                disc = q[1] ** 2 - 4 * q[0]
                assert disc < 0 or int(disc**0.5) ** 2 != disc


def test_truncated_polynomial_arithmetic():
    f = F.product_of([([-1, 1], 1), ([1, 1], 1)], F.Q)  # t^2 - 1
    assert f == [-1, 0, 1]
    assert F.pmod([0, 0, 1], f, F.Q) == [1, 0]  # t^2 = 1
    e = [HALF, HALF]  # (1 + t) / 2
    assert F.pmod(F.pmul(e, e, F.Q), f, F.Q) == e


def test_outer_product_image_is_all_matrices():
    doc = F.outer_product_doc(random.Random(3), 2, 3, 3)
    entries = [cell for row in doc.document["table"] for cell in row]
    assert checks.rank(entries, 3) == 6


# -- report checks catch wrong reports ----------------------------------------------------


def _algebra_case():
    doc = F.algebra_doc(random.Random(0), "q", [([-1, 1], 1), ([1, 1], 1)], F.Q)
    meta = dict(doc.meta, ring=F.Q, names=doc.document["basis"], local=[(1, 1, 1), (1, 1, 1)])
    perm, signs = doc.meta["perm"], doc.meta["signs"]

    def element(poly):
        coords = F.relabel_vector(poly, perm, signs)
        return " + ".join(f"{c}*{n}" for c, n in zip(coords, meta["names"]) if c)

    def entry(poly):
        return {
            "idempotent": element(poly),
            "dim": 1,
            "nilpotency_index": 1,
            "j_layers": [1],
            "r_k": 1,
            "field_of_representatives": {"degree": 1, "lifted_root_satisfies_minpoly": True},
        }

    report = {
        "kind": "commutative-algebra",
        "dim": 2,
        "radical": [],
        "local_factors": [entry([HALF, HALF]), entry([HALF, -HALF])],
        "r_k_total": 2,
    }
    return report, meta, entry


def test_algebra_check_accepts_the_right_idempotents_and_rejects_others():
    report, meta, entry = _algebra_case()
    assert checks.check_algebra(json.dumps(report), meta) == []
    report["local_factors"][1] = entry([HALF, HALF])
    assert checks.check_algebra(json.dumps(report), meta)


def test_malcev_check_rejects_a_wrong_product():
    doc = F.heisenberg_doc(random.Random(4), 1)
    group = checks.MatrixGroup(doc.meta["rep"])
    x, y = [Fraction(1), Fraction(2), Fraction(3), Fraction(4)], [Fraction(-1)] * 4
    meta = dict(group=group, op="mul", x=x, y=y, cls=2)
    right = {"operation": "mul", "result": F.element_text(group.mul(x, y))}
    wrong = {"operation": "mul", "result": F.element_text([a + b for a, b in zip(x, y)])}
    assert checks.check_malcev(json.dumps(right), meta) == []
    assert checks.check_malcev(json.dumps(wrong), meta)


# -- bookkeeping -----------------------------------------------------------------------------


def test_span_metrics_self_and_outermost_totals(tmp_path):
    path = tmp_path / "spans.jsonl"
    spans = [
        ["a", 0.0, 10.0, -1],
        ["b", 1.0, 4.0, 0],
        ["a", 5.0, 7.0, 0],  # nested span of the same name
        ["b", 5.5, 6.0, 2],
    ]
    path.write_text("\n".join(json.dumps(s) for s in spans) + '\n{"counts": {"c": 3}}\n')
    acc = {}
    run.span_metrics(str(path), acc)
    assert acc["a.calls"] == 2 and acc["b.calls"] == 2
    assert acc["a.total_s"] == 10.0  # the nested "a" is inside the outer one
    assert acc["a.self_s"] == (10.0 - 3.0 - 2.0) + (2.0 - 0.5)
    assert acc["b.total_s"] == 3.5
    assert acc["c"] == 3


def test_benchmark_json_lists_what_run_reports():
    with open(os.path.join(os.path.dirname(__file__), "..", "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [m["name"] for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert all(m["unit"] == run.unit_of(m["name"]) for m in spec["per_layer"])
