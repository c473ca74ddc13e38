"""Acceptance criteria, one test per criterion.

All arithmetic checks are exact (zero tolerance); the stated runtime caps
are asserted on wall-clock time.  Each criterion prints one line:

    pytest tests/test_acceptance.py -v -s
"""

import json
import random
import time
from fractions import Fraction

import pytest

from ringlab.artinian import (
    field_of_representatives,
    j_series,
    local_decomposition,
)
from ringlab.bilinear import BilinearMap, field_carrier
from ringlab.domains import PrimeField, QQ
from ringlab.errors import NoSplit
from ringlab.lie import (
    GroupElement,
    bch,
    central_series_and_center,
    group_commutator,
    group_decompose,
    group_identity,
    group_inv,
    group_mul,
    group_pow,
    verify_nilpotent_lie,
)
from ringlab.rings import (
    annihilator,
    decompose_char0,
    delta_ideal,
    foundation_addition,
)
from ringlab.scalars import p_of_f, z_n_chain
from ringlab.selftest import generate_enumeration_instances, run_selftest

from test_artinian import (
    GF2_X2_PLUS_1,
    Q_T2_MINUS_2_SQ,
    Q_X2_MINUS_1,
    Q_X2_MINUS_X,
    Q_X3,
)
from test_lie import free_nilpotent_c3, h3, h3_matrix_bch, rand_elem, rand_frac
from test_rings import paper_example_ring, qring


def report(number, text):
    print(f"PASS criterion {number}: {text}")


def qmap(dim_m, dim_n, entries):
    tensor = [
        [
            tuple(Fraction(c) for c in entries.get((i, j), (0,) * dim_n))
            for j in range(dim_m)
        ]
        for i in range(dim_m)
    ]
    return BilinearMap(field_carrier(QQ, dim_m), field_carrier(QQ, dim_n), tuple(tensor))


def gfmap(p, dim_m, dim_n, entries):
    gf = PrimeField(p)
    tensor = [
        [tuple(entries.get((i, j), (0,) * dim_n)) for j in range(dim_m)]
        for i in range(dim_m)
    ]
    return BilinearMap(field_carrier(gf, dim_m), field_carrier(gf, dim_n), tuple(tensor))


def check_p_bilinearity(f):
    """Independent re-check of f(Ax, y) = f(x, Ay) = A f(x, y)."""
    rep = p_of_f(f)
    d = f.m.domain
    n = f.m.dim
    basis = [
        tuple(d.one() if k == i else d.zero() for k in range(n)) for i in range(n)
    ]
    from ringlab.scalars import _apply_action_in_n

    for idx, a in enumerate(rep.algebra.basis):
        for x in basis:
            ax = a.apply(x)
            for y in basis:
                ay = a.apply(y)
                left = f.evaluate(ax, y)
                right = f.evaluate(x, ay)
                scaled = _apply_action_in_n(rep, idx, f.evaluate(x, y), d, f.n.dim)
                assert left == right == scaled
    return rep


def test_criterion_1_p_bilinearity_certificate():
    start = time.monotonic()
    fixtures = [
        qmap(2, 1, {(0, 1): (1,), (1, 0): (-1,)}),
        qmap(4, 2, {(0, 1): (1, 0), (1, 0): (-1, 0), (2, 3): (0, 1), (3, 2): (0, -1)}),
        gfmap(2, 1, 1, {(0, 0): (1,)}),
        gfmap(2, 2, 2, {(0, 0): (1, 0), (1, 1): (0, 1)}),
        gfmap(2, 3, 1, {(0, 1): (1,), (1, 0): (1,), (2, 2): (1,)}),
        gfmap(3, 2, 1, {(0, 1): (1,), (1, 0): (2,)}),
        gfmap(3, 3, 3, {(0, 0): (1, 0, 0), (1, 1): (0, 1, 0), (2, 2): (0, 0, 1)}),
    ]
    count = 0
    for f in fixtures:
        rep = check_p_bilinearity(f)
        assert rep.bilinear_certified
        count += len(rep.algebra.basis)
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    report(1, f"P(f)-bilinearity exact on {len(fixtures)} fixtures "
              f"({count} basis endomorphisms) in {elapsed:.2f}s < 5s")


def test_criterion_2_brute_force_oracle_equivalence():
    start = time.monotonic()
    instances = generate_enumeration_instances(full=True)
    assert len(instances) >= 20
    agree = 0
    for f in instances:
        assert isinstance(f.m.domain, PrimeField) and f.m.domain.p in (2, 3)
        assert f.m.dim <= 3
        chain, stabilized = z_n_chain(f, 5)
        assert stabilized is not None, "chain must stabilize"
        rep = p_of_f(f)
        assert chain[-1].equal(rep.algebra)
        agree += 1
    elapsed = time.monotonic() - start
    assert agree == len(instances)
    assert elapsed < 60.0
    report(2, f"p_of_f = enumerated Z_n chain at first stabilization on "
              f"{agree}/{len(instances)} GF(2)/GF(3) instances in {elapsed:.2f}s < 60s")


def test_criterion_3_cherlin_reineke_analog():
    cases = [
        (Q_X2_MINUS_X, [1, 1], [1, 1]),
        (Q_X2_MINUS_1, [1, 1], [1, 1]),
        (Q_X3, [3], [3]),
        (GF2_X2_PLUS_1, [2], [2]),
    ]
    for algebra, expected_indices, expected_rk in cases:
        factors = local_decomposition(algebra)
        d = algebra.base
        total = (d.zero(),) * algebra.dim
        for lf in factors:
            assert algebra.mult(lf.idempotent, lf.idempotent) == lf.idempotent
            total = tuple(d.add(a, b) for a, b in zip(total, lf.idempotent))
        assert total == algebra.unit
        for i, a in enumerate(factors):
            for j, b in enumerate(factors):
                if i != j:
                    assert algebra.is_zero_elem(
                        algebra.mult(a.idempotent, b.idempotent)
                    )
        indices = sorted(lf.nilpotency_index for lf in factors)
        assert indices == sorted(expected_indices)
        rks = sorted(j_series(lf).r_k for lf in factors)
        assert rks == sorted(expected_rk)
    report(3, "local decompositions of Q[x]/(x^2-x), Q[x]/(x^2-1), Q[x]/(x^3), "
              "GF(2)[x]/(x^2+1) give indices 1,1,3,2 and r_k 1+1, 1+1, 3, 2")


def test_criterion_4_field_of_representatives():
    lf = local_decomposition(Q_T2_MINUS_2_SQ)[0]
    rep = field_of_representatives(lf)
    block = lf.algebra
    s = rep.lifted_root
    two = tuple(QQ.mul(QQ.from_int(2), c) for c in block.unit)
    assert block.mult(s, s) == two  # s^2 = 2 exactly
    # the projection restricted to L is a field isomorphism
    residue = lf.residue_domain()
    images = [tuple(lf.projection.apply(v)) for v in rep.basis]
    from ringlab.bilinear import canonical_span_rows

    assert len(canonical_span_rows(QQ, images, lf.residue_degree)) == lf.residue_degree
    for x in rep.basis:
        for y in rep.basis:
            px = tuple(lf.projection.apply(x))
            py = tuple(lf.projection.apply(y))
            pxy = tuple(lf.projection.apply(block.mult(x, y)))
            assert pxy == residue.mul(px, py)
    report(4, "Hensel-lifted s satisfies s^2 = 2 exactly and L maps "
              "isomorphically (bijectively, multiplicatively) onto Q(sqrt 2)")


def test_criterion_5_char0_ring_pipeline():
    dim = 7
    entries = {
        (0, 1): tuple(1 if t == 2 else 0 for t in range(dim)),
        (1, 0): tuple(-1 if t == 2 else 0 for t in range(dim)),
        (3, 4): tuple(1 if t == 5 else 0 for t in range(dim)),
        (4, 3): tuple(-1 if t == 5 else 0 for t in range(dim)),
    }
    r = qring(dim, entries)  # h3 + h3 + Q(zero)
    deco = decompose_char0(r)
    assert len(deco.components) == 2
    for comp in deco.components:
        assert comp.local.algebra.dim == 1        # A(R_i) local of dim 1
        assert comp.residue_degree == 1           # over Q
        assert len(local_decomposition(comp.local.algebra)) == 1
    assert len(deco.addition_rows) == 1           # 1-dim zero-multiplication addition
    # reassembly reproduces the input tensor byte-exactly
    d = r.carrier.domain
    from ringlab.bilinear import coords_in_rows

    change = list(deco.change_rows)
    basis = [
        tuple(d.one() if k == i else d.zero() for k in range(dim)) for i in range(dim)
    ]
    rebuilt = []
    for x in basis:
        xc = coords_in_rows(d, change, x)
        row = []
        for y in basis:
            yc = coords_in_rows(d, change, y)
            total = [d.zero()] * dim
            off = 0
            for comp in deco.components:
                size = len(comp.rows)
                value = comp.ring.mult(xc[off:off + size], yc[off:off + size])
                for c, base_row in zip(value, comp.rows):
                    for t in range(dim):
                        total[t] = d.add(total[t], d.mul(c, base_row[t]))
                off += size
            row.append(tuple(total))
        rebuilt.append(tuple(row))
    original_bytes = json.dumps(
        [[[str(c) for c in cell] for cell in row] for row in r.tensor]
    ).encode()
    rebuilt_bytes = json.dumps(
        [[[str(c) for c in cell] for cell in row] for row in rebuilt]
    ).encode()
    assert original_bytes == rebuilt_bytes
    report(5, "decompose_char0(h3 + h3 + Q_zero): two indecomposable components "
              "with A(R_i) local of dim 1 over Q, a 1-dim addition, and "
              "byte-exact reassembly")


def test_criterion_6_paper_example_fixture():
    start = time.monotonic()
    r = paper_example_ring()
    assert annihilator(r) == [(0, 0, 1)]          # <u>
    assert delta_ideal(r) == [(0, 0, 2)]          # R^2 n Ann = <2u>
    with pytest.raises(NoSplit) as exc:
        foundation_addition(r)
    assert exc.value.which == "addition"
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    report(6, f"integral example: Ann = <u>, R^2 n Ann = <2u>, NoSplit "
              f"in {elapsed:.3f}s < 1s")


def test_criterion_7_bch_malcev():
    l2 = h3()
    rng = random.Random(777)
    for _ in range(200):
        u = rand_elem(rng, 3)
        v = rand_elem(rng, 3)
        assert bch(l2, u, v) == h3_matrix_bch(u, v)
    for algebra in (l2, free_nilpotent_c3()):
        e = group_identity(algebra)
        for _ in range(100):
            g = GroupElement(algebra, rand_elem(rng, algebra.dim))
            h = GroupElement(algebra, rand_elem(rng, algebra.dim))
            k = GroupElement(algebra, rand_elem(rng, algebra.dim))
            assert group_mul(group_mul(g, h), k).log == group_mul(g, group_mul(h, k)).log
            assert group_mul(g, group_inv(g)).log == e.log
            a = rand_frac(rng)
            b = rand_frac(rng)
            assert group_mul(group_pow(g, a), group_pow(g, b)).log == group_pow(g, a + b).log
            assert group_pow(group_pow(g, a), b).log == group_pow(g, a * b).log
    # class-2 commutator identity
    for _ in range(50):
        g = GroupElement(l2, rand_elem(rng, 3))
        h = GroupElement(l2, rand_elem(rng, 3))
        rep = group_commutator(g, h)
        assert rep.commutator.log == tuple(l2.bracket(g.log, h.log))
    report(7, "BCH = 3x3 unitriangular oracle on 200 pairs; group axioms and "
              "power laws exact on 100 random triples at classes 2 and 3; "
              "class-2 commutator = exp((x,y)) exact")


def test_criterion_8_correspondence():
    for algebra, expected_center_dim in ((h3(), 1), (free_nilpotent_c3(), 2)):
        rep = central_series_and_center(algebra)
        ann = annihilator(algebra.ring)
        assert list(rep.center_rows) == ann      # exp(Ann L) = Z(G)
        assert len(rep.center_rows) == expected_center_dim
        assert rep.centre_certified
        assert rep.series_group_closed           # bch of L^i stays in L^i
        assert rep.series_commutator_drop        # [exp L^i, exp L] in exp(L^{i+1})
    report(8, "exp(Ann L) = Z(G) and the G^i = exp(L^i) consistency checks "
              "pass exactly for h3 and the free class-3 rank-2 algebra")


def test_criterion_9_group_pipeline():
    entries = {(0, 1): (0, 0, 1, 0), (1, 0): (0, 0, -1, 0)}
    l = verify_nilpotent_lie(qring(4, entries))  # h3 + Q
    deco = group_decompose(l)
    assert len(deco.factors) == 1
    assert not deco.factors[0].abelian           # one non-abelian Q-group factor
    assert deco.factors[0].residue_degree == 1
    assert len(deco.abelian_factor_rows) == 1    # one divisible abelian factor
    assert deco.cross_commutators_trivial        # all cross-commutators identity
    report(9, "group_decompose(h3 + Q): one non-abelian Q-group factor, one "
              "divisible abelian factor, cross-commutators exactly trivial")


def test_criterion_10_determinism():
    start = time.monotonic()
    first = run_selftest("quick")
    second = run_selftest("quick")
    from ringlab.cli import render_json

    assert render_json(first).encode() == render_json(second).encode()
    assert first["status"] == "pass"
    elapsed = time.monotonic() - start
    assert elapsed < 120.0
    report(10, f"selftest quick twice: byte-identical reports, status pass, "
               f"{elapsed:.2f}s < 120s")
