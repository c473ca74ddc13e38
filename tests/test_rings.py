import itertools
import random
from fractions import Fraction

import pytest

from ringlab.bilinear import field_carrier, module_carrier
from ringlab.domains import Extension, PrimeField, QQ
from ringlab.errors import (
    ExtensionNotOverK0,
    InvariantViolation,
    NoSplit,
    ValidationError,
)
from ringlab.modules import ModuleDesc, cyclic, free_line, rational_line
from ringlab.rings import (
    RingPresentation,
    annihilator,
    categoricity_check,
    central_split_mixed,
    centroid,
    component_enrichment,
    decompose_bounded,
    decompose_char0,
    delta_ideal,
    foundation_addition,
    is_regular,
    model_construct,
    parse_word,
    square_ideal,
    verbal_ideal,
    verify_enrichment,
    verify_ring_reassembly,
)


def qring(dim, entries):
    tensor = [
        [
            tuple(Fraction(c) for c in entries.get((i, j), (0,) * dim))
            for j in range(dim)
        ]
        for i in range(dim)
    ]
    return RingPresentation(field_carrier(QQ, dim), tuple(tensor))


def gfring(p, dim, entries):
    tensor = [
        [tuple(entries.get((i, j), (0,) * dim)) for j in range(dim)]
        for i in range(dim)
    ]
    return RingPresentation(field_carrier(PrimeField(p), dim), tuple(tensor))


def heisenberg():
    """h3 over Q: (x, y) = z."""
    return qring(3, {(0, 1): (0, 0, 1), (1, 0): (0, 0, -1)})


def heisenberg_sum(extra_abelian=0):
    """h3 + h3 (+ abelian lines)."""
    dim = 6 + extra_abelian
    entries = {
        (0, 1): tuple(1 if t == 2 else 0 for t in range(dim)),
        (1, 0): tuple(-1 if t == 2 else 0 for t in range(dim)),
        (3, 4): tuple(1 if t == 5 else 0 for t in range(dim)),
        (4, 3): tuple(-1 if t == 5 else 0 for t in range(dim)),
    }
    return qring(dim, entries)


def paper_example_ring():
    """The integral Lie ring <s,t,u : (s,t) = 2u, (s,u) = (t,u) = 0>."""
    z3 = ModuleDesc((free_line(), free_line(), free_line()))
    tensor = (
        ((0, 0, 0), (0, 0, 2), (0, 0, 0)),
        ((0, 0, -2), (0, 0, 0), (0, 0, 0)),
        ((0, 0, 0), (0, 0, 0), (0, 0, 0)),
    )
    return RingPresentation(module_carrier(z3), tensor)


def test_flags_heisenberg():
    h3 = heisenberg()
    # class 2: all triple products vanish, so h3 is (trivially) associative
    assert h3.lie and not h3.commutative and h3.associative


def test_flags_non_associative():
    # free nilpotent class 3 on two generators: (x,(x,y)) != 0 breaks associativity
    entries = {
        (0, 1): (0, 0, 1, 0, 0),
        (1, 0): (0, 0, -1, 0, 0),
        (0, 2): (0, 0, 0, 1, 0),
        (2, 0): (0, 0, 0, -1, 0),
        (1, 2): (0, 0, 0, 0, 1),
        (2, 1): (0, 0, 0, 0, -1),
    }
    r = qring(5, entries)
    assert r.lie and not r.associative


def test_flags_zero_ring():
    z = qring(2, {})
    assert z.lie and z.commutative and z.associative


def test_annihilator_heisenberg():
    assert annihilator(heisenberg()) == [(0, 0, 1)]


def test_annihilator_zero_mult():
    assert len(annihilator(qring(2, {}))) == 2


def test_annihilator_paper_example():
    assert annihilator(paper_example_ring()) == [(0, 0, 1)]


def test_square_ideal_heisenberg():
    assert square_ideal(heisenberg()) == [(0, 0, 1)]


def test_square_ideal_paper_example():
    r = paper_example_ring()
    assert square_ideal(r) == [(0, 0, 2)]
    assert delta_ideal(r) == [(0, 0, 2)]


def test_square_ideal_zero():
    assert square_ideal(qring(2, {})) == []


def test_regularity():
    assert is_regular(heisenberg())
    assert not is_regular(qring(2, {}))  # Ann = R, R^2 = 0
    assert not is_regular(paper_example_ring())  # <u> not inside <2u>


def test_brute_force_ann_square_gf2():
    import random

    rng = random.Random(3)
    gf2 = PrimeField(2)
    for _ in range(8):
        dim = rng.choice((2, 3))
        entries = {
            (i, j): tuple(rng.randrange(2) for _ in range(dim))
            for i in range(dim)
            for j in range(dim)
        }
        r = gfring(2, dim, entries)
        f = r.as_bilinear()
        # annihilator by enumeration
        expected_ann = []
        elements = list(itertools.product(range(2), repeat=dim))
        for x in elements:
            if all(
                f.n.is_zero(f.evaluate(x, y)) and f.n.is_zero(f.evaluate(y, x))
                for y in elements
            ):
                expected_ann.append(x)
        from ringlab.bilinear import canonical_span_rows

        assert canonical_span_rows(gf2, expected_ann, dim) == annihilator(r)
        # square ideal by enumeration of all products
        products = [f.evaluate(x, y) for x in elements for y in elements]
        assert canonical_span_rows(gf2, products, dim) == square_ideal(r)


def test_verbal_ideal_xy_on_heisenberg():
    rep = verbal_ideal(heisenberg(), "x*y")
    assert rep.generators == ((0, 0, 1),)
    assert rep.width.exact and rep.width.width == 1


def test_verbal_ideal_identity_word():
    rep = verbal_ideal(heisenberg(), "x")
    assert len(rep.generators) == 3
    assert rep.width.width == 1


def test_verbal_ideal_zero_ring():
    rep = verbal_ideal(qring(2, {}), "x*y")
    assert rep.generators == ()
    assert rep.width.width == 0


def test_verbal_ideal_square_word_gf2():
    # v(x) = x*x on GF(2) multiplication ring
    r = gfring(2, 1, {(0, 0): (1,)})
    rep = verbal_ideal(r, "x*x")
    assert rep.generators == ((1,),)
    assert rep.width.width == 1


def test_parse_word_shapes():
    w = parse_word("(x*y)*z")
    assert w.format() == "((x*y)*z)"
    assert w.variables() == ["x", "y", "z"]
    with pytest.raises(ValidationError):
        parse_word("x**y")


def test_foundation_addition_heisenberg():
    split = foundation_addition(heisenberg())
    assert split.addition_rows == ()
    assert split.foundation.dim == 3


def test_foundation_addition_with_abelian_line():
    entries = {
        (0, 1): (0, 0, 1, 0),
        (1, 0): (0, 0, -1, 0),
    }
    r = qring(4, entries)
    split = foundation_addition(r)
    assert len(split.addition_rows) == 1
    assert split.addition_rows[0] == (0, 0, 0, 1)
    assert split.foundation.dim == 3


def test_foundation_addition_paper_example_no_split():
    with pytest.raises(NoSplit) as exc:
        foundation_addition(paper_example_ring())
    assert exc.value.which == "addition"


def test_centroid_heisenberg():
    cent = centroid(heisenberg())
    # scalars plus Hom(R/R', Ann): dimension 1 + 2*1 = 3 for h3
    assert cent.rank == 3
    assert cent.is_commutative()


def _brute_force_centroid(r):
    """Every X in End(R) over GF(2) with X(xy) = (Xx)y = x(Xy), as entry tuples."""
    n = r.dim
    f = r.as_bilinear()
    basis = [tuple(int(k == i) for k in range(n)) for i in range(n)]
    found = set()
    for entries in itertools.product((0, 1), repeat=n * n):
        def x_of(v):
            return tuple(
                sum(entries[a * n + b] * v[b] for b in range(n)) % 2 for a in range(n)
            )

        if all(
            x_of(f.evaluate(u, v)) == f.evaluate(x_of(u), v) == f.evaluate(u, x_of(v))
            for u in basis
            for v in basis
        ):
            found.add(entries)
    return found


def _span_over_gf2(endo):
    return {
        tuple(
            sum(c * m.entries[k] for c, m in zip(coeffs, endo.basis)) % 2
            for k in range(endo.dim * endo.dim)
        )
        for coeffs in itertools.product((0, 1), repeat=endo.rank)
    }


@pytest.mark.parametrize("seed", range(8))
def test_centroid_matches_brute_force_over_gf2(seed):
    rng = random.Random(seed)
    entries = {
        (i, j): tuple(rng.randrange(2) for _ in range(3))
        for i in range(3)
        for j in range(3)
        if rng.random() < 0.4
    }
    r = gfring(2, 3, entries)
    assert _span_over_gf2(centroid(r)) == _brute_force_centroid(r)


def test_centroid_of_a_zero_ring_is_all_of_end():
    r = gfring(2, 3, {})
    cent = centroid(r)
    assert cent.rank == 9
    assert _span_over_gf2(cent) == _brute_force_centroid(r)


def test_component_enrichment_heisenberg():
    h3 = heisenberg()
    enr = component_enrichment(h3)
    assert enr.residue_degree == 1
    assert verify_enrichment(h3, enr)


def test_decompose_char0_heisenberg():
    deco = decompose_char0(heisenberg())
    assert len(deco.components) == 1
    assert deco.addition_rows == ()
    comp = deco.components[0]
    assert comp.local.algebra.dim == 1  # A(h3) = Q
    assert comp.residue_degree == 1
    assert verify_ring_reassembly(heisenberg(), deco)


def test_decompose_char0_double_heisenberg_plus_abelian():
    r = heisenberg_sum(extra_abelian=1)
    deco = decompose_char0(r)
    assert len(deco.components) == 2
    assert len(deco.addition_rows) == 1
    for comp in deco.components:
        assert comp.ring.dim == 3
        assert comp.local.algebra.dim == 1
        assert comp.j_report.r_k == 1
        assert verify_enrichment(comp.ring, comp.enrichment)
    assert verify_ring_reassembly(r, deco)


def test_decompose_char0_zero_multiplication():
    r = qring(2, {})
    deco = decompose_char0(r)
    assert deco.components == ()
    assert len(deco.addition_rows) == 2


def test_component_scalar_ring_is_local():
    r = heisenberg_sum()
    deco = decompose_char0(r)
    from ringlab.artinian import local_decomposition
    from ringlab.scalars import endo_commutative_algebra, largest_scalar_action

    for comp in deco.components:
        ann = annihilator(comp.ring)
        sq = square_ideal(comp.ring)
        scal = largest_scalar_action(comp.ring.as_bilinear(), ann, sq)
        alg = endo_commutative_algebra(scal.algebra)
        assert len(local_decomposition(alg)) == 1


# -- a failed decomposition check is an InvariantViolation naming the check ----


def _patch_factors(monkeypatch, change):
    """change the local factors of A(R), not those of a component centroid"""
    import sys

    from ringlab import artinian

    real = artinian.local_decomposition

    def patched(alg, seed=0):
        factors = real(alg, seed)
        if sys._getframe(1).f_code.co_name == "component_enrichment":
            return factors
        return change(factors)

    monkeypatch.setattr(artinian, "local_decomposition", patched)


def _patch_residue_degree(monkeypatch, degree):
    from ringlab import rings
    from ringlab.records import replace

    real = rings.component_enrichment
    monkeypatch.setattr(
        rings,
        "component_enrichment",
        lambda ring, seed=0: replace(real(ring, seed), residue_degree=degree),
    )


def test_dependent_component_basis_is_an_invariant_violation(monkeypatch):
    import sys

    from ringlab.bilinear import Subspace

    real = Subspace.independent.fget

    def lossy(space):
        # report a dependent basis only where decompose_char0 checks its component basis
        rows = sys._getframe(1).f_locals.get("comp_rows_rf")
        return real(space) and (rows is None or space.basis != tuple(map(tuple, rows)))

    monkeypatch.setattr(Subspace, "independent", property(lossy))
    with pytest.raises(InvariantViolation, match="^component independence check: "):
        decompose_char0(heisenberg())


def test_disagreeing_residue_degree_is_an_invariant_violation(monkeypatch):
    _patch_residue_degree(monkeypatch, 2)
    with pytest.raises(InvariantViolation, match="^residue degree check: "):
        decompose_char0(heisenberg())


def test_indivisible_component_dimension_is_an_invariant_violation(monkeypatch):
    from ringlab.records import replace

    _patch_residue_degree(monkeypatch, 7)
    _patch_factors(monkeypatch, lambda fs: [replace(lf, residue_degree=7) for lf in fs])
    with pytest.raises(InvariantViolation, match="^component dimension check: "):
        decompose_char0(heisenberg())


def test_components_that_overfill_the_foundation_are_an_invariant_violation(monkeypatch):
    _patch_factors(monkeypatch, lambda fs: list(fs) + [fs[0]])
    with pytest.raises(InvariantViolation, match="^foundation fill check: "):
        decompose_char0(heisenberg())


def test_a_nonzero_cross_component_product_is_an_invariant_violation(monkeypatch):
    from ringlab import rings

    real = rings._annihilate
    # the first component's rows again, as a component of their own
    monkeypatch.setattr(rings, "_annihilate", lambda r, sets: real(r, list(sets) + list(sets[:1])))
    with pytest.raises(InvariantViolation, match="^cross-component product check: "):
        decompose_char0(heisenberg())


def test_central_factors_that_do_not_annihilate_are_an_invariant_violation(monkeypatch):
    _patch_factors(monkeypatch, lambda fs: list(fs) + [fs[0]])
    r = gfring(3, 3, {(0, 1): (0, 0, 1), (1, 0): (0, 0, 2)})
    with pytest.raises(InvariantViolation, match="^mutual annihilation check: "):
        decompose_bounded(r)


def test_central_split_mixed():
    desc = ModuleDesc((rational_line(), rational_line(), rational_line(), cyclic(2)))
    # h3 over Q plus GF(2)-multiplication as Z/2
    zero = Fraction(0)
    one = Fraction(1)
    tensor = [[[zero, zero, zero, 0] for _ in range(4)] for _ in range(4)]
    tensor[0][1] = [zero, zero, one, 0]
    tensor[1][0] = [zero, zero, -one, 0]
    tensor[3][3] = [zero, zero, zero, 1]
    r = RingPresentation(module_carrier(desc), tuple(tuple(tuple(e) for e in row) for row in tensor))
    split = central_split_mixed(r)
    assert split.divisible.dim == 3 and split.bounded.dim == 1
    assert split.cross_annihilation and split.intersection_trivial
    assert split.divisible.lie


def test_central_split_bounded_only():
    desc = ModuleDesc((cyclic(2),))
    r = RingPresentation(module_carrier(desc), (((1,),),))
    split = central_split_mixed(r)
    assert split.divisible.dim == 0 and split.bounded.dim == 1


def test_decompose_bounded_gf2_diagonal():
    r = gfring(2, 2, {(0, 0): (1, 0), (1, 1): (0, 1)})
    report = decompose_bounded(r)
    assert len(report.components) == 2
    assert all(c.residue_degree == 1 for c in report.components)


def test_decompose_bounded_single_factor():
    r = gfring(2, 1, {(0, 0): (1,)})
    report = decompose_bounded(r)
    assert len(report.components) == 1
    assert report.components[0].ring.dim == 1


def test_decompose_bounded_gf3_heisenberg():
    entries = {(0, 1): (0, 0, 1), (1, 0): (0, 0, 2)}
    r = gfring(3, 3, entries)
    report = decompose_bounded(r)
    assert len(report.components) == 1
    assert report.components[0].local.algebra.dim == 1  # A = GF(3)


def test_model_construct_identity_base_change():
    h3 = heisenberg()
    out = model_construct(h3, QQ)
    assert out.constants_field == "Q"
    assert out.ring.dim == 3 and out.ring.lie


def test_model_construct_to_extension():
    h3 = heisenberg()
    k = Extension(QQ, [Fraction(-2), Fraction(0), Fraction(1)])
    out = model_construct(h3, k)
    assert out.ring.carrier.domain == k
    assert out.ring.lie


def test_model_construct_rejects_smaller_field():
    k = Extension(QQ, [Fraction(-2), Fraction(0), Fraction(1)])
    sqrt2 = k.generator()
    # algebra over Q(sqrt 2) whose constants involve sqrt 2
    tensor = [[(k.zero(), k.zero()) for _ in range(2)] for _ in range(2)]
    tensor[0][1] = (k.zero(), sqrt2)
    tensor[1][0] = (k.zero(), tuple(k.neg(sqrt2)))
    r = RingPresentation(
        field_carrier(k, 2), tuple(tuple(tuple(e) for e in row) for row in tensor)
    )
    # this ring is nilpotent-like with sqrt-2 constant; moving to Q must fail
    with pytest.raises((ExtensionNotOverK0, ValidationError)):
        model_construct(r, QQ)


def test_categoricity_verdicts():
    assert categoricity_check(decompose_char0(heisenberg())).satisfied
    v1 = categoricity_check(decompose_char0(heisenberg_sum(extra_abelian=1)))
    assert not v1.satisfied and v1.addition_dim == 1
    v2 = categoricity_check(decompose_char0(heisenberg_sum()))
    assert not v2.satisfied and v2.component_count == 2


def test_model_construct_keeps_extension_constants():
    k = Extension(QQ, [Fraction(-2), Fraction(0), Fraction(1)])
    sqrt2 = k.generator()
    tensor = [[(k.zero(), k.zero()) for _ in range(2)] for _ in range(2)]
    tensor[0][1] = (k.zero(), sqrt2)
    tensor[1][0] = (k.zero(), tuple(k.neg(sqrt2)))
    r = RingPresentation(
        field_carrier(k, 2), tuple(tuple(tuple(e) for e in row) for row in tensor)
    )
    try:
        out = model_construct(r, k)
    except ValidationError:
        pytest.skip("centroid of this fixture is not local")
    assert out.constants_field == k.describe()
    assert not out.constants_are_prime
    assert out.ring.carrier.domain == k


def test_foundation_addition_over_Z_success():
    # e1*e1 = e1 on Z^2: Ann = <e2>, R^2 = <e1>, Delta = 0
    z2 = ModuleDesc((free_line(), free_line()))
    r = RingPresentation(
        module_carrier(z2), (((1, 0), (0, 0)), ((0, 0), (0, 0)))
    )
    split = foundation_addition(r)
    assert split.addition_rows == ((0, 1),)
    assert split.foundation.dim == 1
    assert split.foundation.tensor == (((1,),),)


def test_mixed_carrier_ideals_and_regularity():
    desc = ModuleDesc((rational_line(), rational_line(), rational_line(), cyclic(2)))
    zero = Fraction(0)
    one = Fraction(1)
    tensor = [[[zero, zero, zero, 0] for _ in range(4)] for _ in range(4)]
    tensor[0][1] = [zero, zero, one, 0]
    tensor[1][0] = [zero, zero, -one, 0]
    tensor[3][3] = [zero, zero, zero, 1]
    r = RingPresentation(
        module_carrier(desc),
        tuple(tuple(tuple(e) for e in row) for row in tensor),
    )
    ann = annihilator(r)
    assert ann == [(Fraction(0), Fraction(0), Fraction(1), 0)]
    sq = square_ideal(r)
    assert len(sq) == 2  # <z> and the GF(2) line
    assert is_regular(r)
    # Delta = Ann n R^2, blockwise: <z> on the Q lines, 0 on the Z/2 line
    assert delta_ideal(r) == [(0, 0, 1, 0)]


@pytest.mark.parametrize(
    "path",
    [
        "tests/golden/inputs/R3-z.json",
        "tests/golden/inputs/R3-q.json",
        "tests/golden/inputs/R5-q.json",
        "tests/golden/inputs/h3+z2.json",
        "src/ringlab/fixtures/gf2-diagonal.json",
    ],
)
def test_analyze_computes_ann_and_square_once_per_presentation(monkeypatch, path):
    from pathlib import Path

    from ringlab import bilinear
    from ringlab.documents import load_document
    from ringlab.reports import analyze

    root = Path(__file__).resolve().parent.parent
    doc = load_document((root / path).read_text(encoding="utf-8"))
    f = doc.ring().as_bilinear()
    counts = {"two_sided_kernel": 0, "image_submodule": 0}

    def counted(name):
        real = getattr(bilinear, name)

        def wrapper(g):
            counts[name] += g is f
            return real(g)

        return wrapper

    for name in counts:
        monkeypatch.setattr(bilinear, name, counted(name))
    analyze(doc)
    assert counts == {"two_sided_kernel": 1, "image_submodule": 1}
    # every caller gets a list of its own, never the cached rows
    r = doc.ring()
    for fn, cached in ((annihilator, r.ann_rows), (square_ideal, r.square_rows)):
        rows = fn(r)
        assert rows == list(cached) and rows is not fn(r)
        rows.append(None)
        assert fn(r) == list(cached)


def test_flags_are_walked_when_first_read_and_once(monkeypatch):
    from ringlab.bilinear import BilinearMap

    walks = []
    for cls, name in (
        (BilinearMap, "associativity_witness"),
        (BilinearMap, "commutativity_witness"),
        (RingPresentation, "lie_witness"),
    ):
        real = getattr(cls, name)
        monkeypatch.setattr(
            cls, name, lambda self, real=real, name=name: walks.append(name) or real(self)
        )
    r = RingPresentation(field_carrier(QQ, 1), (((1,),),))
    assert walks == []
    assert not r.lie and not r.lie
    assert walks == ["lie_witness"]
    assert r.associative and r.commutative and r.associative
    assert walks == ["lie_witness", "associativity_witness", "commutativity_witness"]
