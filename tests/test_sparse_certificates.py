"""The ring certificates read the indices of the nonzero structure
coordinates, `BilinearMap.support`; here they are checked against dense
references.

The references are the evaluate-based walks the sparse ones replaced:
every basis pair or triple goes through a dense `evaluate` that touches
every tensor coordinate.  Tensors come from known algebras (Heisenberg,
filiform, sl_2, R_1, F[t]/(t^3)), scaled by a random unit and perturbed in
single entries, over GF(2), GF(7), Q, Q(sqrt 2), Z and Q + Z/6, so that Lie
and non-Lie, associative and non-associative rings all occur.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ringlab.bilinear import FIELD, BilinearMap, field_carrier, module_carrier
from ringlab.domains import Extension, PrimeField, QQ
from ringlab.linalg import Matrix
from ringlab.modules import RATIONAL, ModuleDesc, cyclic, free_line, rational_line
from ringlab.records import replace
from ringlab.rings import RingPresentation
from ringlab.scalars import _apply_action_in_n, _certify_bilinearity, centroid_of

SQRT2 = Extension(QQ, [-2, 0, 1])
TORSION = 6


def _tensor(dim, products):
    t = [[[0] * dim for _ in range(dim)] for _ in range(dim)]
    for (i, j), (k, c) in products.items():
        t[i][j][k] = c
    return t


def _lie(dim, brackets):
    return _tensor(dim, {**brackets, **{(j, i): (k, -c) for (i, j), (k, c) in brackets.items()}})


# integer structure constants tensor[i][j][k], by name
BASES = {
    "h3": _lie(3, {(0, 1): (2, 1)}),
    "filiform4": _lie(4, {(0, 1): (2, 1), (0, 2): (3, 1)}),
    "filiform5": _lie(5, {(0, 1): (2, 1), (0, 2): (3, 1), (0, 3): (4, 1)}),
    "sl2": _lie(3, {(0, 1): (1, 2), (0, 2): (2, -2), (1, 2): (0, 1)}),
    "R1": _tensor(4, {(0, 1): (2, 1), (1, 0): (2, 2), (0, 0): (2, 1)}),
    "t3": _tensor(3, {(0, 0): (0, 1), (0, 1): (1, 1), (1, 0): (1, 1), (0, 2): (2, 1),
                      (2, 0): (2, 1), (1, 1): (2, 1)}),
}


def _q(n, den):
    c = Fraction(n, den)
    return c.numerator if c.denominator == 1 else c


def _values(d):
    """Domain values: ints mod p, ints and Fractions in Q, pairs over Q(sqrt 2)."""
    if isinstance(d, PrimeField):
        return st.integers(0, d.p - 1)
    q = st.builds(_q, st.integers(-4, 4), st.integers(1, 3))
    return q if d == QQ else st.tuples(q, q)


@st.composite
def _block(draw, values, mul, from_int, zero):
    """A known algebra scaled by a unit and perturbed in a single entry,
    or in a pair of entries that keeps antisymmetry."""
    base = draw(st.sampled_from(list(BASES.values())))
    t = [[[from_int(c) for c in e] for e in row] for row in base]
    dim = len(t)
    unit = draw(values.filter(lambda v: v != zero))
    t = [[[mul(unit, c) for c in e] for e in row] for row in t]
    how = draw(st.sampled_from(("none", "entry", "antisymmetric")))
    if how != "none":
        i, j, k = (draw(st.integers(0, dim - 1)) for _ in range(3))
        v = draw(values)
        t[i][j][k] = v
        if how == "antisymmetric" and i != j:
            t[j][i][k] = mul(from_int(-1), v)
    return t


def _field_case(d):
    block = _block(_values(d), d.mul, d.from_int, d.zero())
    return block.map(lambda t: (field_carrier(d, len(t)), t))


def _integer_case():
    values = st.integers(-5, 5)
    block = _block(values, lambda a, b: a * b, int, 0)
    return block.map(lambda t: (module_carrier(ModuleDesc((free_line(),) * len(t))), t))


@st.composite
def _mixed_case(draw):
    """Q + Z/6: a block over Q beside a block over Z/6, as Z-bilinearity
    forces; every entry that mixes the two blocks is zero."""
    q = draw(_block(_values(QQ), lambda a, b: a * b, int, 0))
    z = draw(_block(st.integers(0, TORSION - 1), lambda a, b: a * b, int, 0))
    a, b = len(q), len(z)
    t = [[[0] * (a + b) for _ in range(a + b)] for _ in range(a + b)]
    for i in range(a):
        for j in range(a):
            t[i][j][:a] = q[i][j]
    for i in range(b):
        for j in range(b):
            t[a + i][a + j][a:] = [c % TORSION for c in z[i][j]]
    desc = ModuleDesc((rational_line(),) * a + (cyclic(TORSION),) * b)
    return module_carrier(desc), t


CASES = {
    "GF(2)": _field_case(PrimeField(2)),
    "GF(7)": _field_case(PrimeField(7)),
    "Q": _field_case(QQ),
    "Q(sqrt2)": _field_case(SQRT2),
    "Z": _integer_case(),
    "Q+Z/6": _mixed_case(),
}


def _coords(carrier):
    """Random coordinate vectors on the carrier."""
    if carrier.kind == FIELD:
        value = st.one_of(st.just(carrier.domain.zero()), _values(carrier.domain))
        return st.tuples(*[value] * carrier.dim)
    parts = [
        _values(QQ) if s.kind == RATIONAL else st.integers(-7, 7)
        for s in carrier.desc.summands
    ]
    return st.tuples(*parts)


# -- dense references: the walks before support ------------------------------


def dense_evaluate(f, x, y):
    x = f.m.reduce(x)
    y = f.m.reduce(y)
    if f.m.kind == FIELD:
        d = f.m.domain
        acc = list(f.n.zero())
        for i, xi in enumerate(x):
            if d.is_zero(xi):
                continue
            for j, yj in enumerate(y):
                if d.is_zero(yj):
                    continue
                d.add_scaled(acc, d.mul(xi, yj), f.tensor[i][j], range(f.n.dim))
        return f.n.reduce(tuple(acc))
    acc = [0] * f.n.dim
    for i, xi in enumerate(x):
        if xi == 0:
            continue
        for j, yj in enumerate(y):
            if yj == 0:
                continue
            c = xi * yj
            entry = f.tensor[i][j]
            for t in range(f.n.dim):
                if entry[t] != 0:
                    acc[t] = acc[t] + c * entry[t]
    return f.n.reduce(tuple(acc))


def dense_support(f):
    if f.n.kind == FIELD:
        nonzero = lambda c: not f.n.domain.is_zero(c)
    else:
        nonzero = lambda c: c != 0
    return tuple(
        tuple(tuple(t for t, c in enumerate(e) if nonzero(c)) for e in row)
        for row in f.tensor
    )


def _basis(r):
    one = r.carrier.domain.one() if r.carrier.kind == FIELD else 1
    out = []
    for i in range(r.dim):
        coords = list(r.carrier.zero())
        coords[i] = one
        out.append(r.carrier.reduce(coords))
    return out


def dense_commutative(r):
    return all(
        r.carrier.eq(r.tensor[i][j], r.tensor[j][i])
        for i in range(r.dim)
        for j in range(r.dim)
    )


def dense_associative(r):
    f, c, basis = r.as_bilinear(), r.carrier, _basis(r)
    ev = lambda x, y: dense_evaluate(f, x, y)
    for x in basis:
        for y in basis:
            xy = ev(x, y)
            for z in basis:
                if not c.eq(ev(xy, z), ev(x, ev(y, z))):
                    return False
    return True


def dense_lie_witness(r):
    f, c, basis = r.as_bilinear(), r.carrier, _basis(r)
    ev = lambda x, y: dense_evaluate(f, x, y)
    for i, x in enumerate(basis):
        if not c.is_zero(ev(x, x)):
            return (i, i)
        for j, y in enumerate(basis):
            if not c.is_zero(c.add(ev(x, y), ev(y, x))):
                return (i, j)
    for i, x in enumerate(basis):
        for j, y in enumerate(basis):
            for k, z in enumerate(basis):
                jac = c.add(ev(x, ev(y, z)), c.add(ev(y, ev(z, x)), ev(z, ev(x, y))))
                if not c.is_zero(jac):
                    return (i, j, k)
    return None


def dense_certify_bilinearity(f, report):
    d = f.m.domain
    n = f.m.dim
    for idx, a in enumerate(report.algebra.basis):
        for i in range(n):
            ai = [a.get(l, i) for l in range(n)]
            for j in range(n):
                aj = [a.get(l, j) for l in range(n)]
                left = [d.zero()] * f.n.dim
                right = [d.zero()] * f.n.dim
                for l in range(n):
                    if not d.is_zero(ai[l]):
                        d.add_scaled(left, ai[l], f.tensor[l][j], range(f.n.dim))
                    if not d.is_zero(aj[l]):
                        d.add_scaled(right, aj[l], f.tensor[i][l], range(f.n.dim))
                scaled = _apply_action_in_n(report, idx, f.tensor[i][j], d, f.n.dim)
                if scaled is None:
                    return False
                if tuple(left) != tuple(right) or tuple(left) != scaled:
                    return False
    return True


# -- properties ----------------------------------------------------------------


@pytest.mark.parametrize("name", CASES)
def test_sparse_certificates_match_dense_references(name):
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def check(data):
        carrier, tensor = data.draw(CASES[name])
        r = RingPresentation(carrier, tensor)
        f = r.as_bilinear()
        assert f.support == dense_support(f)
        assert r.commutative == dense_commutative(r)
        assert r.associative == dense_associative(r)
        witness = dense_lie_witness(r)
        assert r.lie_witness() == witness
        assert r.lie == (witness is None)
        for _ in range(3):
            x, y = data.draw(_coords(carrier)), data.draw(_coords(carrier))
            assert repr(f.evaluate(x, y)) == repr(dense_evaluate(f, x, y))

    check()


@pytest.mark.parametrize("name", ["GF(2)", "GF(7)", "Q", "Q(sqrt2)"])
def test_sparse_bilinearity_certificate_matches_dense_reference(name):
    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def check(data):
        carrier, tensor = data.draw(CASES[name])
        f = BilinearMap(carrier, carrier, tensor)
        report = centroid_of(f)
        assert _certify_bilinearity(f, report) == dense_certify_bilinearity(f, report)
        # one entry of one basis endomorphism moved: usually not a scalar
        d, n = carrier.domain, carrier.dim
        k = data.draw(st.integers(0, len(report.algebra.basis) - 1))
        a = report.algebra.basis[k]
        pos = data.draw(st.integers(0, n * n - 1))
        entries = list(a.entries)
        entries[pos] = d.add(entries[pos], d.one())
        basis = list(report.algebra.basis)
        basis[k] = Matrix(d, n, n, tuple(entries))
        tampered = replace(report, algebra=replace(report.algebra, basis=tuple(basis)))
        assert _certify_bilinearity(f, tampered) == dense_certify_bilinearity(f, tampered)

    check()


def test_the_drawn_rings_cover_every_flag():
    """The algebras the properties start from are Lie and not, associative
    and not, so neither side of any flag goes unchecked."""
    flags = set()
    for t in BASES.values():
        r = RingPresentation(field_carrier(QQ, len(t)), t)
        flags.add((r.lie, r.associative))
        assert (r.lie, r.associative, r.commutative) == (
            dense_lie_witness(r) is None, dense_associative(r), dense_commutative(r)
        )
    assert flags == {(True, True), (True, False), (False, True)}
    broken = RingPresentation(field_carrier(QQ, 3), _tensor(3, {(0, 1): (0, 1)}))
    assert (broken.lie, broken.associative) == (False, False)
    # antisymmetric but not Jacobi: the witness is a triple
    brackets = {(0, 1): (2, 1), (1, 2): (0, 1), (0, 2): (2, 1)}
    jac = RingPresentation(field_carrier(QQ, 3), _lie(3, brackets))
    assert jac.lie_witness() == dense_lie_witness(jac) and len(jac.lie_witness()) == 3


def parent_certify_bilinearity(f, report):
    """The certificate before the image coordinates were read once per pair
    and each action once per basis element, copied unchanged."""
    d = f.m.domain
    n = f.m.dim
    for idx, a in enumerate(report.algebra.basis):
        # A b_i = sum of c b_l over the nonzero entries (c, l) of column i
        cols = [
            [(a.get(l, i), l) for l in range(n) if not d.is_zero(a.get(l, i))]
            for i in range(n)
        ]
        for i in range(n):
            for j in range(n):
                left = f.combine((c, l, j) for c, l in cols[i])
                right = f.combine((c, i, l) for c, l in cols[j])
                if not f.support[i][j]:
                    scaled = f.n.zero()
                else:
                    scaled = _apply_action_in_n(report, idx, f.tensor[i][j], d, f.n.dim)
                if scaled is None:
                    return False
                if left != right or left != scaled:
                    return False
    return True


def _golden_certified_reports():
    """Every (f, report) that analyze certifies on the golden bilinear and
    ring documents."""
    import json
    import os

    from ringlab import scalars
    from ringlab.documents import load_document
    from ringlab.reports import analyze

    inputs = os.path.join(os.path.dirname(__file__), "golden", "inputs")
    seen = []
    real = scalars._certify_bilinearity

    def recording(f, report):
        seen.append((f, report))
        return real(f, report)

    scalars._certify_bilinearity = recording
    try:
        for name in sorted(os.listdir(inputs)):
            with open(os.path.join(inputs, name), encoding="utf-8") as handle:
                text = handle.read()
            if name.startswith("err-") or json.loads(text)["kind"] not in ("bilinear", "ring"):
                continue
            analyze(load_document(text))
    finally:
        scalars._certify_bilinearity = real
    return seen


def test_bilinearity_certificate_matches_the_parent_body_on_golden_reports():
    reports = _golden_certified_reports()
    assert len(reports) >= 5
    tampered_count = 0
    for f, report in reports:
        assert _certify_bilinearity(f, report) is parent_certify_bilinearity(f, report) is True
        # one entry of one action on the image moved by one: no longer A on im(f)
        action = report.action_on_image[-1]
        if not action.entries:
            continue
        d = action.domain
        entries = list(action.entries)
        entries[0] = d.add(entries[0], d.one())
        moved = Matrix(d, action.rows, action.cols, tuple(entries))
        tampered = replace(report, action_on_image=report.action_on_image[:-1] + (moved,))
        assert _certify_bilinearity(f, tampered) is parent_certify_bilinearity(f, tampered) is False
        tampered_count += 1
    assert tampered_count >= 5
