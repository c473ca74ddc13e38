"""The local decomposition's split tree, walked once.

`local_decomposition` must return exactly what the earlier two-pass
design returned: a recursion that split A and then rebuilt, re-certified
and re-probed every leaf block.  That design's four functions are copied
below as the reference, and a hypothesis property compares the two factor
by factor, on every `LocalFactor` field, over GF(2), GF(3), GF(7), Q and
Q(sqrt 2).  The inputs are F[t]/(prod p_i^e_i) in a seeded signed
permutation of the monomial basis, built by the benchmark's own
`families.algebra_doc`; over Q(sqrt 2) the rational algebra is re-read
over the extension, as `--extension=-2,0,1` does.

A count test pins that each block is built once: the number of
`CommutativeAlgebra` constructions inside one call, on the benchmark's
q-alg6, gf7-alg10 and q-ext inputs.
"""

import json
import os
import random
import sys

import pytest
from hypothesis import given, settings, strategies as st

from ringlab.artinian import (
    CommutativeAlgebra,
    LocalFactor,
    _crt_idempotents,
    _probe_stream,
    _radical_power_rows,
    _residue_projection,
    _restrict_scalars,
    _subalgebra_on,
    _verify_complete_orthogonal,
    local_decomposition,
    radical,
)
from ringlab.bilinear import field_carrier, rows_through
from ringlab.documents import load_document
from ringlab.domains import Extension, QQ
from ringlab.errors import InvariantViolation, ProbeFailure, RinglabError
from ringlab.polynomials import gcd as poly_gcd, poly_factor

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "ringbench"))

import families as F  # noqa: E402


# -- the reference: the two-pass decomposition ------------------------------------


def _ref_split_once(a, seed):
    rad_rows = radical(a)
    residue_dim = a.dim - len(rad_rows)
    for u in _probe_stream(a, seed):
        m = a.minimal_polynomial(u)
        if m.degree < 1:
            continue
        factors = poly_factor(m)
        if len(factors) >= 2:
            return ("split", _crt_idempotents(a, u, factors))
        f, _ = factors[0]
        if f.degree == residue_dim:
            return ("local", (u, f))
    raise ProbeFailure("probing exhausted without a split or a primitive residue element")


def _ref_local_decomposition(a, seed=0):
    if a.dim == 0:
        return []
    if isinstance(a.base, Extension):
        restricted, up = _restrict_scalars(a)
        down_factors = _ref_local_decomposition(restricted, seed)
        return [_ref_build_local_factor(a, up(lf.idempotent), seed) for lf in down_factors]

    def recurse(idempotent):
        block, basis_rows = _subalgebra_on(a, idempotent)
        verdict, payload = _ref_split_once(block, seed)
        if verdict == "local":
            return [idempotent]
        out = []
        for e_orig in rows_through(payload, basis_rows, field_carrier(a.base, a.dim)):
            out.extend(recurse(e_orig))
        return out

    idempotents = recurse(a.unit)
    factors = [_ref_build_local_factor(a, e, seed) for e in idempotents]
    _verify_complete_orthogonal(a, [f.idempotent for f in factors])
    return factors


def _ref_primary_root(block, m):
    if isinstance(block.base, Extension):
        return m.exact_div(poly_gcd(m, m.derivative())).monic()
    factors = poly_factor(m)
    if len(factors) != 1:
        raise InvariantViolation("locality check: a block is not local after decomposition")
    return factors[0][0]


def _ref_build_local_factor(a, idempotent, seed):
    block, basis_rows = _subalgebra_on(a, idempotent)
    rad_rows = radical(block)
    powers = _radical_power_rows(block, rad_rows)
    nilpotency_index = len(powers) + 1 if rad_rows else 1
    residue_dim = block.dim - len(rad_rows)
    primitive = None
    for u in _probe_stream(block, seed):
        m = block.minimal_polynomial(u)
        if m.degree < 1:
            continue
        f = _ref_primary_root(block, m)
        if f.degree == residue_dim:
            primitive = (u, f)
            break
    if primitive is None:
        raise ProbeFailure("no primitive residue element found for a local factor")
    u, f = primitive
    return LocalFactor(
        idempotent=tuple(idempotent),
        basis=tuple(basis_rows),
        algebra=block,
        radical_rows=tuple(rad_rows),
        nilpotency_index=nilpotency_index,
        residue_primitive=tuple(u),
        residue_minpoly=f,
        residue_degree=f.degree,
        projection=_residue_projection(block, u, f, rad_rows),
    )


# -- inputs ---------------------------------------------------------------------------

SQRT2 = Extension(QQ, (QQ.from_int(-2), QQ.zero(), QQ.one()))

# monic irreducibles over each base, constant term first, and a cap on dim
FIELDS = {
    "GF(2)": (F.GF(2), [[0, 1], [1, 1], [1, 1, 1], [1, 1, 0, 1]], 7),
    "GF(3)": (F.GF(3), [[0, 1], [1, 1], [2, 1], [1, 0, 1], [2, 1, 1]], 6),
    "GF(7)": (F.GF(7), [[0, 1], [6, 1], [1, 0, 1], [5, 0, 0, 1]], 6),
    "Q": (F.Q, [[0, 1], [-1, 1], [2, 1], [1, 0, 1], [-2, 0, 1], [1, 1, 1]], 6),
    # re-read over Q(sqrt 2): t^2 - 2 and t^2 - 8 split there, t^2 + 1 does not
    "Q(sqrt2)": (F.Q, [[0, 1], [-1, 1], [1, 0, 1], [-2, 0, 1], [-8, 0, 1]], 4),
}


def over_sqrt2(a):
    """A rational algebra re-read over Q(sqrt 2), as --extension=-2,0,1 does."""
    lift = SQRT2.from_base
    tensor = tuple(tuple(tuple(lift(c) for c in cell) for cell in row) for row in a.tensor)
    return CommutativeAlgebra(SQRT2, a.dim, tensor, tuple(lift(c) for c in a.unit))


def algebra(field, factors, perm_seed):
    ring, _, _ = FIELDS[field]
    doc = F.algebra_doc(random.Random(perm_seed), "a", factors, ring)
    a = load_document(json.dumps(doc.document)).commutative_algebra()
    return over_sqrt2(a) if field == "Q(sqrt2)" else a


@st.composite
def cases(draw):
    field = draw(st.sampled_from(sorted(FIELDS)))
    _, pool, cap = FIELDS[field]
    picked = draw(st.permutations(pool))[: draw(st.integers(1, 3))]
    factors = []
    degree = 0
    for p in picked:
        e = draw(st.integers(1, 3))
        while e > 1 and degree + e * (len(p) - 1) > cap:
            e -= 1
        if degree + e * (len(p) - 1) > cap:
            continue
        factors.append((p, e))
        degree += e * (len(p) - 1)
    return field, factors, draw(st.integers(0, 10**6)), draw(st.integers(0, 3))


@settings(max_examples=100, deadline=None)
@given(cases())
def test_walk_matches_the_two_pass_decomposition(case):
    field, factors, perm_seed, seed = case
    a = algebra(field, factors, perm_seed)
    try:
        want = _ref_local_decomposition(a, seed)
    except RinglabError as exc:
        # the same refusal, in the same words
        with pytest.raises(type(exc)) as info:
            local_decomposition(a, seed)
        assert str(info.value) == str(exc)
        return
    got = local_decomposition(a, seed)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        for name in LocalFactor.__annotations__:
            assert getattr(g, name) == getattr(w, name), name


# -- each block is built once ---------------------------------------------------------


def _inputs(name):
    with open(os.path.join(HERE, "golden", "inputs", f"{name}.json"), encoding="utf-8") as f:
        return load_document(f.read()).commutative_algebra()


def test_each_block_is_built_once(monkeypatch):
    # q-alg6: two blocks under the root; gf7-alg10: two splits, four blocks;
    # q-ext over Q(sqrt 2): the algebra over Q, its two blocks there and two
    # blocks over Q(sqrt 2)
    algebras = [_inputs("q-alg6"), _inputs("gf7-alg10"), over_sqrt2(_inputs("q-ext"))]
    built = []
    certify = CommutativeAlgebra.__post_init__

    def counted(self):
        built.append(self)
        certify(self)

    monkeypatch.setattr(CommutativeAlgebra, "__post_init__", counted)
    counts = []
    for a in algebras:
        built.clear()
        local_decomposition(a)
        counts.append(len(built))
    assert counts == [2, 4, 5]
