"""Cross-module paths not covered by the per-module suites: extension
fields end to end, scalar rings with nontrivial radicals, the BCH class
cap, and selftest diagnostics."""

from fractions import Fraction
from unittest import mock

import pytest

from ringlab.bilinear import BilinearMap, field_carrier, width
from ringlab.domains import Extension, QQ
from ringlab.errors import ClassTooLarge
from ringlab.lie import GroupElement, group_mul, verify_nilpotent_lie
from ringlab.rings import RingPresentation, decompose_char0, verify_ring_reassembly
from ringlab.scalars import p_of_f
from ringlab import selftest


QSQRT2 = Extension(QQ, [Fraction(-2), Fraction(0), Fraction(1)])


def test_p_of_f_over_extension_field():
    k = QSQRT2
    zero, one = k.zero(), k.one()
    tensor = (
        ((zero,), (one,)),
        ((k.neg(one),), (zero,)),
    )
    f = BilinearMap(field_carrier(k, 2), field_carrier(k, 1), tensor)
    rep = p_of_f(f)
    assert rep.algebra.rank == 1
    assert rep.bilinear_certified
    assert rep.algebra.closed and rep.algebra.unital and rep.algebra.is_commutative()


def test_decompose_char0_heisenberg_over_extension():
    k = QSQRT2
    zero, one = k.zero(), k.one()
    z3 = (zero, zero, zero)
    tensor = (
        (z3, (zero, zero, one), z3),
        ((zero, zero, k.neg(one)), z3, z3),
        (z3, z3, z3),
    )
    r = RingPresentation(field_carrier(k, 3), tensor)
    deco = decompose_char0(r)
    assert len(deco.components) == 1
    assert deco.components[0].residue_degree == 1  # A = Q(sqrt 2) itself, deg 1 over it
    assert verify_ring_reassembly(r, deco)


def quotient_ring_x3():
    """Q[x]/(x^3) as a plain ring presentation (unital, so Ann = 0)."""
    rows = {
        0: (1, 0, 0),
        1: (0, 1, 0),
        2: (0, 0, 1),
        3: (0, 0, 0),
        4: (0, 0, 0),
    }
    tensor = tuple(
        tuple(tuple(Fraction(c) for c in rows[i + j]) for j in range(3))
        for i in range(3)
    )
    return RingPresentation(field_carrier(QQ, 3), tensor)


def test_decompose_char0_with_nilpotent_scalars():
    # A(Q[x]/(x^3)) is the algebra itself: local with a nontrivial radical
    r = quotient_ring_x3()
    assert r.associative and r.commutative
    deco = decompose_char0(r)
    assert len(deco.components) == 1
    comp = deco.components[0]
    assert comp.local.algebra.dim == 3
    assert comp.local.nilpotency_index == 3
    assert comp.j_report.layer_dims == (1, 1, 1)
    assert comp.j_report.r_k == 3
    assert comp.residue_degree == 1
    assert verify_ring_reassembly(r, deco)


def filiform_class7():
    """(e1, e_i) = e_{i+1} for i = 2..7 on 8 generators: class 7."""
    dim = 8
    entries = {}
    for i in range(1, dim - 1):
        entries[(0, i)] = tuple(1 if t == i + 1 else 0 for t in range(dim))
        entries[(i, 0)] = tuple(-1 if t == i + 1 else 0 for t in range(dim))
    tensor = tuple(
        tuple(
            tuple(Fraction(c) for c in entries.get((i, j), (0,) * dim))
            for j in range(dim)
        )
        for i in range(dim)
    )
    return verify_nilpotent_lie(RingPresentation(field_carrier(QQ, dim), tensor))


def test_class_cap_raises():
    l = filiform_class7()
    assert l.nilpotency_class == 7
    g = GroupElement(l, tuple(Fraction(1) if i == 0 else Fraction(0) for i in range(8)))
    h = GroupElement(l, tuple(Fraction(1) if i == 1 else Fraction(0) for i in range(8)))
    with pytest.raises(ClassTooLarge):
        group_mul(g, h)
    # an explicit higher cap admits the computation
    assert group_mul(g, h, max_class=7).log[2] == Fraction(1, 2)


def test_width_certificates_are_product_entries():
    f = BilinearMap(
        field_carrier(QQ, 2),
        field_carrier(QQ, 1),
        (((Fraction(0),), (Fraction(1),)), ((Fraction(-1),), (Fraction(0),))),
    )
    report = width(f)
    assert report.certificates == ((0, 1),)


def test_selftest_reports_missing_fixtures():
    with mock.patch.object(selftest, "fixture_text", side_effect=FileNotFoundError("gone")):
        out = selftest._suite_fixtures()
    assert out["failures"]
    assert any("missing fixture" in f for f in out["failures"])


def test_malcev_respects_max_class_flag():
    import io
    from contextlib import redirect_stderr, redirect_stdout
    from importlib import resources

    from ringlab.cli import main

    path = str(resources.files("ringlab.fixtures").joinpath("h3.json"))
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["malcev", "mul", path, "(1,0,0)", "(0,1,0)", "--max-class", "1"])
    assert code == 2
    assert "max-class" in err.getvalue()


def test_solve_dimension_mismatch():
    from ringlab.errors import DimensionMismatch
    from ringlab.linalg import Matrix, solve

    with pytest.raises(DimensionMismatch):
        solve(Matrix.identity(QQ, 2), (Fraction(1),))


def test_torsion_kernel_over_Z():
    from ringlab.bilinear import module_carrier, two_sided_kernel
    from ringlab.modules import ModuleDesc, cyclic

    desc = ModuleDesc((cyclic(4), cyclic(2)))
    # f(e1, e1) = 2*e1, everything else zero; killed by 4 since 4*2 = 8 = 0
    f = BilinearMap(
        module_carrier(desc), module_carrier(desc),
        (((2, 0), (0, 0)), ((0, 0), (0, 0))),
    )
    gens = two_sided_kernel(f)
    # kernel = <2 e1> + <e2>
    from ringlab.modules import Lattice

    kernel = Lattice.span(desc, gens)
    assert kernel.rows == Lattice.span(desc, [(2, 0), (0, 1)]).rows
    assert kernel.contains((2, 1))
    assert not kernel.contains((1, 0))


def test_component_with_extension_residue_reports_minpoly():
    # Q[x]/(x^2 + 1) as a ring: one component with k_1 = Q(i)
    rows = {0: (1, 0), 1: (0, 1), 2: (-1, 0)}
    tensor = tuple(
        tuple(tuple(Fraction(c) for c in rows[i + j]) for j in range(2))
        for i in range(2)
    )
    r = RingPresentation(field_carrier(QQ, 2), tensor)
    deco = decompose_char0(r)
    assert len(deco.components) == 1
    comp = deco.components[0]
    assert comp.residue_degree == 2
    assert comp.dim_over_residue == 1
    assert comp.local.residue_minpoly.coeffs == (Fraction(1), Fraction(0), Fraction(1))
    # the advisory appears in the rendered ring report
    import json
    import io
    import tempfile
    from contextlib import redirect_stdout

    from ringlab.cli import main

    doc = {
        "kind": "ring",
        "domain": "Q",
        "basis": ["one", "i"],
        "table": [
            [["1", "0"], ["0", "1"]],
            [["0", "1"], ["-1", "0"]],
        ],
    }
    with tempfile.NamedTemporaryFile("w", suffix=".json", delete=False) as f:
        json.dump(doc, f)
        path = f.name
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(["analyze", path, "--format", "json"])
    assert code == 0
    tree = json.loads(out.getvalue())
    assert "needs_extension_to_split_absolutely" in tree["components"][0]


def test_bilinear_document_with_codomain():
    import json
    import io
    import tempfile
    from contextlib import redirect_stdout

    from ringlab.cli import main

    doc = {
        "kind": "bilinear",
        "domain": "Q",
        "basis": ["e1", "e2", "e3"],
        "codomain": {"basis": ["n"]},
        "table": [
            [["0"], ["1"], ["0"]],
            [["-1"], ["0"], ["0"]],
            [["0"], ["0"], ["0"]],
        ],
    }
    with tempfile.NamedTemporaryFile("w", suffix=".json", delete=False) as f:
        json.dump(doc, f)
        path = f.name
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(["analyze", path, "--format", "json"])
    assert code == 0
    tree = json.loads(out.getvalue())
    assert tree["two_sided_kernel"] == ["e3"]
    assert tree["foundation"]["dim"] == 2
    assert tree["largest_scalar_ring"]["dim"] == 1


def _child_pythonpath():
    """PYTHONPATH under which a child interpreter imports the same ringlab
    as this test run, whether it is installed or imported from the checkout."""
    import os

    import ringlab

    package_root = os.path.dirname(os.path.dirname(os.path.abspath(ringlab.__file__)))
    return os.pathsep.join(p for p in (package_root, os.environ.get("PYTHONPATH")) if p)


def _child_env(**extra):
    """PATH, the PYTHONPATH above and extra, plus PYTHONDONTWRITEBYTECODE
    when it is set, so that a child writes no bytecode the run would not."""
    import os

    env = {"PATH": "/usr/bin:/bin", "PYTHONPATH": _child_pythonpath(), **extra}
    if "PYTHONDONTWRITEBYTECODE" in os.environ:
        env["PYTHONDONTWRITEBYTECODE"] = os.environ["PYTHONDONTWRITEBYTECODE"]
    return env


def test_determinism_across_hash_seeds():
    import json
    import subprocess
    import sys
    from importlib import resources

    path = str(resources.files("ringlab.fixtures").joinpath("h3-plus-abelian.json"))
    outputs = []
    for seed in ("0", "1", "424242"):
        env = _child_env(PYTHONHASHSEED=seed)
        proc = subprocess.run(
            [sys.executable, "-m", "ringlab.cli", "analyze", path, "--format", "json"],
            capture_output=True,
            env=env,
        )
        stderr = proc.stderr.decode("utf-8", "replace")
        assert proc.returncode == 0, f"PYTHONHASHSEED={seed}: exit {proc.returncode}\n{stderr}"
        assert json.loads(proc.stdout)["kind"] == "lie", f"PYTHONHASHSEED={seed}"
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1] == outputs[2]


def test_cli_and_analyze_leave_numpy_unloaded():
    # ringlab has no numpy: not at import, not for a Lie algebra, not for the
    # GF(p) width enumeration (outer2x3-gf3), not for the Z_n oracle of selftest
    import os
    import subprocess
    import sys
    from importlib import resources

    h3 = str(resources.files("ringlab.fixtures").joinpath("h3.json"))
    outer = os.path.join(os.path.dirname(__file__), "golden", "inputs", "outer2x3-gf3.json")
    script = (
        "import sys\n"
        "import ringlab.cli\n"
        "assert 'numpy' not in sys.modules, 'import ringlab.cli loaded numpy'\n"
        f"assert ringlab.cli.main(['analyze', {h3!r}, '--format', 'json']) == 0\n"
        "assert 'numpy' not in sys.modules, 'analyze h3 loaded numpy'\n"
        f"assert ringlab.cli.main(['analyze', {outer!r}, '--format', 'json']) == 0\n"
        "assert 'numpy' not in sys.modules, 'analyze outer2x3-gf3 loaded numpy'\n"
        "assert ringlab.cli.main(['selftest', 'quick']) == 0\n"
        "assert 'numpy' not in sys.modules, 'selftest quick loaded numpy'\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, env=_child_env())
    assert proc.returncode == 0, proc.stderr.decode("utf-8", "replace")


def _module_trees():
    """(file name, parsed tree) of each module under src/ringlab."""
    import ast
    import os

    import ringlab

    src = os.path.dirname(ringlab.__file__)
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), encoding="utf-8") as fh:
                yield name, ast.parse(fh.read(), name)


def test_no_module_imports_numpy():
    import ast

    for name, tree in _module_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            assert not any(m.split(".")[0] == "numpy" for m in modules), f"{name} imports numpy"


def test_only_linalg_reduces_rows_over_a_field():
    # every field elimination reads linalg.echelon; rref is its Matrix
    # wrapper, which the package re-exports and no other module imports
    import ast

    for name, tree in _module_trees():
        if name in ("linalg.py", "__init__.py"):
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                assert "rref" not in [alias.name for alias in node.names], f"{name} imports rref"
            elif isinstance(node, ast.Attribute):
                assert node.attr != "rref", f"{name} reads {ast.unparse(node)}"


def test_cli_analyze_and_malcev_leave_dataclasses_and_inspect_unloaded():
    # records are built by ringlab.records, which compiles no code per class
    import subprocess
    import sys
    from importlib import resources

    path = str(resources.files("ringlab.fixtures").joinpath("h3.json"))
    check = "assert not {'dataclasses', 'inspect'} & set(sys.modules), %r\n"
    script = (
        "import sys\n"
        "import ringlab.cli\n"
        + check % "import ringlab.cli"
        + f"assert ringlab.cli.main(['analyze', {path!r}, '--format', 'json']) == 0\n"
        + check % "analyze"
        + f"assert ringlab.cli.main(['malcev', 'mul', {path!r}, '(1,0,0)', '(0,1,0)']) == 0\n"
        + check % "malcev mul"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, env=_child_env())
    assert proc.returncode == 0, proc.stderr.decode("utf-8", "replace")


def _executed_after(*argv):
    """The ringlab submodules that `ringlab.cli.main(argv)` has executed in a
    fresh interpreter.  A submodule registered lazily counts as unexecuted
    while its type is not `types.ModuleType`."""
    import subprocess
    import sys

    script = (
        "import contextlib, io, sys, types\n"
        "import ringlab.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert ringlab.cli.main({list(argv)!r}) == 0\n"
        "print(' '.join(sorted(name[len('ringlab.'):] for name, module in sys.modules.items()\n"
        "    if name.startswith('ringlab.') and type(module) is types.ModuleType)))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, env=_child_env())
    assert proc.returncode == 0, proc.stderr.decode("utf-8", "replace")
    return set(proc.stdout.decode().split())


def test_import_ringlab_runs_no_submodule():
    import subprocess
    import sys

    script = (
        "import sys, types\n"
        "import ringlab\n"
        "ran = [name for name, module in sys.modules.items()\n"
        "       if name.startswith('ringlab.') and type(module) is types.ModuleType]\n"
        "assert not ran, ran\n"
        "assert 'ringlab.cli' not in sys.modules\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, env=_child_env())
    assert proc.returncode == 0, proc.stderr.decode("utf-8", "replace")


def test_malcev_leaves_the_ring_pipelines_unexecuted():
    from importlib import resources

    path = str(resources.files("ringlab.fixtures").joinpath("h3.json"))
    executed = _executed_after("malcev", "mul", path, "(1,0,0)", "(0,1,0)")
    unexecuted = {"rings", "reports", "artinian", "scalars", "polynomials", "gfenum", "selftest"}
    assert not unexecuted & executed
    assert {"cli", "documents", "lie", "bilinear"} <= executed


@pytest.mark.parametrize("name", ["q-alg6", "q-mul4"])
def test_analyze_on_an_algebra_or_a_bilinear_map_leaves_rings_and_lie_unexecuted(name):
    import os

    path = os.path.join(os.path.dirname(__file__), "golden", "inputs", f"{name}.json")
    executed = _executed_after("analyze", path)
    assert not {"rings", "lie"} & executed
    assert {"reports", "documents", "artinian"} <= executed


def test_import_ringlab_cli_leaves_rings_and_reports_unexecuted():
    import subprocess
    import sys

    script = (
        "import sys, types\n"
        "import ringlab.cli\n"
        "ran = {name for name, module in sys.modules.items()\n"
        "       if name.startswith('ringlab.') and type(module) is types.ModuleType}\n"
        "assert not {'ringlab.rings', 'ringlab.reports'} & ran, ran\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, env=_child_env())
    assert proc.returncode == 0, proc.stderr.decode("utf-8", "replace")


def test_analyze_on_a_ring_over_q_leaves_lie_and_selftest_unexecuted():
    import os

    path = os.path.join(os.path.dirname(__file__), "golden", "inputs", "R3-q.json")
    executed = _executed_after("analyze", path)
    assert not {"lie", "selftest"} & executed
    assert {"artinian", "rings", "scalars"} <= executed


def test_selftest_quick_passes_in_a_fresh_interpreter():
    # run as `python -m ringlab.cli`: the CLI module is loaded once, so runpy
    # has no RuntimeWarning to print
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, "-m", "ringlab.cli", "selftest", "quick"],
        capture_output=True,
        env=_child_env(),
    )
    assert proc.returncode == 0 and proc.stderr == b"", proc.stderr.decode("utf-8", "replace")
    assert proc.stdout.decode().endswith("status: pass\n")


def filiform(dim):
    """(e1, e_i) = e_{i+1}, i = 2..dim-1: nilpotency class dim - 1."""
    entries = {}
    for i in range(1, dim - 1):
        entries[(0, i)] = tuple(1 if t == i + 1 else 0 for t in range(dim))
        entries[(i, 0)] = tuple(-1 if t == i + 1 else 0 for t in range(dim))
    tensor = tuple(
        tuple(
            tuple(Fraction(c) for c in entries.get((i, j), (0,) * dim))
            for j in range(dim)
        )
        for i in range(dim)
    )
    return verify_nilpotent_lie(RingPresentation(field_carrier(QQ, dim), tensor))


def test_group_axioms_at_classes_5_and_6():
    # exact associativity at class c validates every BCH coefficient of
    # weight <= c; one wrong Dynkin term breaks it
    import random

    rng = random.Random(31)
    for dim, triples in ((6, 25), (7, 8)):
        l = filiform(dim)
        assert l.nilpotency_class == dim - 1
        for _ in range(triples):
            g, h, k = (
                GroupElement(
                    l,
                    tuple(
                        Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                        for _ in range(dim)
                    ),
                )
                for _ in range(3)
            )
            assert group_mul(group_mul(g, h), k).log == group_mul(g, group_mul(h, k)).log
            inv = group_mul(g, GroupElement(l, l.ring.carrier.neg(g.log)))
            assert all(c == 0 for c in inv.log)
