import io
import json
import os
import sys
from contextlib import redirect_stderr, redirect_stdout
from importlib import resources
from math import gcd, lcm

import pytest
from hypothesis import given, settings, strategies as st

from ringlab.cli import main
from ringlab.selftest import FIXTURE_NAMES, fixture_text


def fixture_path(name):
    return str(resources.files("ringlab.fixtures").joinpath(f"{name}.json"))


def run_cli(*args):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(args))
    return code, out.getvalue(), err.getvalue()


def test_analyze_h3_text():
    code, out, err = run_cli("analyze", fixture_path("h3"))
    assert code == 0 and not err
    assert "nilpotency_class: 2" in out
    assert "center: [z]" in out
    assert "structurally_satisfied: True" in out


def test_analyze_h3_json():
    code, out, _ = run_cli("analyze", fixture_path("h3"), "--format", "json")
    assert code == 0
    tree = json.loads(out)
    assert tree["annihilator"] == ["z"]
    assert tree["categoricity"]["structurally_satisfied"] is True


def test_analyze_paper_example():
    code, out, _ = run_cli("analyze", fixture_path("paper-example-r"))
    assert code == 0
    assert "annihilator: [u]" in out
    assert "square_ideal: [2*u]" in out
    assert "failed_side: addition" in out


def test_analyze_zero_bilinear():
    import tempfile

    doc = {
        "kind": "bilinear",
        "domain": "Q",
        "basis": ["a", "b"],
        "table": [
            [["0", "0"], ["0", "0"]],
            [["0", "0"], ["0", "0"]],
        ],
    }
    with tempfile.NamedTemporaryFile("w", suffix=".json", delete=False) as f:
        json.dump(doc, f)
        path = f.name
    code, out, _ = run_cli("analyze", path)
    assert code == 0
    assert "width 0 (exact)" in out
    assert "is_identically_degenerate: True" in out


def test_analyze_module_free_line_is_stage_error():
    import tempfile

    doc = {
        "kind": "module",
        "domain": "Z",
        "summands": ["Z"],
        "basis": ["e"],
    }
    with tempfile.NamedTemporaryFile("w", suffix=".json", delete=False) as f:
        json.dump(doc, f)
        path = f.name
    code, out, err = run_cli("analyze", path)
    assert code == 2
    assert "divisible_bounded_split" in err


def test_analyze_module_mixed():
    import tempfile

    doc = {
        "kind": "module",
        "domain": "Z",
        "summands": ["Q", "Q", {"torsion": 4}],
        "basis": ["a", "b", "c"],
    }
    with tempfile.NamedTemporaryFile("w", suffix=".json", delete=False) as f:
        json.dump(doc, f)
        path = f.name
    code, out, _ = run_cli("analyze", path)
    assert code == 0
    assert "divisible_part: Q + Q" in out
    assert "bounded_part: Z/4" in out


def test_malcev_mul():
    code, out, _ = run_cli("malcev", "mul", fixture_path("h3"), "(1,0,0)", "(0,1,0)")
    assert code == 0
    assert "result: (1, 1, 1/2)" in out


def test_malcev_pow():
    code, out, _ = run_cli("malcev", "pow", fixture_path("h3"), "(1,0,0)", "1/2")
    assert code == 0
    assert "result: (1/2, 0, 0)" in out


def test_malcev_comm():
    code, out, _ = run_cli("malcev", "comm", fixture_path("h3"), "(1,0,0)", "(0,1,0)")
    assert code == 0
    assert "result: (0, 0, 1)" in out


@pytest.mark.parametrize(
    "argv, message",
    [
        (["pow", "(1,0,0)", "abc"], "not a rational literal: 'abc'"),
        (["pow", "(1,0,0)", "1/0"], "not a rational literal: '1/0'"),
        (["pow", "(1,0,0)"], "malcev pow takes G EXPONENT after FILE, got 1 argument(s)"),
        (["mul", "(1,0,0)"], "malcev mul takes G H after FILE, got 1 argument(s)"),
        (["comm", "(1,0,0)"], "malcev comm takes G H after FILE, got 1 argument(s)"),
        (["decompose", "x"], "malcev decompose takes no arguments after FILE, got 1 argument(s)"),
    ],
    ids=[
        "pow-not-rational",
        "pow-zero-denominator",
        "pow-no-exponent",
        "mul-one-element",
        "comm-one-element",
        "decompose-extra-argument",
    ],
)
def test_malcev_argument_errors_are_invalid_input(argv, message):
    subcommand, *rest = argv
    code, out, err = run_cli("malcev", subcommand, fixture_path("h3"), *rest)
    assert (code, out) == (1, "")
    assert err == f"ringlab: invalid input: {message}\n"


def filiform_document(dim):
    """[e1, e_i] = e_{i+1} for i = 2..dim-1 over Q: nilpotency class dim - 1."""
    zero = ["0"] * dim

    def basis(k, sign):
        return [sign if t == k else "0" for t in range(dim)]

    table = [[zero for _ in range(dim)] for _ in range(dim)]
    for i in range(1, dim - 1):
        table[0][i] = basis(i + 1, "1")
        table[i][0] = basis(i + 1, "-1")
    names = [f"e{k + 1}" for k in range(dim)]
    return {"kind": "lie", "domain": "Q", "basis": names, "table": table}


def test_malcev_max_class_reaches_bch(tmp_path):
    from fractions import Fraction

    from ringlab.documents import load_document
    from ringlab.lie import bch, verify_nilpotent_lie

    text = json.dumps(filiform_document(8))
    path = tmp_path / "L8.json"
    path.write_text(text)
    x, y = "1,0,1/2,0,0,0,0,-3", "0,1,0,2,0,0,1/3,0"
    code, out, err = run_cli(
        "malcev", "mul", str(path), x, y, "--max-class", "8", "--format", "json"
    )
    assert code == 0, err
    algebra = verify_nilpotent_lie(load_document(text).ring())
    assert algebra.nilpotency_class == 7
    coords = lambda text: tuple(Fraction(c) for c in text.split(","))
    expected = bch(algebra, coords(x), coords(y), 8)
    assert json.loads(out)["result"] == "(" + ", ".join(str(c) for c in expected) + ")"


def test_analyze_class7_filiform_with_max_class_8(tmp_path):
    path = tmp_path / "L8.json"
    path.write_text(json.dumps(filiform_document(8)))
    code, out, err = run_cli("analyze", str(path), "--max-class", "8", "--format", "json")
    assert code == 0, err
    report = json.loads(out)
    assert report["correspondence"] == {
        "center_certified": True,
        "series_group_closed": True,
        "series_commutator_drop": True,
    }


def test_malcev_builds_the_document_ring_once(monkeypatch):
    from ringlab.rings import RingPresentation

    built = []
    post_init = RingPresentation.__post_init__

    def counting(self):
        built.append(self.tensor)
        post_init(self)

    monkeypatch.setattr(RingPresentation, "__post_init__", counting)
    code, out, _ = run_cli("malcev", "mul", fixture_path("h3"), "(1,0,0)", "(0,1,0)")
    assert code == 0 and "result: (1, 1, 1/2)" in out
    assert len(built) == 1


def test_malcev_decompose():
    code, out, _ = run_cli("malcev", "decompose", fixture_path("h3-plus-abelian"))
    assert code == 0
    assert "abelian_factor_dim: 1" in out
    assert "cross_commutators_trivial: True" in out


def test_parse_error_exit_code():
    import tempfile

    with tempfile.NamedTemporaryFile("w", suffix=".json", delete=False) as f:
        f.write("{not json")
        path = f.name
    code, _, err = run_cli("analyze", path)
    assert code == 1
    assert "line" in err


def test_validation_error_exit_code():
    import tempfile

    with tempfile.NamedTemporaryFile("w", suffix=".json", delete=False) as f:
        f.write('{"kind": "bogus", "domain": "Q", "basis": ["x"], "table": [[["0"]]]}')
        path = f.name
    code, _, err = run_cli("analyze", path)
    assert code == 1
    assert "kind" in err


def test_determinism_analyze_byte_identical():
    for name in FIXTURE_NAMES:
        _, out1, _ = run_cli("analyze", fixture_path(name), "--format", "json")
        _, out2, _ = run_cli("analyze", fixture_path(name), "--format", "json")
        assert out1 == out2


def test_selftest_quick_passes_and_is_deterministic():
    code1, out1, _ = run_cli("selftest", "quick")
    code2, out2, _ = run_cli("selftest", "quick")
    assert code1 == code2 == 0
    assert out1 == out2
    assert "status: pass" in out1


def test_extension_flag():
    code, out, _ = run_cli(
        "analyze", fixture_path("h3"), "--extension=-2,0,1", "--format", "json"
    )
    assert code == 0
    tree = json.loads(out)
    assert tree["carrier"].startswith("Q[t]/(")


def test_witnesses_flag():
    code, out, _ = run_cli(
        "analyze", fixture_path("h3-plus-abelian"), "--witnesses", "--format", "json"
    )
    assert code == 0
    tree = json.loads(out)
    assert "factor_rows" in tree


def test_round_trip_all_fixtures():
    from ringlab.documents import load_document, serialize_document

    for name in FIXTURE_NAMES:
        doc = load_document(fixture_text(name))
        text = serialize_document(doc)
        doc2 = load_document(text)
        assert serialize_document(doc2) == text


def test_analyze_max_class_caps_bch():
    code, out, err = run_cli("analyze", fixture_path("h3"), "--max-class", "1")
    assert code == 2 and not out
    assert "stage 'central_series_and_center'" in err
    assert "class 2 exceeds the BCH cap 1" in err


def test_non_utf8_document_is_invalid_input(tmp_path):
    path = tmp_path / "utf16.json"
    path.write_bytes(b"\xff\xfe{\x00}\x00")
    code, out, err = run_cli("analyze", str(path))
    assert (code, out) == (1, "")
    assert err.startswith("ringlab: invalid input: the file is not UTF-8 text")
    assert "(line 1, column 1)" in err


@pytest.mark.parametrize(
    "text, message",
    [
        (
            '{"kind": "ring", "domain": {"gf": 07}, "basis": ["x"], "table": [[["0"]]]}',
            "numbers must not have leading zeros (line 1, column 36)",
        ),
        (
            '{"kind": "ring", "domain": "Q", "basis": ["x\ty"], "table": [[["0"]]]}',
            "unescaped control character U+0009 in a string (line 1, column 45)",
        ),
    ],
    ids=["leading-zero", "raw-tab"],
)
def test_json_that_other_readers_refuse_is_invalid_input(tmp_path, text, message):
    path = tmp_path / "doc.json"
    path.write_text(text, encoding="utf-8")
    code, out, err = run_cli("analyze", str(path))
    assert (code, out, err) == (1, "", f"ringlab: invalid input: {message}\n")


def test_lone_surrogate_escape_is_invalid_input(tmp_path):
    # json.dumps writes a lone surrogate as the escape \ud800
    doc = json.loads(fixture_text("h3"))
    doc["basis"][0] = "\ud800"
    path = tmp_path / "lone.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run_cli("analyze", str(path), "--format", "text", "--witnesses")
    assert (code, out) == (1, "")
    assert err.startswith("ringlab: invalid input: lone UTF-16 surrogate \\ud800 (line 1, column")
    assert "Traceback" not in err
    doc["basis"][0] = "\U0001f600"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run_cli("analyze", str(path), "--format", "text", "--witnesses")
    assert (code, err) == (0, "")
    assert "\U0001f600" in out
    out.encode("utf-8")


@pytest.mark.parametrize("codomain", [["Q", "Z"], ["Q", "Q"]])
def test_kernel_over_z_with_a_rational_codomain_line(tmp_path, codomain):
    """M = Z + Z/2 into N with a Q line: C(f) is found; the pipeline stops
    later, at a stage that needs the torsion split first."""
    doc = {
        "kind": "bilinear",
        "domain": "Z",
        "summands": ["Z", {"torsion": 2}],
        "basis": ["m0", "m1"],
        "codomain": {"summands": codomain, "basis": ["n0", "n1"]},
        "table": [[["1", "0"], ["0", "0"]], [["0", "0"], ["0", "0"]]],
    }
    path = tmp_path / "zq.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run_cli("analyze", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("ringlab: pipeline error at stage")
    assert "two_sided_kernel" not in err and "Traceback" not in err


def test_mixed_ring_reaches_the_central_split(tmp_path):
    """Q x GF(2) on the carrier Q + Z/2: Delta(R) is the blockwise
    intersection of Ann(R) and R^2, and the report ends in the central
    split."""
    doc = {
        "kind": "ring",
        "domain": "Z",
        "summands": ["Q", {"torsion": 2}],
        "basis": ["e0", "e1"],
        "table": [[[1, 0], [0, 0]], [[0, 0], [0, 1]]],
    }
    path = tmp_path / "q-z2.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run_cli("analyze", str(path))
    assert (code, err) == (0, "")
    assert "square_ideal: [e0, e1]\ndelta: (none)\nis_regular: True\n" in out
    assert "central_split:\n  divisible_dim: 1\n  bounded_dim: 1\n" in out


def test_free_line_into_a_mixed_codomain_is_refused(tmp_path):
    """M = Z into N = Q + Z/2 with f(m0, m0) = (1, 1): the image {(n, n mod
    2)} is not blockwise, so image_submodule refuses M's free line."""
    doc = {
        "kind": "bilinear",
        "domain": "Z",
        "summands": ["Z"],
        "basis": ["m0"],
        "codomain": {"summands": ["Q", {"torsion": 2}], "basis": ["n0", "n1"]},
        "table": [[[1, 1]]],
    }
    path = tmp_path / "z-q-z2.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert run_cli("analyze", str(path)) == (
        2,
        "",
        "ringlab: pipeline error at stage 'image_submodule': free integer line at "
        "position(s) [0]: no divisible + bounded decomposition\n",
    )


def test_deeply_nested_document_is_parse_error():
    import tempfile

    with tempfile.NamedTemporaryFile("w", suffix=".json", delete=False) as f:
        f.write("[" * 5000 + "]" * 5000)
        path = f.name
    code, _, err = run_cli("analyze", path)
    assert code == 1
    assert err.startswith("ringlab: invalid input:")
    assert "(line 1, column" in err


def test_residue_field_over_extension_base():
    code, out, _ = run_cli(
        "analyze", fixture_path("q-x2-2-squared"), "--extension=1,0,1"
    )
    assert code == 0
    (line,) = [l.strip() for l in out.splitlines() if "residue_field" in l]
    assert "[" not in line.replace("[t]", "").replace("[s]", "")
    assert line.count("t") == line.count("[t]") == 1
    assert line == "residue_field: Q[t]/(1,0,1)[s]/(-2 + s^2)"


def test_an_extension_coefficient_of_several_terms_is_parenthesised():
    from ringlab.bilinear import field_carrier
    from ringlab.domains import Extension, PrimeField
    from ringlab.reports import fmt_element

    ext = Extension(PrimeField(7), (1, 0, 1))
    coords = (ext.parse([1, 5]), ext.parse([0, 6]), ext.parse(3))
    text = fmt_element(field_carrier(ext, 3), coords, ["a", "b", "c"])
    assert text == "(1 + 5*t)*a + 6*t*b + 3*c"


def test_gf_p_document_over_an_extension_reaches_every_stage():
    # the radical over GF(7)[t]/(t^2 + 1) comes from the GF(7) restriction
    path = os.path.join(GOLDEN_INPUTS, "gf7-alg10.json")
    code, out, err = run_cli("analyze", path, "--extension=1,0,1")
    assert (code, err) == (0, "")
    assert "r_k_total: 6" in out
    assert "idempotent: (1 + 5*t)*a0 + (4 + t)*a1 + " in out


def test_a_failed_certificate_is_a_pipeline_error(monkeypatch):
    from ringlab import scalars

    monkeypatch.setattr(scalars, "_certify_bilinearity", lambda f, report: False)
    code, out, err = run_cli("analyze", fixture_path("h3"))
    assert code == 2 and not out
    assert err == (
        "ringlab: pipeline error at stage 'group_decompose': "
        "A(R) bilinearity certificate failed\n"
    )


def test_a_failed_decomposition_check_is_a_pipeline_error(monkeypatch):
    from ringlab import rings

    real = rings._annihilate
    monkeypatch.setattr(rings, "_annihilate", lambda r, sets: real(r, list(sets) + list(sets[:1])))
    code, out, err = run_cli("analyze", fixture_path("h3"))
    assert code == 2 and not out
    assert err == (
        "ringlab: pipeline error at stage 'group_decompose': "
        "cross-component product check: a product is nonzero\n"
    )


def test_a_singular_matrix_is_a_pipeline_error(monkeypatch):
    from ringlab import linalg, scalars

    real = linalg.inverse
    monkeypatch.setattr(
        scalars, "inverse", lambda m: real(linalg.Matrix.zero(m.domain, m.rows, m.cols))
    )
    code, out, err = run_cli("analyze", fixture_path("h3"))
    assert code == 2 and not out
    assert err == "ringlab: pipeline error at stage 'group_decompose': matrix is singular\n"


def test_a_failed_artinian_check_is_a_pipeline_error(monkeypatch):
    from ringlab import artinian
    from ringlab.records import replace

    real = artinian.field_of_representatives
    # with the unit among the radical rows, the lifted subfield meets the radical
    monkeypatch.setattr(
        artinian,
        "field_of_representatives",
        lambda lf: real(replace(lf, radical_rows=lf.radical_rows + (lf.algebra.unit,))),
    )
    code, out, err = run_cli("analyze", fixture_path("q-x2-2-squared"))
    assert code == 2 and not out
    assert "Traceback" not in err
    assert err == (
        "ringlab: pipeline error at stage 'field_of_representatives': "
        "subfield check: the lifted subfield meets the radical\n"
    )


def test_a_relation_outside_its_lattice_is_a_pipeline_error(monkeypatch, tmp_path):
    from ringlab.modules import Lattice

    # zero multiplication on Z + Z/2: the adapted basis of Ann(R) expresses
    # the relation 2*b in its Hermite basis
    doc = {
        "kind": "ring",
        "domain": "Z",
        "summands": ["Z", {"torsion": 2}],
        "basis": ["a", "b"],
        "table": [[[0, 0], [0, 0]], [[0, 0], [0, 0]]],
    }
    path = tmp_path / "z-plus-z2.json"
    path.write_text(json.dumps(doc))
    monkeypatch.setattr(Lattice, "coords", lambda self, x: None)
    code, out, err = run_cli("analyze", str(path))
    assert code == 2 and not out
    assert "Traceback" not in err
    assert err == (
        "ringlab: pipeline error at stage 'foundation_addition': "
        "adapted-basis check: a relation lies outside its own lattice\n"
    )


def test_a_failed_j_series_check_names_its_stage(monkeypatch):
    from ringlab import artinian
    from ringlab.errors import InvariantViolation

    def failing(lf):
        raise InvariantViolation("J-series check: a layer does not shrink")

    monkeypatch.setattr(artinian, "j_series", failing)
    code, out, err = run_cli("analyze", fixture_path("q-x2-2-squared"))
    assert code == 2 and not out
    assert "Traceback" not in err
    assert err == (
        "ringlab: pipeline error at stage 'j_series': "
        "J-series check: a layer does not shrink\n"
    )


LINES = ("Q", "Z", {"torsion": 2}, {"torsion": 3})


def _step(si, sj, line):
    """Coordinate `line` of f(e_i, e_j) must be a multiple of this (0: be
    0) for Z-bilinearity: a divisible index asks for divisible support, a
    torsion index kills the entry."""
    orders = [s["torsion"] for s in (si, sj) if isinstance(s, dict)]
    if "Q" in (si, sj):
        return int(line == "Q" and not orders)
    if isinstance(line, dict):
        m = line["torsion"]
        return lcm(*(m // gcd(m, q) for q in orders))
    return int(not orders)


@st.composite
def documents(draw):
    """A ring, bilinear or lie document of dimension at most 3 over GF(2),
    GF(3), Q or Z, the Z ones on free, torsion, rational and mixed lines.
    Half the Z tables keep to what Z-bilinearity allows; the rest, like
    the field tables, are small random entries."""
    kind = draw(st.sampled_from(("ring", "bilinear", "lie")))
    domain = draw(st.sampled_from(({"gf": 2}, {"gf": 3}, "Q", "Z")))
    dim = draw(st.integers(1, 3))
    doc = {"kind": kind, "domain": domain, "basis": [f"e{i}" for i in range(dim)]}
    lines = draw(st.lists(st.sampled_from(LINES), min_size=dim, max_size=dim))
    codomain = lines
    if kind == "bilinear":
        width = draw(st.integers(1, 3))
        codomain = draw(st.lists(st.sampled_from(LINES), min_size=width, max_size=width))
        doc["codomain"] = {"basis": [f"n{i}" for i in range(width)]}
        if domain == "Z":
            doc["codomain"]["summands"] = codomain
    if domain == "Z":
        doc["summands"] = lines
    lawful = domain == "Z" and draw(st.booleans())
    values = ("0", "0", "1", "-1", "2", "1/2") if domain == "Q" else (0, 0, 1, -1, 2)
    doc["table"] = [
        [
            [
                draw(st.sampled_from(values)) * (_step(si, sj, t) if lawful else 1)
                for t in codomain
            ]
            for sj in lines
        ]
        for si in lines
    ]
    return doc


@settings(max_examples=60, deadline=None)
@given(documents(), st.sampled_from(("json", "text")))
def test_analyze_never_shows_a_traceback(doc, fmt):
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "doc.json")
        with open(path, "w", encoding="utf-8") as f:
            json.dump(doc, f)
        first = run_cli("analyze", path, "--format", fmt)
        assert first == run_cli("analyze", path, "--format", fmt)
    code, out, err = first
    assert code in (0, 1, 2)
    assert "Traceback" not in out + err
    assert bool(err) == (code != 0) and bool(out) == (code == 0)


# 5,000 digits: past Python's default limit of 4,300 on int <-> str conversion
BIG = "7" * 5000


@pytest.mark.parametrize("literal", [BIG, f'"{BIG}"'], ids=["number", "string"])
def test_integer_literals_past_the_digit_limit_are_read_and_printed(tmp_path, literal):
    path = tmp_path / "big.json"
    table = f"[[[1, {literal}], [0, 0]], [[0, 0], [0, 0]]]"
    path.write_text(f'{{"kind": "ring", "domain": "Q", "basis": ["x", "y"], "table": {table}}}')
    limit = sys.get_int_max_str_digits()
    code, out, err = run_cli("analyze", str(path), "--format", "json")
    assert (code, err) == (0, "")
    assert json.loads(out)["square_ideal"] == [f"x + {BIG}*y"]
    # main lifts the limit only while the command runs
    assert sys.get_int_max_str_digits() == limit


def test_malcev_prints_a_result_past_the_digit_limit():
    """In H3, (a, 0, 0) * (0, a, 0) = (a, a, a^2/2); a = 10^2200 - 1 gives
    a^2 = 9..98 0..01 with 4,400 digits."""
    a = "9" * 2200
    code, out, err = run_cli(
        "malcev", "mul", fixture_path("h3"), f"({a},0,0)", f"(0,{a},0)", "--format", "json"
    )
    assert (code, err) == (0, "")
    square = "9" * 2199 + "8" + "0" * 2199 + "1"
    assert json.loads(out)["result"] == f"({a}, {a}, {square}/2)"



GOLDEN_INPUTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden", "inputs")


def input_path(name):
    """A packaged fixture, or else a benchmark input under golden/inputs/."""
    if name in FIXTURE_NAMES:
        return fixture_path(name)
    return os.path.join(GOLDEN_INPUTS, f"{name}.json")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["analyze", "L6", "--max-class", "-5"], "--max-class must be >= 0, got -5"),
        (
            ["malcev", "mul", "h3", "(1,0,0)", "(0,1,0)", "--max-class", "-1"],
            "--max-class must be >= 0, got -1",
        ),
        (["analyze", "outer2x3-gf3", "--width-bound", "-1"], "--width-bound must be >= 0, got -1"),
        # refused before the document is read: the file need not exist
        (["analyze", "missing", "--width-bound", "-3"], "--width-bound must be >= 0, got -3"),
    ],
    ids=["analyze-max-class", "malcev-max-class", "width-bound", "before-reading"],
)
def test_a_negative_cap_is_invalid_input(argv, message):
    file_at = 2 if argv[0] == "malcev" else 1
    argv[file_at] = input_path(argv[file_at])
    code, out, err = run_cli(*argv)
    assert (code, out, err) == (1, "", f"ringlab: invalid input: {message}\n")


@pytest.mark.parametrize(
    "name, option, message",
    [
        ("h3", "--max-class", "stage 'central_series_and_center': class 2 exceeds the BCH cap 0"),
        ("outer2x3-gf3", "--width-bound", "stage 'width': width exceeded the search bound 0"),
    ],
)
def test_a_zero_cap_is_a_cap(name, option, message):
    code, out, err = run_cli("analyze", input_path(name), option, "0")
    assert (code, out, err) == (2, "", f"ringlab: pipeline error at {message}\n")


def test_malcev_refuses_width_bound():
    # only analyze reads --width-bound; argparse refuses it with usage code 2
    with pytest.raises(SystemExit) as exc:
        run_cli("malcev", "mul", fixture_path("h3"), "(1,0,0)", "(0,1,0)", "--width-bound", "3")
    assert exc.value.code == 2


def test_malcev_pow_reads_a_negative_exponent_after_double_dash():
    code, out, err = run_cli(
        "malcev", "pow", "--format", "json", fixture_path("h3"), "(1,0,0)", "--", "-3/2"
    )
    assert (code, err) == (0, "")
    assert json.loads(out)["result"] == "(-3/2, 0, 0)"


def test_an_option_after_the_positionals_of_malcev_pow_is_a_usage_error():
    # argparse stops filling the positionals at the first option, so `-- -3/2`
    # is left over: a usage error exits 2 with argparse's message
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err), pytest.raises(SystemExit) as exc:
        main(["malcev", "pow", fixture_path("h3"), "(1,0,0)", "--format", "json", "--", "-3/2"])
    assert exc.value.code == 2 and out.getvalue() == ""
    assert "ringlab: error: unrecognized arguments: -- -3/2\n" in err.getvalue()


@pytest.mark.parametrize(
    "text, message",
    [
        ("12", "document must be a JSON object (line 1, column 1)"),
        ("[12", "expected ']', found '' (line 1, column 4)"),
        ("-", "malformed number (line 1, column 2)"),
        ('{"kind": ²}', "unexpected character '²' (line 1, column 10)"),
        ("[١]", "unexpected character '١' (line 1, column 2)"),
    ],
)
def test_number_literals_are_ascii_integers(tmp_path, text, message):
    path = tmp_path / "doc.json"
    path.write_text(text, encoding="utf-8")
    assert run_cli("analyze", str(path)) == (1, "", f"ringlab: invalid input: {message}\n")


def _doc_file(tmp_path, doc):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


@pytest.mark.parametrize(
    "extra, message",
    [
        ({"summands": None}, "summands must be a list at summands"),
        ({"codomain": {"basis": "xy"}}, "basis must be a list of names at codomain.basis"),
        ({"codomain": {"summands": 3}}, "summands must be a list at codomain.summands"),
        (
            {"codomain": {"basis": ["a", "b"], "summands": ["Q"]}},
            "summands and basis disagree in length at codomain.summands",
        ),
    ],
)
def test_a_badly_sized_codomain_is_invalid_input(tmp_path, extra, message):
    doc = {"kind": "bilinear", "domain": "Q", "basis": ["x"], "table": [[["0", "0"]]], **extra}
    code, out, err = run_cli("analyze", _doc_file(tmp_path, doc))
    assert (code, out) == (1, "")
    assert err.startswith(f"ringlab: invalid input: {message} (line 1, column ")


@pytest.mark.parametrize("domain, name", [({"gf": 5}, "GF(5)"), ({"zmod": 4}, "Z/4")])
def test_a_residue_literal_with_a_bad_modulus_is_invalid_input(tmp_path, domain, name):
    doc = {"kind": "ring", "domain": domain, "basis": ["a"], "table": [[["2 mod x"]]]}
    code, out, err = run_cli("analyze", _doc_file(tmp_path, doc))
    assert (code, out) == (1, "")
    assert err.startswith(
        f"ringlab: invalid input: not a {name} literal: '2 mod x' at table[0][0][0]"
    )


def test_reports_print_plain_values(tmp_path):
    doc = {"kind": "ring", "domain": "Q", "basis": [{"x": 2}], "table": [[["0"]]]}
    code, out, err = run_cli("analyze", _doc_file(tmp_path, doc), "--format", "json")
    assert (code, err) == (0, "")
    assert json.loads(out)["annihilator"] == ["{'x': 2}"]
    doc["table"] = [[[["1"]]]]
    code, out, err = run_cli("analyze", _doc_file(tmp_path, doc))
    assert (code, out) == (1, "")
    assert "not a rational literal: ['1'] at table[0][0][0]" in err


def test_a_degree5_algebra_splits_into_its_two_local_factors(tmp_path):
    # Q[t]/((t^2 + 1)(t^3 + 2)) on the basis 1, t, ..., t^4: the probe t has
    # a reducible quintic minimal polynomial with no rational root
    from ringlab.domains import QQ
    from ringlab.polynomials import Poly, pow_mod

    f = Poly.from_ints(QQ, (1, 0, 1)).mul(Poly.from_ints(QQ, (2, 0, 0, 1)))

    def power(k):
        coeffs = pow_mod(Poly.x(QQ), k, f).coeffs
        return [str(c) for c in coeffs] + ["0"] * (5 - len(coeffs))

    doc = {
        "kind": "commutative-algebra",
        "domain": "Q",
        "basis": [f"a{i}" for i in range(5)],
        "table": [[power(i + j) for j in range(5)] for i in range(5)],
    }
    path = tmp_path / "two-factors.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli("analyze", str(path), "--format", "json")
    assert (code, err) == (0, "")
    factors = json.loads(out)["local_factors"]
    assert [(lf["dim"], lf["field_of_representatives"]["degree"]) for lf in factors] == [
        (2, 2),
        (3, 3),
    ]


def test_a_reducible_quintic_extension_is_invalid_input():
    # t^5 + t^4 + t^3 + 2t^2 + 1 = (t^2 + 1)(t^3 + t^2 + 1) has no rational root
    code, out, err = run_cli("analyze", input_path("q-alg6"), "--extension=1,0,2,1,1,1")
    assert (code, out, err) == (
        1,
        "",
        "ringlab: invalid input: extension minimal polynomial is reducible\n",
    )
