import json
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from ringlab.documents import load_document, parse_json, serialize_document
from ringlab.errors import ParseError, ValidationError

H3_TEXT = """
{
  "kind": "lie",
  "domain": "Q",
  "basis": ["x", "y", "z"],
  "table": [
    [["0","0","0"], ["0","0","1"], ["0","0","0"]],
    [["0","0","-1"], ["0","0","0"], ["0","0","0"]],
    [["0","0","0"], ["0","0","0"], ["0","0","0"]]
  ]
}
"""


def test_load_h3():
    doc = load_document(H3_TEXT)
    assert doc.kind == "lie"
    assert doc.basis_names == ("x", "y", "z")
    assert doc.carrier.dim == 3
    assert doc.ring().lie


def test_round_trip_identity_on_model():
    doc = load_document(H3_TEXT)
    text = serialize_document(doc)
    doc2 = load_document(text)
    assert serialize_document(doc2) == text
    assert doc2.tensor == doc.tensor
    assert doc2.basis_names == doc.basis_names


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as exc:
        parse_json('{"kind": "lie",\n  "oops }')
    assert exc.value.line == 2


@pytest.mark.parametrize(
    "text, message, col",
    [
        ('{"kind": "\\uzz00"}', "four hex digits, found 'zz00'", 13),
        ('{"kind": "\\u0x1a"}', "four hex digits, found '0x1a'", 13),
        ('"\\u00', "four hex digits, found '00'", 4),
        ('"1\\', "unterminated string", 4),
        ('"\\', "unterminated string", 3),
        ('{"kind": "\\ud800"}', "lone UTF-16 surrogate \\ud800", 13),
        ('"ab\\uDC00"', "lone UTF-16 surrogate \\udc00", 6),
        ('"\\ud83d\\u0041"', "lone UTF-16 surrogate \\ud83d", 4),
        ('"\\ud83dx"', "lone UTF-16 surrogate \\ud83d", 4),
        ('"\\ud83d\\ud83d\\ude00"', "lone UTF-16 surrogate \\ud83d", 4),
        ('"\\ud83d\\ude"', "four hex digits, found 'de\"'", 10),
    ],
)
def test_bad_and_cut_off_escapes_are_parse_errors(text, message, col):
    with pytest.raises(ParseError) as exc:
        parse_json(text)
    assert message in str(exc.value)
    assert (exc.value.line, exc.value.col) == (1, col)


def test_unicode_escapes_decode():
    assert parse_json('"\\u00e9\\u00C9x"') == "\u00e9\u00c9x"


def test_a_basis_name_json_dump_escapes_loads():
    tree = json.loads(H3_TEXT)
    tree["basis"] = ["x\b", "y\f", "z\\/"]
    text = json.dumps(tree)
    assert "\\b" in text and "\\f" in text
    assert load_document(text).basis_names == ("x\b", "y\f", "z\\/")


def test_surrogate_pair_escapes_join_into_one_character():
    assert parse_json('"a\\ud83d\\ude00b\\uDBFF\\uDFFF"') == "a\U0001f600b\U0010ffff"


def test_float_literals_rejected():
    with pytest.raises(ParseError) as exc:
        parse_json('{"x": 1.5}')
    assert "floating-point" in str(exc.value)


def test_validation_error_names_path_and_position():
    bad = H3_TEXT.replace('"kind": "lie"', '"kind": "nonsense"')
    with pytest.raises(ValidationError) as exc:
        load_document(bad)
    assert exc.value.path == "kind"
    assert exc.value.line is not None


def test_bad_entry_position():
    bad = H3_TEXT.replace('["0","0","-1"]', '["0","oops","-1"]')
    with pytest.raises(ValidationError) as exc:
        load_document(bad)
    assert "table[1][0]" in exc.value.path


def test_cross_structure_violation_points_at_table():
    text = """
    {
      "kind": "ring",
      "domain": "Z",
      "summands": ["Q", {"torsion": 2}],
      "basis": ["a", "b"],
      "table": [
        [["0", 0], ["0", 1]],
        [["0", 0], ["0", 0]]
      ]
    }
    """
    with pytest.raises(ValidationError) as exc:
        load_document(text)
    assert exc.value.path == "table"


def test_zmod_routes_through_integers():
    text = """
    {
      "kind": "ring",
      "domain": {"zmod": 4},
      "basis": ["a"],
      "table": [[[2]]]
    }
    """
    doc = load_document(text)
    assert doc.carrier.kind == "integer"
    assert doc.carrier.desc.summands[0].modulus == 4


def test_gf_domain_gives_field_carrier():
    text = """
    {
      "kind": "ring",
      "domain": {"gf": 5},
      "basis": ["a"],
      "table": [[[3]]]
    }
    """
    doc = load_document(text)
    assert doc.carrier.kind == "field"
    assert doc.carrier.domain.p == 5


def test_extension_domain():
    text = """
    {
      "kind": "commutative-algebra",
      "domain": {"ext": {"base": "Q", "minpoly": ["-2", "0", "1"]}},
      "basis": ["e"],
      "table": [[[["1", "0"]]]],
      "unit": [["1", "0"]]
    }
    """
    doc = load_document(text)
    assert doc.carrier.domain.degree == 2
    alg = doc.commutative_algebra()
    assert alg.dim == 1


def test_mod_literdescribes():
    text = """
    {
      "kind": "ring",
      "domain": {"gf": 5},
      "basis": ["a"],
      "table": [[["7 mod 5"]]]
    }
    """
    doc = load_document(text)
    assert doc.tensor[0][0] == (2,)


@pytest.mark.parametrize(
    "text, message, col",
    [
        ("12", "document must be a JSON object", 1),
        ("[12", "expected ']', found ''", 4),
        ("-", "malformed number", 2),
        ("[-]", "malformed number", 3),
        ("[1e5]", "floating-point", 3),
        ('{"kind": ²}', "unexpected character '²'", 10),
        ("[١]", "unexpected character '١'", 2),
    ],
)
def test_number_literals_are_ascii_integers(text, message, col):
    with pytest.raises((ParseError, ValidationError)) as exc:
        load_document(text)
    assert message in str(exc.value)
    assert (exc.value.line, exc.value.col) == (1, col)


def test_a_number_may_end_the_text():
    assert parse_json("12") == 12 and parse_json("-7 \n") == -7


def test_values_are_plain():
    value = parse_json('{"a": [1, "2", true, null], "b": {}}')
    assert value == {"a": [1, "2", True, None], "b": {}}
    assert type(value["a"][2]) is bool


def test_position_counts_code_points_and_carriage_returns():
    with pytest.raises(ParseError) as exc:
        parse_json('{\r\n "é\U0001f600": \r ?}')
    assert (exc.value.line, exc.value.col) == (2, 10)


@pytest.mark.parametrize(
    "text, path, line, col",
    [
        # a missing key points at the innermost value that lacks it
        ('\n  {"domain": "Q"}', "kind", 2, 3),
        ('{"kind": "ring",\n "domain": {"gf": 4}}', "domain.gf", 2, 19),
        # a repeated key: the last occurrence is the one read
        ('{"kind": "ring", "domain": "Q",\n "domain": "R"}', "domain", 2, 12),
        ('{"kind": "ring", "domain": "Q", "basis": ["a"],\n "table": [[["0"]]], "table": []}',
         "table", 2, 31),
    ],
)
def test_a_validation_error_points_at_the_value_its_path_names(text, path, line, col):
    with pytest.raises(ValidationError) as exc:
        load_document(text)
    assert exc.value.path == path
    assert (exc.value.line, exc.value.col) == (line, col)


@pytest.mark.parametrize(
    "extra, message, path",
    [
        ({"summands": None}, "summands must be a list", "summands"),
        ({"basis": None}, "basis must be a list of names", "basis"),
        ({"basis": "xy"}, "basis must be a list of names", "basis"),
        ({"summands": ["Z", "Z"]}, "summands and basis disagree in length", "summands"),
        ({"codomain": {"basis": "xy"}}, "basis must be a list of names", "codomain.basis"),
        ({"codomain": {"summands": 3}}, "summands must be a list", "codomain.summands"),
        ({"codomain": {"summands": None}}, "summands must be a list", "codomain.summands"),
        (
            {"codomain": {"basis": ["a", "b"], "summands": ["Z"]}},
            "summands and basis disagree in length",
            "codomain.summands",
        ),
        ({"codomain": {}}, "codomain needs basis or summands", "codomain"),
    ],
)
def test_the_document_and_its_codomain_are_sized_by_one_rule(extra, message, path):
    doc = {"kind": "bilinear", "domain": "Z", "basis": ["x"], "table": [[[0]]], **extra}
    with pytest.raises(ValidationError) as exc:
        load_document(json.dumps(doc))
    assert (str(exc.value).split(" at ")[0], exc.value.path) == (message, path)


def test_codomain_names_default_from_its_summands():
    doc = {"kind": "bilinear", "domain": "Z", "basis": ["x"], "table": [[[0, 0]]]}
    doc["codomain"] = {"summands": ["Z", "Z"]}
    assert load_document(json.dumps(doc)).codomain_basis == ("n0", "n1")


# -- robustness: damaged golden inputs ----------------------------------------

# the golden inputs that are JSON (err-bad-escape is not), below 4 KB
SMALL_GOLDEN = [
    json.loads(p.read_text(encoding="utf-8"))
    for p in sorted(Path(__file__).parent.joinpath("golden", "inputs").glob("*.json"))
    if p.stat().st_size < 4000 and p.name != "err-bad-escape.json"
]
REPLACEMENTS = st.sampled_from(
    [None, True, 0, 2, -1, 4, "", "Q", "Z", "x", "1/0", "2 mod x", [], {}, ["Q"], [[]],
     {"gf": 5}, {"torsion": 2}, {"ext": {}}, [0, 0], ["1", "0"], {"basis": "xy"}]
)


def _subtrees(value, path=()):
    yield path
    items = value.items() if isinstance(value, dict) else (
        enumerate(value) if isinstance(value, list) else ())
    for key, child in items:
        yield from _subtrees(child, path + (key,))


def _mutate(value, path, replacement):
    """value with the subtree at path replaced, or deleted if replacement
    is _DELETE."""
    if not path:
        return replacement
    head, rest = path[0], path[1:]
    out = dict(value) if isinstance(value, dict) else list(value)
    if not rest and replacement is _DELETE:
        del out[head]
    else:
        out[head] = _mutate(value[head], rest, replacement)
    return out


_DELETE = object()


@st.composite
def damaged_documents(draw):
    value = draw(st.sampled_from(SMALL_GOLDEN))
    for _ in range(draw(st.integers(1, 3))):
        paths = list(_subtrees(value))
        path = draw(st.sampled_from(paths[1:] or paths))
        replacement = draw(st.just(_DELETE) | REPLACEMENTS) if path else draw(REPLACEMENTS)
        value = _mutate(value, path, replacement)
    return json.dumps(value, indent=draw(st.sampled_from((None, 1))))


@settings(max_examples=300, deadline=None)
@given(damaged_documents())
def test_damaged_documents_raise_only_input_errors(text):
    try:
        load_document(text)
    except (ParseError, ValidationError) as exc:
        assert "Node(" not in str(exc)
