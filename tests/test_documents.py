import pytest

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
    assert parse_json('"\\u00e9\\u00C9x"').value == "\u00e9\u00c9x"


def test_surrogate_pair_escapes_join_into_one_character():
    assert parse_json('"a\\ud83d\\ude00b\\uDBFF\\uDFFF"').value == "a\U0001f600b\U0010ffff"


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
