"""The document parser reads JSON as the scanner it replaced did.

The scanner below is the one that annotated every value with a `Node`
(line, column) record, copied unchanged as the reference.  A hypothesis
property runs both on JSON-like texts, valid and damaged: they must give
the same plain value, or the same `ParseError` message, line and column.
The reference has three faults that the new scanner mends, and a text
that meets one of them is exempt:

- a number that ends the text is reported as a float (`"" in ".eE"`);
- `str.isdigit` accepts non-ASCII digits (`²` fails in `int`, `١` reads
  as 1);
- it refuses the JSON escapes `\\b` and `\\f`, which `json.dumps` writes.

The new scanner is also stricter than the reference in two ways that JSON
requires, and a text that it refuses for one of them is exempt:

- a number with a leading zero, such as `012` or `-05`;
- a raw control character, U+0000 to U+001F, inside a string.
"""

import json

import pytest
from hypothesis import given, settings, strategies as st

from ringlab import documents
from ringlab.documents import parse_json
from ringlab.errors import ParseError
from ringlab.records import record

FLOAT_MESSAGE = "floating-point literals are not allowed"
LEADING_ZERO_MESSAGE = "numbers must not have leading zeros"
CONTROL_MESSAGE = "unescaped control character U+"

# -- the reference: the Node-per-value scanner, unchanged ---------------------

MAX_DEPTH = 64
_HEX_DIGITS = frozenset("0123456789abcdefABCDEF")


@record(frozen=False)
class Node:
    value: object
    line: int
    col: int


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.line = 1
        self.col = 1
        self.depth = 0

    def error(self, message):
        raise ParseError(message, self.line, self.col)

    def peek(self):
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def advance(self):
        c = self.text[self.pos]
        self.pos += 1
        if c == "\n":
            self.line += 1
            self.col = 1
        else:
            self.col += 1
        return c

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos] in " \t\r\n":
            self.advance()

    def expect(self, char):
        if self.peek() != char:
            self.error(f"expected {char!r}, found {self.peek()!r}")
        self.advance()

    def parse_value(self) -> Node:
        self.skip_ws()
        line, col = self.line, self.col
        c = self.peek()
        if c == "":
            self.error("unexpected end of input")
        if c in "{[":
            if self.depth == MAX_DEPTH:
                self.error(f"arrays and objects nest deeper than {MAX_DEPTH} levels")
            self.depth += 1
            node = self.parse_object() if c == "{" else self.parse_array()
            self.depth -= 1
            return node
        if c == '"':
            return Node(self.parse_string(), line, col)
        if c == "-" or c.isdigit():
            return Node(self.parse_number(), line, col)
        for literal, value in (("true", True), ("false", False), ("null", None)):
            if self.text.startswith(literal, self.pos):
                for _ in literal:
                    self.advance()
                return Node(value, line, col)
        self.error(f"unexpected character {c!r}")

    def parse_object(self) -> Node:
        line, col = self.line, self.col
        self.expect("{")
        out = {}
        self.skip_ws()
        if self.peek() == "}":
            self.advance()
            return Node(out, line, col)
        while True:
            self.skip_ws()
            if self.peek() != '"':
                self.error("object keys must be strings")
            key = self.parse_string()
            self.skip_ws()
            self.expect(":")
            out[key] = self.parse_value()
            self.skip_ws()
            if self.peek() == ",":
                self.advance()
                continue
            self.expect("}")
            return Node(out, line, col)

    def parse_array(self) -> Node:
        line, col = self.line, self.col
        self.expect("[")
        out = []
        self.skip_ws()
        if self.peek() == "]":
            self.advance()
            return Node(out, line, col)
        while True:
            out.append(self.parse_value())
            self.skip_ws()
            if self.peek() == ",":
                self.advance()
                continue
            self.expect("]")
            return Node(out, line, col)

    def parse_string(self) -> str:
        self.expect('"')
        out = []
        while True:
            c = self.peek()
            if c == "":
                self.error("unterminated string")
            if c == '"':
                self.advance()
                return "".join(out)
            if c == "\\":
                self.advance()
                if self.peek() == "":
                    self.error("unterminated string")
                esc = self.advance()
                mapping = {"n": "\n", "t": "\t", "r": "\r", '"': '"', "\\": "\\", "/": "/"}
                if esc in mapping:
                    out.append(mapping[esc])
                elif esc == "u":
                    line, col = self.line, self.col
                    value = self.parse_hex4()
                    if 0xD800 <= value < 0xDC00 and self.text.startswith("\\u", self.pos):
                        # a UTF-16 pair: high then low surrogate
                        self.advance()
                        self.advance()
                        low = self.parse_hex4()
                        if 0xDC00 <= low < 0xE000:
                            value = 0x10000 + ((value - 0xD800) << 10) + low - 0xDC00
                    if 0xD800 <= value < 0xE000:
                        raise ParseError(f"lone UTF-16 surrogate \\u{value:04x}", line, col)
                    out.append(chr(value))
                else:
                    self.error(f"unsupported escape \\{esc}")
            else:
                out.append(self.advance())

    def parse_hex4(self) -> int:
        code = self.text[self.pos : self.pos + 4]
        if len(code) < 4 or not _HEX_DIGITS.issuperset(code):
            self.error(f"\\u needs four hex digits, found {code!r}")
        for _ in code:
            self.advance()
        return int(code, 16)

    def parse_number(self):
        start = self.pos
        if self.peek() == "-":
            self.advance()
        while self.peek().isdigit():
            self.advance()
        if self.peek() in ".eE":
            self.error(
                "floating-point literals are not allowed; use exact strings like \"3/4\""
            )
        text = self.text[start : self.pos]
        if text in ("", "-"):
            self.error("malformed number")
        return int(text)


def parse_json_reference(text: str) -> Node:
    scanner = _Scanner(text)
    node = scanner.parse_value()
    scanner.skip_ws()
    if scanner.pos != len(text):
        scanner.error("trailing data after the document")
    return node



def _plain(node: Node):
    if isinstance(node.value, dict):
        return {k: _plain(v) for k, v in node.value.items()}
    if isinstance(node.value, list):
        return [_plain(v) for v in node.value]
    return node.value



# -- the property ------------------------------------------------------------


def _reference(text):
    return _plain(parse_json_reference(text))


def _outcome(parse, text):
    """("value", tagged value) or ("error", message, line, col)."""
    try:
        return ("value", _tagged(parse(text)))
    except ParseError as exc:
        return ("error", str(exc), exc.line, exc.col)


def _tagged(value):
    """value with every leaf tagged by its type, so 1 and True differ, and
    every object as its list of items, so key order counts."""
    if isinstance(value, dict):
        return ("object", [(k, _tagged(v)) for k, v in value.items()])
    if isinstance(value, list):
        return ("array", [_tagged(v) for v in value])
    return (type(value).__name__, value)


def _offset(text, line, col):
    """The offset of the 1-based (line, column) in text."""
    start = 0
    for _ in range(line - 1):
        start = text.index("\n", start) + 1
    return start + col - 1


def _strictly_refused(text, new):
    """Whether the new scanner refused text for a leading zero (the error
    is at the digit after a 0) or a raw control character (at it)."""
    if new[0] != "error":
        return False
    at = _offset(text, new[2], new[3])
    if new[1].startswith(LEADING_ZERO_MESSAGE):
        return text[at - 1] == "0" and text[at] in "0123456789"
    return new[1].startswith(CONTROL_MESSAGE) and text[at] < " "


def _exempt(text, reference, new):
    """Whether text meets one of the reference's three faults, or the new
    scanner refused it for one of its two stricter rules."""
    if _strictly_refused(text, new):
        return True
    if reference[0] == "error" and reference[1].startswith(
        ("unsupported escape \\b ", "unsupported escape \\f ")
    ):
        return True
    if reference[0] == "error" and reference[1].startswith(FLOAT_MESSAGE):
        end = (text.count("\n") + 1, len(text) - text.rfind("\n"))
        if reference[2:] == end:
            return True
    return any(c.isdigit() and c not in "0123456789" for c in text)


LEAVES = (
    st.none()
    | st.booleans()
    | st.integers(-(10**30), 10**30)
    | st.text(st.characters(codec="utf-8", categories=["L", "N", "P", "S", "Zs", "Cc"]), max_size=6)
)
VALUES = st.recursive(
    LEAVES,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner, max_size=4),
    max_leaves=12,
)
# pieces a damaged document is made of: JSON punctuation, escapes (good,
# bad and cut off), number parts, literals and non-ASCII digits
PIECES = st.sampled_from(
    ['{', '}', '[', ']', '"', ',', ':', ' ', '\n', '\r', '\t', '\\', '\\n', '\\q', '\\u',
     '\\u00e9', '\\ud83d', '\\ude00', '\\uzz', '-', '0', '7', '12', '.', '5e', 'E', 'true',
     'fals', 'null', 'x', '²', '١', 'é', '\U0001f600']
)


@st.composite
def json_like_texts(draw):
    text = json.dumps(
        draw(VALUES),
        indent=draw(st.sampled_from((None, 0, 1, 2))),
        ensure_ascii=draw(st.booleans()),
    )
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(text)))
        j = draw(st.integers(i, min(len(text), i + 3)))
        text = text[:i] + draw(st.lists(PIECES, max_size=2).map("".join)) + text[j:]
    return text


@settings(max_examples=400, deadline=None)
@given(json_like_texts())
def test_plain_values_and_errors_match_the_reference(text):
    try:
        reference = _outcome(_reference, text)
    except ValueError:  # int() on a non-ASCII digit
        reference = ("crash",)
    new = _outcome(parse_json, text)
    assert new == reference or _exempt(text, reference, new)


def _exempt_text(text):
    return _exempt(text, _outcome(_reference, text), _outcome(parse_json, text))


def test_the_exemptions_are_the_number_fixes():
    for text in ("12", "[12", "-", "[١]"):
        assert _outcome(parse_json, text) != _outcome(_reference, text)
        assert _exempt_text(text)


def test_the_escape_exemption_is_backspace_and_form_feed():
    for text, value in (('["\\b"]', ["\b"]), ('{"a\\f": 1}', {"a\f": 1})):
        assert parse_json(text) == value
        assert _exempt_text(text)
    assert not _exempt_text('["\\q"]')


def test_the_strict_exemptions_are_leading_zeros_and_raw_control_characters():
    for text, message, line, col in (
        ("[012]", LEADING_ZERO_MESSAGE, 1, 3),
        ('{"a": -05}', LEADING_ZERO_MESSAGE, 1, 9),
        ("[1,\n 00]", LEADING_ZERO_MESSAGE, 2, 3),
        ('["a\tb"]', CONTROL_MESSAGE + "0009 in a string", 1, 4),
        ('{"\u0000": 1}', CONTROL_MESSAGE + "0000 in a string", 1, 3),
        ('["x\ny"]', CONTROL_MESSAGE + "000A in a string", 1, 4),
    ):
        assert _outcome(_reference, text)[0] == "value"
        assert _outcome(parse_json, text) == ("error", f"{message} (line {line}, column {col})", line, col)
        assert _exempt_text(text)
    # what stays legal: a lone 0, -0, escaped control characters
    for text, value in (("[0, -0, 10]", [0, 0, 10]), ('["\\t\\u0001"]', ["\t\x01"])):
        assert parse_json(text) == value
        assert not _exempt_text(text)


# -- the stdlib fast path ------------------------------------------------------
#
# load_document reads a text with json.loads first and keeps the value only
# where the scanner above reads the same.  For every text the fast path must
# return exactly parse_json(text), types and key order included, or defer,
# and it must never return a value where parse_json raises.


def _golden_error_documents():
    import os

    inputs = os.path.join(os.path.dirname(__file__), "golden", "inputs")
    names = sorted(name for name in os.listdir(inputs) if name.startswith("err-"))
    assert len(names) == 9
    texts = []
    for name in names:
        with open(os.path.join(inputs, name), encoding="utf-8") as handle:
            texts.append(handle.read())
    return texts


DEPTH = documents.MAX_DEPTH
# (text, whether the fast path reads it)
FAST_PATH_SEEDS = [
    # the fast path reads the documents that fail validation, not parsing
    (text, _outcome(parse_json, text)[0] == "value")
    for text in _golden_error_documents()
] + [
    ('\ufeff{"a": 1}', False),
    ("[01]", False),
    ('{"a": -00}', False),
    ('["a\tb"]', False),
    ('["\x00"]', False),
    ("[NaN]", False),
    ("[Infinity]", False),
    ("[-Infinity]", False),
    ("[1.5]", False),
    ("[1e3]", False),
    ('["\\ud800"]', False),
    ('{"\\udc00": 1}', False),
    ('["\\ud83d\\ude00"]', True),
    ("[" * DEPTH + "]" * DEPTH, True),
    ("[" * (DEPTH + 1) + "]" * (DEPTH + 1), False),
    ('{"a": ' * DEPTH + "1" + "}" * DEPTH, True),
    ('{"a": ' * (DEPTH + 1) + "1" + "}" * (DEPTH + 1), False),
    ('{"a": 1, "b": 2, "a": 3}', True),
    ("[1] [2]", False),
    ('{"a": 1} x', False),
    ("[-0, 0]", True),
    ("-0", True),
    ('"text"', True),
    ("", False),
    ("[1,]", False),
]


def _check_fast_path(text):
    from ringlab.documents import _DEFER, _stdlib_json

    fast = _stdlib_json(text)
    if fast is _DEFER:
        return False
    assert ("value", _tagged(fast)) == _outcome(parse_json, text)
    return True


@pytest.mark.parametrize("text, fast", FAST_PATH_SEEDS)
def test_the_fast_path_reads_what_parse_json_reads_or_defers(text, fast):
    assert _check_fast_path(text) is fast


def test_the_fast_path_on_a_5000_digit_integer():
    import sys

    text = "[" + "7" * 5000 + "]"
    limit = sys.get_int_max_str_digits()
    # under Python's default limit both readers refuse the digits
    sys.set_int_max_str_digits(4300)
    try:
        assert not _check_fast_path(text)
        with pytest.raises(ValueError):
            parse_json(text)
        # as under the command line, which lifts the limit
        sys.set_int_max_str_digits(0)
        assert _check_fast_path(text)
    finally:
        sys.set_int_max_str_digits(limit)


@settings(max_examples=400, deadline=None)
@given(json_like_texts() | st.text(max_size=30))
def test_the_fast_path_returns_parse_json_or_defers(text):
    _check_fast_path(text)
