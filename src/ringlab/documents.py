"""Structure-constant input documents.

UTF-8 JSON with exact literals only: ASCII integers and strings like "3/4"
or "2 mod 5"; floating-point literals are rejected at parse time, and so,
as JSON requires, are leading zeros and raw control characters in strings.
The reference parser is a small recursive-descent scanner (parse_json) that
returns plain values and keeps only offsets; a line and column are computed
when an error is raised, for a validation error from the path it names.
load_document reads the text with the stdlib json scanner first and keeps
its value only where the reference reads the same value; every refusal and
every error position still comes from the reference scanner.

Schema:
  {
    "kind": "bilinear" | "ring" | "lie" | "commutative-algebra" | "module",
    "domain": "Q" | {"gf": p} | "Z" | {"zmod": m}
            | {"ext": {"base": ..., "minpoly": [entries]}},
    "summands": ["Q" | "Z" | {"torsion": m}, ...]      (Z / mixed carriers)
    "basis": ["x", "y", ...],
    "table": [[[entry, ...], ...], ...],               (table[i][j] = b_i * b_j)
    "codomain": {"summands": ..., "basis": ...},       (bilinear only)
    "unit": [entry, ...]                               (commutative-algebra, optional)
  }
"""

from __future__ import annotations

import re

from . import artinian, modules
from .bilinear import BilinearMap, Carrier, RingPresentation, field_carrier, module_carrier
from .domains import Domain, Extension, PrimeField, QQ, Rationals, Residues, ZZ
from .errors import ParseError, ValidationError
from .records import field, record

KINDS = ("bilinear", "ring", "lie", "commutative-algebra", "module")

# Arrays and objects nest at most this deep; a table is four levels and an
# extension entry five, and the recursive descent must stay far from the
# interpreter's recursion limit.
MAX_DEPTH = 64
_HEX_DIGITS = frozenset("0123456789abcdefABCDEF")
_DIGITS = frozenset("0123456789")
# characters that a string must escape: U+0000 to U+001F
_CONTROL = re.compile("[\x00-\x1f]")
_SURROGATE = re.compile("[\ud800-\udfff]")
_ESCAPES = {
    "n": "\n", "t": "\t", "r": "\r", "b": "\b", "f": "\f", '"': '"', "\\": "\\", "/": "/"
}


def _position(text: str, pos: int) -> tuple:
    """The 1-based (line, column) of offset pos; a column counts code points."""
    return text.count("\n", 0, pos) + 1, pos - text.rfind("\n", 0, pos)


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.depth = 0
        # id(array or object) -> the offsets of its children (a list, or a
        # dict by key, where a repeated key keeps its last offset)
        self.starts = {}

    def error(self, message, pos=None):
        raise ParseError(message, *_position(self.text, self.pos if pos is None else pos))

    def peek(self):
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def skip_ws(self):
        text, pos = self.text, self.pos
        while pos < len(text) and text[pos] in " \t\r\n":
            pos += 1
        self.pos = pos

    def expect(self, char):
        if self.peek() != char:
            self.error(f"expected {char!r}, found {self.peek()!r}")
        self.pos += 1

    def document(self):
        self.skip_ws()
        self.root = self.pos
        value = self.parse_value()
        self.skip_ws()
        if self.pos != len(self.text):
            self.error("trailing data after the document")
        return value

    def parse_value(self):
        """The value at self.pos, which skip_ws has reached."""
        c = self.peek()
        if c == "":
            self.error("unexpected end of input")
        if c in "{[":
            if self.depth == MAX_DEPTH:
                self.error(f"arrays and objects nest deeper than {MAX_DEPTH} levels")
            self.depth += 1
            value = self.parse_object() if c == "{" else self.parse_array()
            self.depth -= 1
            return value
        if c == '"':
            return self.parse_string()
        if c == "-" or c in _DIGITS:
            return self.parse_number()
        for literal, value in (("true", True), ("false", False), ("null", None)):
            if self.text.startswith(literal, self.pos):
                self.pos += len(literal)
                return value
        self.error(f"unexpected character {c!r}")

    def parse_object(self) -> dict:
        self.pos += 1
        out, starts = {}, {}
        self.starts[id(out)] = starts
        self.skip_ws()
        if self.peek() == "}":
            self.pos += 1
            return out
        while True:
            self.skip_ws()
            if self.peek() != '"':
                self.error("object keys must be strings")
            key = self.parse_string()
            self.skip_ws()
            self.expect(":")
            self.skip_ws()
            starts[key] = self.pos
            out[key] = self.parse_value()
            self.skip_ws()
            if self.peek() == ",":
                self.pos += 1
                continue
            self.expect("}")
            return out

    def parse_array(self) -> list:
        self.pos += 1
        out, starts = [], []
        self.starts[id(out)] = starts
        self.skip_ws()
        if self.peek() == "]":
            self.pos += 1
            return out
        while True:
            self.skip_ws()
            starts.append(self.pos)
            out.append(self.parse_value())
            self.skip_ws()
            if self.peek() == ",":
                self.pos += 1
                continue
            self.expect("]")
            return out

    def parse_string(self) -> str:
        text, out = self.text, []
        self.pos += 1
        while True:
            # the run up to the closing quote or the next escape
            quote = text.find('"', self.pos)
            end = len(text) if quote < 0 else quote
            slash = text.find("\\", self.pos, end)
            stop = end if slash < 0 else slash
            control = _CONTROL.search(text, self.pos, stop)
            if control:
                self.error(
                    f"unescaped control character U+{ord(control.group()):04X} in a string",
                    control.start(),
                )
            out.append(text[self.pos : stop])
            if slash < 0:
                self.pos = end
                if quote < 0:
                    self.error("unterminated string")
                self.pos += 1
                return "".join(out)
            self.pos = slash + 1
            esc = self.peek()
            if esc == "":
                self.error("unterminated string")
            self.pos += 1
            if esc in _ESCAPES:
                out.append(_ESCAPES[esc])
            elif esc == "u":
                start = self.pos
                value = self.parse_hex4()
                if 0xD800 <= value < 0xDC00 and text.startswith("\\u", self.pos):
                    # a UTF-16 pair: high then low surrogate
                    self.pos += 2
                    low = self.parse_hex4()
                    if 0xDC00 <= low < 0xE000:
                        value = 0x10000 + ((value - 0xD800) << 10) + low - 0xDC00
                if 0xD800 <= value < 0xE000:
                    self.error(f"lone UTF-16 surrogate \\u{value:04x}", start)
                out.append(chr(value))
            else:
                self.error(f"unsupported escape \\{esc}")

    def parse_hex4(self) -> int:
        code = self.text[self.pos : self.pos + 4]
        if len(code) < 4 or not _HEX_DIGITS.issuperset(code):
            self.error(f"\\u needs four hex digits, found {code!r}")
        self.pos += 4
        return int(code, 16)

    def parse_number(self) -> int:
        text, start = self.text, self.pos
        pos = start + 1
        while pos < len(text) and text[pos] in _DIGITS:
            pos += 1
        self.pos = pos
        if text.startswith((".", "e", "E"), pos):
            self.error(
                "floating-point literals are not allowed; use exact strings like \"3/4\""
            )
        if pos == start + 1 and text[start] == "-":
            self.error("malformed number")
        first = start + (text[start] == "-")
        if text[first] == "0" and pos > first + 1:
            self.error("numbers must not have leading zeros", first + 1)
        return int(text[start:pos])

    def locate(self, value, path: str) -> int:
        """The offset of the value at path below value (the document), or of
        the innermost value on path that lacks the next key or index."""
        pos = self.root
        for step in path.replace("[", ".[").split("."):
            if step:
                key = int(step[1:-1]) if step[0] == "[" else step
                try:
                    pos, value = self.starts[id(value)][key], value[key]
                except (KeyError, IndexError, TypeError):
                    break
        return pos


def parse_json(text: str):
    """The plain value (dict, list, str, int, bool or None) that text holds."""
    return _Scanner(text).document()


# what _stdlib_json returns where it leaves the text to _Scanner
_DEFER = object()


def _refuse(literal):
    raise ValueError(literal)


def _stdlib_json(text: str):
    """parse_json(text) as the stdlib json scanner reads it, or _DEFER.

    json.loads reads what _Scanner reads and raises on what it refuses,
    except for floats and NaN/Infinity, which the hooks refuse, and for
    nesting deeper than MAX_DEPTH and lone surrogates, which the walk
    below refuses.
    """
    import json

    try:
        value = json.loads(text, parse_float=_refuse, parse_constant=_refuse)
    except (ValueError, RecursionError):  # JSONDecodeError is a ValueError
        return _DEFER
    # (values, the number of arrays and objects around them)
    stack = [((value,), 0)]
    while stack:
        items, depth = stack.pop()
        for item in items:
            kind = type(item)
            if kind is str:
                if not item.isascii() and _SURROGATE.search(item):
                    return _DEFER
            elif kind is list or kind is dict:
                if depth == MAX_DEPTH:
                    return _DEFER
                if kind is dict:
                    stack.append((item.keys(), depth))
                    item = item.values()
                stack.append((item, depth + 1))
    return value


class _Invalid(Exception):
    """A schema violation: (message, path); load_document adds the position."""


def _fail(message: str, path: str):
    raise _Invalid(message, path)


@record(frozen=False)
class InputDocument:
    kind: str
    domain: Domain
    carrier: Carrier
    basis_names: tuple
    tensor: tuple | None
    codomain: Carrier | None
    codomain_basis: tuple | None
    unit: tuple | None
    # the structure each builder made, so one document is certified once
    _built: dict = field(init=False, repr=False, compare=False, default_factory=dict)

    def _once(self, name, build):
        if name not in self._built:
            self._built[name] = build()
        return self._built[name]

    def bilinear_map(self) -> BilinearMap:
        codomain = self.codomain if self.codomain is not None else self.carrier
        return self._once(
            "bilinear", lambda: BilinearMap(self.carrier, codomain, self.tensor)
        )

    def ring(self) -> RingPresentation:
        return self._once("ring", lambda: RingPresentation(self.carrier, self.tensor))

    def commutative_algebra(self) -> artinian.CommutativeAlgebra:
        return self._once("commutative-algebra", self._commutative_algebra)

    def _commutative_algebra(self) -> artinian.CommutativeAlgebra:
        if self.carrier.kind != "field":
            raise ValidationError("commutative-algebra documents need a field domain")
        if self.unit is not None:
            return artinian.CommutativeAlgebra(
                self.carrier.domain, self.carrier.dim, self.tensor, self.unit
            )
        return artinian.CommutativeAlgebra.from_tensor(self.carrier.domain, self.tensor)


def _parse_domain(v, path: str) -> Domain:
    if v == "Q":
        return QQ
    if v == "Z":
        return ZZ
    if isinstance(v, dict):
        if "gf" in v:
            p = v["gf"]
            if not isinstance(p, int):
                _fail("gf modulus must be an integer", path + ".gf")
            try:
                return PrimeField(p)
            except ValidationError as exc:
                _fail(str(exc), path + ".gf")
        if "zmod" in v:
            m = v["zmod"]
            if not isinstance(m, int) or m < 2:
                _fail("zmod modulus must be an integer >= 2", path + ".zmod")
            return Residues(m)
        if "ext" in v:
            ext = v["ext"]
            if not isinstance(ext, dict) or "base" not in ext or "minpoly" not in ext:
                _fail("ext needs base and minpoly", path + ".ext")
            base = _parse_domain(ext["base"], path + ".ext.base")
            if not isinstance(base, (Rationals, PrimeField)):
                _fail("extension base must be Q or GF(p)", path + ".ext.base")
            coeffs = ext["minpoly"]
            if not isinstance(coeffs, list):
                _fail("minpoly must be a list", path + ".ext.minpoly")
            try:
                return Extension(base, tuple(base.parse(c) for c in coeffs))
            except ValidationError as exc:
                _fail(str(exc), path + ".ext.minpoly")
    _fail(f"unknown domain {v!r}", path)


def _size(obj: dict, path: str, letter: str):
    """The basis names and the summands list (or None) of a document or its
    codomain; names default to letter + index.  None if neither is given."""
    basis, summands = obj.get("basis"), obj.get("summands")
    if "basis" in obj and not isinstance(basis, list):
        _fail("basis must be a list of names", path + "basis")
    if "summands" in obj and not isinstance(summands, list):
        _fail("summands must be a list", path + "summands")
    if basis is None:
        if summands is None:
            return None
        return tuple(f"{letter}{i}" for i in range(len(summands))), summands
    if summands is not None and len(summands) != len(basis):
        _fail("summands and basis disagree in length", path + "summands")
    return tuple(str(b) for b in basis), summands


def _parse_summands(summands, domain: Domain, dim: int, path: str) -> modules.ModuleDesc:
    if summands is None:
        if domain == ZZ:
            return modules.ModuleDesc(tuple(modules.free_line() for _ in range(dim)))
        if isinstance(domain, Residues):
            return modules.ModuleDesc(tuple(modules.cyclic(domain.m) for _ in range(dim)))
        raise AssertionError("summands default only for Z / Z:m domains")
    out = []
    for i, v in enumerate(summands):
        if v == "Q":
            out.append(modules.rational_line())
        elif v == "Z":
            out.append(modules.free_line())
        elif isinstance(v, dict) and "torsion" in v:
            m = v["torsion"]
            if not isinstance(m, int) or m < 2:
                _fail("torsion modulus must be an integer >= 2", f"{path}[{i}]")
            out.append(modules.cyclic(m))
        else:
            _fail(f"unknown summand {v!r}", f"{path}[{i}]")
    return modules.ModuleDesc(tuple(out))


def _carrier_for(domain: Domain, summands, dim: int, path: str) -> Carrier:
    if isinstance(domain, (Rationals, PrimeField, Extension)) and summands is None:
        return field_carrier(domain, dim)
    desc = _parse_summands(summands, domain, dim, path)
    if isinstance(domain, (Rationals, PrimeField, Extension)):
        # summands given with a field domain must agree with it
        if isinstance(domain, Rationals) and desc.is_divisible():
            return field_carrier(domain, desc.dim)
        if isinstance(domain, PrimeField) and all(
            s.kind == "cyclic" and s.modulus == domain.p for s in desc.summands
        ):
            return field_carrier(domain, desc.dim)
        _fail("summands conflict with the field domain", path)
    return module_carrier(desc)


def _coord_parsers(carrier: Carrier):
    if carrier.kind == "field":
        return [carrier.domain] * carrier.dim
    return [carrier.desc.coord_domain(i) for i in range(carrier.dim)]


def _parse_element(value, parsers, path: str):
    if not isinstance(value, list):
        _fail("coordinates must be a list", path)
    if len(value) != len(parsers):
        _fail(f"expected {len(parsers)} coordinates, got {len(value)}", path)
    out = []
    for i, (entry, parser) in enumerate(zip(value, parsers)):
        try:
            out.append(parser.parse(entry))
        except ValidationError as exc:
            _fail(str(exc), f"{path}[{i}]")
    return tuple(out)


def load_document(text: str) -> InputDocument:
    root = _stdlib_json(text)
    if root is _DEFER:
        root = parse_json(text)
    try:
        return _read(root)
    except _Invalid as exc:
        message, path = exc.args
        # only the reference scanner keeps the offsets that place the error
        scanner = _Scanner(text)
        root = scanner.document()
        line, col = _position(text, scanner.locate(root, path))
        raise ValidationError(message, path=path, line=line, col=col) from None


def _read(obj) -> InputDocument:
    """The document that the plain value obj describes, validated."""
    if not isinstance(obj, dict):
        _fail("document must be a JSON object", "")
    if "kind" not in obj:
        _fail("missing 'kind'", "kind")
    kind = obj["kind"]
    if kind not in KINDS:
        _fail(f"kind must be one of {KINDS}", "kind")
    if "domain" not in obj:
        _fail("missing 'domain'", "domain")
    domain = _parse_domain(obj["domain"], "domain")

    sized = _size(obj, "", "b")
    if sized is None:
        _fail("need 'basis' or 'summands' to size the module", "basis")
    basis_names, summands = sized
    dim = len(basis_names)
    carrier = _carrier_for(domain, summands, dim, "summands")
    if carrier.kind == "field" and carrier.domain != domain:
        # module_carrier normalizes all-rational formal sums to Q-spaces
        domain = carrier.domain

    codomain = None
    codomain_basis = None
    if kind == "bilinear":
        if "codomain" in obj:
            cod = obj["codomain"]
            if not isinstance(cod, dict):
                _fail("codomain must be an object", "codomain")
            sized = _size(cod, "codomain.", "n")
            if sized is None:
                _fail("codomain needs basis or summands", "codomain")
            codomain_basis, csummands = sized
            codomain = _carrier_for(
                domain, csummands, len(codomain_basis), "codomain.summands"
            )
        else:
            codomain = carrier
            codomain_basis = basis_names

    tensor = None
    if kind != "module":
        if "table" not in obj:
            _fail(f"kind {kind!r} needs a multiplication table", "table")
        table = obj["table"]
        if not isinstance(table, list) or len(table) != dim:
            _fail(f"table must have {dim} rows", "table")
        parsers = _coord_parsers(codomain if codomain is not None else carrier)
        rows = []
        for i, row in enumerate(table):
            if not isinstance(row, list) or len(row) != dim:
                _fail(f"table row must have {dim} entries", f"table[{i}]")
            rows.append(
                tuple(_parse_element(c, parsers, f"table[{i}][{j}]") for j, c in enumerate(row))
            )
        tensor = tuple(rows)

    unit = None
    if kind == "commutative-algebra" and "unit" in obj:
        unit = _parse_element(obj["unit"], _coord_parsers(carrier), "unit")

    doc = InputDocument(
        kind=kind,
        domain=domain,
        carrier=carrier,
        basis_names=basis_names,
        tensor=tensor,
        codomain=codomain,
        codomain_basis=codomain_basis,
        unit=unit,
    )
    try:
        # run the constructors so structural violations point at the table
        if kind == "bilinear":
            doc.bilinear_map()
        elif kind in ("ring", "lie"):
            doc.ring()
        elif kind == "commutative-algebra":
            doc.commutative_algebra()
    except ValidationError as exc:
        _fail(str(exc), "table")
    return doc


# -- serialization -------------------------------------------------------------


def serialize_document(doc: InputDocument) -> str:
    """Canonical text form; parse(serialize(parse(x))) == parse(x)."""
    import json

    out = {"kind": doc.kind}
    out["domain"] = _domain_json(doc.domain)
    out.update(_sized_json(doc.carrier, doc.basis_names))
    if doc.kind == "bilinear" and doc.codomain is not None and doc.codomain is not doc.carrier:
        out["codomain"] = _sized_json(doc.codomain, doc.codomain_basis)
    if doc.unit is not None:
        parsers = _coord_parsers(doc.carrier)
        out["unit"] = [p.format(v) for p, v in zip(parsers, doc.unit)]
    if doc.tensor is not None:
        target = doc.codomain if doc.codomain is not None else doc.carrier
        parsers = _coord_parsers(target)
        out["table"] = [
            [[p.format(v) for p, v in zip(parsers, cell)] for cell in row]
            for row in doc.tensor
        ]
    return json.dumps(out, indent=2, sort_keys=False) + "\n"


def _sized_json(carrier: Carrier, names) -> dict:
    """The summands (of a module carrier) and basis that _size reads back."""
    out = {}
    if carrier.desc is not None:
        out["summands"] = [
            "Q" if s.kind == "rational" else "Z" if s.kind == "free" else {"torsion": s.modulus}
            for s in carrier.desc.summands
        ]
    out["basis"] = list(names)
    return out


def _domain_json(domain: Domain):
    if isinstance(domain, Rationals):
        return "Q"
    if isinstance(domain, PrimeField):
        return {"gf": domain.p}
    if domain == ZZ:
        return "Z"
    if isinstance(domain, Residues):
        return {"zmod": domain.m}
    if isinstance(domain, Extension):
        return {
            "ext": {
                "base": _domain_json(domain.base),
                "minpoly": [domain.base.format(c) for c in domain.minpoly],
            }
        }
    raise ValidationError(f"cannot serialize domain {domain!r}")
