"""Structure-constant input documents.

UTF-8 JSON with exact literals only: integers and strings like "3/4" or
"2 mod 5"; floating-point literals are rejected at parse time.  The
parser is a small recursive-descent scanner that annotates every node
with its line/column, so validation errors can point at the offending
position.

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

from .artinian import CommutativeAlgebra
from .bilinear import BilinearMap, Carrier, field_carrier, module_carrier
from .domains import Domain, Extension, PrimeField, QQ, Rationals, Residues, ZZ
from .errors import ParseError, ValidationError
from .modules import ModuleDesc, cyclic, free_line, rational_line
from .records import field, record
from .rings import RingPresentation

KINDS = ("bilinear", "ring", "lie", "commutative-algebra", "module")

# Arrays and objects nest at most this deep; a table is four levels and an
# extension entry five, and the recursive descent must stay far from the
# interpreter's recursion limit.
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


def parse_json(text: str) -> Node:
    scanner = _Scanner(text)
    node = scanner.parse_value()
    scanner.skip_ws()
    if scanner.pos != len(text):
        scanner.error("trailing data after the document")
    return node


def _fail(node: Node, message: str, path: str):
    raise ValidationError(message, path=path, line=node.line, col=node.col)


def _plain(node: Node):
    if isinstance(node.value, dict):
        return {k: _plain(v) for k, v in node.value.items()}
    if isinstance(node.value, list):
        return [_plain(v) for v in node.value]
    return node.value


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
    source: dict = field(repr=False, default_factory=dict)
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

    def commutative_algebra(self) -> CommutativeAlgebra:
        return self._once("commutative-algebra", self._commutative_algebra)

    def _commutative_algebra(self) -> CommutativeAlgebra:
        if self.carrier.kind != "field":
            raise ValidationError("commutative-algebra documents need a field domain")
        if self.unit is not None:
            return CommutativeAlgebra(
                self.carrier.domain, self.carrier.dim, self.tensor, self.unit
            )
        return CommutativeAlgebra.from_tensor(self.carrier.domain, self.tensor)


def _parse_domain(node: Node, path: str) -> Domain:
    v = node.value
    if v == "Q":
        return QQ
    if v == "Z":
        return ZZ
    if isinstance(v, dict):
        if "gf" in v:
            p = v["gf"].value
            if not isinstance(p, int):
                _fail(v["gf"], "gf modulus must be an integer", path + ".gf")
            try:
                return PrimeField(p)
            except ValidationError as exc:
                _fail(v["gf"], str(exc), path + ".gf")
        if "zmod" in v:
            m = v["zmod"].value
            if not isinstance(m, int) or m < 2:
                _fail(v["zmod"], "zmod modulus must be an integer >= 2", path + ".zmod")
            return Residues(m)
        if "ext" in v:
            ext = v["ext"].value
            if not isinstance(ext, dict) or "base" not in ext or "minpoly" not in ext:
                _fail(v["ext"], "ext needs base and minpoly", path + ".ext")
            base = _parse_domain(ext["base"], path + ".ext.base")
            if not isinstance(base, (Rationals, PrimeField)):
                _fail(ext["base"], "extension base must be Q or GF(p)", path + ".ext.base")
            coeffs = ext["minpoly"].value
            if not isinstance(coeffs, list):
                _fail(ext["minpoly"], "minpoly must be a list", path + ".ext.minpoly")
            try:
                parsed = tuple(base.parse(c.value) for c in coeffs)
                return Extension(base, parsed)
            except ValidationError as exc:
                _fail(ext["minpoly"], str(exc), path + ".ext.minpoly")
    _fail(node, f"unknown domain {v!r}", path)


def _parse_summands(node: Node | None, domain: Domain, dim: int, path: str) -> ModuleDesc:
    if node is None:
        if domain == ZZ:
            return ModuleDesc(tuple(free_line() for _ in range(dim)))
        if isinstance(domain, Residues):
            return ModuleDesc(tuple(cyclic(domain.m) for _ in range(dim)))
        raise AssertionError("summands default only for Z / Z:m domains")
    if not isinstance(node.value, list):
        _fail(node, "summands must be a list", path)
    out = []
    for i, entry in enumerate(node.value):
        v = entry.value
        if v == "Q":
            out.append(rational_line())
        elif v == "Z":
            out.append(free_line())
        elif isinstance(v, dict) and "torsion" in v:
            m = v["torsion"].value
            if not isinstance(m, int) or m < 2:
                _fail(entry, "torsion modulus must be an integer >= 2", f"{path}[{i}]")
            out.append(cyclic(m))
        else:
            _fail(entry, f"unknown summand {v!r}", f"{path}[{i}]")
    return ModuleDesc(tuple(out))


def _carrier_for(domain: Domain, summands: Node | None, dim: int, path: str) -> Carrier:
    if isinstance(domain, (Rationals, PrimeField, Extension)) and summands is None:
        return field_carrier(domain, dim)
    if isinstance(domain, (Rationals, PrimeField, Extension)):
        # summands given with a field domain must agree with it
        desc = _parse_summands(summands, domain, dim, path)
        if isinstance(domain, Rationals) and desc.is_divisible():
            return field_carrier(domain, desc.dim)
        if isinstance(domain, PrimeField) and all(
            s.kind == "cyclic" and s.modulus == domain.p for s in desc.summands
        ):
            return field_carrier(domain, desc.dim)
        _fail(summands, "summands conflict with the field domain", path)
    desc = _parse_summands(summands, domain, dim, path)
    return module_carrier(desc)


def _coord_parsers(carrier: Carrier):
    if carrier.kind == "field":
        return [carrier.domain] * carrier.dim
    return [carrier.desc.coord_domain(i) for i in range(carrier.dim)]


def _parse_element(node: Node, carrier: Carrier, path: str):
    if not isinstance(node.value, list):
        _fail(node, "coordinates must be a list", path)
    if len(node.value) != carrier.dim:
        _fail(node, f"expected {carrier.dim} coordinates, got {len(node.value)}", path)
    parsers = _coord_parsers(carrier)
    out = []
    for i, (entry, parser) in enumerate(zip(node.value, parsers)):
        try:
            out.append(parser.parse(_plain(entry)))
        except ValidationError as exc:
            _fail(entry, str(exc), f"{path}[{i}]")
    return tuple(out)


def load_document(text: str) -> InputDocument:
    root = parse_json(text)
    if not isinstance(root.value, dict):
        _fail(root, "document must be a JSON object", "")
    obj = root.value
    if "kind" not in obj:
        _fail(root, "missing 'kind'", "kind")
    kind = obj["kind"].value
    if kind not in KINDS:
        _fail(obj["kind"], f"kind must be one of {KINDS}", "kind")
    if "domain" not in obj:
        _fail(root, "missing 'domain'", "domain")
    domain = _parse_domain(obj["domain"], "domain")

    basis_node = obj.get("basis")
    summands_node = obj.get("summands")
    if basis_node is not None and not isinstance(basis_node.value, list):
        _fail(basis_node, "basis must be a list of names", "basis")
    if basis_node is not None:
        basis_names = tuple(str(b.value) for b in basis_node.value)
    elif summands_node is not None:
        basis_names = tuple(f"b{i}" for i in range(len(summands_node.value)))
    else:
        _fail(root, "need 'basis' or 'summands' to size the module", "basis")
    dim = len(basis_names)
    if summands_node is not None and len(summands_node.value) != dim:
        _fail(summands_node, "summands and basis disagree in length", "summands")
    carrier = _carrier_for(domain, summands_node, dim, "summands")
    if carrier.kind == "field" and carrier.domain != domain:
        # module_carrier normalizes all-rational formal sums to Q-spaces
        domain = carrier.domain

    codomain = None
    codomain_basis = None
    if kind == "bilinear":
        if "codomain" in obj:
            cod = obj["codomain"].value
            if not isinstance(cod, dict):
                _fail(obj["codomain"], "codomain must be an object", "codomain")
            cbasis = cod.get("basis")
            csummands = cod.get("summands")
            if cbasis is not None:
                codomain_basis = tuple(str(b.value) for b in cbasis.value)
            elif csummands is not None:
                codomain_basis = tuple(f"n{i}" for i in range(len(csummands.value)))
            else:
                _fail(obj["codomain"], "codomain needs basis or summands", "codomain")
            codomain = _carrier_for(
                domain, csummands, len(codomain_basis), "codomain.summands"
            )
        else:
            codomain = carrier
            codomain_basis = basis_names

    tensor = None
    if kind != "module":
        if "table" not in obj:
            _fail(root, f"kind {kind!r} needs a multiplication table", "table")
        table = obj["table"]
        if not isinstance(table.value, list) or len(table.value) != dim:
            _fail(table, f"table must have {dim} rows", "table")
        target = codomain if codomain is not None else carrier
        rows = []
        for i, row in enumerate(table.value):
            if not isinstance(row.value, list) or len(row.value) != dim:
                _fail(row, f"table row must have {dim} entries", f"table[{i}]")
            entries = []
            for j, cell in enumerate(row.value):
                entries.append(_parse_element(cell, target, f"table[{i}][{j}]"))
            rows.append(tuple(entries))
        tensor = tuple(rows)

    unit = None
    if kind == "commutative-algebra" and "unit" in obj:
        unit = _parse_element(obj["unit"], carrier, "unit")

    doc = InputDocument(
        kind=kind,
        domain=domain,
        carrier=carrier,
        basis_names=basis_names,
        tensor=tensor,
        codomain=codomain,
        codomain_basis=codomain_basis,
        unit=unit,
        source=_plain(root),
    )
    _structural_check(doc, root)
    return doc


def _structural_check(doc: InputDocument, root: Node):
    """Run the constructors so structural violations carry the table position."""
    try:
        if doc.kind == "bilinear":
            doc.bilinear_map()
        elif doc.kind in ("ring", "lie"):
            doc.ring()
        elif doc.kind == "commutative-algebra":
            doc.commutative_algebra()
    except ValidationError as exc:
        table = root.value.get("table", root)
        raise ValidationError(
            str(exc), path="table", line=table.line, col=table.col
        ) from exc


# -- serialization -------------------------------------------------------------


def serialize_document(doc: InputDocument) -> str:
    """Canonical text form; parse(serialize(parse(x))) == parse(x)."""
    import json

    out = {"kind": doc.kind}
    out["domain"] = _domain_json(doc.domain)
    if doc.carrier.desc is not None:
        out["summands"] = [
            "Q" if s.kind == "rational" else "Z" if s.kind == "free" else {"torsion": s.modulus}
            for s in doc.carrier.desc.summands
        ]
    out["basis"] = list(doc.basis_names)
    if doc.kind == "bilinear" and doc.codomain is not None and doc.codomain is not doc.carrier:
        cod = {}
        if doc.codomain.desc is not None:
            cod["summands"] = [
                "Q" if s.kind == "rational" else "Z" if s.kind == "free" else {"torsion": s.modulus}
                for s in doc.codomain.desc.summands
            ]
        cod["basis"] = list(doc.codomain_basis)
        out["codomain"] = cod
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
