"""Case description files: parsing, validation and construction of decider
inputs.

Cases are JSON documents with exact scalars written as decimal or fraction
strings; no floating point value is accepted anywhere.  Polynomials use a
small expression grammar over +, -, *, /, ^ with variables x, y, t, s.
"""

from __future__ import annotations

import json
import re
import sys
from dataclasses import dataclass

from .algebra import (
    MAX_DIM,
    StructAlgebra,
    check_dimension,
    make_algebra,
    make_relative,
    product_algebra,
)
from .constructions import AlgebraScalarDomain, extend_by_poly, matrix_algebra, poly_quotient_algebra
from .deciders import FUTILE, NOT_FUTILE, LocalizedZ, ZPresentation
from .domains import QQ, FunctionField, ModRing, PrimeField, ScalarDomain
from .errors import BudgetExceeded, ParseError, UnsupportedDomain, ValidationError
from .linalg import subspace_from_vectors
from .polynomials import (
    Poly, padd, pconst, pmul, pneg, poly_to_str, ppow, pscale, psub, pX,
    squarefree_by_derivation, squarefree_decomposition,
)

FORMAT_VERSION = 1

# Largest literal exponent an expression may use.  A polynomial in an
# expression may not pass degree MAX_DIM either: as a modulus it would give an
# algebra above the dimension cap.  Both are refused before any expansion.
MAX_EXPONENT = 256

# Most parentheses and unary minus signs an expression may have open at one
# point, and most products an algebra may nest; the parser and the builder
# recurse once per level, so deeper input is refused.
MAX_NESTING = 100

# Most digits an integer literal in an expression may have; far below the
# interpreter's default int-string limit of 4,300, so a longer literal is
# refused the same way under any -X int_max_str_digits.
MAX_LITERAL_DIGITS = 1000


# ---------------------------------------------------------------------------
# Expression parser
# ---------------------------------------------------------------------------

class _Tok:
    def __init__(self, kind, value, col):
        self.kind = kind
        self.value = value
        self.col = col


def _tokenize(text: str):
    toks = []
    i = 0
    while i < len(text):
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if "0" <= c <= "9":
            j = i
            while j < len(text) and "0" <= text[j] <= "9":
                j += 1
            if j - i > MAX_LITERAL_DIGITS:
                raise BudgetExceeded(
                    f"integer literal of {j - i} digits exceeds the limit of {MAX_LITERAL_DIGITS} (line 1, col {i + 1})"
                )
            toks.append(_Tok("int", int(text[i:j]), i))
            i = j
            continue
        if c.isalpha():
            j = i
            while j < len(text) and text[j].isalnum():
                j += 1
            toks.append(_Tok("name", text[i:j], i))
            i = j
            continue
        if c in "+-*/^()":
            toks.append(_Tok(c, c, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {c!r}", line=1, col=i + 1)
    toks.append(_Tok("end", None, len(text)))
    return toks


class _ExprParser:
    """Recursive descent over +, -, *, /, ^ with unary minus, evaluating an
    expression as a dense polynomial over dom: the name indet is the
    indeterminate and each name in constants stands for its scalar."""

    def __init__(self, text, dom: ScalarDomain, indet: str, constants: dict):
        self.toks = _tokenize(text)
        self.pos = 0
        self.depth = 0
        self.dom = dom
        self.indet = indet
        self.constants = constants

    def peek(self):
        return self.toks[self.pos]

    def take(self, kind=None):
        t = self.toks[self.pos]
        if kind and t.kind != kind:
            raise ParseError(f"expected {kind}, found {t.kind}", line=1, col=t.col + 1)
        self.pos += 1
        return t

    def parse(self):
        v = self.expr()
        t = self.peek()
        if t.kind != "end":
            raise ParseError(f"unexpected trailing {t.kind}", line=1, col=t.col + 1)
        return v

    def nested(self, parse):
        """Take an opening ( or a unary -, and parse what it applies to one
        level deeper."""
        t = self.take()
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise BudgetExceeded(
                f"nesting depth {self.depth} exceeds the limit of {MAX_NESTING} (line 1, col {t.col + 1})"
            )
        v = parse()
        self.depth -= 1
        return v

    def expr(self):
        if self.peek().kind == "-":
            v = pneg(self.nested(self.term))
        else:
            v = self.term()
        while self.peek().kind in ("+", "-"):
            op = self.take().kind
            rhs = self.term()
            v = padd(v, rhs) if op == "+" else psub(v, rhs)
        return v

    def term(self):
        v = self.power()
        while self.peek().kind in ("*", "/"):
            op = self.take()
            rhs = self.power()
            col = op.col + 1
            if op.kind == "*":
                _check_degree(v.degree + rhs.degree, col)
                v = pmul(v, rhs)
            elif rhs.degree > 0:
                raise ParseError("division by a non-scalar polynomial", line=1, col=col)
            elif rhs.is_zero:
                raise ParseError("division by zero", line=1, col=col)
            else:
                v = pscale(v, self.dom.inv(rhs.coeffs[0]))
        return v

    def power(self):
        v = self.atom()
        if self.peek().kind == "^":
            t = self.take()
            e = self.peek()
            if e.kind != "int":
                raise ParseError("exponent must be a literal integer", line=1, col=e.col + 1)
            if e.value > MAX_EXPONENT:
                raise BudgetExceeded(
                    f"exponent {e.value} exceeds the limit of {MAX_EXPONENT} (line 1, col {e.col + 1})"
                )
            self.take()
            _check_degree(v.degree * e.value, t.col + 1)
            v = ppow(v, e.value)
        return v

    def atom(self):
        t = self.peek()
        if t.kind == "int":
            self.take()
            return pconst(self.dom, self.dom.from_int(t.value))
        if t.kind == "name":
            self.take()
            if t.value == self.indet:
                return pX(self.dom)
            if t.value in self.constants:
                return pconst(self.dom, self.constants[t.value])
            raise ParseError(f"unknown variable {t.value!r}", line=1, col=t.col + 1)
        if t.kind == "(":
            v = self.nested(self.expr)
            self.take(")")
            return v
        if t.kind == "-":
            return pneg(self.nested(self.atom))
        raise ParseError(f"unexpected {t.kind}", line=1, col=t.col + 1)


def _check_degree(degree: int, col: int):
    if degree > MAX_DIM:
        raise BudgetExceeded(
            f"polynomial degree {degree} exceeds the limit of {MAX_DIM} (line 1, col {col})"
        )


def parse_poly(text: str, dom: ScalarDomain, indet: str = "x", constants=None) -> Poly:
    constants = dict(constants or {})
    if isinstance(dom, FunctionField):
        for name in dom.var_names:
            constants.setdefault(name, dom.variable(name))
    return _ExprParser(text, dom, indet, constants).parse()


# ---------------------------------------------------------------------------
# Case descriptions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CaseDescription:
    """Validated case file contents, pre-construction."""

    case_id: str
    base: dict
    algebra: dict
    options: dict
    asserts: dict
    raw: dict


@dataclass(frozen=True)
class BuiltCase:
    """A case turned into a concrete decider input."""

    kind: str  # struct | relative | tower | zpres | localized
    payload: object
    description: CaseDescription


def _require(d: dict, key: str, where: str):
    if key not in d:
        raise ValidationError(f"missing {key!r} in {where}")
    return d[key]


def _list(value, where: str) -> list:
    if not isinstance(value, list):
        raise ValidationError(f"{where} must be a list, not {type(value).__name__}")
    return value


def _object(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise ValidationError(f"{where} must be an object, not {type(value).__name__}")
    return value


def _text(value, where: str) -> str:
    if not isinstance(value, str):
        raise ValidationError(f"{where} must be a string, not {type(value).__name__}")
    return value


def _scalars(parse, values, where: str) -> tuple:
    """Parse a list of exact scalars; a malformed entry is a located
    ValidationError."""
    _list(values, where)
    try:
        return tuple(parse(c) for c in values)
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise ValidationError(f"malformed scalar in {where}: {exc}") from None


def _int(d: dict, key: str, where: str) -> int:
    return _scalars(int, [_require(d, key, where)], f"{key!r} of {where}")[0]


def _no_floats(obj, path="$"):
    if isinstance(obj, float):
        raise ValidationError(f"float literal at {path}: case files are exact-only")
    if isinstance(obj, dict):
        for k, v in obj.items():
            _no_floats(v, f"{path}.{k}")
    if isinstance(obj, list):
        for i, v in enumerate(obj):
            _no_floats(v, f"{path}[{i}]")


# A JSON string, or one bracket outside strings.
_JSON_TOKEN = re.compile(r'"(?:[^"\\]|\\.)*"|[][{}]')

# A JSON string, or one number outside strings, its integer part in group 1
# and its fraction and exponent, if any, in group 2.
_JSON_NUMBER = re.compile(r'"(?:[^"\\]|\\.)*"|-?(\d+)((?:\.\d+)?(?:[eE][-+]?\d+)?)')


def _line_col(text: str, at: int) -> tuple[int, int]:
    """1-based (line, col) of an offset into text."""
    return text.count("\n", 0, at) + 1, at - text.rfind("\n", 0, at)


def _deepest_bracket(text: str) -> tuple[int, int]:
    """(depth, offset) of the first opening bracket at the greatest nesting
    depth of a JSON text; brackets inside strings do not count."""
    depth = deepest = at = 0
    for m in _JSON_TOKEN.finditer(text):
        tok = m.group()
        if tok == "[" or tok == "{":
            depth += 1
            if depth > deepest:
                deepest, at = depth, m.start()
        elif tok == "]" or tok == "}":
            depth -= 1
    return deepest, at


def _long_integer(text: str, limit: int) -> tuple[int, int]:
    """(digits, offset) of the first integer literal of a JSON text with
    more than limit digits, or (0, 0) when there is none; numbers inside
    strings, fractions and exponents do not count."""
    for m in _JSON_NUMBER.finditer(text):
        digits = m.group(1)
        if digits and not m.group(2) and len(digits) > limit:
            return len(digits), m.start()
    return 0, 0


# Largest sampler trial count a case or the command line may ask for; the
# corpus uses at most 5,000.
MAX_TRIALS = 100_000

# Integer options and their smallest allowed values.
INT_OPTION_MINIMA = {"trials": 1, "bound": 1, "seed": 0, "budget": 1, "divergence_threshold": 0}

# Integer asserts (counts) and their smallest allowed values; "verdict" is the
# one other assert.
ASSERT_COUNT_MINIMA = {"enumeration_count": 0, "sampler_distinct_exact": 0, "sampler_distinct_min": 0}


def _check_ints(d: dict, minima: dict, where: str):
    """A located ValidationError for a value in d that is not an int (bools
    excluded) or lies below its minimum."""
    for key, least in minima.items():
        if key not in d:
            continue
        v = d[key]
        if type(v) is not int:
            raise ValidationError(f"{key!r} of {where} must be an integer, not {type(v).__name__}")
        if v < least:
            raise ValidationError(f"{key!r} of {where} must be at least {least}, got {v}")


def check_options(opts: dict, where: str):
    """_check_ints over the integer options; BudgetExceeded for a trial count
    above MAX_TRIALS."""
    _check_ints(opts, INT_OPTION_MINIMA, where)
    if opts.get("trials", 0) > MAX_TRIALS:
        raise BudgetExceeded(f"{opts['trials']} trials exceed the limit of {MAX_TRIALS} ({where})")


def _known_keys(d: dict, allowed, where: str):
    for key in d:
        if key not in allowed:
            raise ValidationError(
                f"unknown key {key!r} in {where} (allowed: {', '.join(sorted(allowed))})"
            )


def _check_asserts(asserts: dict):
    _known_keys(asserts, ("verdict", *ASSERT_COUNT_MINIMA), "asserts")
    if "verdict" in asserts and asserts["verdict"] not in (FUTILE, NOT_FUTILE):
        raise ValidationError(
            f"'verdict' of asserts must be {FUTILE!r} or {NOT_FUTILE!r}, got {asserts['verdict']!r}"
        )
    _check_ints(asserts, ASSERT_COUNT_MINIMA, "asserts")


def parse_case(text: str) -> CaseDescription:
    """Parse and validate a case document; errors carry locations when the
    JSON itself is malformed."""
    try:
        raw = json.loads(text)
        if not isinstance(raw, dict):
            raise ValidationError("case document must be a JSON object")
        _no_floats(raw)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", line=exc.lineno, col=exc.colno) from exc
    except ValueError:
        # json reads an integer literal with int(), which refuses more digits
        # than the interpreter's int-string limit
        limit = sys.get_int_max_str_digits()
        digits, at = _long_integer(text, limit)
        line, col = _line_col(text, at)
        raise ParseError(
            f"integer literal of {digits} digits exceeds the interpreter's limit of {limit}", line=line, col=col
        ) from None
    except RecursionError:
        depth, at = _deepest_bracket(text)
        line, col = _line_col(text, at)
        raise ParseError(
            f"case document nests arrays and objects {depth} deep, too deep to read", line=line, col=col
        ) from None
    version = raw.get("format_version")
    if version != FORMAT_VERSION:
        raise ValidationError(f"unsupported format_version {version!r}")
    case_id = _text(_require(raw, "id", "case"), "'id' of case")
    base = _require(raw, "base", "case")
    algebra = _require(raw, "algebra", "case")
    if not isinstance(base, dict) or "kind" not in base:
        raise ValidationError("base must be an object with a 'kind'")
    if not isinstance(algebra, dict) or "kind" not in algebra:
        raise ValidationError("algebra must be an object with a 'kind'")
    options = _object(raw.get("options", {}), "options")
    _known_keys(options, INT_OPTION_MINIMA, "options")
    check_options(options, "options")
    asserts = _object(raw.get("asserts", {}), "asserts")
    _check_asserts(asserts)
    return CaseDescription(
        case_id=case_id, base=base, algebra=algebra, options=options, asserts=asserts, raw=raw
    )


# Largest characteristic p an Fp or FpRational base may have, and largest
# modulus n of a Zmod base: primality is checked by trial division, which
# takes milliseconds up to here, and a finite algebra of dimension at most
# MAX_DIM has at most 2^(31 * MAX_DIM) elements, whose digits stay under the
# interpreter's lowest int-string limit.  The corpus uses 2, 3 and 4.
MAX_PRIME = 2**31


def _modulus(base: dict, key: str, kind: str, where: str) -> int:
    """The 'p' or 'n' of a finite or prime base, refused above MAX_PRIME
    before any primality test."""
    m = _int(base, key, where)
    if m > MAX_PRIME:
        raise BudgetExceeded(f"{key!r} of {where} ({kind}) is {m}, above the limit of 2^31 = {MAX_PRIME}")
    return m


def base_domain(base: dict, where: str = "base") -> ScalarDomain:
    kind = _require(_object(base, where), "kind", where)
    if kind == "Q":
        return QQ
    if kind == "Z":
        # build_case sends a Z case base to _build_integer; only a nested base gets here
        raise ValidationError(f"{where} cannot be Z; only a case's own base may be Z")
    try:
        if kind == "Fp":
            return PrimeField(_modulus(base, "p", kind, where))
        if kind == "Zmod":
            return ModRing(_modulus(base, "n", kind, where))
        if kind == "FpRational":
            names = _list(_require(base, "vars", where), f"'vars' of {where}")
            names = [_text(v, f"entry of 'vars' of {where}") for v in names]
            for i, name in enumerate(names):
                if name in ("x", "y"):
                    raise ValidationError(
                        f"{name!r} in 'vars' of {where} is reserved for the indeterminates x and y"
                    )
                if name in names[:i]:
                    raise ValidationError(f"{name!r} appears twice in 'vars' of {where}")
            return FunctionField(_modulus(base, "p", kind, where), tuple(names))
    except ValueError as exc:
        raise ValidationError(f"invalid {kind} base: {exc}") from None
    raise ValidationError(f"unknown base kind {kind!r}")


def build_case(desc: CaseDescription) -> BuiltCase:
    """Construct the decider input described by a case."""
    bkind = desc.base["kind"]
    akind = desc.algebra["kind"]
    if bkind == "LocalArtinian":
        return _build_relative(desc)
    if bkind == "Z":
        return _build_integer(desc)
    dom = base_domain(desc.base)
    if akind == "tower":
        if not isinstance(dom, FunctionField):
            raise ValidationError("tower cases need an FpRational base")
        return BuiltCase("tower", _build_tower(dom, desc.algebra), desc)
    A = build_struct_algebra(dom, desc.algebra)
    return BuiltCase("struct", A, desc)


def build_struct_algebra(dom: ScalarDomain, spec: dict, depth: int = 0) -> StructAlgebra:
    """The algebra an algebra spec describes; depth counts the products it
    sits in."""
    if not isinstance(spec, dict):
        raise ValidationError(f"algebra must be an object, got {spec!r}")
    kind = _require(spec, "kind", "algebra")
    if kind == "quotient_poly":
        modulus = _text(_require(spec, "modulus", "algebra"), "'modulus' of algebra")
        return poly_quotient_algebra(parse_poly(modulus, dom))
    if kind == "matrix_algebra":
        return matrix_algebra(dom, _int(spec, "size", "algebra"))
    if kind == "structure_constants":
        dim = _int(spec, "dim", "algebra")
        unit = _scalars(dom.parse, _require(spec, "unit", "algebra"), "algebra unit")
        table = [
            [_scalars(dom.parse, vec, "algebra table") for vec in _list(block, "algebra table")]
            for block in _list(_require(spec, "table", "algebra"), "algebra table")
        ]
        if len(table) != dim:
            raise ValidationError("structure table size differs from dim")
        return make_algebra(dom, table, unit)
    if kind == "product":
        if depth == MAX_NESTING:
            raise BudgetExceeded(f"algebra products nest more than {MAX_NESTING} deep")
        factors = _list(_require(spec, "factors", "algebra"), "'factors' of algebra")
        factors = [build_struct_algebra(dom, f, depth + 1) for f in factors]
        return product_algebra(factors)
    raise ValidationError(f"unknown algebra kind {kind!r} for this base")


def _build_tower(K: FunctionField, spec: dict):
    moduli = _list(_require(spec, "moduli", "algebra"), "'moduli' of algebra")
    moduli = [_text(m, "tower modulus") for m in moduli]
    if not 1 <= len(moduli) <= 2:
        raise ValidationError("towers support one or two quotient levels")
    level1 = parse_poly(moduli[0], K, indet="x")
    L = poly_quotient_algebra(level1)
    # the tower decider holds for fields only; a squarefree but reducible
    # modulus is not caught here.  One derivation usually proves the modulus
    # squarefree; only when none does is the repeated factor looked for.
    if not squarefree_by_derivation(level1):
        for g, m in squarefree_decomposition(level1):
            if m > 1:
                raise ValidationError(
                    f"tower modulus {moduli[0]!r} has the repeated factor {poly_to_str(g)}, so it is not a field"
                )
    if len(moduli) == 1:
        return L
    if L.dim > 1:
        x = L.basis_vector(1)
    else:  # x is the root -c0/c1 of the linear modulus c1*x + c0
        c0, c1 = level1.coeffs
        x = (K.neg(K.mul(c0, K.inv(c1))),)
    consts = {"x": x}
    for name in K.var_names:
        consts[name] = tuple(K.mul(K.variable(name), c) for c in L.unit)
    level2 = parse_poly(moduli[1], AlgebraScalarDomain(L), indet="y", constants=consts)
    return extend_by_poly(L, level2.coeffs)


def _build_integer(desc: CaseDescription) -> BuiltCase:
    spec = desc.algebra
    kind = spec["kind"]
    if kind == "z_presentation":
        ngens = _int(spec, "gens", "algebra")
        check_dimension(ngens)
        relations = tuple(
            _scalars(int, row, "relations")
            for row in _list(spec.get("relations", []), "relations")
        )
        table = tuple(
            tuple(_scalars(int, vec, "algebra table") for vec in _list(block, "algebra table"))
            for block in _list(_require(spec, "table", "algebra"), "algebra table")
        )
        unit = _scalars(int, _require(spec, "unit", "algebra"), "algebra unit")
        zp = ZPresentation(ngens=ngens, relations=relations, table=table, unit=unit)
        return BuiltCase("zpres", zp, desc)
    if kind == "localized":
        invert = _int(spec, "invert", "algebra")
        finite_part = spec.get("finite_part")
        size = 1
        if finite_part is not None:
            _object(finite_part, "finite part")
            fdom = base_domain(_require(finite_part, "base", "finite part"), "base of finite part")
            if not fdom.is_finite:
                raise ValidationError("finite part must live over a finite base")
            falg = build_struct_algebra(fdom, _require(finite_part, "algebra", "finite part"))
            size = fdom.size**falg.dim
        loc = LocalizedZ(invert=invert, finite_part_size=size)
        return BuiltCase("localized", loc, desc)
    raise ValidationError(f"unknown algebra kind {kind!r} over Z")


def _build_relative(desc: CaseDescription) -> BuiltCase:
    base = desc.base
    ground = base_domain(_require(base, "ground", "base"), "ground of base")
    if ground != QQ:
        raise UnsupportedDomain("relative cases need ground field Q")
    base_alg = build_struct_algebra(ground, _require(base, "base_algebra", "base"))
    ideal_rows = [
        _scalars(ground.parse, row, "max_ideal")
        for row in _list(_require(base, "max_ideal", "base"), "max_ideal")
    ]
    max_ideal = subspace_from_vectors(ground, base_alg.dim, ideal_rows)
    amb = build_struct_algebra(ground, desc.algebra)
    emb_rows = [
        _scalars(ground.parse, row, "embedding")
        for row in _list(_require(base, "embedding", "base"), "embedding")
    ]
    rel = make_relative(ground, base_alg, max_ideal, amb, emb_rows)
    return BuiltCase("relative", rel, desc)
