"""Parser for the declarative definition format.

Grammar (UTF-8 text, '#' starts a comment running to end of line):

    file      := block*
    block     := kind ident "{" field* "}"
    field     := key value NEWLINE
    value     := INT | RAT | IDENT | INTLIST | MATRIX
    INTLIST   := INT ("," INT)*
    MATRIX    := "[" row (";" row)* "]" with comma-separated INT/RAT rows

_SCHEMA, at the end of this module, is the one declaration of the block
kinds, the fields of each kind and the value type of each field.  An
IDENT value names a surface defined earlier or passed in the registry.

Whitespace is free inside a block except that a field ends at the first
newline outside brackets.  Parse errors carry line and column; semantic
failures (duplicate ids, dangling references, violated axioms) name the
offending block and condition.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import NamedTuple

from .covers import CoverTransfer, validate_cover
from .lattice import BilinearForm, Matrix, Value
from .surfaces import ExtendedVector, NumericalSurface
from .transport import GActionLattice


class DefsError(ValueError):
    """Semantic error in a definitions file."""


class DefsParseError(DefsError):
    """Syntax error, with position info."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class VectorEntry(Value):
    """A named Chern character bound to a catalog surface."""

    _fields = ("surface", "chern")


class CatalogEntry(Value):
    _fields = ("id", "kind", "payload")


class _Token(NamedTuple):
    kind: str  # ident | number | punct | newline
    text: str
    line: int
    column: int


def _tokenize(text: str) -> list:
    tokens = []
    line, col = 1, 1
    i = 0
    size = len(text)
    while i < size:
        ch = text[i]
        if ch == "#":
            while i < size and text[i] != "\n":
                i += 1
            continue
        if ch == "\n":
            tokens.append(_Token("newline", "\n", line, col))
            i += 1
            line += 1
            col = 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch in "{}[],;":
            tokens.append(_Token("punct", ch, line, col))
            i += 1
            col += 1
            continue
        if ch.isdigit() or (ch == "-" and i + 1 < size and text[i + 1].isdigit()):
            start = i
            start_col = col
            i += 1
            col += 1
            while i < size and (text[i].isdigit() or text[i] == "/"):
                i += 1
                col += 1
            tokens.append(_Token("number", text[start:i], line, start_col))
            continue
        if ch.isalpha() or ch == "_":
            start = i
            start_col = col
            while i < size and (text[i].isalnum() or text[i] in "_.-"):
                i += 1
                col += 1
            tokens.append(_Token("ident", text[start:i], line, start_col))
            continue
        raise DefsParseError(f"unexpected character {ch!r}", line, col)
    tokens.append(_Token("newline", "\n", line, col))
    return tokens


def _fail(message, tok):
    raise DefsParseError(message, tok.line, tok.column)


def _blocks(tokens):
    """The syntax pass: every block as (kind, id, fields, kind token), where
    fields maps each key to (value tokens, key token)."""
    end = tokens[-1]
    rest = iter(tokens)
    # newlines end field values and are skipped everywhere else; words
    # shares rest's position, so the two can be read in turn
    words = (tok for tok in rest if tok.kind != "newline")
    blocks = []
    for kind_tok in words:
        kind = kind_tok.text
        if kind_tok.kind != "ident" or kind not in _SCHEMA:
            _fail(f"expected a block kind (one of {', '.join(_SCHEMA)})", kind_tok)
        name = next(words, end)
        if name.kind != "ident":
            _fail("expected a block identifier", name)
        brace = next(words, end)
        if brace.text != "{":
            _fail("expected '{'", brace)
        fields = {}
        closed = False
        while not closed:
            key_tok = next(words, None)
            if key_tok is None:
                _fail(f"unterminated block {name.text!r}", end)
            key = key_tok.text
            if key == "}":
                break
            if key_tok.kind != "ident":
                _fail("expected a field key", key_tok)
            if key not in _SCHEMA[kind][1]:
                _fail(f"unknown field {key!r} in a {kind} block", key_tok)
            if key in fields:
                _fail(f"duplicate field {key!r}", key_tok)
            # the value runs to the first newline outside brackets, or to
            # the "}" that closes the block
            values = []
            depth = 0
            for tok in rest:
                text = tok.text
                if text == "\n":
                    if depth == 0:
                        break
                    continue
                if text == "[":
                    depth += 1
                elif text == "]":
                    depth -= 1
                elif text == "}" and depth == 0:
                    closed = True
                    break
                values.append(tok)
            fields[key] = (values, key_tok)
        blocks.append((kind, name.text, fields, kind_tok))
    return blocks


def _parse_number(tok, allow_fraction):
    """The value of a number token, or of the text of one at line 1, column 1."""
    text, line, column = (tok, 1, 1) if isinstance(tok, str) else tok[1:]
    try:
        if "/" not in text:
            # int() accepts and rejects the same slash-free tokens as
            # Fraction() and gives the same value, at a fraction of the cost
            return int(text)
        value = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise DefsParseError(f"bad number {text!r}", line, column) from None
    if not allow_fraction and value.denominator != 1:
        raise DefsParseError("expected an integer", line, column)
    return int(value) if value.denominator == 1 else value


# The value readers of _SCHEMA.  Each takes a field's value tokens, its key
# token and the entries known so far, and returns the field's value.

def _lone(tokens, key_tok, kind, what):
    if len(tokens) != 1 or tokens[0].kind != kind:
        _fail(f"field {key_tok.text!r} takes {what}", key_tok)
    return tokens[0]


def _int(tokens, key_tok, known):
    return _parse_number(_lone(tokens, key_tok, "number", "a single integer"), False)


def _rational(tokens, key_tok, known):
    return _parse_number(_lone(tokens, key_tok, "number", "a single rational"), True)


def _ref(kind):
    """Reader of an identifier naming an earlier entry of the given kind."""
    def read(tokens, key_tok, known):
        ref = _lone(tokens, key_tok, "ident", "an identifier").text
        entry = known.get(ref)
        if entry is None or entry.kind != kind:
            _fail(f"field {key_tok.text!r} references unknown {kind} {ref!r}", key_tok)
        return entry.payload
    return read


def _int_list(tokens, key_tok, known):
    values = []
    expect_number = True
    for tok in tokens:
        if expect_number:
            if tok.kind != "number":
                _fail("expected an integer", tok)
            values.append(_parse_number(tok, allow_fraction=False))
        elif tok.text != ",":
            _fail("expected ','", tok)
        expect_number = not expect_number
    if not values or expect_number:
        _fail(f"field {key_tok.text!r} takes a comma-separated integer list", key_tok)
    return tuple(values)


def _matrix(allow_fraction):
    """Reader of a bracketed matrix, with rational entries if allowed."""
    def read(tokens, key_tok, known):
        if not tokens or tokens[0].text != "[" or tokens[-1].text != "]":
            _fail(f"field {key_tok.text!r} takes a bracketed matrix", key_tok)
        rows = [[]]
        expect_number = True
        for tok in tokens[1:-1]:
            if tok.text == ";":
                if expect_number:
                    _fail("empty matrix row", tok)
                rows.append([])
                expect_number = True
            elif expect_number:
                if tok.kind != "number":
                    _fail("expected a matrix entry", tok)
                rows[-1].append(_parse_number(tok, allow_fraction))
                expect_number = False
            elif tok.text == ",":
                expect_number = True
            else:
                _fail("expected ',' or ';'", tok)
        if expect_number or not rows[-1]:
            _fail(f"malformed matrix in field {key_tok.text!r}", key_tok)
        try:
            return Matrix(rows)
        except ValueError as exc:
            raise DefsParseError(str(exc), key_tok.line, key_tok.column) from None
    return read


def parse_number_text(text: str, allow_fraction=True):
    """Parse a standalone INT, or RAT when allow_fraction, like '-3/2'."""
    # the shape of one number token: an optional "-", a digit, digits and "/"
    digits = text[1:] if text.startswith("-") else text
    if not digits[:1].isdigit() or not digits.replace("/", "").isdigit():
        raise DefsParseError(f"bad number {text!r}", 1, 1)
    return _parse_number(text, allow_fraction)


def parse_matrix_text(text: str, allow_fraction=True) -> Matrix:
    """Parse a standalone MATRIX literal like '[1,0;0,2]'."""
    # ASCII numbers and no spaces, the usual command-line form, split fast
    if isinstance(text, str) and re.fullmatch(r"\[-?[0-9][0-9/]*(?:[,;]-?[0-9][0-9/]*)*\]", text):
        try:
            return Matrix([[_parse_number(x, allow_fraction) for x in row.split(",")]
                           for row in text[1:-1].split(";")])
        except ValueError:
            pass  # the token pass below places the error
    tokens = [t for t in _tokenize(text) if t.kind != "newline"]
    return _matrix(allow_fraction)(tokens, _Token("ident", "matrix", 1, 1), None)


def load_definitions(text: str, *, allow_invalid: bool = False,
                     registry: dict | None = None) -> list:
    """Parse and validate a definitions file into catalog entries.

    registry maps already-known ids to CatalogEntry values (the built-in
    catalog, earlier files) and is consulted for cross-references; newly
    parsed ids must not collide with it.  Covers are rejected unless all
    five transfer axioms hold, except under allow_invalid.
    """
    known = dict(registry or {})
    entries = []
    for kind, block_id, fields, kind_tok in _blocks(_tokenize(text)):
        if block_id in known:
            raise DefsError(f"duplicate id {block_id!r}")
        build, readers = _SCHEMA[kind]
        missing = [key for key in readers if key not in fields]
        if missing:
            _fail(f"{kind} {block_id!r} is missing field(s): {', '.join(missing)}", kind_tok)
        values = {key: read(*fields[key], known) for key, read in readers.items()}
        try:
            payload = build(block_id, fields, allow_invalid, **values)
        except DefsError:
            raise
        except ValueError as exc:
            raise DefsError(f"{kind} {block_id!r}: {exc}") from None
        entry = CatalogEntry(block_id, kind, payload)
        known[block_id] = entry
        entries.append(entry)
    return entries


# The builders of _SCHEMA.  Each takes the block id, its fields, the
# allow_invalid flag and the values read, by field name; a ValueError it
# raises names the block.

def _surface(block_id, fields, allow_invalid, rank, intersection, chi_o, canonical_order):
    if intersection.nrows != rank:
        _fail(f"intersection matrix is {intersection.nrows}x{intersection.ncols}, rank says {rank}",
              fields["intersection"][1])
    return NumericalSurface(block_id, BilinearForm(rank, intersection), chi_o, canonical_order)


def _cover(block_id, fields, allow_invalid, base, cover, degree, pull, push):
    transfer = CoverTransfer(base, cover, degree, pull, push)
    if not allow_invalid:
        report = validate_cover(transfer)
        if not report.passed:
            failed = next(c for c in report.checks if not c.passed)
            raise DefsError(
                f"cover {block_id!r} violates axiom '{failed.name}': {failed.detail}")
    return transfer


def _vector(block_id, fields, allow_invalid, on, r, c, ch2):
    return VectorEntry(on, on.character(r, c, ch2))


def _action(block_id, fields, allow_invalid, on, order, gen):
    return GActionLattice(on, order, gen)


# The definitions format: each block kind with its builder and its fields
# in the order they are read, each with the reader of its value.
_SCHEMA = {
    "surface": (_surface, {"rank": _int, "intersection": _matrix(False), "chi_o": _int,
                           "canonical_order": _int}),
    "cover": (_cover, {"base": _ref("surface"), "cover": _ref("surface"), "degree": _int,
                       "pull": _matrix(False), "push": _matrix(False)}),
    "vector": (_vector, {"on": _ref("surface"), "r": _int, "c": _int_list, "ch2": _rational}),
    "action": (_action, {"on": _ref("surface"), "order": _int, "gen": _matrix(True)}),
}
