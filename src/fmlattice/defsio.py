"""Parser for the declarative definition format.

Grammar (UTF-8 text, '#' starts a comment running to end of line):

    file      := block*
    block     := kind ident "{" field* "}"
    kind      := "surface" | "cover" | "vector" | "action"
    field     := key value-list NEWLINE

    surface fields:  rank INT, intersection MATRIX, chi_o INT,
                     canonical_order INT
    cover fields:    base IDENT, cover IDENT, degree INT, pull MATRIX,
                     push MATRIX
    vector fields:   on IDENT, r INT, c INTLIST, ch2 RAT
    action fields:   on IDENT, order INT, gen MATRIX (rational entries)

    MATRIX    := "[" row (";" row)* "]" with comma-separated INT/RAT rows

Whitespace is free inside a block except that a field ends at the first
newline outside brackets.  Parse errors carry line and column; semantic
failures (duplicate ids, dangling references, violated axioms) name the
offending block and condition.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .covers import CoverTransfer, validate_cover
from .lattice import BilinearForm, Matrix
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


@dataclass(frozen=True)
class VectorEntry:
    """A named Chern character bound to a catalog surface."""

    surface: NumericalSurface
    chern: ExtendedVector


@dataclass(frozen=True)
class CatalogEntry:
    id: str
    kind: str
    payload: object


_KINDS = ("surface", "cover", "vector", "action")
_FIELDS = {
    "surface": ("rank", "intersection", "chi_o", "canonical_order"),
    "cover": ("base", "cover", "degree", "pull", "push"),
    "vector": ("on", "r", "c", "ch2"),
    "action": ("on", "order", "gen"),
}


_NUMBER = re.compile(r"-?\d[\d/]*")  # what _tokenize reads as one number


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


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0

    def next(self, skip_newlines=True):
        while self.pos < len(self.tokens):
            tok = self.tokens[self.pos]
            self.pos += 1
            if skip_newlines and tok.kind == "newline":
                continue
            return tok
        return None

    def fail(self, message, tok=None):
        if tok is None:
            last = self.tokens[-1]
            raise DefsParseError(message, last.line, last.column)
        raise DefsParseError(message, tok.line, tok.column)

    def expect_punct(self, text):
        tok = self.next()
        if tok is None or tok.kind != "punct" or tok.text != text:
            self.fail(f"expected {text!r}", tok)
        return tok

    def blocks(self):
        result = []
        while True:
            tok = self.next()
            if tok is None:
                return result
            if tok.kind != "ident" or tok.text not in _KINDS:
                self.fail(f"expected a block kind (one of {', '.join(_KINDS)})", tok)
            kind = tok.text
            name_tok = self.next()
            if name_tok is None or name_tok.kind != "ident":
                self.fail("expected a block identifier", name_tok)
            self.expect_punct("{")
            fields = self.fields(kind, name_tok.text)
            result.append((kind, name_tok.text, fields, tok))

    def fields(self, kind, block_id):
        fields = {}
        while True:
            tok = self.next()
            if tok is None:
                self.fail(f"unterminated block {block_id!r}")
            if tok.kind == "punct" and tok.text == "}":
                return fields
            if tok.kind != "ident":
                self.fail("expected a field key", tok)
            key = tok.text
            if key not in _FIELDS[kind]:
                self.fail(f"unknown field {key!r} in a {kind} block", tok)
            if key in fields:
                self.fail(f"duplicate field {key!r}", tok)
            fields[key] = (self.value_tokens(), tok)

    def value_tokens(self):
        # everything until the first newline at bracket depth zero
        values = []
        depth = 0
        while True:
            tok = self.next(skip_newlines=False)
            if tok is None:
                return values
            if tok.kind == "newline":
                if depth == 0:
                    return values
                continue
            if tok.kind == "punct" and tok.text == "[":
                depth += 1
            elif tok.kind == "punct" and tok.text == "]":
                depth -= 1
            elif tok.kind == "punct" and tok.text == "}":
                if depth == 0:
                    self.pos -= 1
                    return values
            values.append(tok)


def _parse_number(tok, allow_fraction):
    try:
        if "/" not in tok.text:
            # int() accepts and rejects the same slash-free tokens as
            # Fraction() and gives the same value, at a fraction of the cost
            return int(tok.text)
        value = Fraction(tok.text)
    except (ValueError, ZeroDivisionError):
        raise DefsParseError(f"bad number {tok.text!r}", tok.line, tok.column) from None
    if not allow_fraction and value.denominator != 1:
        raise DefsParseError("expected an integer", tok.line, tok.column)
    return int(value) if value.denominator == 1 else value


def _want_int(tokens, key_tok):
    if len(tokens) != 1 or tokens[0].kind != "number":
        raise DefsParseError(f"field {key_tok.text!r} takes a single integer",
                             key_tok.line, key_tok.column)
    return _parse_number(tokens[0], allow_fraction=False)


def _want_rational(tokens, key_tok):
    if len(tokens) != 1 or tokens[0].kind != "number":
        raise DefsParseError(f"field {key_tok.text!r} takes a single rational",
                             key_tok.line, key_tok.column)
    return _parse_number(tokens[0], allow_fraction=True)


def _want_ident(tokens, key_tok):
    if len(tokens) != 1 or tokens[0].kind != "ident":
        raise DefsParseError(f"field {key_tok.text!r} takes an identifier",
                             key_tok.line, key_tok.column)
    return tokens[0].text


def _want_int_list(tokens, key_tok):
    values = []
    expect_number = True
    for tok in tokens:
        if expect_number:
            if tok.kind != "number":
                raise DefsParseError("expected an integer", tok.line, tok.column)
            values.append(_parse_number(tok, allow_fraction=False))
        else:
            if not (tok.kind == "punct" and tok.text == ","):
                raise DefsParseError("expected ','", tok.line, tok.column)
        expect_number = not expect_number
    if not values or expect_number:
        raise DefsParseError(f"field {key_tok.text!r} takes a comma-separated integer list",
                             key_tok.line, key_tok.column)
    return tuple(values)


def _want_matrix(tokens, key_tok, allow_fraction):
    if not tokens or tokens[0].text != "[" or tokens[-1].text != "]":
        raise DefsParseError(f"field {key_tok.text!r} takes a bracketed matrix",
                             key_tok.line, key_tok.column)
    rows = [[]]
    expect_number = True
    for tok in tokens[1:-1]:
        if tok.kind == "punct" and tok.text == ";":
            if expect_number:
                raise DefsParseError("empty matrix row", tok.line, tok.column)
            rows.append([])
            expect_number = True
            continue
        if expect_number:
            if tok.kind != "number":
                raise DefsParseError("expected a matrix entry", tok.line, tok.column)
            rows[-1].append(_parse_number(tok, allow_fraction))
            expect_number = False
            continue
        if not (tok.kind == "punct" and tok.text == ","):
            raise DefsParseError("expected ',' or ';'", tok.line, tok.column)
        expect_number = True
    if expect_number or not rows[-1]:
        raise DefsParseError(f"malformed matrix in field {key_tok.text!r}",
                             key_tok.line, key_tok.column)
    try:
        return Matrix(rows)
    except ValueError as exc:
        raise DefsParseError(str(exc), key_tok.line, key_tok.column) from None


def parse_number_text(text: str, allow_fraction=True):
    """Parse a standalone INT, or RAT when allow_fraction, like '-3/2'."""
    if not _NUMBER.fullmatch(text):
        raise DefsParseError(f"bad number {text!r}", 1, 1)
    return _parse_number(_Token("number", text, 1, 1), allow_fraction)


def parse_matrix_text(text: str, allow_fraction=True) -> Matrix:
    """Parse a standalone MATRIX literal like '[1,0;0,2]'."""
    tokens = [t for t in _tokenize(text) if t.kind != "newline"]
    anchor = _Token("ident", "matrix", 1, 1)
    return _want_matrix(tokens, anchor, allow_fraction)


def _require(fields, keys, kind, block_id, anchor):
    missing = [k for k in keys if k not in fields]
    if missing:
        raise DefsParseError(
            f"{kind} {block_id!r} is missing field(s): {', '.join(missing)}",
            anchor.line, anchor.column)


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
    parser = _Parser(_tokenize(text))
    for kind, block_id, fields, anchor in parser.blocks():
        if block_id in known:
            raise DefsError(f"duplicate id {block_id!r}")
        _require(fields, _FIELDS[kind], kind, block_id, anchor)
        builder = _BUILDERS[kind]
        payload = builder(block_id, fields, known, allow_invalid)
        entry = CatalogEntry(block_id, kind, payload)
        known[block_id] = entry
        entries.append(entry)
    return entries


def _lookup(known, ref, want_kind, field, key_tok):
    entry = known.get(ref)
    if entry is None or entry.kind != want_kind:
        raise DefsParseError(f"field {field!r} references unknown {want_kind} {ref!r}",
                             key_tok.line, key_tok.column)
    return entry.payload


def _build_surface(block_id, fields, known, allow_invalid):
    rank_val = _want_int(*fields["rank"])
    gram = _want_matrix(*fields["intersection"], allow_fraction=False)
    chi_o = _want_int(*fields["chi_o"])
    order = _want_int(*fields["canonical_order"])
    key_tok = fields["intersection"][1]
    if gram.nrows != rank_val:
        raise DefsParseError(f"intersection matrix is {gram.nrows}x{gram.ncols}, rank says {rank_val}",
                             key_tok.line, key_tok.column)
    try:
        form = BilinearForm(rank_val, gram)
        return NumericalSurface(block_id, form, chi_o, order)
    except ValueError as exc:
        raise DefsError(f"surface {block_id!r}: {exc}") from None


def _build_cover(block_id, fields, known, allow_invalid):
    base = _lookup(known, _want_ident(*fields["base"]), "surface", "base", fields["base"][1])
    cover = _lookup(known, _want_ident(*fields["cover"]), "surface", "cover", fields["cover"][1])
    degree = _want_int(*fields["degree"])
    pull = _want_matrix(*fields["pull"], allow_fraction=False)
    push = _want_matrix(*fields["push"], allow_fraction=False)
    try:
        transfer = CoverTransfer(base, cover, degree, pull, push)
    except ValueError as exc:
        raise DefsError(f"cover {block_id!r}: {exc}") from None
    if not allow_invalid:
        report = validate_cover(transfer)
        if not report.passed:
            failed = next(c for c in report.checks if not c.passed)
            raise DefsError(
                f"cover {block_id!r} violates axiom '{failed.name}': {failed.detail}")
    return transfer


def _build_vector(block_id, fields, known, allow_invalid):
    surface = _lookup(known, _want_ident(*fields["on"]), "surface", "on", fields["on"][1])
    r = _want_int(*fields["r"])
    c = _want_int_list(*fields["c"])
    ch2 = _want_rational(*fields["ch2"])
    try:
        chern = surface.character(r, c, ch2)
    except ValueError as exc:
        raise DefsError(f"vector {block_id!r}: {exc}") from None
    return VectorEntry(surface, chern)


def _build_action(block_id, fields, known, allow_invalid):
    surface = _lookup(known, _want_ident(*fields["on"]), "surface", "on", fields["on"][1])
    order = _want_int(*fields["order"])
    gen = _want_matrix(*fields["gen"], allow_fraction=True)
    try:
        return GActionLattice(surface, order, gen)
    except ValueError as exc:
        raise DefsError(f"action {block_id!r}: {exc}") from None


_BUILDERS = {
    "surface": _build_surface,
    "cover": _build_cover,
    "vector": _build_vector,
    "action": _build_action,
}
