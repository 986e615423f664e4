"""Golden outcomes of the definitions reader on mutated definitions text.

Each case takes one of the shipped, test or benchmark definitions files
and applies one seeded mutation: delete a character, insert a character
or a junk token, duplicate a line, or drop a line.  It then runs
load_definitions with a drawn registry (none, or the built-in catalog)
and a drawn allow_invalid, and records the outcome: the exception class,
message, line and column, or the (id, kind) list of what was loaded.
Standalone matrix and number literals, most of them malformed, are
recorded the same way through parse_matrix_text and parse_number_text.
Every failure must be a DefsError.

The cases are drawn from a fixed seed, so every run replays the same
ones.  After an intended change of outcome, rewrite the golden file from
the repository root with

    PYTHONPATH=src python tests/test_defs_golden.py
"""

import random
from pathlib import Path

from fmlattice.catalog import builtin_catalog
from fmlattice.defsio import (
    DefsError,
    DefsParseError,
    load_definitions,
    parse_matrix_text,
    parse_number_text,
)

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "data" / "defs_golden.txt"
SEED_FILES = ["src/fmlattice/data/catalog.defs", "tests/data/golden.defs",
              "tests/data/enriques_k3_18.defs", "bench/defs/enriques_k3.defs",
              "bench/defs/k3_swap.defs"]
CASES = 400
JUNK = ["{", "}", "[", "]", ",", ";", "#", "-", "/", "²", "?", "1/0", "rank", "on",
        "surface"]
CHARS = "{}[],;#-/²?0123456789 \nab_"
MATRIX_LITERALS = ["", "[", "]", "[]", "[;]", "[1", "1]", "[1,]", "[,1]", "[1;]", "[;1]",
                   "[1,,2]", "[1;;2]", "[1,2;3]", "[1;2,3]", "[a]", "[1/0]", "[3/]",
                   "[²]", "[1 2]", "[[1]]", "[1]]", "[1]x", "[1/2]", "[-1,2/4;0,-0]",
                   "[1,0;0,1]", "[1;2;3]", "[1}", "{1}", "[#1]", "[1#]", "[1\n,2]", "[?]",
                   "[--1]", "[1-1]", "[" + "9" * 50 + "]"]
NUMBER_LITERALS = ["", " ", "1", "-1", "--1", "+1", "1/2", "4/2", "-3/6", "1/0", "0/0", "3/",
                   "/3", "1//2", "1/2/3", "²", "1²", "٣", "1e3", "0.5", "1_0",
                   " 1", "1 ", "1\n", "a", "-", "1-", "9" * 60]


def _mutate(rng, text):
    """One seeded mutation of text, with a short description of it."""
    lines = text.split("\n")
    op = rng.choice(["delete", "insert", "token", "duplicate", "drop"])
    if op in ("duplicate", "drop"):
        i = rng.randrange(len(lines))
        copy = [lines[i]] * 2 if op == "duplicate" else []
        return "\n".join(lines[:i] + copy + lines[i + 1:]), f"{op} line {i + 1}"
    if op == "delete":
        i = rng.randrange(len(text))
        return text[:i] + text[i + 1:], f"delete {text[i]!r} at {i}"
    i = rng.randrange(len(text) + 1)
    piece = rng.choice(CHARS) if op == "insert" else " " + rng.choice(JUNK) + " "
    return text[:i] + piece + text[i:], f"insert {piece!r} at {i}"


def _outcome(call):
    try:
        result = call()
    except DefsError as exc:
        where = f" @{exc.line}:{exc.column}" if isinstance(exc, DefsParseError) else ""
        return f"{type(exc).__name__}{where} {exc}"
    except Exception as exc:  # recorded, and failed by the test
        return f"UNEXPECTED {type(exc).__name__} {exc}"
    if isinstance(result, list):
        return "ok " + " ".join(f"{e.id}:{e.kind}" for e in result)
    return f"ok {result!r}"


def transcript() -> str:
    texts = {name: (ROOT / name).read_text(encoding="utf-8") for name in SEED_FILES}
    registry = builtin_catalog().registry()
    rng = random.Random(20240611)
    chunks = []
    for case in range(CASES):
        name = rng.choice(SEED_FILES)
        text, what = _mutate(rng, texts[name])
        with_registry = rng.random() < 0.5
        allow_invalid = rng.random() < 0.5
        outcome = _outcome(lambda: load_definitions(
            text, allow_invalid=allow_invalid, registry=registry if with_registry else None))
        chunks.append(f"{case} {name} {what} registry={int(with_registry)} "
                      f"allow_invalid={int(allow_invalid)}\n  {outcome}\n")
    for literal in MATRIX_LITERALS:
        for allow_fraction in (True, False):
            outcome = _outcome(lambda: parse_matrix_text(literal, allow_fraction=allow_fraction))
            chunks.append(f"matrix {literal!r} allow_fraction={int(allow_fraction)}\n"
                          f"  {outcome}\n")
    for literal in NUMBER_LITERALS:
        for allow_fraction in (True, False):
            outcome = _outcome(lambda: parse_number_text(literal, allow_fraction=allow_fraction))
            chunks.append(f"number {literal!r} allow_fraction={int(allow_fraction)}\n"
                          f"  {outcome}\n")
    return "".join(chunks)


def test_golden_outcomes():
    got = transcript()
    assert "UNEXPECTED" not in got
    assert got == GOLDEN.read_text(encoding="utf-8")


if __name__ == "__main__":
    GOLDEN.write_text(transcript(), encoding="utf-8")
