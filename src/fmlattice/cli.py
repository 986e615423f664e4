"""Command-line interface.

All commands are deterministic: the same definitions and argv produce
byte-identical output.  Exit codes: 0 on success, 1 for mathematically
negative results (not free, no solution, a failed check) when --strict is
set, 2 for input errors of any kind.

Vectors are written inline as  r,c1,..,cd;ch2  with the numbers of the
definitions format (the degree-4 part may be a fraction like 1/2), or
named after a catalog vector.  Matrices use the definitions-format
literal [a,b;c,d].  Additional definitions files are loaded with --defs,
repeatable, on top of the built-in catalog.  Each file is read on every
call, and parsed and validated once per distinct content per process.

Lines with the full command and only full flags are read from an option
table; argparse reads the rest (--surf too) and words all help and errors.
"""

from __future__ import annotations

import argparse
import functools
import random
import shlex
import sys
from typing import Callable, NamedTuple

from .averaging import MAX_ORDER, random_rep, verify_ker_im
from .catalog import EXAMPLE_IDS, Catalog, builtin_catalog, reproduce
from .covers import chi_adjunction_check, pullback_ch, pushforward_ch, validate_cover
from .defsio import DefsError, load_definitions, parse_matrix_text, parse_number_text
from .descent import divisibility_obstruction, freeness_gcd
from .surfaces import ExtendedVector, euler_pairing, moduli_dim_expectation, mukai_pairing, mukai_vector
from .transport import (
    LatticeIsometry,
    LiftFamily,
    check_equivariant,
    descend_isometry,
    lift_isometry,
)

OK, NEGATIVE, INPUT_ERROR = 0, 1, 2


class _UsageError(Exception):
    pass


class _HelpShown(Exception):
    """Carries the help text of -h/--help, which argparse would print and exit on."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)

    def print_help(self, file=None):
        raise _HelpShown(self.format_help())


# Catalogs for the --defs texts read so far, keyed by content rather than by
# path, so an edited file misses and is parsed again.  Like builtin_catalog(),
# each catalog is frozen and shared read-only.  Errors are not cached.
@functools.lru_cache(maxsize=16)
def _catalog_for(texts: tuple, allow_invalid: bool) -> Catalog:
    """The built-in catalog extended by one or more definitions texts."""
    cat = _catalog_for(texts[:-1], allow_invalid) if len(texts) > 1 else builtin_catalog()
    return cat.extend(load_definitions(texts[-1], allow_invalid=allow_invalid,
                                       registry=cat.registry()))


def _load_catalog(ns) -> Catalog:
    cat = builtin_catalog()
    texts = ()
    for path in ns.defs:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise DefsError(f"cannot read {path}: {exc.strerror}") from None
        except UnicodeDecodeError as exc:
            raise DefsError(f"cannot read {path}: {exc}") from None
        texts += (text,)
        cat = _catalog_for(texts, ns.allow_invalid)
    return cat


def _fmt_triple(r, c, s) -> str:
    return f"{r},{','.join(str(x) for x in c)};{s}"


def _fmt_matrix(m) -> str:
    return "[" + ";".join(",".join(str(x) for x in row) for row in m.entries) + "]"


def _parse_inline_triple(text: str, dim: int, what: str):
    try:
        left, _, right = text.partition(";")
        if not right:
            raise ValueError
        head = [parse_number_text(x, allow_fraction=False) for x in left.split(",")]
        tail = parse_number_text(right)
    except (ValueError, AttributeError):  # argparse before 3.13 reads --v=-- as []
        raise DefsError(f"bad {what} {text!r}; expected r,c1,..,cd;ch2") from None
    if len(head) != dim + 1:
        raise DefsError(
            f"{what} {text!r} has {len(head) - 1} divisor coordinates, lattice rank is {dim}")
    return head[0], tuple(head[1:]), tail


def _chern_arg(text: str, surface, catalog):
    entry = catalog.vectors.get(text)
    if entry is not None:
        if entry.surface != surface:
            raise DefsError(
                f"vector {text!r} lives on {entry.surface.name}, not on {surface.name}")
        return entry.chern
    r, c, ch2 = _parse_inline_triple(text, surface.dim, "class")
    return surface.character(r, c, ch2)


def _get(named: dict, key: str, kind: str):
    value = named.get(key)
    if value is None:
        raise DefsError(f"unknown {kind} {key!r}")
    return value


# Handlers return (holds, lines).  A line is (key, value, plain): --records
# prints key<TAB>value, the plain form prints plain, and a line whose plain
# is None appears in records only.  holds=False is a negative result.

def _kv(key, value, record_prefix=""):
    """A line printed as 'key value'; booleans print as true/false."""
    text = str(value).lower() if isinstance(value, bool) else str(value)
    return record_prefix + key, text, f"{key} {text}"


def _value(key, value):
    """The single result of a command, printed bare in plain form."""
    return key, value, str(value)


def _check(check, detail):
    verdict = "pass" if check.passed else "fail"
    return f"check.{check.name}", verdict, f"{verdict.upper()} {check.name}{detail}"


def _surface_show(ns, catalog):
    s = _get(catalog.surfaces, ns.id, "surface")
    return True, [_kv("surface", s.name), _kv("rank", s.dim),
                  _kv("intersection", _fmt_matrix(s.num.gram)),
                  _kv("chi_o", s.chi_o), _kv("canonical_order", s.canonical_order)]


def _chi(ns, catalog):
    s = _get(catalog.surfaces, ns.surface, "surface")
    e = _chern_arg(ns.e, s, catalog)
    f = _chern_arg(ns.f, s, catalog)
    return True, [_value("chi", euler_pairing(s, e, f))]


def _pairing(ns, catalog):
    s = _get(catalog.surfaces, ns.surface, "surface")
    v = ExtendedVector(*_parse_inline_triple(ns.v, s.dim, "Mukai vector"))
    w = ExtendedVector(*_parse_inline_triple(ns.w, s.dim, "Mukai vector"))
    return True, [_value("pairing", mukai_pairing(s, v, w))]


def _mukai(ns, catalog):
    s = _get(catalog.surfaces, ns.surface, "surface")
    v = mukai_vector(s, _chern_arg(ns.e, s, catalog))
    return True, [_value("mukai", _fmt_triple(v.r, v.c, v.s))]


def _moduli_dim(ns, catalog):
    s = _get(catalog.surfaces, ns.surface, "surface")
    e = _chern_arg(ns.e, s, catalog)
    return True, [_value("moduli_dim", moduli_dim_expectation(s, e))]


def _cover_validate(ns, catalog):
    report = validate_cover(_get(catalog.covers, ns.id, "cover"))
    return report.passed, [_check(c, "" if c.passed else f": {c.detail}") for c in report.checks]


def _push(ns, catalog):
    t = _get(catalog.covers, ns.cover, "cover")
    v = pushforward_ch(t, _chern_arg(ns.e, t.cover, catalog))
    return True, [_value("push", _fmt_triple(v.r, v.c, v.s))]


def _pull(ns, catalog):
    t = _get(catalog.covers, ns.cover, "cover")
    v = pullback_ch(t, _chern_arg(ns.f, t.base, catalog))
    return True, [_value("pull", _fmt_triple(v.r, v.c, v.s))]


def _adjunction(ns, catalog):
    t = _get(catalog.covers, ns.cover, "cover")
    f = _chern_arg(ns.f, t.base, catalog)
    e = _chern_arg(ns.e, t.cover, catalog)
    lhs, rhs, equal = chi_adjunction_check(t, f, e)
    return equal, [_kv("lhs", lhs), _kv("rhs", rhs), _kv("equal", equal)]


def _free(ns, catalog):
    t = _get(catalog.covers, ns.cover, "cover")
    text = ns.e if ns.vector is None else ns.vector
    cert = freeness_gcd(t, _chern_arg(text, t.cover, catalog))
    lines = [_kv(label, value, "value.") for label, value in cert.values]
    return cert.free, lines + [_kv("gcd", cert.gcd), _kv("free", cert.free)]


def _obstruction(ns, catalog):
    t = _get(catalog.covers, ns.cover, "cover")
    e = _chern_arg(ns.e, t.cover, catalog)
    report = divisibility_obstruction(t, e, ns.m)
    if not report.applicable:
        return False, [_kv("applicable", False), _kv("reason", report.reason)]
    return True, [_kv("applicable", True), _kv("divisor", report.divisor),
                  _kv("all_divisible", report.all_divisible)]


def _descend_map(ns, catalog):
    t_y = _get(catalog.covers, ns.cover_y, "cover")
    t_x = _get(catalog.covers, ns.cover_x, "cover")
    phi = LatticeIsometry(t_y.cover, t_x.cover, parse_matrix_text(ns.mat))
    outcome = descend_isometry(phi, t_y, t_x)
    if outcome:
        return True, [_kv("descends", True), _kv("map", _fmt_matrix(outcome.isometry.mat))]
    lines = [_kv("descends", False), _kv("reason", outcome.failure)]
    if outcome.witness:
        src, dst = (",".join(str(x) for x in v) for v in outcome.witness)
        lines += [("witness.source", src, f"witness ({src}) -> ({dst})"),
                  ("witness.image", dst, None)]
    return False, lines


def _lift_map(ns, catalog):
    t_y = _get(catalog.covers, ns.cover_y, "cover")
    t_x = _get(catalog.covers, ns.cover_x, "cover")
    phi = LatticeIsometry(t_y.base, t_x.base, parse_matrix_text(ns.mat))
    result = lift_isometry(phi, t_y, t_x)
    if isinstance(result, LiftFamily):
        lines = [_kv("lifts", "family"),
                 _kv("particular", _fmt_matrix(result.particular), "family.")]
        return True, lines + [_kv(f"direction.{i}", _fmt_matrix(d), "family.")
                              for i, d in enumerate(result.directions, 1)]
    return bool(result), [_kv("lifts", len(result))] + [
        _kv(f"lift.{i}", _fmt_matrix(iso.mat)) for i, iso in enumerate(result, 1)]


def _equivariant(ns, catalog):
    a_y = _get(catalog.actions, ns.action_y, "action")
    a_x = _get(catalog.actions, ns.action_x, "action")
    phi = LatticeIsometry(a_y.surface, a_x.surface, parse_matrix_text(ns.mat))
    exponents = check_equivariant(phi, a_y, a_x)
    if exponents is None:
        return False, [_kv("equivariant", False)]
    return True, [_kv("equivariant", True), _kv("mu", ",".join(str(k) for k in exponents))]


def _avg_verify(ns, catalog):
    for flag, value, cap in (("--trials", ns.trials, 1000), ("--max-order", ns.max_order, MAX_ORDER),
                             ("--max-dim", ns.max_dim, 32)):
        if value < 1:
            raise DefsError(f"{flag} must be positive")
        if value > cap:
            raise DefsError(f"{flag} must be at most {cap}")
    rng = random.Random(ns.seed)
    reps = (random_rep(rng, max_order=ns.max_order, max_dim=ns.max_dim) for _ in range(ns.trials))
    failures = sum(not verify_ker_im(rep).holds for rep in reps)
    return failures == 0, [_kv("trials", ns.trials), _kv("failures", failures),
                           _kv("all_hold", failures == 0)]


def _reproduce(ns, catalog):
    report = reproduce(ns.id, catalog)
    lines = []
    for c in report.checks:
        lines += [_check(c, f": computed {c.computed}, expected {c.expected}"),
                  (f"computed.{c.name}", c.computed, None)]
    verdict = "pass" if report.passed else "fail"
    return report.passed, lines + [("result", verdict, f"result {verdict.upper()}")]


class _Command(NamedTuple):
    handler: Callable
    help: str
    args: list
    leaf: tuple = ()  # (name, help, usage) of a single nested sub-subcommand


# An argument is a flag, which names a required option, or a pair (flag,
# add_argument keywords); a list of pairs is a required choice of exactly
# one.  The common flags go on every leaf parser, the one that takes the
# command's own arguments.
_MAT = ("--mat", {"required": True, "help": "extended-lattice matrix [..;..]"})
_COMMON = [
    ("--defs", {"action": "append", "default": [], "metavar": "FILE",
                "help": "load extra definitions (repeatable)"}),
    ("--records", {"action": "store_true", "help": "emit machine-readable key<TAB>value lines"}),
    ("--strict", {"action": "store_true", "help": "exit 1 on mathematically negative results"}),
    ("--allow-invalid", {"action": "store_true",
                         "help": "accept covers in --defs files that fail the transfer axioms"}),
]

_COMMANDS = {
    "surface": _Command(_surface_show, "surface catalog queries", [("id", {})],
                        ("show", "print a surface's data", "ID")),
    "chi": _Command(_chi, "Euler pairing of two classes", ["--surface", "--e", "--f"]),
    "pairing": _Command(_pairing, "Mukai pairing of two Mukai vectors",
                        ["--surface", "--v", "--w"]),
    "mukai": _Command(_mukai, "Mukai vector of a Chern character", ["--surface", "--e"]),
    "moduli-dim": _Command(_moduli_dim, "expected moduli dimension 2 - chi(e,e)",
                           ["--surface", "--e"]),
    "cover": _Command(_cover_validate, "cover transfer queries", [("id", {})],
                      ("validate", "run the five transfer axioms", "ID")),
    "push": _Command(_push, "pushforward of a class on the cover", ["--cover", "--e"]),
    "pull": _Command(_pull, "pullback of a class on the base", ["--cover", "--f"]),
    "adjunction": _Command(_adjunction, "compare chi(pull f, e) with chi(f, push e)",
                           ["--cover", "--f", "--e"]),
    "free": _Command(_free, "descent gcd certificate",
                     ["--cover",
                      [("--vector", {"help": "catalog vector id on the covering surface"}),
                       ("--e", {"help": "inline class on the covering surface"})]]),
    "obstruction": _Command(_obstruction, "orbit-length divisibility obstruction",
                            ["--cover", "--e", ("--m", {"required": True, "type": int})]),
    "descend-map": _Command(_descend_map, "descend an isometry of cover lattices",
                            ["--cover-y", "--cover-x", _MAT]),
    "lift-map": _Command(_lift_map, "lift an isometry of base lattices",
                         ["--cover-y", "--cover-x", _MAT]),
    "equivariant": _Command(_equivariant, "find the automorphism making an isometry equivariant",
                            ["--action-y", "--action-x", _MAT]),
    "avg": _Command(_avg_verify, "averaging-identity verification",
                    [("--trials", {"type": int, "default": 200}),
                     ("--seed", {"type": int, "default": 0}),
                     ("--max-order", {"type": int, "default": 12}),
                     ("--max-dim", {"type": int, "default": 20})],
                    ("verify", "randomized ker(norm) = im(difference) suite",
                     "[--trials N --seed S ...]")),
    "reproduce": _Command(_reproduce, "scripted reproduction of a classical example",
                          [("id", {"choices": EXAMPLE_IDS})]),
}


# Each command's leaf-parser arguments, common ones first, for _parser() and
# _table_parse: flag -> (dest, add_argument keywords, one of a required choice?)
_OPTIONS = {name: {flag: (flag.lstrip("-").replace("-", "_"), kw, isinstance(spec, list))
                   for spec in _COMMON + cmd.args
                   for flag, kw in (spec if isinstance(spec, list) else [
                       (spec, {"required": True}) if isinstance(spec, str) else spec])}
            for name, cmd in _COMMANDS.items()}


@functools.cache
def _parser() -> _Parser:
    """The parser, built on first use.  parse_args leaves it unchanged, so
    all calls and threads share it."""
    parser = _Parser(prog="fmlat", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    commands = parser.add_subparsers(dest="command", metavar="COMMAND")
    for name, cmd in _COMMANDS.items():
        p = commands.add_parser(name, help=cmd.help)
        if cmd.leaf:
            leaf, leaf_help, _ = cmd.leaf
            p = p.add_subparsers(dest="leaf", metavar=leaf).add_parser(leaf, help=leaf_help)
        group = None
        for flag, (_, kw, grouped) in _OPTIONS[name].items():
            if grouped:
                group = group or p.add_mutually_exclusive_group(required=True)
            (group if grouped else p).add_argument(flag, **kw)
    return parser


def _table_parse(argv: list):
    """The Namespace of _parser().parse_args(argv), from the option table,
    if argv names command and leaf in full and each option by its full flag
    (--flag=value, or --flag value with a value not starting with "-")."""
    cmd = _COMMANDS.get(argv[0]) if argv else None
    if cmd is None or cmd.leaf and argv[1:2] != [cmd.leaf[0]]:
        return None
    ns = {"command": argv[0], "leaf": argv[1]} if cmd.leaf else {"command": argv[0]}
    options = _OPTIONS[argv[0]]
    slots = (flag for flag in options if not flag.startswith("-"))
    words = iter(argv[len(ns):])
    for word in words:
        # a positional fills the next slot, as if joined to it by "="
        flag, joined, value = (word.partition("=") if word.startswith("-")
                               else (next(slots, "-"), "=", word))
        if flag not in options:
            return None
        dest, kw, _ = options[flag]
        switch = kw.get("action") == "store_true"  # takes no value, may repeat
        if switch and joined:
            return None
        if not (switch or joined) and (value := next(words, "-")).startswith("-"):
            return None  # a missing value fails like one that starts with "-"
        try:
            value = True if switch else kw.get("type", str)(value)
        except ValueError:
            return None
        if value == "--" or value not in kw.get("choices", [value]):
            return None
        if kw.get("action") == "append":
            ns[dest] = ns.get(dest, []) + [value]
        elif ns.setdefault(dest, value) != value:
            return None
    chosen = 0
    for flag, (dest, kw, grouped) in options.items():
        if dest not in ns and (kw.get("required") or not flag.startswith("-")):
            return None
        chosen += grouped and dest in ns
        ns.setdefault(dest, kw.get("default", False if kw.get("action") else None))
    return argparse.Namespace(**ns) if chosen == any(g for *_, g in options.values()) else None


def run_cli(argv) -> tuple:
    """Run one command; returns (exit_code, output_text).  An argv that is
    not a sequence of str exits 2 with "error: argv must be a sequence of
    str, got T", T the type of argv or of its first item that is not a str."""
    try:
        if hasattr(argv, "__iter__") and not isinstance(argv, (str, bytes)):
            argv = list(argv)
        if odd := [w for w in argv if not isinstance(w, str)] if isinstance(argv, list) else [argv]:
            raise TypeError(f"argv must be a sequence of str, got {type(odd[0]).__name__}")
        ns = _table_parse(argv) or _parser().parse_args(argv)
        if ns.command is None:
            raise _UsageError("a command is required")
        cmd = _COMMANDS[ns.command]
        if cmd.leaf and ns.leaf is None:
            raise _UsageError(f"usage: {ns.command} {cmd.leaf[0]} {cmd.leaf[2]}")
        holds, lines = cmd.handler(ns, _load_catalog(ns))
        if ns.records:
            text = "".join(f"{key}\t{value}\n" for key, value, _ in lines)
        else:
            text = "".join(plain + "\n" for _, _, plain in lines if plain is not None)
    except _HelpShown as exc:
        return OK, str(exc)
    except _UsageError as exc:
        return INPUT_ERROR, _parser().format_usage() + f"error: {exc}\n"
    except (DefsError, ValueError, TypeError) as exc:
        if "integer string conversion" in str(exc):  # CPython's limit on printing an int
            exc = (f"a number in the result has more than {sys.get_int_max_str_digits()} digits;"
                   " set PYTHONINTMAXSTRDIGITS=0 to lift the limit")
        return INPUT_ERROR, f"error: {exc}\n"
    return (NEGATIVE if ns.strict and not holds else OK), text


def run_script(text: str) -> tuple:
    """Replay a session script: one command line per row, '#' comments.

    Returns (exit_code, output); the code is the maximum over the
    commands, and output concatenates each command's output after an
    echo of the command itself.  Replaying the same script is guaranteed
    to produce byte-identical output.  A line that does not split into
    words, such as one with an unbalanced quote, is an input error of that
    line alone.
    """
    code = OK
    chunks = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        chunks.append(f"$ {line}\n")
        try:
            argv = shlex.split(line)
        except ValueError as exc:
            step_code, out = INPUT_ERROR, f"error: {exc}\n"
        else:
            step_code, out = run_cli(argv)
        chunks.append(out)
        code = max(code, step_code)
    return code, "".join(chunks)


def main() -> None:
    code, output = run_cli(sys.argv[1:])
    sys.stdout.write(output)
    sys.exit(code)
