"""Fuzz of the fmlat command line: no argv escapes run_cli.

Argv is drawn from the subcommands, their flags and the common flags,
the ids of the built-in catalog, of tests/data/golden.defs and of the
reproductions, small integers, class and matrix literals and junk
tokens.  Every call must end with exit code 0, 1 or 2 and return its
text, within a per-example deadline; a raised exception fails the test.
The examples are derandomized, so every run replays the same ones.
"""

from datetime import timedelta
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, given, settings, strategies as st

from fmlattice.catalog import EXAMPLE_IDS, builtin_catalog
from fmlattice.cli import _COMMANDS, _COMMON, run_cli
from fmlattice.defsio import load_definitions

DATA = Path(__file__).resolve().parent / "data"
GOLDEN_DEFS = DATA / "golden.defs"
_BUILTIN = builtin_catalog()
CATALOG = _BUILTIN.extend(load_definitions(GOLDEN_DEFS.read_text(encoding="utf-8"),
                                           allow_invalid=True, registry=_BUILTIN.registry()))


def _flags(specs):
    for spec in specs:
        if isinstance(spec, str):
            yield spec
        elif isinstance(spec, list):
            yield from (flag for flag, _ in spec)
        elif spec[0].startswith("-"):
            yield spec[0]


FLAGS = sorted({flag for cmd in _COMMANDS.values() for flag in _flags(_COMMON + cmd.args)})
IDS = sorted({*CATALOG.surfaces, *CATALOG.covers, *CATALOG.vectors, *CATALOG.actions,
              *EXAMPLE_IDS})
DEFS_PATHS = [str(GOLDEN_DEFS), str(DATA / "enriques_k3_18.defs"), str(DATA / "no_such.defs"),
              str(DATA)]
JUNK = ["", "-", "--", "-h", "1e9999", "0.5", "1_0", " 1", "+1", "[", "]", "[]", ";", ",",
        "1/0", "nan", "inf", "٣", "²", "9" * 5000, "[" + "9" * 5000 + "]",
        "show", "validate", "verify", "nowhere"]

small_ints = st.integers(-2, 12)
numbers = st.one_of(small_ints.map(str),
                    st.tuples(small_ints, st.integers(-3, 4)).map(lambda pq: f"{pq[0]}/{pq[1]}"))
class_literals = st.tuples(st.lists(small_ints.map(str), min_size=1, max_size=4), numbers).map(
    lambda rc: ",".join(rc[0]) + ";" + rc[1])


@st.composite
def matrix_literals(draw):
    """Mostly signed permutation matrices of the extended ranks 3 and 4,
    which are often isometries, sometimes with one entry changed."""
    n = draw(st.sampled_from([3, 4, 4, 1, 2, 5]))
    rows = [["1" if i == j else "0" for j in range(n)] for i in range(n)]
    if n > 2 and draw(st.booleans()):
        rows[1], rows[n - 2] = rows[n - 2], rows[1]
    for i in draw(st.lists(st.integers(0, n - 1), max_size=n)):
        rows[i] = ["-" + x if x == "1" else x for x in rows[i]]
    if draw(st.integers(0, 3)) == 0:
        rows[draw(st.integers(0, n - 1))][draw(st.integers(0, n - 1))] = draw(numbers)
    if draw(st.integers(0, 7)) == 0:
        rows[-1] = rows[-1][:-1] or ["0"]
    return "[" + ";".join(",".join(row) for row in rows) + "]"


values = st.one_of(st.sampled_from(IDS), small_ints.map(str), class_literals, matrix_literals(),
                   st.sampled_from(JUNK))
classes = st.sampled_from(sorted(CATALOG.vectors)) | class_literals
# the values a flag takes, by flag; any flag sometimes gets any value
TYPED = {
    "--surface": st.sampled_from(sorted(CATALOG.surfaces)),
    "--cover": st.sampled_from(sorted(CATALOG.covers)),
    "--cover-y": st.sampled_from(sorted(CATALOG.covers)),
    "--cover-x": st.sampled_from(sorted(CATALOG.covers)),
    "--action-y": st.sampled_from(sorted(CATALOG.actions)),
    "--action-x": st.sampled_from(sorted(CATALOG.actions)),
    "--vector": st.sampled_from(sorted(CATALOG.vectors)),
    "--e": classes, "--f": classes, "--v": classes, "--w": classes,
    "--mat": matrix_literals(),
    "--defs": st.sampled_from(DEFS_PATHS),
    "id": st.sampled_from(IDS),
}
SWITCHES = {"--records", "--strict", "--allow-invalid"}


def rarely(draw) -> bool:
    """True about once in twenty draws.  Hypothesis favours the ends of a
    range, so the rare value sits in the middle."""
    return draw(st.integers(0, 19)) == 10


@st.composite
def value_for(draw, flag):
    """Mostly a value of the flag's own kind, otherwise any value."""
    return draw(values if rarely(draw) else TYPED.get(flag, small_ints.map(str)))


@st.composite
def argvs(draw):
    """A subcommand with most of its own arguments, then a few drawn items:
    common flags, flags of any subcommand, values and junk tokens."""
    name = draw(st.sampled_from(sorted(_COMMANDS) * 9 + JUNK[:3]))
    argv = [name]
    cmd = _COMMANDS.get(name)
    if cmd is None:
        return argv + draw(st.lists(values, max_size=3))
    if cmd.leaf and not rarely(draw):
        argv.append(cmd.leaf[0])
    if name == "avg":
        # without --trials, avg verify runs its default 200 trials (about a
        # second); a drawn --trials later in argv overrides this one
        argv += ["--trials", str(draw(st.integers(-1, 3)))]
    for spec in cmd.args:
        if isinstance(spec, list):  # a required choice of exactly one
            spec = draw(st.sampled_from(spec))
        flag = spec if isinstance(spec, str) else spec[0]
        if rarely(draw):
            continue
        if flag.startswith("-"):
            argv += [flag, draw(value_for(flag))]
        else:
            argv.append(draw(st.sampled_from(EXAMPLE_IDS)) if name == "reproduce"
                        else draw(value_for(flag)))
    for _ in range(draw(st.integers(0, 3))):
        flag = draw(st.sampled_from(sorted(SWITCHES) * 3 + ["--defs"] * 3 + FLAGS))
        argv.append(flag)
        if flag not in SWITCHES and not rarely(draw):
            argv.append(draw(value_for(flag)))
    if rarely(draw):
        argv.insert(draw(st.integers(1, len(argv))), draw(values))
    return argv


@settings(max_examples=300, derandomize=True, deadline=timedelta(seconds=3),
          suppress_health_check=[HealthCheck.too_slow])
@given(argvs())
def test_run_cli_never_raises(argv):
    code, out = run_cli(argv)
    assert code in (0, 1, 2)
    assert isinstance(out, str)
