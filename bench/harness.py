"""What every workload shares: loading fmlattice from the checkout's own
source tree, the in-process catalog set-up, and the operation type."""

from __future__ import annotations

import importlib
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import refarith as R

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
DEFS_DIR = BENCH_DIR / "defs"
ENRIQUES_K3_DEFS = DEFS_DIR / "enriques_k3.defs"
K3_SWAP_DEFS = DEFS_DIR / "k3_swap.defs"

MODULES = ("lattice", "surfaces", "covers", "descent", "transport",
           "averaging", "defsio", "catalog", "cli")


class ProgramMissing(RuntimeError):
    """The checkout holds no fmlattice source tree to benchmark."""


class CheckError(AssertionError):
    """An operation returned something the reference arithmetic refutes."""


@dataclass(frozen=True)
class Op:
    """One timed call into the program and the check of its result.

    check raises CheckError on a wrong answer and otherwise returns the
    largest bit length of any numerator or denominator in the result.
    """

    kind: str
    call: Callable[[], object]
    check: Callable[[object], int]


def load_program():
    """Import fmlattice from ROOT/src and nowhere else; returns the package."""
    if not (SRC / "fmlattice" / "__init__.py").is_file():
        raise ProgramMissing(f"no fmlattice sources under {SRC}")
    sys.path.insert(0, str(SRC))
    fm = importlib.import_module("fmlattice")
    if not Path(fm.__file__).resolve().is_relative_to(SRC.resolve()):
        raise ProgramMissing(f"fmlattice was imported from {fm.__file__}, not from {SRC}")
    for name in MODULES:
        importlib.import_module(f"fmlattice.{name}")
    return fm


def load_catalog(fm, defs_paths):
    """The built-in catalog extended by the workload's own definitions,
    loaded the way `fmlat --defs` loads them (all transfer axioms checked)."""
    catalog = fm.builtin_catalog()
    for path in defs_paths:
        text = Path(path).read_text(encoding="utf-8")
        catalog = catalog.extend(fm.load_definitions(text, registry=catalog.registry()))
    return catalog


def cross_check(catalog):
    """Compare every surface and cover the reference knows by hand with what
    the program parsed; returns a list of disagreements."""
    problems = []
    surfaces, covers = catalog.surfaces, catalog.covers
    for name, ref in R.SURFACES.items():
        s = surfaces.get(name)
        if s is None:
            continue
        got = (mat(s.num.gram), s.chi_o, s.canonical_order)
        if got != (ref.gram, ref.chi_o, ref.order):
            problems.append(f"surface {name}: program has {got}")
    for name, ref in R.COVERS.items():
        t = covers.get(name)
        if t is None:
            continue
        got = (t.base.name, t.cover.name, t.degree, mat(t.pull_num), mat(t.push_num))
        if got != (ref.base.name, ref.cover.name, ref.degree, ref.pull, ref.push):
            problems.append(f"cover {name}: program has {got}")
    return problems


def mat(m):
    """A program Matrix as reference rows."""
    return [list(row) for row in m.entries]


def expect(condition, message):
    if not condition:
        raise CheckError(message)
