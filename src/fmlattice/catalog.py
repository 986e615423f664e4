"""The built-in catalog and the scripted example reproductions.

The catalog ships the handful of surfaces, covers, vectors and lattice
actions that the classical examples need; it is written in the same
definitions format users feed to the CLI, parsed and validated on first
use.  reproduce() runs the script that the table _SCRIPTS declares for an
example id and reports every computed number next to its expected value.
"""

from __future__ import annotations

import os
from functools import cached_property, lru_cache
from types import MappingProxyType

from .covers import pushforward_ch
from .defsio import load_definitions
from .descent import freeness_gcd
from .lattice import Value
from .surfaces import euler_pairing, moduli_dim_expectation


class Catalog(Value):
    """Validated catalog entries indexed by kind.

    Per-kind dicts (id -> payload; treat them as read-only) and registry()
    (id -> entry, a read-only view) are built on first access and shared.
    """

    _fields = ("entries",)

    @cached_property
    def surfaces(self) -> dict:
        return {e.id: e.payload for e in self.entries if e.kind == "surface"}

    @cached_property
    def covers(self) -> dict:
        return {e.id: e.payload for e in self.entries if e.kind == "cover"}

    @cached_property
    def vectors(self) -> dict:
        return {e.id: e.payload for e in self.entries if e.kind == "vector"}

    @cached_property
    def actions(self) -> dict:
        return {e.id: e.payload for e in self.entries if e.kind == "action"}

    def registry(self) -> MappingProxyType:
        return self._registry

    @cached_property
    def _registry(self) -> MappingProxyType:
        return MappingProxyType({e.id: e for e in self.entries})

    def extend(self, more_entries) -> "Catalog":
        return Catalog(self.entries + tuple(more_entries))


@lru_cache(maxsize=1)
def builtin_text() -> str:
    """data/catalog.defs, read by this module's own loader, as pkgutil.get_data
    does: from a source tree and from a zip import alike, without the
    tempfile, pathlib, zipfile and (from Python 3.12) inspect imports that
    importlib.resources makes."""
    path = os.path.join(os.path.dirname(__file__), "data", "catalog.defs")
    return __loader__.get_data(path).decode("utf-8")


@lru_cache(maxsize=1)
def builtin_catalog() -> Catalog:
    return Catalog(tuple(load_definitions(builtin_text())))


class ReproCheck(Value):
    _fields = ("name", "computed", "expected")

    @property
    def passed(self) -> bool:
        return self.computed == self.expected


class ReproReport(Value):
    _fields = ("example", "checks")

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def reproduce(example_id: str, catalog: Catalog | None = None) -> ReproReport:
    """Run one example's script, whose (name, computed, expected) rows compare as strings."""
    if example_id not in _SCRIPTS:
        raise ValueError(f"unknown example id {example_id!r}; "
                         f"known: {', '.join(EXAMPLE_IDS)}")
    rows = _SCRIPTS[example_id](catalog or builtin_catalog())
    return ReproReport(example_id, tuple([ReproCheck(n, str(c), str(e)) for n, c, e in rows]))


def _reflection_kernel_fibre(catalog):
    # Ideal sheaves of points on a K3: a two-dimensional fine moduli family.
    k3 = catalog.surfaces["k3_toy"]
    e = catalog.vectors["ideal_point"].chern
    yield "chi(I_x, I_x)", euler_pairing(k3, e, e), 0
    yield "moduli dimension of (1,0,-1)", moduli_dim_expectation(k3, e), 2
    yield "chi(O, I_x)", euler_pairing(k3, k3.structure_class(), e), 1


def _abelian_moduli(catalog):
    # Rank-4 classes on a principally polarised abelian surface: the
    # moduli space is fine, complete and two-dimensional.
    surface = catalog.surfaces["abelian_ppav"]
    e = catalog.vectors["v_4_2l_1_ppav"].chern
    point = surface.point_class()
    yield "chi((4,2l,1), (4,2l,1))", euler_pairing(surface, e, e), 0
    yield "moduli dimension of (4,2l,1)", moduli_dim_expectation(surface, e), 2
    yield "chi(O_y, O_y)", euler_pairing(surface, point, point), 0
    yield "chi(O, (4,2l,1))", euler_pairing(surface, surface.structure_class(), e), 1


def _enriques_reflection(catalog):
    # The reflection transform on an Enriques surface sends a point to a
    # rank-2 class: 0 -> Phi(O_x) -> O + omega -> O_x -> 0 in classes.
    enr = catalog.surfaces["enriques_toy"]
    o_class = enr.structure_class()
    omega_class = enr.structure_class()  # numerically trivial twist
    v = [a + b - c for a, b, c in zip(o_class.coords(), omega_class.coords(),
                                      enr.point_class().coords())]
    phi_point = enr.character(v[0], v[1:-1], v[-1])
    yield "rank of Phi(O_x)", phi_point.r, 2
    yield "chi(O, Phi(O_x))", euler_pairing(enr, o_class, phi_point), 1
    yield "2 chi(O_enriques) - 1", 2 * enr.chi_o - 1, 1
    yield "chi(O_k3)", catalog.surfaces["k3_toy"].chi_o, 2
    yield "2 chi(O_enriques)", 2 * enr.chi_o, 2


def _bielliptic_descent(catalog):
    # The rank-4 transform descends to every bielliptic quotient: the
    # certificate gcd is 1 and points push to rank 4n classes.
    e = catalog.vectors["v_4_2l_1"].chern
    for n in (2, 3, 4, 6):
        t = catalog.covers[f"bielliptic_cover_{n}"]
        cert = freeness_gcd(t, e)
        yield f"gcd certificate, n={n}", cert.gcd, 1
        yield f"free, n={n}", cert.free, True
        yield f"pushforward rank, n={n}", pushforward_ch(t, e).r, 4 * n


def _poincare_never_descends(catalog):
    # The classical Poincare kernel fibre is a degree-zero line bundle,
    # fixed by the whole deck group: its certificate gcd is the full
    # cover degree, never 1.
    e = catalog.vectors["poincare"].chern
    for n in (2, 3, 4, 6):
        cert = freeness_gcd(catalog.covers[f"bielliptic_cover_{n}"], e)
        yield f"certificate values, n={n}", ",".join(str(v) for _, v in cert.values), f"0,0,0,{n}"
        yield f"gcd certificate, n={n}", cert.gcd, n
        yield f"gcd divisible by n, n={n}", cert.gcd % n == 0 and cert.gcd != 1, True
        yield f"free, n={n}", cert.free, False


# The one declaration of the examples, in the order the CLI lists them.
_SCRIPTS = {
    "ex3.5": _reflection_kernel_fibre,
    "ex3.6": _abelian_moduli,
    "ex5.2": _enriques_reflection,
    "ex5.3": _bielliptic_descent,
    "mukai-no-descent": _poincare_never_descends,
}
EXAMPLE_IDS = tuple(_SCRIPTS)
