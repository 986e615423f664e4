"""The built-in catalog and the scripted example reproductions.

The catalog ships the handful of surfaces, covers, vectors and lattice
actions that the classical examples need; it is written in the same
definitions format users feed to the CLI, parsed and validated on first
use.  reproduce() runs a fixed script of checks per example id and
reports every computed number next to its expected value.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from importlib import resources

from .covers import pushforward_ch
from .defsio import load_definitions
from .descent import freeness_gcd
from .surfaces import euler_pairing, moduli_dim_expectation


@dataclass(frozen=True)
class Catalog:
    """Validated catalog entries indexed by kind.

    Each per-kind dict (id -> payload) is built on first access and then
    shared; treat it as read-only.
    """

    entries: tuple

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

    def registry(self) -> dict:
        return {e.id: e for e in self.entries}

    def extend(self, more_entries) -> "Catalog":
        return Catalog(self.entries + tuple(more_entries))


@lru_cache(maxsize=1)
def builtin_text() -> str:
    return resources.files("fmlattice.data").joinpath("catalog.defs").read_text("utf-8")


@lru_cache(maxsize=1)
def builtin_catalog() -> Catalog:
    return Catalog(tuple(load_definitions(builtin_text())))


@dataclass(frozen=True)
class ReproCheck:
    name: str
    computed: str
    expected: str

    @property
    def passed(self) -> bool:
        return self.computed == self.expected


@dataclass(frozen=True)
class ReproReport:
    example: str
    checks: tuple

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


EXAMPLE_IDS = ("ex3.5", "ex3.6", "ex5.2", "ex5.3", "mukai-no-descent")


def reproduce(example_id: str, catalog: Catalog | None = None) -> ReproReport:
    """Run the scripted checks of one classical example."""
    if catalog is None:
        catalog = builtin_catalog()
    if example_id not in EXAMPLE_IDS:
        raise ValueError(f"unknown example id {example_id!r}; "
                         f"known: {', '.join(EXAMPLE_IDS)}")
    return _SCRIPTS[example_id](catalog)


def _reflection_kernel_fibre(catalog) -> ReproReport:
    # Ideal sheaves of points on a K3: a two-dimensional fine moduli family.
    k3 = catalog.surfaces["k3_toy"]
    e = catalog.vectors["ideal_point"].chern
    checks = (
        ReproCheck("chi(I_x, I_x)", str(euler_pairing(k3, e, e)), "0"),
        ReproCheck("moduli dimension of (1,0,-1)",
                   str(moduli_dim_expectation(k3, e)), "2"),
        ReproCheck("chi(O, I_x)", str(euler_pairing(k3, k3.structure_class(), e)), "1"),
    )
    return ReproReport("ex3.5", checks)


def _abelian_moduli(catalog) -> ReproReport:
    # Rank-4 classes on a principally polarised abelian surface: the
    # moduli space is fine, complete and two-dimensional.
    surface = catalog.surfaces["abelian_ppav"]
    e = catalog.vectors["v_4_2l_1_ppav"].chern
    point = surface.point_class()
    checks = (
        ReproCheck("chi((4,2l,1), (4,2l,1))", str(euler_pairing(surface, e, e)), "0"),
        ReproCheck("moduli dimension of (4,2l,1)",
                   str(moduli_dim_expectation(surface, e)), "2"),
        ReproCheck("chi(O_y, O_y)", str(euler_pairing(surface, point, point)), "0"),
        ReproCheck("chi(O, (4,2l,1))",
                   str(euler_pairing(surface, surface.structure_class(), e)), "1"),
    )
    return ReproReport("ex3.6", checks)


def _enriques_reflection(catalog) -> ReproReport:
    # The reflection transform on an Enriques surface sends a point to a
    # rank-2 class: 0 -> Phi(O_x) -> O + omega -> O_x -> 0 in classes.
    enr = catalog.surfaces["enriques_toy"]
    k3 = catalog.surfaces["k3_toy"]
    o_class = enr.structure_class()
    omega_class = enr.structure_class()  # numerically trivial twist
    point = enr.point_class()
    phi_point = enr.character(
        o_class.r + omega_class.r - point.r,
        tuple(a + b - c for a, b, c in zip(o_class.c, omega_class.c, point.c)),
        o_class.ch2 + omega_class.ch2 - point.ch2)
    checks = (
        ReproCheck("rank of Phi(O_x)", str(phi_point.r), "2"),
        ReproCheck("chi(O, Phi(O_x))",
                   str(euler_pairing(enr, o_class, phi_point)), "1"),
        ReproCheck("2 chi(O_enriques) - 1", str(2 * enr.chi_o - 1), "1"),
        ReproCheck("chi(O_k3)", str(k3.chi_o), "2"),
        ReproCheck("2 chi(O_enriques)", str(2 * enr.chi_o), "2"),
    )
    return ReproReport("ex5.2", checks)


def _bielliptic_descent(catalog) -> ReproReport:
    # The rank-4 transform descends to every bielliptic quotient: the
    # certificate gcd is 1 and points push to rank 4n classes.
    e = catalog.vectors["v_4_2l_1"].chern
    checks = []
    for n in (2, 3, 4, 6):
        t = catalog.covers[f"bielliptic_cover_{n}"]
        cert = freeness_gcd(t, e)
        checks.append(ReproCheck(f"gcd certificate, n={n}", str(cert.gcd), "1"))
        checks.append(ReproCheck(f"free, n={n}", str(cert.free), "True"))
        checks.append(ReproCheck(f"pushforward rank, n={n}",
                                 str(pushforward_ch(t, e).r), str(4 * n)))
    return ReproReport("ex5.3", checks)


def _poincare_never_descends(catalog) -> ReproReport:
    # The classical Poincare kernel fibre is a degree-zero line bundle,
    # fixed by the whole deck group: its certificate gcd is the full
    # cover degree, never 1.
    e = catalog.vectors["poincare"].chern
    checks = []
    for n in (2, 3, 4, 6):
        t = catalog.covers[f"bielliptic_cover_{n}"]
        cert = freeness_gcd(t, e)
        checks.append(ReproCheck(
            f"certificate values, n={n}",
            ",".join(str(v) for _, v in cert.values), f"0,0,0,{n}"))
        checks.append(ReproCheck(f"gcd certificate, n={n}", str(cert.gcd), str(n)))
        checks.append(ReproCheck(f"gcd divisible by n, n={n}",
                                 str(cert.gcd % n == 0 and cert.gcd != 1), "True"))
        checks.append(ReproCheck(f"free, n={n}", str(cert.free), "False"))
    return ReproReport("mukai-no-descent", checks)


_SCRIPTS = {
    "ex3.5": _reflection_kernel_fibre,
    "ex3.6": _abelian_moduli,
    "ex5.2": _enriques_reflection,
    "ex5.3": _bielliptic_descent,
    "mukai-no-descent": _poincare_never_descends,
}
