"""The gcd certificate for descent of a transform along a canonical cover.

A moduli-type transform on the cover of X descends to X exactly when the
induced cyclic action on the moduli space is free, and freeness has a
purely numerical test: the gcd of the Euler pairings chi(pull F, E), as F
runs over all classes on the base, equals 1.  Since chi is linear in F,
the gcd over a finite generating set of the base lattice equals the gcd
over everything -- that reduction is what makes the certificate finite.
The generators used are the structure sheaf class, the divisor basis
classes and the point class.

The converse direction carries a divisibility obstruction: when a proper
orbit of length m < n sums to an honest pullback class, n/m divides every
chi(pull F, E), so the gcd cannot be 1.  Both directions are computed on
the base side through the adjunction chi(pull F, E) = chi(F, push E).
"""

from __future__ import annotations

from dataclasses import dataclass

from .covers import CoverTransfer, pushforward_ch
from .lattice import gcd_all, solve_rational
from .surfaces import ExtendedVector, NumericalSurface, euler_pairing
from .transport import GActionLattice


@dataclass(frozen=True)
class GcdCertificate:
    """Named chi values against a generating set, their gcd, the verdict.

    free means the induced action on moduli is free, equivalently the
    transform descends; it holds exactly when the gcd is 1.  A gcd of 0
    (all values zero) signals a degenerate kernel class and is reported
    as not free.
    """

    values: tuple
    gcd: int
    free: bool

    def __post_init__(self):
        if self.gcd != gcd_all(v for _, v in self.values):
            raise ValueError("stated gcd does not match the listed values")
        if self.free != (self.gcd == 1):
            raise ValueError("freeness verdict must mean gcd = 1")

    @classmethod
    def from_values(cls, values) -> "GcdCertificate":
        values = tuple([(str(label), int(v)) for label, v in values])
        g = gcd_all(v for _, v in values)
        return cls(values, g, g == 1)


def generator_set(surface: NumericalSurface) -> list:
    """Labeled generators of the numerical Grothendieck lattice:
    structure sheaf, divisor basis classes, point."""
    gens = [("O", surface.structure_class())]
    for j in range(surface.dim):
        c = tuple([int(i == j) for i in range(surface.dim)])
        gens.append((f"e{j + 1}", surface.character(0, c, 0)))
    gens.append(("point", surface.point_class()))
    return gens


def freeness_gcd(t: CoverTransfer, e: ExtendedVector) -> GcdCertificate:
    """The descent certificate of a class e on the cover of t."""
    pushed = pushforward_ch(t, e)
    values = [(label, euler_pairing(t.base, f, pushed))
              for label, f in generator_set(t.base)]
    return GcdCertificate.from_values(values)


def orbit_sum(action: GActionLattice, e: ExtendedVector, m: int) -> ExtendedVector:
    """Sum of (g^i)* e over i = 0..m-1 for a divisor m of the action order.

    It is (m // t) S_t + S_(m mod t), S_k summing the first k terms, t
    the true order of g.  Raises InvariantError when the sum has a
    non-integral rank or divisor coordinate (possible when the action
    mixes s into r or c and s is half-integral)."""
    if m < 1 or action.order % m:
        raise ValueError(f"{m} does not divide the action order {action.order}")
    coords = e.coords()
    if len(coords) != action.dim:
        raise ValueError(f"class does not live on {action.surface.name}")
    pows = action.powers()
    q, rest = divmod(m, len(pows))
    total = [0] * len(coords)
    for i, p in enumerate(pows[:m]):
        weight = q + (i < rest)
        total = [a + weight * b for a, b in zip(total, p.apply(coords))]
    return ExtendedVector.from_coords(tuple(total))


@dataclass(frozen=True)
class ObstructionReport:
    """Outcome of the length-m orbit divisibility obstruction.

    applicable is False (with a reason) when the orbit sum fails to be
    the pullback of an integral class, in which case the obstruction says
    nothing.  When applicable, divisor = n/m and all_divisible reports
    whether every generator chi value is divisible by it.
    """

    applicable: bool
    reason: str | None
    divisor: int | None
    all_divisible: bool | None
    values: tuple


def divisibility_obstruction(t: CoverTransfer, e: ExtendedVector, m: int) -> ObstructionReport:
    """Check the divisibility forced on chi values by a non-free orbit.

    The orbit sum is computed with the numerically trivial deck action --
    the deck transformations of every modeled canonical cover act as the
    identity on the extended lattice -- so it equals m*e.  The sum must be
    the pullback of an integral class for the obstruction to apply.
    """
    n = t.degree
    if m < 1 or n % m:
        raise ValueError(f"{m} does not divide the cover degree {n}")
    preimage = solve_rational(t.pull_extended(), tuple([m * x for x in e.coords()]))
    cert = freeness_gcd(t, e)
    if preimage is None:
        return ObstructionReport(
            False, "orbit sum is not a rational pullback", None, None, cert.values)
    if not t.base.is_integral_class(preimage[0], preimage[1:-1], preimage[-1]):
        return ObstructionReport(
            False, "orbit sum is not the pullback of an integral class",
            None, None, cert.values)
    divisor = n // m
    all_divisible = all(val % divisor == 0 for _, val in cert.values)
    return ObstructionReport(True, None, divisor, all_divisible, cert.values)
