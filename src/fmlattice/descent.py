"""The gcd certificate for descent of a transform along a canonical cover.

A moduli-type transform on the cover of X descends to X exactly when the
induced cyclic action on the moduli space is free, and freeness has a
purely numerical test: the gcd of the Euler pairings chi(pull F, E), as F
runs over all classes on the base, equals 1.  Since chi is linear in F,
the gcd over a finite generating set of the base lattice equals the gcd
over everything -- that reduction is what makes the certificate finite.
The generators are O, the divisor basis classes and the point: the
coordinate basis of (r, c, s), so by the adjunction chi(pull F, E) =
chi(F, push E) the certificate is the base's Euler Gram matrix applied to
push E, one value per generator.

The converse direction carries a divisibility obstruction: when a proper
orbit of length m < n sums to an honest pullback class, n/m divides every
chi(pull F, E), so the gcd cannot be 1.
"""

from __future__ import annotations

import math
from functools import lru_cache

from .covers import CoverTransfer
from .lattice import DimensionError, Matrix, Value, _set, as_rational, solve_rational
from .surfaces import ExtendedVector, InvariantError, NumericalSurface, _integral_chi
from .transport import GActionLattice


class GcdCertificate(Value):
    """Named chi values against a generating set, their gcd, the verdict.

    free means the induced action on moduli is free, equivalently the
    transform descends; it holds exactly when the gcd is 1.  A gcd of 0
    (all values zero) signals a degenerate kernel class and is reported
    as not free.
    """

    _fields = ("values", "gcd", "free")

    def __init__(self, values: tuple, gcd: int, free: bool):
        if gcd != math.gcd(*[v for _, v in values]):
            raise ValueError("stated gcd does not match the listed values")
        if free != (gcd == 1):
            raise ValueError("freeness verdict must mean gcd = 1")
        _set(self, "values", values)
        _set(self, "gcd", gcd)
        _set(self, "free", free)

    @classmethod
    def from_values(cls, values) -> "GcdCertificate":
        """Each value is exact like ExtendedVector's coordinates: floats and
        bools raise TypeError, a non-integer raises InvariantError."""
        values = tuple([(str(label), as_rational(v)) for label, v in values])
        if not all(isinstance(v, int) for _, v in values):
            raise InvariantError(f"chi values {values} must be integers")
        g = math.gcd(*[v for _, v in values])
        return cls(values, g, g == 1)


@lru_cache(maxsize=None)
def _labels(dim: int) -> tuple:
    return ("O",) + tuple([f"e{j + 1}" for j in range(dim)]) + ("point",)


def generator_set(surface: NumericalSurface) -> list:
    """The labeled basis O, e1..ed, point of the numerical Grothendieck lattice."""
    units = Matrix.identity(surface.extended_dim()).entries
    return [(label, surface.character(u[0], u[1:-1], u[-1]))
            for label, u in zip(_labels(surface.dim), units)]


def freeness_gcd(t: CoverTransfer, e: ExtendedVector) -> GcdCertificate:
    """The descent certificate of a class e on the cover of t: the values
    chi(F, push e) over the generators F are euler_gram(base) push e, one
    apply of t.euler_push."""
    if len(e.c) != t.cover.dim:
        raise DimensionError(f"class does not live on {t.cover.name}")
    if any(row[j] % 2 for j, row in enumerate(t.base.num.gram.entries)):
        generator_set(t.base)  # raises the parity error of the first odd e_j
    values = t.euler_push.apply(e.coords())
    return GcdCertificate.from_values(zip(_labels(t.base.dim), map(_integral_chi, values)))


def orbit_sum(action: GActionLattice, e: ExtendedVector, m: int) -> ExtendedVector:
    """Sum of (g^i)* e over i = 0..m-1 for a divisor m of the action order.

    It is (m // t) S_t + S_(m mod t), S_k summing the first k terms, t
    the true order of g.  Raises InvariantError when the sum has a
    non-integral rank or divisor coordinate (possible when the action
    mixes s into r or c and s is half-integral)."""
    m = as_rational(m)  # bools and floats raise TypeError
    if not isinstance(m, int) or m < 1 or action.order % m:
        raise ValueError(f"{m} does not divide the action order {action.order}")
    coords = e.coords()
    if len(coords) != action.dim:
        raise DimensionError(f"class does not live on {action.surface.name}")
    pows = action.powers()
    q, rest = divmod(m, len(pows))
    total = [0] * len(coords)
    for i, p in enumerate(pows[:m]):
        weight = q + (i < rest)
        total = [a + weight * b for a, b in zip(total, p.apply(coords))]
    return ExtendedVector.from_coords(tuple(total))


class ObstructionReport(Value):
    """Outcome of the length-m orbit divisibility obstruction.

    applicable is False (with a reason) when the orbit sum fails to be
    the pullback of an integral class, in which case the obstruction says
    nothing.  When applicable, divisor = n/m and all_divisible reports
    whether every generator chi value is divisible by it.
    """

    _fields = ("applicable", "reason", "divisor", "all_divisible", "values")


def divisibility_obstruction(t: CoverTransfer, e: ExtendedVector, m: int) -> ObstructionReport:
    """Check the divisibility forced on chi values by a non-free orbit.

    The orbit sum is computed with the numerically trivial deck action --
    the deck transformations of every modeled canonical cover act as the
    identity on the extended lattice -- so it equals m*e.  The sum must be
    the pullback of an integral class for the obstruction to apply.
    """
    n, m = t.degree, as_rational(m)  # bools and floats raise TypeError
    if not isinstance(m, int) or m < 1 or n % m:
        raise ValueError(f"{m} does not divide the cover degree {n}")
    cert = freeness_gcd(t, e)  # refuses a class of the wrong length first
    preimage = solve_rational(t.pull_extended, tuple([m * x for x in e.coords()]))
    if preimage is None or not t.base.is_integral_class(preimage[0], preimage[1:-1], preimage[-1]):
        reason = "a rational pullback" if preimage is None else "the pullback of an integral class"
        return ObstructionReport(False, f"orbit sum is not {reason}", None, None, cert.values)
    divisor = n // m
    all_divisible = all(val % divisor == 0 for _, val in cert.values)
    return ObstructionReport(True, None, divisor, all_divisible, cert.values)
