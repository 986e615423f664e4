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
from .lattice import Matrix, Value, _divided, _image, _integers, _needs, as_rational, solve_rational
from .surfaces import ExtendedVector, InvariantError, NumericalSurface, _integral_chi, _on
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
        super().__init__(values, gcd, free)

    @classmethod
    def from_values(cls, values) -> "GcdCertificate":
        """The certificate of (label, value) pairs: labels read by str, values
        as ExtendedVector's coordinates are (a number in the definitions form
        too), floats and bools raising TypeError, a non-integer InvariantError."""
        values = tuple([(str(label), as_rational(v)) for label, v in values])  # a TypeError comes first
        chis = _integers([v for _, v in values], InvariantError, lambda *_: f"chi values {values} must be integers")
        g = math.gcd(*chis)
        return cls(values, g, g == 1)


@lru_cache(maxsize=None)
def _labels(dim: int) -> tuple:
    return ("O",) + tuple([f"e{j + 1}" for j in range(dim)]) + ("point",)


def generator_set(surface: NumericalSurface) -> list:
    """The labeled basis O, e1..ed, point of the numerical Grothendieck lattice."""
    units = Matrix.identity(_needs(surface, NumericalSurface, "generator_set").extended_dim()).entries
    return [(label, surface.character(u[0], u[1:-1], u[-1]))
            for label, u in zip(_labels(surface.dim), units)]


def freeness_gcd(t: CoverTransfer, e: ExtendedVector) -> GcdCertificate:
    """The descent certificate of a class e on the cover of t: the values
    chi(F, push e) over the generators F are euler_gram(base) push e, the
    image of e's cleared coordinates under t.euler_push, divided once."""
    _on(_needs(t, CoverTransfer, "freeness_gcd").cover, "freeness_gcd", e)
    if any(row[j] % 2 for j, row in enumerate(t.base.num.gram.entries)):
        generator_set(t.base)  # raises the parity error of the first odd e_j
    w, d = _image(t.euler_push, e._ints)
    values = w if d == 1 else [_integral_chi(chi) for chi in _divided(w, d)[0]]
    return GcdCertificate(tuple(list(zip(_labels(t.base.dim), values))), g := math.gcd(*values), g == 1)


def orbit_sum(action: GActionLattice, e: ExtendedVector, m: int) -> ExtendedVector:
    """Sum of (g^i)* e over i = 0..m-1 for a divisor m of the action order.

    It is (m // t) S_t + S_(m mod t), S_k summing the first k terms, t
    the true order of g.  Raises InvariantError when the sum has a
    non-integral rank or divisor coordinate (possible when the action
    mixes s into r or c and s is half-integral)."""
    _needs(action, GActionLattice, "orbit_sum")
    m, = _integers([m], ValueError, lambda m: f"{m} does not divide the action order {action.order}",
                   lambda m: m >= 1 and not action.order % m)
    _on(action.surface, "orbit_sum", e)
    coords = e.coords()
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

    The obstruction applies only when m*e is the pullback of an integral
    class, and then the length-m orbit sum is m*e whatever the deck action
    (a deck may act nontrivially, say by swapping two E8 summands):
    pullbacks are deck-invariant, so m*e in pull Lambda_X makes e, on a
    lattice without torsion, invariant too, and each (g^i)* e is e.
    """
    _needs(e, ExtendedVector, "divisibility_obstruction")
    n = _needs(t, CoverTransfer, "divisibility_obstruction").degree
    m, = _integers([m], ValueError, lambda m: f"{m} does not divide the cover degree {n}",
                   lambda m: m >= 1 and not n % m)
    cert = freeness_gcd(t, e)  # refuses a class of the wrong length first
    preimage = solve_rational(t.pull_extended, tuple([m * x for x in e.coords()]))
    if preimage is None or not t.base.is_integral_class(preimage[0], preimage[1:-1], preimage[-1]):
        reason = "a rational pullback" if preimage is None else "the pullback of an integral class"
        return ObstructionReport(False, f"orbit sum is not {reason}", None, None, cert.values)
    divisor = n // m
    all_divisible = all(val % divisor == 0 for _, val in cert.values)
    return ObstructionReport(True, None, divisor, all_divisible, cert.values)
