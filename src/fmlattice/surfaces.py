"""Numerical model of a smooth projective surface with torsion canonical class.

A surface enters the calculus only through numerical data: the
intersection form on its divisor lattice modulo torsion, the holomorphic
Euler characteristic chi(O), and the order of the canonical bundle in the
Picard group.  The canonical class is required to be numerically trivial
(true whenever it is torsion), which is exactly what removes the c1.K
term from Riemann-Roch and keeps every Euler pairing an exact integer
computation:

    chi(E, F) = r_E r_F chi(O) + r_E ch2_F + r_F ch2_E - c_E . c_F

Mukai vectors are the sqrt(td)-twisted Chern characters
(r, c, ch2 + r chi(O)/2); their pairing satisfies <v(E), v(F)> = -chi(E, F).
On a surface with odd chi(O) the twist is half-integral, which is why the
degree-4 component is stored as an exact rational throughout.

Chern characters, Mukai vectors and their images under cover transfers
all live on the one graded lattice H^0 + Num + H^4, so they are values of
one type, ExtendedVector(r, c, s).  ChernCharacter and MukaiVector are
other names for it, ch2 reads s, and mukai_vector converts a Chern
character to its Mukai vector.  A vector's coordinates are cleared to
integers over the denominator of s once (_ints); the Euler and Mukai
pairings and the gcd certificate apply integer rows to them (lattice's
_image) and divide only at the end, and character tests parity in ints.

The "special" condition (invariance of a sheaf under twisting by the
canonical bundle) is numerically invisible here: a numerically trivial
twist never changes a Chern character, so the model treats it as always
satisfied and the sheaf-level content stays out of scope.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property

from .lattice import BilinearForm, DimensionError, Matrix, Value, _integers, _needs, _pairing, _set, as_rational


class InvariantError(ValueError):
    """A value violates one of the model's structural invariants."""


class ExtendedVector(Value):
    """A vector (r, c, s) of the extended lattice H^0 + Num + H^4.

    The one value type for every class of the calculus: a Chern character
    (rank, c1, ch2), its Mukai vector (r, c, ch2 + r chi(O)/2) and their
    images under the cover transfers all live on this lattice.  Which one
    a vector is, is a matter of role; mukai_vector converts.  Every
    coordinate must be exact (an int, a Fraction or a number in the
    definitions form): floats and bools raise TypeError, a non-integral
    rank or divisor coordinate raises InvariantError.  s may be
    half-integral, kept as a Fraction.  Validity against a lattice (length
    of c, parity of 2 ch2 + c^2) is checked by NumericalSurface.character.
    """

    _fields = ("r", "c", "s")

    def __init__(self, r: int, c: tuple, s: Fraction):
        if isinstance(c, (str, bytes)):
            raise TypeError(f"divisor must be a sequence, not {type(c).__name__}")
        c = tuple(c)
        if not (type(r) is int and all([type(x) is int for x in c])):
            r, *c = _integers([r, *c], InvariantError, lambda r, *c: f"rank {r} and divisor {c} must be integral")
            c = tuple(c)
        _set(self, "r", r)
        _set(self, "c", c)
        _set(self, "s", s if type(s) is Fraction else Fraction(as_rational(s)))

    @cached_property
    def _ints(self) -> tuple:
        """(d coords, d), d the denominator of s: the coordinates as integers
        over one denominator, cleared once per vector as Matrix._ints() is."""
        d = self.s.denominator
        return (self.r * d, *[x * d for x in self.c], self.s.numerator), d

    @property
    def ch2(self) -> Fraction:
        """The degree-4 coordinate, read as ch2 of a Chern character."""
        return self.s

    def coords(self) -> tuple:
        return (self.r,) + self.c + (self.s,)

    @classmethod
    def from_coords(cls, coords) -> "ExtendedVector":
        return cls(coords[0], tuple(coords[1:-1]), coords[-1])


# The names of the two roles a vector plays; both are the one type.
ChernCharacter = MukaiVector = ExtendedVector


class NumericalSurface(Value):
    """Intersection lattice, chi(O) and canonical order of a surface.

    No canonical-class vector is stored: the model only admits surfaces
    whose canonical class is numerically trivial, so there is nothing to
    store.  canonical_order is the order of the canonical bundle in the
    Picard group (1 for K3 and abelian surfaces, 2 for Enriques,
    2, 3, 4 or 6 for bielliptic).  chi_o and canonical_order are read as
    ExtendedVector's coordinates are (a number in the definitions form
    too): floats and bools raise TypeError, a non-integer InvariantError.
    """

    _fields = ("name", "num", "chi_o", "canonical_order")

    def __init__(self, name: str, num: BilinearForm, chi_o: int, canonical_order: int):
        chi_o, order = as_rational(chi_o), as_rational(canonical_order)  # a TypeError comes first
        chi_o, = _integers([chi_o], InvariantError, lambda chi_o: f"chi_o = {chi_o} must be an integer")
        order, = _integers([order], InvariantError, "canonical_order must be a positive integer", lambda n: n >= 1)
        super().__init__(name, num, chi_o, order)

    @property
    def dim(self) -> int:
        return self.num.dim

    def character(self, r, c, ch2) -> ExtendedVector:
        """Build a Chern character on this surface, enforcing the lattice
        length of c1 and the parity constraint 2 ch2 + c1^2 even (the
        integrality of c2)."""
        e = ExtendedVector(r, c, ch2)
        if len(e.c) != self.dim:
            raise DimensionError(
                f"c1 has length {len(e.c)}, lattice of {self.name} has rank {self.dim}")
        square, d = self.num.pair(e.c, e.c), e.s.denominator
        # s = p/d in lowest terms, so 2 p/d is an integer only for d = 1 or 2
        if d > 2 or (2 // d * e.s.numerator + square) % 2:
            raise InvariantError(
                f"2*ch2 + c1^2 = {2 * e.ch2 + square} must be an even integer on {self.name}")
        return e

    def point_class(self) -> ExtendedVector:
        return self.character(0, (0,) * self.dim, 1)

    def structure_class(self) -> ExtendedVector:
        return self.character(1, (0,) * self.dim, 0)

    def extended_dim(self) -> int:
        return self.dim + 2

    @cached_property
    def euler_gram(self) -> Matrix:
        """Gram matrix X of Riemann-Roch, chi(E, F) = coords(E)^T X coords(F),
        in the coordinates (r, c_1..c_d, s); built once per surface."""
        zeros = [0] * self.dim
        rows = [[0, *[-x for x in row], 0] for row in self.num.gram.entries]
        return Matrix([[self.chi_o, *zeros, 1], *rows, [1, *zeros, 0]])

    @cached_property
    def mukai_gram(self) -> Matrix:
        """Gram matrix of the Mukai pairing, <v(E), v(F)> = -chi(E, F): the
        twist by sqrt(td) absorbs the chi(O) corner of -euler_gram."""
        return -(self.euler_gram - Matrix.diagonal([self.chi_o] + [0] * (self.dim + 1)))

    def is_integral_class(self, r, c, s) -> bool:
        """Whether (r, c, s) is the character of an honest integral class:
        integer rank and divisor, and 2s + c^2 an even integer."""
        try:
            self.character(r, c, s)
        except InvariantError:
            return False
        return True


def _on(surface, fn: str, *classes) -> None:
    """Refuse, naming fn, a surface that is not a NumericalSurface or a class
    that is not an ExtendedVector (TypeError), or one of another rank."""
    _needs(surface, NumericalSurface, fn)
    for e in classes:
        if len(_needs(e, ExtendedVector, fn).c) != surface.dim:
            raise DimensionError(f"class does not live on {surface.name}")


def euler_pairing(surface: NumericalSurface, e, f) -> int:
    """chi(E, F) = coords(E)^T X coords(F) for X = surface.euler_gram, paired
    in the cleared coordinates of E and F."""
    _on(surface, "euler_pairing", e, f)
    return _integral_chi(_pairing(e._ints, surface.euler_gram, f._ints))


def _integral_chi(chi) -> int:
    """chi as it is when an int; only classes violating the parity invariant give a Fraction."""
    if type(chi) is not int:
        raise InvariantError(f"chi(E,F) = {chi} is not an integer")
    return chi


def mukai_vector(surface: NumericalSurface, e: ExtendedVector) -> ExtendedVector:
    """Twist a Chern character by sqrt(td): (r, c, ch2 + r chi(O)/2)."""
    _on(surface, "mukai_vector", e)
    return ExtendedVector(e.r, e.c, e.s + Fraction(e.r * surface.chi_o, 2))


def mukai_pairing(surface: NumericalSurface, v, w):
    """<v, w> = c_v . c_w - r_v s_w - r_w s_v, paired through surface.mukai_gram
    in the cleared coordinates of v and w; satisfies <v(E), v(F)> = -chi(E, F)."""
    _on(surface, "mukai_pairing", v, w)
    return _pairing(v._ints, surface.mukai_gram, w._ints)


def moduli_dim_expectation(surface: NumericalSurface, e) -> int:
    """Expected dimension 2 - chi(E, E) = <v, v> + 2 of a moduli space of
    sheaves with class e."""
    _on(surface, "moduli_dim_expectation", e)
    return 2 - euler_pairing(surface, e, e)
