"""Transfer maps for the canonical cover of a surface.

A surface X with canonical bundle of order n >= 2 carries a degree-n
etale cover by a surface with trivial canonical bundle, the canonical
cover.  On the extended lattices H^0 + Num + H^4 the cover induces a
pullback and a pushforward whose numerical axioms are completely pinned
down:

  * degree = canonical order of the base,
  * (pull x).(pull y) = n (x.y)          (intersection scaling),
  * (push u).x = u.(pull x)              (adjointness on Num),
  * push o pull = n                      (degree identity),
  * chi(O_cover) = n chi(O_base)         (the cover pushes its structure
                                          sheaf to the sum of the powers
                                          of the canonical bundle, each
                                          numerically trivial).

The H^0/H^4 scalings are forced for any finite etale cover: pullback
preserves rank and multiplies the point class by n, pushforward does the
opposite.  Transfer matrices on Num are supplied data, never inferred --
the axioms do not determine them, genuine geometry does.  validate_cover
reports each axiom separately with a witness instead of throwing, so that
broken transfers can be inspected.

The transfers act the same way on Chern characters and on Mukai vectors,
so pullback_ch and pushforward_ch take and return the one value type of
the extended lattice, surfaces.ExtendedVector (also importable from
here).
"""

from __future__ import annotations

from dataclasses import dataclass

from .lattice import DimensionError, Matrix, block_diagonal
from .surfaces import ExtendedVector, NumericalSurface, euler_pairing


@dataclass(frozen=True)
class CoverTransfer:
    """Pullback/pushforward data for a degree-n canonical cover.

    pull_num maps Num(base) -> Num(cover), push_num the other way; both
    act on column coordinate vectors.  Construction checks only shapes
    and the structural requirement that the covering surface has trivial
    canonical bundle; the five numerical axioms are the business of
    validate_cover, so that invalid transfers can be built and examined.
    """

    base: NumericalSurface
    cover: NumericalSurface
    degree: int
    pull_num: Matrix
    push_num: Matrix

    def __post_init__(self):
        if self.degree < 1:
            raise ValueError("cover degree must be a positive integer")
        if self.cover.canonical_order != 1:
            raise ValueError(
                f"covering surface {self.cover.name} must have trivial canonical bundle")
        if not (self.pull_num.is_integral and self.push_num.is_integral):
            raise ValueError("transfer matrices must be integral")
        if (self.pull_num.nrows, self.pull_num.ncols) != (self.cover.dim, self.base.dim):
            raise DimensionError("pull matrix shape does not match the two lattices")
        if (self.push_num.nrows, self.push_num.ncols) != (self.base.dim, self.cover.dim):
            raise DimensionError("push matrix shape does not match the two lattices")

    def pull_extended(self) -> Matrix:
        """Pullback on H^0 + Num + H^4: rank preserved, point class times n."""
        return block_diagonal([Matrix([[1]]), self.pull_num, Matrix([[self.degree]])])

    def push_extended(self) -> Matrix:
        """Pushforward on H^0 + Num + H^4: rank times n, point class preserved."""
        return block_diagonal([Matrix([[self.degree]]), self.push_num, Matrix([[1]])])


@dataclass(frozen=True)
class CoverCheck:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class CoverValidation:
    checks: tuple

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failed_names(self) -> list:
        return [c.name for c in self.checks if not c.passed]


def validate_cover(t: CoverTransfer) -> CoverValidation:
    """Check the five numerical axioms of a canonical-cover transfer.

    Every check is reported with a pass/fail flag and a witness; nothing
    is thrown.  The overall verdict is the conjunction.
    """
    n = t.degree
    gb, gc = t.base.num.gram, t.cover.num.gram
    checks = []

    ok = t.degree == t.base.canonical_order
    checks.append(CoverCheck(
        "degree_equals_canonical_order", ok,
        f"degree {t.degree} vs canonical order {t.base.canonical_order} of {t.base.name}"))

    scaled = t.pull_num.T @ gc @ t.pull_num
    expected = gb.scale(n)
    if scaled == expected:
        checks.append(CoverCheck("intersection_scaling", True,
                                 f"pull^T G pull = {n} * G_base on all basis pairs"))
    else:
        i, j = next((i, j) for i in range(gb.nrows) for j in range(gb.ncols)
                    if scaled[i, j] != expected[i, j])
        checks.append(CoverCheck(
            "intersection_scaling", False,
            f"(pull e{i + 1}).(pull e{j + 1}) = {scaled[i, j]}, "
            f"expected {n}*(e{i + 1}.e{j + 1}) = {expected[i, j]}"))

    lhs = t.push_num.T @ gb
    rhs = gc @ t.pull_num
    if lhs == rhs:
        checks.append(CoverCheck("pushforward_adjointness", True,
                                 "(push u).x = u.(pull x) on all basis pairs"))
    else:
        i, j = next((i, j) for i in range(lhs.nrows) for j in range(lhs.ncols)
                    if lhs[i, j] != rhs[i, j])
        checks.append(CoverCheck(
            "pushforward_adjointness", False,
            f"(push f{i + 1}).e{j + 1} = {lhs[i, j]} but f{i + 1}.(pull e{j + 1}) = {rhs[i, j]}"))

    comp = t.push_num @ t.pull_num
    deg = Matrix.identity(t.base.dim).scale(n)
    if comp == deg:
        checks.append(CoverCheck("degree_identity", True,
                                 f"push o pull = {n} * id on Num({t.base.name})"))
    else:
        j = next(j for j in range(t.base.dim)
                 if comp.column(j) != deg.column(j))
        checks.append(CoverCheck(
            "degree_identity", False,
            f"push(pull(e{j + 1})) = {comp.column(j)}, expected {deg.column(j)}"))

    ok = t.cover.chi_o == n * t.base.chi_o
    checks.append(CoverCheck(
        "chi_multiplicativity", ok,
        f"chi(O_{t.cover.name}) = {t.cover.chi_o} vs {n} * chi(O_{t.base.name}) = {n * t.base.chi_o}"))

    return CoverValidation(tuple(checks))


def pullback_ch(t: CoverTransfer, e: ExtendedVector) -> ExtendedVector:
    """Pull a class back along the cover: (r, pull c, n s)."""
    if len(e.c) != t.base.dim:
        raise DimensionError(f"class does not live on {t.base.name}")
    return ExtendedVector(e.r, t.pull_num.apply(e.c), t.degree * e.s)


def pushforward_ch(t: CoverTransfer, e: ExtendedVector) -> ExtendedVector:
    """Push a class forward along the cover: (n r, push c, s)."""
    if len(e.c) != t.cover.dim:
        raise DimensionError(f"class does not live on {t.cover.name}")
    return ExtendedVector(t.degree * e.r, t.push_num.apply(e.c), e.s)


def chi_adjunction_check(t: CoverTransfer, f, e) -> tuple:
    """Compare chi(pull f, e) on the cover with chi(f, push e) on the base.

    Returns (lhs, rhs, equal); equality for all classes is the numerical
    form of the pullback/pushforward adjunction and holds for every
    transfer satisfying the five axioms.
    """
    lhs = euler_pairing(t.cover, pullback_ch(t, f), e)
    rhs = euler_pairing(t.base, f, pushforward_ch(t, e))
    return lhs, rhs, lhs == rhs
