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
broken transfers can be inspected; the report is made once per transfer
(CoverTransfer.validation), so a loaded cover is not checked again.

The transfers act the same way on Chern characters and on Mukai vectors,
so pullback_ch and pushforward_ch take and return the one value type of
the extended lattice, surfaces.ExtendedVector (also importable from
here).
"""

from __future__ import annotations

from functools import cached_property

from .lattice import DimensionError, Matrix, Value, _integers, _needs, block_diagonal
from .surfaces import ExtendedVector, NumericalSurface, _on, euler_pairing


class CoverTransfer(Value):
    """Pullback/pushforward data for a degree-n canonical cover.

    pull_num maps Num(base) -> Num(cover), push_num the other way; both
    act on column coordinate vectors.  Construction checks only shapes
    and the structural requirement that the covering surface has trivial
    canonical bundle; the five numerical axioms are the business of
    validate_cover, so that invalid transfers can be built and examined.
    """

    _fields = ("base", "cover", "degree", "pull_num", "push_num")

    def __init__(self, base: NumericalSurface, cover: NumericalSurface, degree: int,
                 pull_num: Matrix, push_num: Matrix):
        for value, cls in ((base, NumericalSurface), (cover, NumericalSurface), (pull_num, Matrix), (push_num, Matrix)):
            _needs(value, cls, "CoverTransfer")
        degree, = _integers([degree], ValueError, "cover degree must be a positive integer", lambda n: n >= 1)
        if cover.canonical_order != 1:
            raise ValueError(
                f"covering surface {cover.name} must have trivial canonical bundle")
        if not (pull_num.is_integral and push_num.is_integral):
            raise ValueError("transfer matrices must be integral")
        if (pull_num.nrows, pull_num.ncols) != (cover.dim, base.dim):
            raise DimensionError("pull matrix shape does not match the two lattices")
        if (push_num.nrows, push_num.ncols) != (base.dim, cover.dim):
            raise DimensionError("push matrix shape does not match the two lattices")
        super().__init__(base, cover, degree, pull_num, push_num)

    @cached_property
    def pull_extended(self) -> Matrix:
        """Pullback on H^0 + Num + H^4: rank preserved, point class times n;
        built once per transfer."""
        return block_diagonal([Matrix([[1]]), self.pull_num, Matrix([[self.degree]])])

    @cached_property
    def push_extended(self) -> Matrix:
        """Pushforward on H^0 + Num + H^4: rank times n, point class
        preserved; built once per transfer."""
        return block_diagonal([Matrix([[self.degree]]), self.push_num, Matrix([[1]])])

    @cached_property
    def euler_push(self) -> Matrix:
        """euler_gram(base) @ push_extended: applied to e, chi(F, push e)
        for the basis classes F of the base; built once per transfer."""
        return self.base.euler_gram @ self.push_extended

    @cached_property
    def degree_check(self) -> "CoverCheck":
        """degree_identity(self); checked once per transfer."""
        return degree_identity(self)

    @cached_property
    def validation(self) -> "CoverValidation":
        """The report of validate_cover(self); checked once per transfer."""
        return _validation(self)


class CoverCheck(Value):
    _fields = ("name", "passed", "detail")


class CoverValidation(Value):
    _fields = ("checks",)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failed_names(self) -> list:
        return [c.name for c in self.checks if not c.passed]


def validate_cover(t: CoverTransfer) -> CoverValidation:
    """Check the five numerical axioms of a canonical-cover transfer.

    Every check is reported with a pass/fail flag and a witness; nothing
    is thrown.  The overall verdict is the conjunction.  The report is
    t.validation, made once per transfer; load_definitions made it already
    for every cover it accepted.
    """
    return _needs(t, CoverTransfer, "validate_cover").validation


def _validation(t: CoverTransfer) -> CoverValidation:
    n = t.degree
    gb, gc = t.base.num.gram, t.cover.num.gram
    checks = []

    ok = t.degree == t.base.canonical_order
    checks.append(CoverCheck(
        "degree_equals_canonical_order", ok,
        f"degree {t.degree} vs canonical order {t.base.canonical_order} of {t.base.name}"))

    scaled, expected = t.pull_num.T @ gc @ t.pull_num, gb.scale(n)
    i, j = _first_difference(scaled, expected)
    checks.append(CoverCheck(
        "intersection_scaling", i is None,
        f"pull^T G pull = {n} * G_base on all basis pairs" if i is None else
        f"(pull e{i + 1}).(pull e{j + 1}) = {scaled[i, j]}, "
        f"expected {n}*(e{i + 1}.e{j + 1}) = {expected[i, j]}"))

    lhs, rhs = t.push_num.T @ gb, gc @ t.pull_num
    i, j = _first_difference(lhs, rhs)
    checks.append(CoverCheck(
        "pushforward_adjointness", i is None,
        "(push u).x = u.(pull x) on all basis pairs" if i is None else
        f"(push f{i + 1}).e{j + 1} = {lhs[i, j]} but f{i + 1}.(pull e{j + 1}) = {rhs[i, j]}"))

    checks.append(t.degree_check)

    ok = t.cover.chi_o == n * t.base.chi_o
    checks.append(CoverCheck(
        "chi_multiplicativity", ok,
        f"chi(O_{t.cover.name}) = {t.cover.chi_o} vs {n} * chi(O_{t.base.name}) = {n * t.base.chi_o}"))

    return CoverValidation(tuple(checks))


def _first_difference(a: Matrix, b: Matrix) -> tuple:
    """(i, j) of the first entry where a and b differ, (None, None) if none."""
    if a == b:
        return None, None
    return next((i, j) for i in range(a.nrows) for j in range(a.ncols) if a[i, j] != b[i, j])


def degree_identity(t: CoverTransfer) -> CoverCheck:
    """The axiom push o pull = n on Num, which lift_isometry rests on."""
    n = _needs(t, CoverTransfer, "degree_identity").degree
    comp = t.push_num @ t.pull_num
    deg = Matrix.diagonal([n] * t.base.dim)
    if comp == deg:
        return CoverCheck("degree_identity", True, f"push o pull = {n} * id on Num({t.base.name})")
    j = next(j for j in range(t.base.dim) if comp.column(j) != deg.column(j))
    return CoverCheck("degree_identity", False,
                      f"push(pull(e{j + 1})) = {comp.column(j)}, expected {deg.column(j)}")


def pullback_ch(t: CoverTransfer, e: ExtendedVector) -> ExtendedVector:
    """Pull a class back along the cover: (r, pull c, n s)."""
    _on(_needs(t, CoverTransfer, "pullback_ch").base, "pullback_ch", e)
    return ExtendedVector(e.r, t.pull_num.apply(e.c), t.degree * e.s)


def pushforward_ch(t: CoverTransfer, e: ExtendedVector) -> ExtendedVector:
    """Push a class forward along the cover: (n r, push c, s)."""
    _on(_needs(t, CoverTransfer, "pushforward_ch").cover, "pushforward_ch", e)
    return ExtendedVector(t.degree * e.r, t.push_num.apply(e.c), e.s)


def chi_adjunction_check(t: CoverTransfer, f, e) -> tuple:
    """Compare chi(pull f, e) on the cover with chi(f, push e) on the base.

    Returns (lhs, rhs, equal); equality for all classes is the numerical
    form of the pullback/pushforward adjunction and holds for every
    transfer satisfying the five axioms.
    """
    _on(_needs(t, CoverTransfer, "chi_adjunction_check").base, "chi_adjunction_check", f)
    _on(t.cover, "chi_adjunction_check", e)
    lhs = euler_pairing(t.cover, pullback_ch(t, f), e)
    rhs = euler_pairing(t.base, f, pushforward_ch(t, e))
    return lhs, rhs, lhs == rhs
