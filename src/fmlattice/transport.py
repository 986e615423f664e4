"""Lifting and descending lattice isometries along canonical covers.

The derived-category statements become exact matrix equations here: a
transform between two surfaces is represented by the isometry it induces
on extended Mukai lattices, a cyclic group action by the lattice action
of its generator, and "commutes up to isomorphism of functors" collapses
to equality of matrices, because a lattice map has no automorphisms to
twist by.  That collapse is the central modeling choice of the package.

Three solvers live here.

check_equivariant finds the group automorphism mu (as exponents) with
g* o phi = phi o mu(g)* whenever one exists.  Only the generator
equation is tested, over the units modulo the true order of g_y (see
averaging.CyclicRep), not the stated one; the rest of the group follows
from it by induction.

descend_isometry takes an isometry of cover lattices and produces the
unique candidate on base lattices pinned down by the pushforward square;
the candidate is accepted only if it is integral, satisfies both squares
exactly, and preserves the Mukai pairing.  Failures carry a witness (the
forced image of a pushforward vector that has no integral preimage).

lift_isometry solves the squares M pull_Y = pull_X phi and push_X M =
phi push_Y in closed form: on covers with push o pull = n (the degree
identity, which lifting requires) M0 = (1/n) pull_X phi push_Y solves
both, the transpose of the descent formula.  Where a cover's Num rank
equals its base's (every built-in cover) M0 is the only solution and the
result is a list with zero or one verified entries.  An empty list does
not contradict the sheaf-level lifting theorem; it refutes the input
being the cohomological action of an actual transform compatible with
the given transfers.  Where both covers have larger Num rank the leftover
freedom, ker push_X (x) ker pull_Y^T, is returned as a LiftFamily instead
of an arbitrary representative, so that the caller sees it.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .averaging import CyclicRep
from .covers import CoverTransfer
from .lattice import DimensionError, Matrix, Value, _integers, _needs, _set, kernel_basis
from .surfaces import InvariantError, NumericalSurface


class GActionLattice(CyclicRep):
    """The extended-lattice action of a generator of a cyclic group: a
    CyclicRep of dimension surface.extended_dim() on a surface with
    trivial canonical class, whose generator is integral and preserves
    the Mukai pairing."""

    _fields = ("order", "dim", "gen", "surface")

    def __init__(self, surface: NumericalSurface, order: int, gen: Matrix):
        _set(self, "surface", _needs(surface, NumericalSurface, "GActionLattice"))
        super().__init__(order, surface.extended_dim(), gen)

    def __post_init__(self):
        if self.surface.canonical_order != 1:
            raise ValueError(
                f"group actions live on covers; {self.surface.name} has nontrivial canonical order")
        super().__post_init__(f" for {self.surface.name}", integral=True)
        m = self.surface.mukai_gram
        if self.gen.T @ m @ self.gen != m:
            raise ValueError("generator does not preserve the Mukai pairing")


class LatticeIsometry(Value):
    """A pairing-preserving integral map between extended Mukai lattices."""

    _fields = ("source", "target", "mat")

    def __init__(self, source: NumericalSurface, target: NumericalSurface, mat: Matrix):
        _set(self, "mat", _needs(mat, Matrix, "LatticeIsometry"))
        _set(self, "source", _needs(source, NumericalSurface, "LatticeIsometry"))
        _set(self, "target", _needs(target, NumericalSurface, "LatticeIsometry"))
        self.__post_init__()  # through self: bench/tracing.py replaces it to time it

    def __post_init__(self):
        ds, dt = self.source.extended_dim(), self.target.extended_dim()
        if ds != dt:
            raise DimensionError("source and target extended lattices must have equal rank")
        if (self.mat.nrows, self.mat.ncols) != (dt, ds):
            raise DimensionError("matrix shape does not match the extended lattices")
        if not self.mat.is_integral:
            raise ValueError("isometry must map integral classes to integral classes")
        if self.mat.T @ self.target.mukai_gram @ self.mat != self.source.mukai_gram:
            raise ValueError("map does not preserve the Mukai pairings")


def identity_isometry(surface: NumericalSurface) -> LatticeIsometry:
    n = _needs(surface, NumericalSurface, "identity_isometry").extended_dim()
    return LatticeIsometry(surface, surface, Matrix.identity(n))


def minus_one(surface: NumericalSurface) -> LatticeIsometry:
    n = _needs(surface, NumericalSurface, "minus_one").extended_dim()
    return LatticeIsometry(surface, surface, -Matrix.identity(n))


def num_negation(surface: NumericalSurface) -> LatticeIsometry:
    """-1 on the divisor lattice, +1 on H^0 and H^4."""
    d = _needs(surface, NumericalSurface, "num_negation").dim
    diag = [1] + [-1] * d + [1]
    return LatticeIsometry(surface, surface, Matrix.diagonal(diag))


def tensor_twist(surface: NumericalSurface, divisor) -> LatticeIsometry:
    """Multiplication by exp(l) for a divisor class l, the lattice action of
    tensoring with a line bundle: (r, c, s) -> (r, c + r l, s + c.l + r l^2/2).

    Integral only when l^2 is even, which holds on every even lattice.
    The coordinates of l are read as ExtendedVector's are (a number in the
    definitions form too): floats and bools raise TypeError, a non-integer
    InvariantError; then a surface that is no NumericalSurface TypeError.
    """
    ell = tuple(_integers(divisor, InvariantError, lambda *ell: f"divisor {ell} must be integral"))
    if len(ell) != _needs(surface, NumericalSurface, "tensor_twist").dim:
        raise DimensionError(f"divisor does not live on {surface.name}")
    g_ell = surface.num.gram.apply(ell)
    half_sq = Fraction(sum([x * y for x, y in zip(ell, g_ell)]), 2)  # l^2 = l.(G l)
    rows = [[1] + [0] * (surface.dim + 1)]
    rows += [[x, *row, 0] for x, row in zip(ell, Matrix.identity(surface.dim).entries)]
    rows.append([half_sq, *g_ell, 1])
    return LatticeIsometry(surface, surface, Matrix(rows))


def check_order_compatibility(sx: NumericalSurface, sy: NumericalSurface) -> bool:
    """Surfaces related by a transform must have equal canonical orders."""
    sx, sy = [_needs(s, NumericalSurface, "check_order_compatibility") for s in (sx, sy)]
    return sx.canonical_order == sy.canonical_order


def check_equivariant(phi: LatticeIsometry, a_y: GActionLattice,
                      a_x: GActionLattice):
    """Exponents of the group automorphism mu with g* o phi = phi o mu(g)*.

    Returns the list [mu(g^0), .., mu(g^{n-1})] as exponents when an
    automorphism satisfying every equation exists, None otherwise.  When
    several exponents work (actions that are not faithful on the lattice)
    the smallest is taken, so the identity automorphism is preferred.
    Whether a unit k works depends on k mod t_y, the true order of g_y.

    Only the generator equation g_x phi = phi g_y^k is compared: by
    induction g_x^j phi = g_x^(j-1) phi g_y^k = phi g_y^(jk) for every j,
    g_y^n = 1 (checked when a_y was built) reduces jk mod n, and a unit k
    makes j -> jk mod n an automorphism of Z_n.
    """
    for value, cls in ((phi, LatticeIsometry), (a_y, GActionLattice), (a_x, GActionLattice)):
        _needs(value, cls, "check_equivariant")
    if a_y.order != a_x.order:
        raise ValueError(
            f"group orders differ: {a_y.order} vs {a_x.order}")
    if phi.source != a_y.surface or phi.target != a_x.surface:
        raise ValueError("isometry does not connect the two action lattices")
    n, m = a_y.order, phi.mat
    pows_y = a_y.powers()
    t_y = len(pows_y)
    lhs = a_x.gen @ m
    # phi g_y^r for the units r mod t_y; each lifts to a unit mod n
    works = {r for r in range(t_y) if gcd(r, t_y) == 1 and lhs == m @ pows_y[r]}
    if not works:
        return None
    k = next(k for k in range(1, n + 1) if k % t_y in works and gcd(k, n) == 1)
    return [j * k % n for j in range(n)]


class DescentOutcome(Value):
    """Result of descend_isometry: the isometry, or a named failure.

    witness, when present, is a pair (source_vector, image_vector) of
    integral extended vectors: the pushforward square forces the base map
    to send the first to the second, and no integral map can.
    """

    _fields = ("isometry", "failure", "witness")

    def __init__(self, isometry: LatticeIsometry | None, failure: str | None = None, witness: tuple | None = None):
        super().__init__(isometry, failure, witness)

    def __bool__(self) -> bool:
        return self.isometry is not None


def _descent_witness(push_y: Matrix, forced: Matrix, candidate: Matrix):
    bad_col = next(j for j in range(candidate.ncols)
                   if not all(isinstance(x, int) for x in candidate.column(j)))
    for i in range(push_y.ncols):
        src = push_y.column(i)
        if src[bad_col]:
            return tuple(src), tuple(forced.column(i))
    return None


def descend_isometry(phi_t: LatticeIsometry, t_y: CoverTransfer,
                     t_x: CoverTransfer) -> DescentOutcome:
    """Descend an isometry of cover lattices to the base lattices.

    The pushforward square phi o push_Y = push_X o phi_t determines phi
    uniquely over Q (pushforward is surjective there); the candidate is
    returned only when it is integral and both squares hold exactly.
    """
    for value, cls in ((phi_t, LatticeIsometry), (t_y, CoverTransfer), (t_x, CoverTransfer)):
        _needs(value, cls, "descend_isometry")
    if t_y.degree != t_x.degree:
        raise ValueError(f"cover degrees differ: {t_y.degree} vs {t_x.degree}")
    if phi_t.source != t_y.cover or phi_t.target != t_x.cover:
        raise ValueError("isometry does not connect the two cover lattices")
    push_y, push_x = t_y.push_extended, t_x.push_extended
    pull_y, pull_x = t_y.pull_extended, t_x.pull_extended
    forced = push_x @ phi_t.mat
    candidate = (forced @ pull_y).scale(Fraction(1, t_y.degree))
    if not candidate.is_integral:
        witness = _descent_witness(push_y, forced, candidate)
        return DescentOutcome(None, "no integral solution", witness)
    if candidate @ push_y != forced:
        return DescentOutcome(None, "pushforward square has no solution")
    if pull_x @ candidate != phi_t.mat @ pull_y:
        return DescentOutcome(None, "pullback square fails")
    iso = LatticeIsometry(t_y.base, t_x.base, candidate)
    return DescentOutcome(iso)


class LiftFamily(Value):
    """Affine family of rational solutions of the two lifting squares.

    Returned when both covers have strictly larger Num rank than their
    bases.  Members are particular + sum t_i * directions[i].  directions
    are the k l^T for k in the reduced kernel basis of push_X and, inner,
    l in that of pull_Y^T; each is 1 at (last nonzero index of k, of l),
    where particular is 0.  Integrality and pairing preservation cut out
    the actual lifts and are left to the caller, being nonlinear.
    """

    _fields = ("particular", "directions")


def lift_isometry(phi: LatticeIsometry, t_y: CoverTransfer, t_x: CoverTransfer):
    """All integral pairing-preserving lifts of a base isometry, or a
    LiftFamily when the two squares leave rational freedom.

    M0 = (1/n) pull_X phi push_Y solves both squares; a cover without the
    degree identity push o pull = n raises ValueError.  The homogeneous
    solutions are the k l^T with k in ker push_X and l in ker pull_Y^T.
    When both kernels are nonzero the family is returned, otherwise [M0]
    when it is an integral isometry and [] when it is not.
    """
    for value, cls in ((phi, LatticeIsometry), (t_y, CoverTransfer), (t_x, CoverTransfer)):
        _needs(value, cls, "lift_isometry")
    if t_y.degree != t_x.degree:
        raise ValueError(f"cover degrees differ: {t_y.degree} vs {t_x.degree}")
    if phi.source != t_y.base or phi.target != t_x.base:
        raise ValueError("isometry does not connect the two base lattices")
    for t in (t_y, t_x):
        if not t.degree_check.passed:
            raise ValueError(f"cover of {t.base.name} by {t.cover.name} violates axiom "
                             f"'degree_identity': {t.degree_check.detail}")
    pull_y, pull_x = t_y.pull_extended, t_x.pull_extended
    push_y, push_x = t_y.push_extended, t_x.push_extended
    pulled = pull_x @ phi.mat
    candidate = (pulled @ push_y).scale(Fraction(1, t_y.degree))
    if candidate @ pull_y != pulled or push_x @ candidate != phi.mat @ push_y:
        raise InvariantError("the closed-form lift fails a commuting square")

    if t_y.cover.dim > t_y.base.dim and t_x.cover.dim > t_x.base.dim:
        rows = [list(row) for row in candidate.entries]
        directions = []
        ls = kernel_basis(pull_y.T)
        for k in kernel_basis(push_x):
            last_k = max(i for i, a in enumerate(k) if a)
            for l in ls:
                c = candidate[last_k, max(j for j, b in enumerate(l) if b)]
                for i, a in enumerate(k):
                    if a and c:
                        rows[i] = [x - c * a * b for x, b in zip(rows[i], l)]
                directions.append(Matrix([[a * b for b in l] for a in k]))
        return LiftFamily(Matrix(rows), tuple(directions))
    try:
        return [LatticeIsometry(t_y.cover, t_x.cover, candidate)]
    except ValueError:
        return []
