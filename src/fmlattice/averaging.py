"""Constructive averaging for cyclic group actions on rational vector spaces.

For a representation of Z_n with generator matrix g, put

    N = 1 + g + g^2 + .. + g^(n-1)      (the norm operator)
    B = 1 - g                            (the difference operator)

Then N B = B N = 0 and, over a field of characteristic zero, the kernel
of N equals the image of B.  That identity is the engine behind descent
of invariant morphisms: if B s lies in a g-stable subspace V, some k in V
has B k = B s, and t = s - k is an invariant representative of s modulo
V.  descend_invariant computes such a t constructively.

CyclicRep is the one cyclic-action type (transport.GActionLattice is a
CyclicRep of an extended lattice).  Its stated order n is checked once,
by the power g^n = 1; loops run to the true order t, the first k >= 1
with g^k = 1, which divides n and, for finite order over Q, is bounded
in terms of the dimension.  N is n/t times the sum of powers().

Everything is done over the exact rationals.  The kernel/image identity
for a matrix with rational entries is independent of the field extension,
and complex-only irreducibles (scalar action by a primitive root of
unity) are realized here as rational blocks: companion matrices of
cyclotomic polynomials.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .lattice import (
    DimensionError,
    Matrix,
    _exact,
    block_diagonal,
    rank,
    rref,
    solve_rational,
    vector,
)
from .surfaces import InvariantError


@dataclass(frozen=True)
class CyclicRep:
    """A rational representation of Z_order of the given dimension."""

    order: int
    dim: int
    gen: Matrix

    def __post_init__(self, where: str = "", integral: bool = False):
        # GActionLattice passes where its generator acts and integral=True
        if self.order < 1:
            raise ValueError("order must be a positive integer")
        if not (self.gen.is_square and self.gen.nrows == self.dim):
            raise DimensionError(f"generator must be {self.dim}x{self.dim}{where}")
        if integral and not self.gen.is_integral:
            raise ValueError("generator must map the integral extended lattice to itself")
        if self.gen.power(self.order) != Matrix.identity(self.dim):
            raise ValueError(f"generator does not have order dividing {self.order}")

    def powers(self) -> list:
        """g^0, .., g^(t-1) for the true order t; built on every call."""
        one = Matrix.identity(self.dim)
        result = [one]
        while len(result) < self.order:  # the gate proved g^order = 1
            current = self.gen if len(result) == 1 else result[-1] @ self.gen
            if current == one:
                break
            result.append(current)
        return result


def norm_operator(rep: CyclicRep) -> Matrix:
    """Sum of all powers of the generator: order / t times the sum of the
    t powers up to the true order t."""
    pows = rep.powers()
    total = sum(pows[1:], pows[0])
    return total if len(pows) == rep.order else total.scale(rep.order // len(pows))


def difference_operator(rep: CyclicRep) -> Matrix:
    """Identity minus the generator."""
    return Matrix.identity(rep.dim) - rep.gen


@dataclass(frozen=True)
class KerImReport:
    holds: bool
    dim_ker_norm: int
    rank_difference: int


def verify_ker_im(rep: CyclicRep) -> KerImReport:
    """Check ker(norm) = im(difference).

    N B = B N = 0 is asserted (it is an identity, so a failure means a
    corrupted representation).  N B = 0 puts im B inside ker N, so the two
    subspaces are equal exactly when dim ker N = rank B.
    """
    n_op = norm_operator(rep)
    b_op = difference_operator(rep)
    zero = Matrix.zero(rep.dim, rep.dim)
    if n_op @ b_op != zero or b_op @ n_op != zero:
        raise InvariantError("norm and difference operators fail to annihilate each other")
    dim_ker = rep.dim - rank(n_op)
    rank_b = rank(b_op)
    return KerImReport(dim_ker == rank_b, dim_ker, rank_b)


def descend_invariant(rep: CyclicRep, subspace, s) -> tuple:
    """An invariant representative of s modulo a g-stable subspace.

    subspace is given by spanning vectors.  Preconditions checked: the
    span is stable under the generator, and B s lies in it.  The result t
    satisfies B t = 0 and t - s in span(subspace).
    """
    vecs = [vector(v) for v in subspace]
    if any(len(v) != rep.dim for v in vecs):
        raise DimensionError("subspace vectors must have the representation's dimension")
    if len(s) != rep.dim:
        raise DimensionError("vector must have the representation's dimension")
    s = vector(s)
    b_op = difference_operator(rep)
    bs = b_op.apply(s)
    if not vecs:
        if any(bs):
            raise ValueError("B s does not lie in the subspace")
        return s
    # One elimination of [S | gS | Bs] decides both preconditions: a pivot
    # among the gS columns is an image g v outside span(S), and once the
    # span is stable, a pivot in the last column is B s outside it.
    span = Matrix.from_columns(vecs)
    m = len(vecs)
    stacked = Matrix([a + b + (c,) for a, b, c in zip(span.entries, (rep.gen @ span).entries, bs)])
    pivots = rref(stacked)[1]
    if any(m <= p < 2 * m for p in pivots):
        raise ValueError("subspace is not stable under the group generator")
    if 2 * m in pivots:
        raise ValueError("B s does not lie in the subspace")
    # Bs is in the subspace and killed by the norm, hence in B(subspace)
    coeffs = solve_rational(b_op @ span, bs)
    if coeffs is None:
        raise InvariantError("no subspace element maps to B s under B")
    k = span.apply(coeffs)
    t = tuple([_exact(a - b) for a, b in zip(s, k)])
    if any(b_op.apply(t)):
        raise InvariantError("descended vector is not invariant")
    return t


@lru_cache(maxsize=None)
def _cyclotomic(n: int) -> tuple:
    """Coefficients (low degree first) of the n-th cyclotomic polynomial."""
    # x^n - 1 divided by the cyclotomic polynomials of the proper divisors
    poly = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            poly = _polydiv_exact(poly, list(_cyclotomic(d)))
    return tuple(poly)


def _polydiv_exact(num, den):
    num = list(num)
    out = [0] * (len(num) - len(den) + 1)
    for k in range(len(out) - 1, -1, -1):
        coeff = num[k + len(den) - 1] // den[-1]
        out[k] = coeff
        for i, d in enumerate(den):
            num[k + i] -= coeff * d
    if any(num):
        raise ArithmeticError("inexact polynomial division")
    return out


def _companion(poly) -> Matrix:
    deg = len(poly) - 1
    rows = [[0] * deg for _ in range(deg)]
    for i in range(1, deg):
        rows[i][i - 1] = 1
    for i in range(deg):
        rows[i][deg - 1] = -poly[i]
    return Matrix(rows)


def _cycle_matrix(k: int) -> Matrix:
    rows = [[0] * k for _ in range(k)]
    for i in range(k):
        rows[(i + 1) % k][i] = 1
    return Matrix(rows)


def random_rep(rng: random.Random, max_order: int = 12, max_dim: int = 20) -> CyclicRep:
    """A random rational representation of a cyclic group, for test suites.

    Block-diagonal pieces (trivial lines, permutation cycles, cyclotomic
    companion blocks) are conjugated by a random integer change of basis:
    unimodular most of the time, giving integer matrices, and merely
    invertible otherwise, giving genuinely rational ones.
    """
    order = rng.randint(1, max_order)
    dim = rng.randint(1, max_dim)
    divisors = [k for k in range(1, order + 1) if order % k == 0]
    blocks = []
    filled = 0
    while filled < dim:
        remaining = dim - filled
        options = [Matrix([[1]])]
        for k in divisors:
            if 1 < k <= remaining:
                options.append(_cycle_matrix(k))
            deg = len(_cyclotomic(k)) - 1
            if 1 < k and deg <= remaining:
                options.append(_companion(_cyclotomic(k)))
        block = rng.choice(options)
        blocks.append(block)
        filled += block.nrows
    gen = block_diagonal(blocks)
    basis, basis_inv = _random_basis_pair(rng, dim, unimodular=rng.random() < 0.75)
    gen = basis @ gen @ basis_inv
    return CyclicRep(order, dim, gen)


def _random_basis_pair(rng: random.Random, n: int, unimodular: bool):
    """A random invertible integer matrix together with its exact inverse.

    The inverse is maintained through the same elementary operations, so
    no elimination is ever run.
    """
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    inv = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(2 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        q = rng.choice([-2, -1, 1, 2])
        rows[i] = [x + q * y for x, y in zip(rows[i], rows[j])]
        for row in inv:  # right-multiply by the inverse operation
            row[j] -= q * row[i]
    if not unimodular and n > 1:
        i = rng.randrange(n)
        k = rng.choice([2, 3])
        rows[i] = [x * k for x in rows[i]]
        scale = Fraction(1, k)
        for row in inv:
            row[i] *= scale
    return Matrix(rows), Matrix(inv)
