"""Constructive averaging for cyclic group actions on rational vector spaces.

For a representation of Z_n with generator matrix g, put

    N = 1 + g + g^2 + .. + g^(n-1)      (the norm operator)
    B = 1 - g                            (the difference operator)

Then N B = B N = 0 and, over a field of characteristic zero, the kernel
of N equals the image of B.  That identity is the engine behind descent
of invariant morphisms: if B s lies in a g-stable subspace V, some k in V
has B k = B s, and s - k is an invariant representative of s modulo V.
descend_invariant returns the cyclic average t = (1/n) N s, such a
representative, certified by one forward elimination.

CyclicRep is the one cyclic-action type (transport.GActionLattice is a
CyclicRep of an extended lattice).  Its stated order n, at most
MAX_ORDER, is checked once, by the power g^n = 1; loops run to the true
order t, the first k >= 1 with g^k = 1, which divides n and, for finite
order over Q, is bounded in terms of the dimension.  N is n/t times the
sum S of powers(), and N B = B N = 0 is never multiplied out: it is the
telescoping identity (1 - g) S = S (1 - g) = 1 - g^t with g^t = 1, and
rank N is tr(S)/t, the rank of the idempotent S/t (see verify_ker_im).

Everything is done over the exact rationals.  The kernel/image identity
for a matrix with rational entries is independent of the field extension,
and complex-only irreducibles (scalar action by a primitive root of
unity) are realized here as rational blocks: companion matrices of
cyclotomic polynomials.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache
from math import lcm
from operator import sub

from .lattice import DimensionError, Matrix, Value, _set, as_rational, block_diagonal, pivot_columns, rank, vector
from .surfaces import InvariantError


MAX_ORDER = 1000  # check_equivariant, for one, returns one exponent per element of the order


class CyclicRep(Value):
    """A rational representation of Z_order of the given dimension."""

    _fields = ("order", "dim", "gen")

    def __init__(self, order: int, dim: int, gen: Matrix):
        for name, value in (("order", order), ("dim", dim)):
            value = as_rational(value)  # bools and floats raise TypeError
            if not isinstance(value, int) or value < 1:
                raise ValueError(f"{name} must be a positive integer")
            _set(self, name, value)
        _set(self, "gen", gen)
        self.__post_init__()  # through self: GActionLattice's checks more, timed by bench/tracing.py

    def __post_init__(self, where: str = "", integral: bool = False):
        # GActionLattice passes where its generator acts and integral=True
        if self.order > MAX_ORDER:  # also bounds a hyperbolic generator's growth in the gate
            raise ValueError(f"order must be at most {MAX_ORDER}")
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
    t powers up to the true order t, added as integer rows over one
    common denominator taken from each power's cleared rows."""
    cleared = [p._ints() for p in rep.powers()]
    d = lcm(*[dp for _, dp, _, _ in cleared])
    scaled = [rows if dp == d else [[x * (d // dp) for x in row] for row in rows] for rows, dp, _, _ in cleared]
    total = Matrix._trusted(tuple([tuple([sum(col) for col in zip(*rows)]) for rows in zip(*scaled)]), True)
    k = Fraction(rep.order // len(cleared), d)
    return total if k == 1 else total.scale(k)


def difference_operator(rep: CyclicRep) -> Matrix:
    """Identity minus the generator."""
    return Matrix.identity(rep.dim) - rep.gen


class KerImReport(Value):
    _fields = ("holds", "dim_ker_norm", "rank_difference")

    def __init__(self, holds: bool, dim_ker_norm: int, rank_difference: int):
        _set(self, "holds", holds)
        _set(self, "dim_ker_norm", dim_ker_norm)
        _set(self, "rank_difference", rank_difference)


def verify_ker_im(rep: CyclicRep) -> KerImReport:
    """Check ker(norm) = im(difference).

    N B = B N = 0 exactly, with no product: for S the sum of the t
    powers, (1 - g) S = S (1 - g) = 1 - g^t telescopes for any square g,
    and g^t = 1, compared exactly by powers() when t < n and by the
    CyclicRep gate when t = n; N = (n/t) S.  So im B lies in ker N, and
    they are equal exactly when dim ker N = rank B.  And g S = S + g^t - 1
    = S, so S^2 = t S: S/t is idempotent, and rank N = rank(S/t) = tr(S)/t
    exactly (an idempotent's rank is its trace), with no elimination on N.
    """
    powers = rep.powers()
    dim_ker = rep.dim - sum([row[i] for p in powers for i, row in enumerate(p.entries)]) // len(powers)
    rank_b = rank(difference_operator(rep))
    return KerImReport(dim_ker == rank_b, dim_ker, rank_b)


def descend_invariant(rep: CyclicRep, subspace, s) -> tuple:
    """The cyclic average of s: an invariant representative of s modulo a
    g-stable subspace, given by spanning vectors.

    t = (1/l) (s + g s + .. + g^(l-1) s) over the orbit length l of s,
    which is (1/n) N s.  Checked: the span is stable under the generator,
    B s lies in it and t - s lies in it.  g t = t needs no check: the
    orbit loop stops on the exact comparison g^l s == s, and g t - t =
    (g^l s - s) / l telescopes like N B = 0.
    """
    vecs = [vector(v) for v in subspace]
    if any(len(v) != rep.dim for v in vecs):
        raise DimensionError("subspace vectors must have the representation's dimension")
    if len(s) != rep.dim:
        raise DimensionError("vector must have the representation's dimension")
    s = vector(s)
    orbit, v = [s], rep.gen.apply(s)
    bs = vector(map(sub, s, v))  # B s = s - g s
    if not vecs:
        if any(bs):
            raise ValueError("B s does not lie in the subspace")
        return s
    while v != s:  # the orbit closes within the order, g^n = 1
        orbit.append(v)
        v = rep.gen.apply(v)
    total, length = [sum(xs) for xs in zip(*orbit)], len(orbit)
    t = vector([Fraction(x, length) for x in total])
    # One forward elimination of [S | gS | Bs | l (s - t)] decides every
    # check: a pivot among the gS columns is an image g v outside span(S);
    # once the span is stable, a pivot at Bs is B s outside it, and one in
    # the last column is t - s outside it.  That cannot happen: by ker N =
    # im B on the span, B k = B s for some k in it, and t - s is the
    # average of k less k.  The factor l keeps integral data integral.
    span = Matrix._trusted(tuple(list(zip(*vecs))), all([type(x) is int for vec in vecs for x in vec]))
    gspan = rep.gen @ span
    diff = vector([length * a - b for a, b in zip(s, total)])  # l (s - t)
    m = len(vecs)
    stacked = Matrix._trusted(tuple([a + b + (c, e) for a, b, c, e in zip(span.entries, gspan.entries, bs, diff)]),
                              span.is_integral and gspan.is_integral and all([type(x) is int for x in bs + diff]))
    pivots = pivot_columns(stacked)
    if any(m <= p < 2 * m for p in pivots):
        raise ValueError("subspace is not stable under the group generator")
    if 2 * m in pivots:
        raise ValueError("B s does not lie in the subspace")
    if 2 * m + 1 in pivots:
        raise InvariantError("no subspace element maps to B s under B")
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
    """The permutation matrix of the k-cycle e_i -> e_(i+1 mod k)."""
    return Matrix([[int(j == (i - 1) % k) for j in range(k)] for i in range(k)])


def random_rep(rng: random.Random, max_order: int = 12, max_dim: int = 20) -> CyclicRep:
    """A random rational representation of a cyclic group, for test suites.

    Block-diagonal pieces (trivial lines, permutation cycles, cyclotomic
    companion blocks) are conjugated by a random integer change of basis:
    unimodular most of the time, giving integer matrices, and merely
    invertible otherwise, giving genuinely rational ones.  Raises
    ValueError unless 1 <= max_order <= MAX_ORDER and max_dim >= 1.
    """
    if not (1 <= max_order <= MAX_ORDER and max_dim >= 1):
        raise ValueError(f"random_rep needs 1 <= max_order <= {MAX_ORDER} and max_dim >= 1")
    order = rng.randint(1, max_order)
    dim = rng.randint(1, max_dim)
    # Euler's phi of each divisor k of order, from sum(phi(d) for d | k) = k.
    # phi(k) >= sqrt(k/2), so no divisor above 2 dim^2 gives a block that fits.
    totients = {}
    for k in range(1, min(order, 2 * dim * dim) + 1):
        if order % k == 0:
            totients[k] = k - sum(t for d, t in totients.items() if k % d == 0)
    blocks = []
    filled = 0
    while filled < dim:
        remaining = dim - filled
        options = [(_cycle_matrix, 1)]  # (builder, argument); the 1-cycle is [[1]]
        for k, phi in totients.items():
            if 1 < k <= remaining:
                options.append((_cycle_matrix, k))
            if 1 < k and phi <= remaining:
                options.append((_companion, _cyclotomic(k)))
        build, arg = rng.choice(options)
        block = build(arg)  # only the drawn block is built
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
