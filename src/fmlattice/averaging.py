"""Constructive averaging for cyclic group actions on rational vector spaces.

For a representation of Z_n with generator matrix g, put

    N = 1 + g + g^2 + .. + g^(n-1)      (the norm operator)
    B = 1 - g                            (the difference operator)

Then N B = B N = 0 and, over a field of characteristic zero, the kernel
of N equals the image of B; verify_ker_im certifies it.  Descent of
invariant morphisms needs only telescoping: if V is g-stable and B s lies
in V, then s - g^j s = sum_(i<j) g^i B s lies in V, and so does s - t for
the cyclic average t = (1/n) N s, an invariant representative of s modulo
V.  descend_invariant runs the orbit of s in integers, on G = den g, and
reads g's images on the orbit of B s off it: on all 240 spans of the
averaging benchmark, each an orbit of B s (43 of the 240 generators are
rational at seed 1), it makes no product and eliminates nothing.

CyclicRep is the one cyclic-action type (transport.GActionLattice is a
CyclicRep of an extended lattice).  Its stated order n, at most
MAX_ORDER, is checked once, by the power g^n = 1; loops run to the true
order t, the first k >= 1 with g^k = 1, which divides n and, for finite
order over Q, is bounded in terms of the dimension.  N B = B N = 0 is
never multiplied out, as it telescopes.  rank N = tr N / n, N/n being
idempotent; tr g^(a+b) = sum_il (g^a)_il (g^b)_li, an O(d^2) pairing; and
tr g^(n-k) = tr g^k: so verify_ker_im builds no power of G past G^ceil(n/4).

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
from math import gcd
from operator import mul

from .lattice import (DimensionError, Matrix, Value, _cleared, _divided, _integers, _needs, _quotient, _set,
                      block_diagonal, pivot_columns, rank, vector)


MAX_ORDER = 1000  # check_equivariant, for one, returns one exponent per element of the order
MAX_RANDOM_DIM = 64  # random_rep's ceiling on max_dim; fmlat avg verify caps --max-dim at 32


class CyclicRep(Value):
    """A rational representation of Z_order of the given dimension."""

    _fields = ("order", "dim", "gen")

    def __init__(self, order: int, dim: int, gen: Matrix):
        for name, value in (("order", order), ("dim", dim)):
            _set(self, name, _integers([value], ValueError, f"{name} must be a positive integer", lambda n: n >= 1)[0])
        _needs(gen, Matrix, type(self).__name__)
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
    t powers up to the true order t."""
    powers = _needs(rep, CyclicRep, "norm_operator").powers()
    k = rep.order // len(powers)
    total = sum(powers[1:], powers[0])
    return total if k == 1 else total.scale(k)


def difference_operator(rep: CyclicRep) -> Matrix:
    """Identity minus the generator."""
    return Matrix.identity(_needs(rep, CyclicRep, "difference_operator").dim) - rep.gen


class KerImReport(Value):
    _fields = ("holds", "dim_ker_norm", "rank_difference")


def verify_ker_im(rep: CyclicRep) -> KerImReport:
    """Check ker(norm) = im(difference).

    N B = B N = 0 exactly, with no product: for S the sum of the t
    powers, (1 - g) S = S (1 - g) = 1 - g^t telescopes for any square g,
    and g^t = 1, compared exactly by powers() when t < n and by the
    CyclicRep gate when t = n; N = (n/t) S.  So im B lies in ker N, and
    they are equal exactly when dim ker N = rank B, the one elimination,
    of den I - G, its rows those of G = den g cleared to integers, negated.
    rank N is tr N / n, as g N = N makes N/n idempotent.  tr g^(a+b) is
    the O(d^2) pairing sum_il (g^a)_il (g^b)_li, not an O(d^3) product.
    tr g^(n-k) = tr g^k: Q = sum_(k<n) (g^k)^T g^k is positive definite
    and g^T Q g = Q, so g^-1 = Q^-1 g^T Q is similar to g^T.  So tr N =
    d + 2 sum_(1<=k<n/2) tr g^k + [n even] tr g^(n/2), from G^k = den^k g^k,
    k <= m = ceil(floor(n/2)/2), each trace divided by den^k; G^t = den^t I
    on the way gives the true order t, over which the same sum runs.
    """
    n, d = _needs(rep, CyclicRep, "verify_ker_im").order, rep.dim
    rows, den = rep.gen._ints()
    gen = rep.gen if den == 1 else Matrix._trusted(rows, True)  # G; rep.gen keeps its packed rows across calls
    powers = [Matrix.identity(d)]  # G^0 .. G^m
    for k in range(1, (n // 2 + 1) // 2 + 1):
        powers.append(gen if k == 1 else powers[-1] @ gen)
        if powers[k] == (powers[0] if den == 1 else Matrix.diagonal([den ** k] * d)):
            n = k  # the true order t: N = (n/t) S, and S is the N of t
            break
    m, half = len(powers) - 1, n // 2
    traces = [sum([row[i] for i, row in enumerate(p.entries)]) for p in powers]
    traces += [_pairing(powers[m], powers[k - m]) for k in range(m + 1, half + 1)]
    traces = traces if den == 1 else [Fraction(x, den ** k) for k, x in enumerate(traces)]  # tr g^k
    trace = d + 2 * sum(traces[1:(n + 1) // 2]) + (0 if n % 2 else traces[half])
    if trace % n:
        raise ArithmeticError(f"tr N = {trace} is not a multiple of the order {n}")
    rows_b = [[-x for x in row] for row in rows]  # den I - G
    for i, row in enumerate(rows_b):
        row[i] += den
    rank_b = rank(Matrix._trusted(tuple([tuple(row) for row in rows_b]), True))
    dim_ker = d - trace // n
    return KerImReport(dim_ker == rank_b, dim_ker, rank_b)


def _pairing(a: Matrix, b: Matrix) -> int:
    """tr(a b) = sum_il a_il b_li for integral a and b."""
    return sum([sum(map(mul, row, column)) for row, column in zip(a.entries, zip(*b.entries))])


def _key(v, d: int = 1) -> tuple:
    """v / d in lowest terms (v of ints and Fractions, d > 0): its ints, then its denominator unless 1."""
    (v,), dv = _cleared((v,), all([type(x) is int for x in v]))
    c = gcd(d := d * dv, *v)
    return tuple([x // c for x in v] + ([d // c] if c < d else []))


def descend_invariant(rep: CyclicRep, subspace, s) -> tuple:
    """The cyclic average of s: an invariant representative of s modulo a
    g-stable subspace, given by spanning vectors.

    t = (1/l) (s + g s + .. + g^(l-1) s) over the orbit length l of s,
    which is (1/n) N s.  One elimination of the images g v and B s that
    are not spanning vectors checks that the span is stable under the
    generator and that B s lies in it; t - s then lies in it by
    telescoping, s - g^j s being sum_(i<j) g^i B s.  For s = w_0 / d_s,
    the orbit runs on G = den g, w_k = G^k w_0 = den^k d_s g^k s, to the
    exact w_l = den^l w_0, g^l s = s (so g t = t needs no check); and g
    maps g^k B s = (den w_k - w_(k+1)) / (den^(k+1) d_s) to the next one,
    g^(l-1) B s to B s, so spanning vectors on that orbit need no product.
    """
    _needs(rep, CyclicRep, "descend_invariant")
    vecs = [vector(v) for v in subspace]
    if any(len(v) != rep.dim for v in vecs):
        raise DimensionError("subspace vectors must have the representation's dimension")
    if len(s) != rep.dim:
        raise DimensionError("vector must have the representation's dimension")
    s = vector(s)
    rows, den = rep.gen._ints()
    (w,), ds = _cleared((s,), all([type(x) is int for x in s]))
    orbit = [list(w), [sum(map(mul, row, w)) for row in rows]]  # w_0, w_1, ..
    while orbit[-1] != (orbit[0] if den == 1 else [den ** (len(orbit) - 1) * x for x in w]):
        orbit.append([sum(map(mul, row, orbit[-1])) for row in rows])  # it closes within the order, g^n = 1
    l = len(orbit) - 1
    scales = [den ** (l - 1 - k) for k in range(l)]  # t = sum_k den^(l-1-k) w_k / (l den^(l-1) d_s)
    t = tuple(_divided([sum(xs) if den == 1 else sum(map(mul, scales, xs)) for xs in zip(*orbit[:l])],
                       l * scales[0] * ds)[0])
    # One forward elimination of [S | gS | Bs] decides both checks: a pivot
    # among the gS columns, in any order, is an image g v outside span(S);
    # once the span is stable, a pivot at Bs is B s outside it.  Columns
    # equal to spanning vectors (by _key), as on the orbit of B s, are left
    # out; a column is the ints of a key, a positive multiple of the vector.
    ints = [[den * a - b for a, b in zip(u, orbit[k + 1])] for k, u in enumerate(orbit[:l])]  # den^(k+1) d_s g^k B s
    bs = [tuple(u) if den * ds == 1 else _key(u, den ** (k + 1) * ds) for k, u in enumerate(ints)]
    keys = [v if all([type(x) is int for x in v]) else _key(v) for v in vecs]
    known, m, after = set(keys), len(vecs), dict(zip(bs, bs[1:] + bs[:1]))
    rest = [after[key][:rep.dim] for key in keys if key in after and after[key] not in known]
    if others := [v for v, key in zip(vecs, keys) if key not in after]:
        product = rep.gen @ Matrix._trusted(tuple(list(zip(*others))), all([type(x) is int for v in others for x in v]))
        rest += [c for c in zip(*product.entries) if _key(c) not in known]
    images = m + len(rest)
    if l > 1 and bs[0] not in known:  # B s = 0 at l = 1
        rest.append(bs[0][:rep.dim])
    if rest:
        cols = vecs + rest
        pivots = pivot_columns(Matrix._trusted(tuple(list(zip(*cols))), all([type(x) is int for c in cols for x in c])))
        if any(m <= p < images for p in pivots):
            raise ValueError("subspace is not stable under the group generator")
        if images in pivots:
            raise ValueError("B s does not lie in the subspace")
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
    """Ones below the diagonal and -poly[:-1] down the last column."""
    deg = len(poly) - 1
    return _quotient([[int(i == j + 1) for j in range(deg - 1)] + [-poly[i]] for i in range(deg)], 1)


def _cycle_matrix(k: int) -> Matrix:
    """The permutation matrix of the k-cycle e_i -> e_(i+1 mod k)."""
    return _quotient([[int(j == (i - 1) % k) for j in range(k)] for i in range(k)], 1)


def random_rep(rng: random.Random, max_order: int = 12, max_dim: int = 20) -> CyclicRep:
    """A random rational representation of a cyclic group, for test suites.

    Block-diagonal pieces (trivial lines, permutation cycles, cyclotomic
    companion blocks) are conjugated in place by random elementary steps
    E g E^-1, so no change of basis or inverse is formed: unimodular steps
    most of the time, giving integer matrices, and otherwise one last
    scaling of a row by k and its column by 1/k, giving genuinely rational
    ones.  Both bounds are read as CyclicRep reads order and dim: bools and
    floats raise TypeError, other non-integers ValueError.  Raises
    ValueError unless 1 <= max_order <= MAX_ORDER and 1 <= max_dim <=
    MAX_RANDOM_DIM, then TypeError unless rng is a random.Random.
    """
    max_order, max_dim = _integers([max_order, max_dim], ValueError, "random_rep needs integer max_order and max_dim")
    if not (1 <= max_order <= MAX_ORDER and max_dim >= 1):
        raise ValueError(f"random_rep needs 1 <= max_order <= {MAX_ORDER} and max_dim >= 1")
    if max_dim > MAX_RANDOM_DIM:  # the generator is conjugated as a dense max_dim x max_dim list
        raise ValueError(f"random_rep needs max_dim <= {MAX_RANDOM_DIM}")
    order = _needs(rng, random.Random, "random_rep").randint(1, max_order)
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
    gen = [list(row) for row in block_diagonal(blocks).entries]
    unimodular = rng.random() < 0.75
    for _ in range(2 * dim):  # g -> E g E^-1 for E = 1 + q e_ij
        i, j = rng.randrange(dim), rng.randrange(dim)
        if i == j:
            continue
        q = rng.choice([-2, -1, 1, 2])
        gen[i] = [x + q * y for x, y in zip(gen[i], gen[j])]  # row i += q row j
        for row in gen:  # then column j -= q column i
            row[j] -= q * row[i]
    k = 1
    if not unimodular and dim > 1:  # row i times k, column i over k, in k times g to stay integral
        i, k = rng.randrange(dim), rng.choice([2, 3])
        gen[i] = [k * x for x in gen[i]]
        gen = [[x if j == i else k * x for j, x in enumerate(row)] for row in gen]
    return CyclicRep(order, dim, _quotient(gen, k))
