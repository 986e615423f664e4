"""averaging: exact elimination and norm-operator products.

The benchmark builds its own cyclic representations with the make-up of
fmlattice.random_rep (trivial lines, permutation cycles and cyclotomic
companion blocks, conjugated by a random integer change of basis), so the
inputs do not move when random_rep changes and the block structure of
every input is known.  Orders and dimensions follow a fixed grid and every
fourth representation is rational; the seed picks the blocks, the change
of basis and the vectors.

One operation runs verify_ker_im and then descend_invariant on the same
representation.  As two operations their costs (about 3 ms and 13 ms at
the median) split the latency distribution in two, and its median fell
in the gap between them, moving by a third from seed to seed.
"""

from __future__ import annotations

from fractions import Fraction

import refarith as R
from harness import Op, expect

DEFS = ()
ORDERS = tuple(range(1, 13))
DIMS = (2, 4, 6, 8, 10, 12, 14, 16, 18, 20)
PER_CELL = 2


def _cycle(k):
    return [[int(i == (j + 1) % k) for j in range(k)] for i in range(k)]


def _companion(poly):
    deg = len(poly) - 1
    rows = [[int(i == j + 1) for j in range(deg)] for i in range(deg)]
    for i in range(deg):
        rows[i][deg - 1] = -poly[i]
    return rows


def _basis_pair(rng, n, unimodular):
    """Random invertible integer matrix and its inverse, built by elementary
    operations; one row is scaled by 2 or 3 when not unimodular."""
    rows, inv = R.identity(n), R.identity(n)
    for _ in range(2 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        q = rng.choice((-2, -1, 1, 2))
        rows[i] = [x + q * y for x, y in zip(rows[i], rows[j])]
        for row in inv:
            row[j] -= q * row[i]
    if not unimodular:
        i, k = rng.randrange(n), rng.choice((2, 3))
        rows[i] = [x * k for x in rows[i]]
        for row in inv:
            row[i] = Fraction(row[i], k)
    return rows, inv


def build_rep(rng, order, dim, rational):
    """(generator rows, number of blocks with a fixed line)."""
    divisors = [k for k in range(2, order + 1) if order % k == 0]
    blocks, fixed = [], 0
    while sum(len(b) for b in blocks) < dim:
        remaining = dim - sum(len(b) for b in blocks)
        options = [("trivial", [[1]])]
        for k in divisors:
            if k <= remaining:
                options.append(("cycle", _cycle(k)))
            poly = R.cyclotomic(k)
            if len(poly) - 1 <= remaining:
                options.append(("companion", _companion(poly)))
        kind, block = rng.choice(options)
        blocks.append(block)
        fixed += kind != "companion"
    basis, basis_inv = _basis_pair(rng, dim, unimodular=not rational)
    gen = R.normalize(R.matmul(R.matmul(basis, R.block_diag(*blocks)), basis_inv))
    return gen, fixed


def build(fm, catalog, rng):
    cells = [(order, dim) for order in ORDERS for dim in DIMS for _ in range(PER_CELL)]
    ops = []
    for index, (order, dim) in enumerate(cells):
        gen, fixed = build_rep(rng, order, dim, rational=index % 4 == 3)
        rep = fm.CyclicRep(order, dim, fm.Matrix(gen))
        s = tuple(rng.randint(-4, 4) for _ in range(dim))
        b_op = [[int(i == j) - x for j, x in enumerate(row)] for i, row in enumerate(gen)]
        span, v = [], R.mat_vec(b_op, s)
        for _ in range(order):
            span.append(v)
            v = R.mat_vec(gen, v)
        ops.append(Op("verify_then_descend", _call(fm, rep, span, s),
                      _check(dim - fixed, R.cyclic_average(gen, s, order))))
    return ops, None


def _call(fm, rep, span, s):
    return lambda: (fm.verify_ker_im(rep), fm.descend_invariant(rep, span, s))


def _check(expected_dim, expected_t):
    def check(result):
        report, t = result
        expect(report.holds, "verify_ker_im reports ker N != im B")
        expect(report.dim_ker_norm == report.rank_difference == expected_dim,
               f"dim ker N = {report.dim_ker_norm}, rank B = {report.rank_difference}, "
               f"expected {expected_dim} from the block structure")
        expect(tuple(t) == expected_t, f"descend_invariant gave {t}, the cyclic average is {expected_t}")
        return R.bits((report.dim_ker_norm, report.rank_difference, *t))
    return check
