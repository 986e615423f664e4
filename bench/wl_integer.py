"""integer_solve: Smith normal form and integer solving.

The only workload that reaches smith_normal_form and solve_integer.
Dense random matrices (entries in [-9, 9], square and rectangular) show
coefficient growth; sizes stop at 9 rows or columns, where the current
pivot-and-reduce method still finishes in milliseconds (a 12x12 has not
finished in 60 s).  Structured inputs (Mukai Gram
matrices, extended transfer matrices, block-diagonal matrices) keep a
bounded-growth replacement honest on the easy case.  Shapes and counts
are fixed per round; the seed picks the entries and right-hand sides.
"""

from __future__ import annotations

import refarith as R
from harness import ENRIQUES_K3_DEFS, K3_SWAP_DEFS, Op, expect, mat

DEFS = (ENRIQUES_K3_DEFS, K3_SWAP_DEFS)
DENSE_SHAPES = ((4, 4), (5, 5), (6, 6), (7, 7), (8, 8), (9, 9),
                (9, 7), (7, 9), (9, 8), (8, 9))
DENSE_PER_SHAPE = 48
STRUCTURED_SURFACES = ("product_elliptic", "k3_toy", "bench_enriques",
                       "bench_k3_enriques", "bench_k3_18")
STRUCTURED_COVERS = ("bielliptic_cover_2", "bielliptic_cover_6", "bench_enriques_cover")
BLOCK_DIAGONAL = 8


def _dense(rng, n, m, even_row=None):
    rows = [[rng.randint(-9, 9) for _ in range(m)] for _ in range(n)]
    if even_row is not None:
        rows[even_row] = [2 * rng.randint(-4, 4) for _ in range(m)]
    return rows


def _full_row_rank(rng, n, m, even_row=None):
    while True:
        rows = _dense(rng, n, m, even_row)
        if R.rank(rows) == n:
            return rows


def _block_diagonal(rng):
    blocks, size = [], 0
    while size < 12:
        k = rng.choice((1, 2, 3))
        blocks.append([[rng.randint(-9, 9) for _ in range(k)] for _ in range(k)])
        size += k
    return R.block_diag(*blocks)


def build(fm, catalog, rng):
    ops = []
    systems = []  # (matrix rows, right-hand side, feasible over Z)

    def add_snf(rows):
        ops.append(Op("smith_normal_form", _snf_call(fm, fm.Matrix(rows)), _snf_check(rows)))

    for n, m in DENSE_SHAPES:
        for _ in range(DENSE_PER_SHAPE):
            add_snf(_dense(rng, n, m))
            rows = _dense(rng, n, m)
            x0 = tuple(rng.randint(-5, 5) for _ in range(m))
            systems.append((rows, R.mat_vec(rows, x0), True))
            if n <= m:
                # one even row and an odd entry there: solvable over Q, not over Z
                i = rng.randrange(n)
                rows = _full_row_rank(rng, n, m, even_row=i)
                b = list(R.mat_vec(rows, tuple(rng.randint(-5, 5) for _ in range(m))))
                b[i] += 1
                systems.append((rows, tuple(b), False))
    structured = [R.mukai_gram(R.SURFACES[name]) for name in STRUCTURED_SURFACES]
    for name in STRUCTURED_COVERS:
        structured += [R.pull_ext(R.COVERS[name]), R.push_ext(R.COVERS[name])]
    structured += [_block_diagonal(rng) for _ in range(BLOCK_DIAGONAL)]
    for rows in structured:
        add_snf(rows)
        x0 = tuple(rng.randint(-5, 5) for _ in range(len(rows[0])))
        systems.append((rows, R.mat_vec(rows, x0), True))
    for rows, b, feasible in systems:
        ops.append(Op("solve_integer", _solve_call(fm, fm.Matrix(rows), b), _solve_check(rows, b, feasible)))
    return ops, None


def _snf_call(fm, m):
    return lambda: fm.smith_normal_form(m)


def _snf_check(rows):
    n, m = len(rows), len(rows[0])
    det_m = abs(R.det(rows)) if n == m else None

    def check(result):
        u, d, v = (mat(x) for x in result)
        expect(R.matmul(R.matmul(u, rows), v) == d, "U M V != D")
        expect(R.det(u) in (1, -1) and R.det(v) in (1, -1), "U or V is not unimodular")
        diag = [d[i][i] for i in range(min(n, m))]
        expect(all(d[i][j] == 0 for i in range(n) for j in range(m) if i != j), "D is not diagonal")
        expect(all(x >= 0 for x in diag), f"D has a negative entry: {diag}")
        expect(all((b % a == 0) if a else b == 0 for a, b in zip(diag, diag[1:])),
               f"diagonal entries do not divide the next: {diag}")
        if det_m:
            prod = 1
            for x in diag:
                prod *= x
            expect(prod == det_m, f"product of the diagonal {prod} != |det M| {det_m}")
        return R.bits([u, d, v])
    return check


def _solve_call(fm, m, b):
    return lambda: fm.solve_integer(m, b)


def _solve_check(rows, b, feasible):
    def check(x):
        if not feasible:
            expect(x is None, "solve_integer solved a system with an even row and an odd right-hand side")
            return 1
        expect(x is not None, "solve_integer found no solution of a system built from one")
        expect(all(isinstance(xi, int) for xi in x), f"non-integral solution {x}")
        expect(R.mat_vec(rows, x) == b, "M x != b")
        return R.bits(list(x))
    return check
