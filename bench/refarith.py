"""Reference arithmetic for the benchmark's checks, on plain ints and Fraction.

Nothing here imports fmlattice: every answer the program returns during a
benchmark run is recomputed (or re-checked) with these few textbook
routines, written independently of the library.  Matrices are lists of
row lists, vectors are tuples, classes are (r, c, deg) triples.

The lattice data of every surface and cover a workload touches is written
down here by hand as well, so the workloads can cross-check what the
program parsed from its catalog and from the benchmark's definitions.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import NamedTuple


# ---------------------------------------------------------------- matrices

def identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def transpose(a):
    return [list(col) for col in zip(*a)]


def matmul(a, b):
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def mat_vec(a, v):
    return tuple(sum(x * y for x, y in zip(row, v)) for row in a)


def scale(k, a):
    return [[k * x for x in row] for row in a]


def block_diag(*blocks):
    n = sum(len(b) for b in blocks)
    out = [[0] * n for _ in range(n)]
    k = 0
    for b in blocks:
        for i, row in enumerate(b):
            out[k + i][k:k + len(row)] = row
        k += len(b)
    return out


def is_integral(a):
    return all(Fraction(x).denominator == 1 for row in a for x in row)


def normalize(a):
    """Entries as int where integral, Fraction otherwise (fmlattice's convention)."""
    return [[_norm(x) for x in row] for row in a]


def _norm(x):
    x = Fraction(x)
    return x.numerator if x.denominator == 1 else x


def det(a):
    """Bareiss fraction-free determinant; rational input is cleared row by row."""
    n = len(a)
    rows = []
    denom = 1
    for row in a:
        lcm = 1
        for x in row:
            d = Fraction(x).denominator
            lcm = lcm * d // gcd(lcm, d)
        denom *= lcm
        rows.append([int(Fraction(x) * lcm) for x in row])
    sign, prev = 1, 1
    for k in range(n - 1):
        if rows[k][k] == 0:
            piv = next((i for i in range(k + 1, n) if rows[i][k]), None)
            if piv is None:
                return 0
            rows[k], rows[piv] = rows[piv], rows[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                rows[i][j] = (rows[i][j] * rows[k][k] - rows[i][k] * rows[k][j]) // prev
        prev = rows[k][k]
    return _norm(Fraction(sign * rows[n - 1][n - 1], denom))


def _echelon(a):
    """Gauss-Jordan over Q: (reduced rows, pivot columns)."""
    m = [[Fraction(x) for x in row] for row in a]
    pivots = []
    r = 0
    for c in range(len(m[0]) if m else 0):
        piv = next((i for i in range(r, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        p = m[r][c]
        m[r] = [x / p for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return m, pivots


def rank(a):
    return len(_echelon(a)[1])


def inverse(a):
    """Exact inverse over Q, or None when singular."""
    n = len(a)
    m, pivots = _echelon([list(row) + identity(n)[i] for i, row in enumerate(a)])
    if pivots[:n] != list(range(n)):
        return None
    return normalize([row[n:] for row in m])


# ---------------------------------------------------------------- lattices

U = [[0, 1], [1, 0]]

# Cartan matrix of E8 (Bourbaki numbering: 1-3-4-5-6-7-8 with 2 on 4).
_E8_EDGES = ((1, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 8), (2, 4))
E8 = [[2 if i == j else (-1 if (i + 1, j + 1) in _E8_EDGES or (j + 1, i + 1) in _E8_EDGES else 0)
       for j in range(8)] for i in range(8)]


class Surface(NamedTuple):
    name: str
    gram: list
    chi_o: int
    order: int

    @property
    def dim(self):
        return len(self.gram)


class Cover(NamedTuple):
    name: str
    base: Surface
    cover: Surface
    degree: int
    pull: list
    push: list


def pair(gram, u, v):
    return sum(x * y for x, y in zip(u, mat_vec(gram, v)))


def chi(s: Surface, e, f):
    """Riemann-Roch with numerically trivial K:
    chi(E,F) = r_E r_F chi(O) + r_E ch2_F + r_F ch2_E - c_E.c_F."""
    (re, ce, de), (rf, cf, df) = e, f
    return _norm(re * rf * s.chi_o + re * Fraction(df) + rf * Fraction(de) - pair(s.gram, ce, cf))


def mukai_vector(s: Surface, e):
    r, c, d = e
    return (r, tuple(c), _norm(Fraction(d) + Fraction(r * s.chi_o, 2)))


def mukai_pairing(s: Surface, v, w):
    (rv, cv, sv), (rw, cw, sw) = v, w
    return _norm(pair(s.gram, cv, cw) - rv * Fraction(sw) - rw * Fraction(sv))


def mukai_gram(s: Surface):
    d = s.dim
    m = block_diag([[0]], s.gram, [[0]])
    m[0][d + 1] = m[d + 1][0] = -1
    return m


def push(t: Cover, e):
    r, c, d = e
    return (t.degree * r, mat_vec(t.push, c), _norm(d))


def pull(t: Cover, f):
    r, c, d = f
    return (r, mat_vec(t.pull, c), _norm(t.degree * Fraction(d)))


def pull_ext(t: Cover):
    return block_diag([[1]], t.pull, [[t.degree]])


def push_ext(t: Cover):
    return block_diag([[t.degree]], t.push, [[1]])


def generators(s: Surface):
    """O, the divisor basis classes and the point, as (r, c, ch2)."""
    d = s.dim
    gens = [("O", (1, (0,) * d, 0))]
    gens += [(f"e{j + 1}", (0, tuple(int(i == j) for i in range(d)), 0)) for j in range(d)]
    gens.append(("point", (0, (0,) * d, 1)))
    return gens


def gcd_all(values):
    g = 0
    for x in values:
        g = gcd(g, abs(x))
    return g


def is_isometry(s_src: Surface, s_tgt: Surface, m):
    return matmul(matmul(transpose(m), mukai_gram(s_tgt)), m) == mukai_gram(s_src)


# Elementary isometries of an extended Mukai lattice, as matrices.

def reflection(s: Surface, delta):
    """x -> x + <x, delta> delta for a Mukai vector of square -2."""
    md = mat_vec(mukai_gram(s), delta)
    if sum(a * b for a, b in zip(delta, md)) != -2:
        raise ValueError("reflection vector must have square -2")
    n = len(delta)
    return [[int(i == j) + delta[i] * md[j] for j in range(n)] for i in range(n)]


def tensor_twist(s: Surface, ell):
    """(r, c, s) -> (r, c + r l, s + c.l + r l^2/2)."""
    d = s.dim
    g_ell = mat_vec(s.gram, ell)
    m = identity(d + 2)
    for i in range(d):
        m[1 + i][0] = ell[i]
        m[d + 1][1 + i] = g_ell[i]
    m[d + 1][0] = _norm(Fraction(sum(a * b for a, b in zip(ell, g_ell)), 2))
    return m


def num_negation(s: Surface):
    d = s.dim
    return block_diag([[1]], scale(-1, identity(d)), [[1]])


# ---------------------------------------------------------------- averaging

def cyclic_average(g, s, n):
    """(1/n) sum_j g^j s, the unique invariant vector congruent to s mod im(1 - g)."""
    total = [Fraction(0)] * len(s)
    v = tuple(Fraction(x) for x in s)
    for _ in range(n):
        total = [a + b for a, b in zip(total, v)]
        v = mat_vec(g, v)
    return tuple(_norm(x / n) for x in total)


def cyclotomic(n):
    """Coefficients, low degree first, of the n-th cyclotomic polynomial."""
    poly = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            den = cyclotomic(d)
            out = [0] * (len(poly) - len(den) + 1)
            for k in range(len(out) - 1, -1, -1):
                out[k] = poly[k + len(den) - 1] // den[-1]
                for i, x in enumerate(den):
                    poly[k + i] -= out[k] * x
            poly = out
    return poly


# ---------------------------------------------------------------- bit sizes

def bits(x):
    """Largest bit length of any numerator or denominator inside x."""
    if isinstance(x, bool):
        return 1
    if isinstance(x, int):
        return abs(x).bit_length()
    if isinstance(x, Fraction):
        return max(abs(x.numerator).bit_length(), x.denominator.bit_length())
    if isinstance(x, (list, tuple)):
        return max((bits(y) for y in x), default=0)
    raise TypeError(f"no bit size for {type(x).__name__}")


# ---------------------------------------------------------------- hand data

def _neg(a):
    return scale(-1, a)


ENRIQUES_FULL = Surface("bench_enriques", block_diag(U, _neg(E8)), 1, 2)
K3_OVER_ENRIQUES = Surface("bench_k3_enriques", scale(2, ENRIQUES_FULL.gram), 2, 1)
K3_SLICE18 = Surface("bench_k3_18", block_diag(U, _neg(E8), _neg(E8)), 2, 1)

SURFACES = {s.name: s for s in (
    Surface("abelian_ppav", [[2]], 0, 1),
    Surface("product_elliptic", U, 0, 1),
    Surface("k3_toy", [[4]], 2, 1),
    Surface("enriques_toy", [[2]], 1, 2),
    *(Surface(f"bielliptic_{n}", U, 0, n) for n in (2, 3, 4, 6)),
    ENRIQUES_FULL, K3_OVER_ENRIQUES, K3_SLICE18,
)}

COVERS = {t.name: t for t in (
    *(Cover(f"bielliptic_cover_{n}", SURFACES[f"bielliptic_{n}"], SURFACES["product_elliptic"],
            n, [[1, 0], [0, n]], [[n, 0], [0, 1]]) for n in (2, 3, 4, 6)),
    Cover("enriques_cover", SURFACES["enriques_toy"], SURFACES["k3_toy"], 2, [[1]], [[2]]),
    Cover("bench_enriques_cover", ENRIQUES_FULL, K3_OVER_ENRIQUES, 2,
          identity(10), scale(2, identity(10))),
)}


def swap_e8_action():
    """Generator on the extended lattice of K3_SLICE18 swapping the two E8 summands."""
    n = K3_SLICE18.dim + 2
    perm = list(range(n))
    for i in range(8):
        perm[3 + i], perm[11 + i] = 11 + i, 3 + i
    return [[int(perm[j] == i) for j in range(n)] for i in range(n)]


def self_check():
    """Hand-known values; a failure means the reference itself is broken."""
    problems = []
    if det(E8) != 1:
        problems.append(f"det E8 = {det(E8)}, expected 1")
    if det(ENRIQUES_FULL.gram) != -1:
        problems.append(f"det(U + E8(-1)) = {det(ENRIQUES_FULL.gram)}, expected -1")
    value = chi(SURFACES["abelian_ppav"], (1, (0,), 0), (4, (2,), 1))
    if value != 1:
        problems.append(f"chi((1,0;0),(4,2;1)) on abelian_ppav = {value}, expected 1")
    if inverse([[2, 1], [1, 1]]) != [[1, -1], [-1, 2]]:
        problems.append("inverse([[2,1],[1,1]]) is wrong")
    if cyclotomic(12) != [1, 0, -1, 0, 1]:
        problems.append(f"Phi_12 = {cyclotomic(12)}, expected [1, 0, -1, 0, 1]")
    return problems
