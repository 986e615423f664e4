"""Exact linear algebra over the integers and rationals.

Everything in this package runs on arbitrary-precision exact arithmetic:
matrix entries are Python ints or ``fractions.Fraction``, never floats.
Matrices are immutable values and every operation returns a fresh one, so
all of this is safe to use from concurrent code without locking.

The intended scale is tiny by linear-algebra standards (lattice ranks up
to ~24), which is why the classical algorithms are the right tool: one
fraction-free elimination (Bareiss), forward for ranks and determinants
and Gauss-Jordan for reduced forms (and so kernels, rational solutions
and inverses), and pivot-and-reduce Smith normal form.  Matrices the
kernel computes itself (sums of integer matrices, products, negations,
transposes, reduced forms, inverses, normal forms) skip the per-entry check.

There is one way into the integers and one way out: _cleared writes a
matrix as integer rows over one common denominator d (det divides by d^n
at the end), and _divided divides ints exactly, to ints where it can and
Fractions elsewhere, flagging whether all were ints.  Smith normal form
works on one matrix [[m, I], [I, 0]]: row operations on its first nrows
rows move m and U together, column operations on its first ncols m and V.

Products take one path for every operand, int or Fraction, at every
size.  Each operand is cleared; each row of the right operand is packed
into one Python int of w-bit slots (Kronecker substitution: D. Harvey,
"Faster polynomial multiplication via multipoint Kronecker substitution",
J. Symbolic Comput. 44(10), 2009), so a row of the product is one sum of
big-int multiples.  With k the inner dimension, every entry of the
integer product lies in [-bias, bias] for bias = k max|A| max|B|, so
after adding bias to every slot each slot holds a value in [0, 2 bias],
and w = bit_length(2 bias) + 1 leaves no carry between slots.

Tuples are built from lists, never straight from a generator, here and
in the modules above.  tuple() over a generator allocates by resizing, and
a resized tuple that is freed lands on a per-size free list that, in
CPython, only a full garbage collection empties; in a long session of
cheap calls those lists fill up and raise peak memory by about a megabyte.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from math import lcm
from operator import add, mul, sub


class DimensionError(ValueError):
    """Shapes of the operands do not match."""


def _exact(x):
    """Coerce a number to int or Fraction; floats are rejected outright."""
    if isinstance(x, bool):
        raise TypeError(f"exact number expected, got bool {x}")
    if isinstance(x, int):
        return x
    if isinstance(x, Fraction):
        return int(x) if x.denominator == 1 else x
    raise TypeError(f"exact number expected, got {type(x).__name__} {x!r}")


def as_rational(x) -> Fraction | int:
    """Parse an exact scalar from an int, Fraction or 'p/q' string."""
    if isinstance(x, str):
        return _exact(Fraction(x))
    return _exact(x)


def vector(entries) -> tuple:
    return tuple([_exact(x) for x in entries])


def dot(u, v):
    if len(u) != len(v):
        raise DimensionError("vectors of unequal length")
    return sum(a * b for a, b in zip(u, v))


class Matrix:
    """An immutable matrix with exact (int / Fraction) entries."""

    __slots__ = ("nrows", "ncols", "_e", "_integral")

    def __init__(self, rows):
        data = tuple([tuple([_exact(x) for x in row]) for row in rows])
        if not data:
            raise DimensionError("empty matrix")
        width = len(data[0])
        if width == 0 or any(len(r) != width for r in data):
            raise DimensionError("rows must be nonempty and of equal length")
        self.nrows = len(data)
        self.ncols = width
        self._e = data
        self._integral = all(isinstance(x, int) for row in data for x in row)

    @classmethod
    def _trusted(cls, rows, integral: bool) -> "Matrix":
        """A matrix from rows the kernel has just computed: a nonempty
        tuple of equal-length nonempty tuples of normalised entries, all of
        them ints exactly when integral is true.  No entry is checked."""
        m = object.__new__(cls)
        m.nrows = len(rows)
        m.ncols = len(rows[0])
        m._e = rows
        m._integral = integral
        return m

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def zero(cls, nrows: int, ncols: int) -> "Matrix":
        return cls([[0] * ncols for _ in range(nrows)])

    @classmethod
    def diagonal(cls, values) -> "Matrix":
        vals = list(values)
        n = len(vals)
        return cls([[vals[i] if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def from_columns(cls, cols) -> "Matrix":
        cols = [tuple(c) for c in cols]
        if not cols:
            raise DimensionError("no columns")
        return cls([[c[i] for c in cols] for i in range(len(cols[0]))])

    @property
    def entries(self) -> tuple:
        return self._e

    def column(self, j: int) -> tuple:
        return tuple([r[j] for r in self._e])

    def __getitem__(self, ij):
        i, j = ij
        return self._e[i][j]

    @property
    def T(self) -> "Matrix":
        return Matrix._trusted(tuple(list(zip(*self._e))), self._integral)

    @property
    def is_integral(self) -> bool:
        return self._integral

    @property
    def is_square(self) -> bool:
        return self.nrows == self.ncols

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.ncols != other.nrows:
            raise DimensionError(f"cannot multiply {self.nrows}x{self.ncols} by {other.nrows}x{other.ncols}")
        a, da = _cleared(self._e, self._integral)
        b, db = _cleared(other._e, other._integral)
        # Kronecker substitution (Harvey, J. Symbolic Comput. 44(10), 2009):
        # row k of b is packed as P_k = sum_j b[k][j] 2^(j w).  An entry of
        # a b lies in [-bias, bias], bias = k max|a| max|b|, so each slot of
        # bias_row + sum_k a[i][k] P_k holds entry + bias in [0, 2 bias],
        # below 2^(w - 1) for w = bit_length(2 bias) + 1: no slot carries
        # into the next, and mask and shift read the entries back.
        bias = self.ncols * _max_abs(a) * _max_abs(b)
        w = (2 * bias).bit_length() + 1
        mask = (1 << w) - 1
        shifts = range(0, other.ncols * w, w)
        bias_row = bias * (((1 << (other.ncols * w)) - 1) // mask)  # bias in every slot
        packed = []
        for row in b:
            p = 0
            for x in reversed(row):
                p = (p << w) + x
            packed.append(p)
        d = da * db
        out, integral = [], True
        for row in a:
            acc = bias_row
            for x, p in zip(row, packed):
                if x:
                    acc += x * p
            entries = [((acc >> s) & mask) - bias for s in shifts]
            if d != 1:
                entries, ok = _divided(entries, d)
                integral = integral and ok
            out.append(tuple(entries))
        return Matrix._trusted(tuple(out), integral)

    def apply(self, v) -> tuple:
        if len(v) != self.ncols:
            raise DimensionError(f"vector of length {len(v)} against {self.nrows}x{self.ncols}")
        rows, d = _cleared(self._e, self._integral)
        if not all(type(x) is int for x in v):
            (v,), dv = _cleared((vector(v),), False)
            d *= dv
        out = [sum(map(mul, row, v)) for row in rows]
        return tuple(out if d == 1 else _divided(out, d)[0])

    def __add__(self, other: "Matrix") -> "Matrix":
        return self._entrywise(other, add, "addition")

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self._entrywise(other, sub, "subtraction")

    def _entrywise(self, other, op, name: str) -> "Matrix":
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise DimensionError(f"shape mismatch in {name}")
        rows = tuple([tuple(list(map(op, r1, r2))) for r1, r2 in zip(self._e, other._e)])
        # Sums of ints are ints; with a Fraction operand an entry may come
        # out as a Fraction with denominator 1, so normalise.
        if self._integral and other._integral:
            return Matrix._trusted(rows, True)
        return Matrix(rows)

    def __neg__(self) -> "Matrix":
        return Matrix._trusted(tuple([tuple([-x for x in row]) for row in self._e]), self._integral)

    def scale(self, k) -> "Matrix":
        k = Fraction(as_rational(k))
        rows, d = _cleared(self._e, self._integral)
        out = [_divided([k.numerator * x for x in row], d * k.denominator) for row in rows]
        return Matrix._trusted(tuple([tuple(row) for row, _ in out]), all([ok for _, ok in out]))

    def __rmul__(self, k) -> "Matrix":
        return self.scale(k)

    def power(self, n: int) -> "Matrix":
        if not self.is_square:
            raise DimensionError("power of a non-square matrix")
        if n < 0:
            return inverse(self).power(-n)
        result = Matrix.identity(self.nrows)
        base = self
        while n:
            if n & 1:
                result = result @ base
            base = base @ base if n > 1 else base
            n >>= 1
        return result

    def __eq__(self, other) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        return self._e == other._e

    def __hash__(self) -> int:
        return hash(self._e)

    def __repr__(self) -> str:
        body = ";".join(",".join(str(x) for x in row) for row in self._e)
        return f"Matrix[{body}]"


def block_diagonal(blocks) -> Matrix:
    blocks = list(blocks)
    n = sum(b.nrows for b in blocks)
    m = sum(b.ncols for b in blocks)
    rows = [[0] * m for _ in range(n)]
    i0 = j0 = 0
    for b in blocks:
        for i in range(b.nrows):
            for j in range(b.ncols):
                rows[i0 + i][j0 + j] = b[i, j]
        i0 += b.nrows
        j0 += b.ncols
    return Matrix(rows)


def _cleared(rows, integral: bool) -> tuple:
    """Integer rows and one common denominator d, rows / d being the
    given rows; integral rows come back as they are, with d = 1."""
    if integral:
        return rows, 1
    d = lcm(*[x.denominator for row in rows for x in row])
    return [[x.numerator * (d // x.denominator) for x in row] for row in rows], d


def _max_abs(rows) -> int:
    return max(map(abs, chain.from_iterable(rows)))


def _divided(values, d: int) -> tuple:
    """The ints values divided by d, as a list of ints where d divides and
    Fractions elsewhere, and whether d divided every value."""
    out, integral = [], True
    for x in values:
        q, r = divmod(x, d)
        if r:
            out.append(Fraction(x, d))
            integral = False
        else:
            out.append(q)
    return out, integral


def det(m: Matrix):
    """Exact determinant: the signed last forward pivot of the rows cleared to d, over d^n."""
    if not m.is_square:
        raise DimensionError("determinant of a non-square matrix")
    rows, d = _cleared(m.entries, m.is_integral)
    a = list(rows)
    pivots, sign = _eliminate(a, False)
    value = sign * a[-1][-1] if len(pivots) == m.nrows else 0
    return value if d == 1 else _exact(Fraction(value, d ** m.nrows))


def inverse(m: Matrix) -> Matrix:
    """Exact inverse over Q, the right half of rref([m | I]); raises on
    singular input."""
    if not m.is_square:
        raise DimensionError("inverse of a non-square matrix")
    n = m.nrows
    aug = Matrix._trusted(tuple([row + tuple([int(i == j) for j in range(n)])
                                 for i, row in enumerate(m.entries)]), m.is_integral)
    reduced, pivots = rref(aug)
    # [m | I] has rank n; m is invertible iff its n pivots are all in m.
    if pivots[-1] != n - 1:
        raise ValueError("matrix is singular")
    return Matrix._trusted(tuple([row[n:] for row in reduced.entries]), reduced.is_integral)


def rref(m: Matrix) -> tuple:
    """Reduced row-echelon form over Q; returns (matrix, pivot columns).

    Gauss-Jordan on the rows cleared to integers leaves all pivots equal;
    each pivot row is then divided by its pivot.  The reduced form is
    unique, so this is the same matrix as elimination over Q.
    """
    a = list(_cleared(m.entries, m.is_integral)[0])
    pivots = _eliminate(a, True)[0]
    integral = True
    for i, c in enumerate(pivots):
        a[i], ok = _divided(a[i], a[i][c])
        integral = integral and ok
    return Matrix._trusted(tuple([tuple(row) for row in a]), integral), tuple(pivots)


def rank(m: Matrix) -> int:
    return len(_eliminate(list(_cleared(m.entries, m.is_integral)[0]), False)[0])


def _eliminate(a, jordan: bool) -> tuple:
    """Fraction-free elimination of the integer rows a, in place:
    (pivot columns, sign of the row swaps).  Each row below the pivot p,
    and with jordan each row above it, becomes (p row - f pivot row) /
    prev, f its entry in the pivot column and prev the previous pivot;
    Sylvester's identity makes the division exact (Bareiss, Math. Comp.
    22, 1968).  Forward, the last pivot at full rank is the determinant
    up to the sign; with jordan all pivots end equal (Nakos, Turner and
    Williams, SIGSAM Bull. 31(3), 1997)."""
    nrows = len(a)
    pivots = []
    sign = 1
    prev = 1
    for c in range(len(a[0])):
        r = len(pivots)
        piv = next((i for i in range(r, nrows) if a[i][c]), None)
        if piv is None:
            continue
        if piv != r:
            a[r], a[piv] = a[piv], a[r]
            sign = -sign
        prow = a[r]
        p = prow[c]
        for i in range(0 if jordan else r + 1, nrows):
            f = a[i][c]
            if i != r and (f or p != prev):  # else the update changes nothing
                a[i] = [(x * p - f * y) // prev for x, y in zip(a[i], prow)]
        pivots.append(c)
        prev = p
        if r + 1 == nrows:
            break
    return pivots, sign


def kernel_basis(m: Matrix) -> list:
    """A basis of the rational null space, empty when the matrix is injective."""
    reduced, pivots = rref(m)
    free = [c for c in range(m.ncols) if c not in pivots]
    basis = []
    for f in free:
        v = [0] * m.ncols
        v[f] = 1
        for i, p in enumerate(pivots):
            v[p] = -reduced[i, f]
        basis.append(tuple(v))
    return basis


def solve_rational(m: Matrix, b) -> tuple | None:
    """One exact solution of m x = b over Q, or None when inconsistent."""
    if len(b) != m.nrows:
        raise DimensionError("right-hand side length mismatch")
    aug = Matrix([list(row) + [bi] for row, bi in zip(m.entries, b)])
    reduced, pivots = rref(aug)
    if m.ncols in pivots:
        return None
    x = [0] * m.ncols
    for i, p in enumerate(pivots):
        x[p] = reduced[i, m.ncols]
    return tuple(x)


def smith_normal_form(m: Matrix) -> tuple:
    """Decompose an integer matrix as U @ m @ V = D.

    U and V are unimodular; D is diagonal with nonnegative entries and
    each diagonal entry divides the next.  Total on all integer matrices.
    """
    if not m.is_integral:
        raise ValueError("Smith normal form needs an integer matrix")
    nrows, ncols = m.nrows, m.ncols
    # one working matrix [[m, I], [I, 0]], see the module docstring
    a = [list(row) + [int(i == j) for j in range(nrows)] for i, row in enumerate(m.entries)]
    a += [[int(i == j) for j in range(ncols)] + [0] * nrows for i in range(ncols)]

    def row_sub(i, j, q):
        if q:
            a[i] = [x - q * y for x, y in zip(a[i], a[j])]

    def col_sub(j, k, q):
        if q:
            for row in a:
                row[j] -= q * row[k]

    def row_swap(i, j):
        if i != j:
            a[i], a[j] = a[j], a[i]

    def col_swap(i, j):
        if i != j:
            for row in a:
                row[i], row[j] = row[j], row[i]

    for t in range(min(nrows, ncols)):
        # smallest nonzero pivot in the remaining block
        best = None
        for i in range(t, nrows):
            for j in range(t, ncols):
                if a[i][j] and (best is None or abs(a[i][j]) < abs(a[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        row_swap(t, best[0])
        col_swap(t, best[1])
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
        while True:
            # Euclidean clearing of column t, then row t; a nonzero
            # remainder becomes the new, strictly smaller pivot.
            for i in range(t + 1, nrows):
                if a[i][t]:
                    row_sub(i, t, a[i][t] // a[t][t])
                    if a[i][t]:
                        row_swap(i, t)
            if any(a[i][t] for i in range(t + 1, nrows)):
                continue
            for j in range(t + 1, ncols):
                if a[t][j]:
                    col_sub(j, t, a[t][j] // a[t][t])
                    if a[t][j]:
                        col_swap(j, t)
            if any(a[t][j] for j in range(t + 1, ncols)) or \
                    any(a[i][t] for i in range(t + 1, nrows)):
                continue
            # the pivot must divide the whole remaining block, else fold
            # the offending row in and reduce again
            p = a[t][t]
            bad = next((i for i in range(t + 1, nrows)
                        if any(x % p for x in a[i][t + 1:ncols])), None)
            if bad is None:
                break
            row_sub(t, bad, -1)

    top, bottom = a[:nrows], a[nrows:]
    return (Matrix._trusted(tuple([tuple(row[ncols:]) for row in top]), True),
            Matrix._trusted(tuple([tuple(row[:ncols]) for row in top]), True),
            Matrix._trusted(tuple([tuple(row[:ncols]) for row in bottom]), True))


def solve_integer(m: Matrix, b) -> tuple | None:
    """An integer solution of m x = b, or None when none exists."""
    if len(b) != m.nrows:
        raise DimensionError("right-hand side length mismatch")
    if not m.is_integral or not all(isinstance(_exact(x), int) for x in b):
        raise ValueError("solve_integer needs integer data")
    u, d, v = smith_normal_form(m)
    c = u.apply(tuple(b))
    y = [0] * m.ncols
    k = min(m.nrows, m.ncols)
    for i in range(m.nrows):
        di = d[i, i] if i < k else 0
        if di:
            q, r = divmod(c[i], di)
            if r:
                return None
            y[i] = q
        elif c[i]:
            return None
    return v.apply(tuple(y))


@dataclass(frozen=True)
class BilinearForm:
    """A nondegenerate symmetric integer pairing on Z^dim."""

    dim: int
    gram: Matrix

    def __post_init__(self):
        g = self.gram
        if not (g.is_square and g.nrows == self.dim and self.dim >= 1):
            raise DimensionError("Gram matrix does not match the stated dimension")
        if not g.is_integral:
            raise ValueError("Gram matrix must be integral")
        if g != g.T:
            raise ValueError("Gram matrix must be symmetric")
        if det(g) == 0:
            raise ValueError("Gram matrix must be nondegenerate")

    @classmethod
    def from_rows(cls, rows) -> "BilinearForm":
        g = Matrix(rows)
        return cls(g.nrows, g)

    def pair(self, u, v):
        if len(u) != self.dim or len(v) != self.dim:
            raise DimensionError("vector length does not match the lattice rank")
        return dot(u, self.gram.apply(v))
