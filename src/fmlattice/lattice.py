"""Exact linear algebra over the integers and rationals.

Everything in this package runs on arbitrary-precision exact arithmetic:
matrix entries are Python ints or ``fractions.Fraction``, never floats.
Matrices are immutable values, safe in concurrent code without locks:
the caches _ints and _sizes are filled with one value each, and _packed
(below) is one tuple replaced whole, read once and checked by a product.

The intended scale is tiny by linear-algebra standards (lattice ranks up
to ~24), which is why the classical algorithms are the right tool: one
forward fraction-free elimination (Bareiss) and one integer
back-substitution for ranks, determinants, solutions and reduced forms
(and so kernels and inverses), and Smith normal form from Hermite
passes.  Only Matrix() and from_columns check each entry; identity, zero,
diagonal (its values pass vector()) and every matrix the kernel computes
itself (sums, products, negations, transposes, reduced forms, inverses,
normal forms) are trusted.  Elimination, the solvers, Smith normal form
and the value types built on a Matrix refuse any other argument with one
TypeError (_needs), as do the domain functions of the modules above.

There is one way into the integers and one way out: _cleared writes a
matrix as integer rows over one common denominator d (det divides by d^n
at the end), and _divided divides ints exactly, to ints where it can and
Fractions elsewhere, flagging whether all were ints; _quotient makes the
divided rows of a product or a scaling a trusted Matrix.  Each matrix is
cleared once: _ints caches its integer rows (tuples, so no elimination
changes them in place) and d; _sizes, read by products only, caches
their max |entry| and nonzero count.  An ExtendedVector (surfaces)
caches its cleared coordinates the same way, and a pairing applies
integer rows to them and divides once.  Smith normal form and integer
solving share one pass loop on [[m, R], [I, 0]]: row operations on its
first nrows rows move m and R together, column operations on its first
ncols m and V; a column pass is a row pass on the transpose.  R = I
gives U, R = b gives U b alone.  A pass rewrites rows from the pivot
column on, scans once per Euclid step, and leaves echelon form, so the
test that m is diagonal reads one slice per row (_hnf, _smith).

Ranks, determinants, solutions and reduced forms start from one forward
elimination (_eliminate) of m, or of [m | b], cleared to integers.  With
the pivot columns fixed, the solution of m x = b that is 0 off them is
unique, and den x is integral, den the last pivot, so one integer
back-substitution (_back_substitute) gives it exactly: for b,
solve_rational's answer (_solve); for column j of m, column j of the
reduced form, whose pivot columns are unit vectors, so rref
back-substitutes only its free columns.  At full column rank the solution
is the only one, so it is also the integer answer if integral;
solve_integer runs the Smith passes only on wide and rank-deficient m.

Products take one of two paths, chosen from the nonzero counts na, nb
that _sizes caches.  For A m x k and B k x p, the row-wise product over
nonzeros (F. G. Gustavson, ACM TOMS 4(3), 1978) makes about na nb / k
multiply-adds and runs when that is at most two per product entry, na nb
<= 2 k m p, as on reflection words, permutations, Gram matrices and
transfers; it was measured faster below about two and slower above 2.5.
Denser operands take the packed path: each row of B is one Python int of
w-bit slots (Kronecker substitution: D. Harvey, J. Symbolic Comput.
44(10), 2009), and a row of the product one sum of big-int multiples.
B keeps its packed rows, packed again only for a wider product, so the
t - 1 products g^j g of CyclicRep.powers() pack g once.

Tuples are built from lists, never straight from a generator, here and
in the modules above.  tuple() over a generator allocates by resizing, and
a resized tuple that is freed lands on a per-size free list that, in
CPython, only a full garbage collection empties; in a long session of
cheap calls those lists fill up and raise peak memory by about a megabyte.

The value types are plain classes on Value, not frozen dataclasses: in a
fresh interpreter, importing dataclasses (and with it inspect, ast, dis and
tokenize) took a median 9.1 ms, and generating the 113 methods of the 19
classes 13.7 ms more, of a cold start of 100 ms (Python 3.11.7, 2-vCPU Xeon).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, combinations
from math import lcm
from operator import add, attrgetter, mul, sub


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
    """Parse an exact scalar from an int, Fraction or 'p/q' string; a zero
    denominator raises ValueError, as a malformed string does."""
    if isinstance(x, str):
        try:
            x = Fraction(x)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {x!r}") from None
    return _exact(x)


def vector(entries) -> tuple:
    """The entries as ints and Fractions; an all-int tuple comes back as it is."""
    if type(entries) is tuple and all([type(x) is int for x in entries]):
        return entries
    return tuple([_exact(x) for x in entries])


def dot(u, v):
    if len(u) != len(v):
        raise DimensionError("vectors of unequal length")
    return sum(map(mul, u, v))


class Matrix:
    """An immutable matrix with exact (int / Fraction) entries."""

    __slots__ = ("nrows", "ncols", "_e", "_integral", "_int", "_size", "_packed")

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
        self._int = self._size = self._packed = None

    @classmethod
    def _trusted(cls, rows, integral: bool) -> "Matrix":
        """A matrix from rows the kernel has just computed: a tuple of
        equal-length tuples of normalised entries, all of them ints exactly
        when integral is true.  Only an empty shape is refused."""
        if not (rows and rows[0]):
            raise DimensionError("empty matrix")
        m = object.__new__(cls)
        m.nrows = len(rows)
        m.ncols = len(rows[0])
        m._e = rows
        m._integral = integral
        m._int = m._size = m._packed = None
        return m

    def _ints(self) -> tuple:
        """(rows, d) of _cleared, filled once; racing threads store equal values."""
        if self._int is None:
            self._int = _cleared(self._e, self._integral)
        return self._int

    def _sizes(self) -> tuple:
        """(max |entry|, nonzero count) of the rows of _ints, filled once; only products read it."""
        if self._size is None:
            nonzero = list(filter(None, chain.from_iterable(self._ints()[0])))
            self._size = (max(max(nonzero), -min(nonzero)) if nonzero else 0), len(nonzero)
        return self._size

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls.diagonal([1] * n)

    @classmethod
    def zero(cls, nrows: int, ncols: int) -> "Matrix":
        return cls._trusted(((0,) * ncols,) * nrows, True)

    @classmethod
    def diagonal(cls, values) -> "Matrix":
        vals = vector(values)
        rows = tuple([(0,) * i + (x,) + (0,) * (len(vals) - i - 1) for i, x in enumerate(vals)])
        return cls._trusted(rows, all([type(x) is int for x in vals]))

    @classmethod
    def from_columns(cls, cols) -> "Matrix":
        cols = [tuple(c) for c in cols]
        if not cols:
            raise DimensionError("no columns")
        if any(len(c) != len(cols[0]) for c in cols):
            raise DimensionError("columns must be of equal length")
        return cls(list(zip(*cols)))

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
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.ncols != other.nrows:
            raise DimensionError(f"cannot multiply {self.nrows}x{self.ncols} by {other.nrows}x{other.ncols}")
        (a, da), (ma, na) = self._ints(), self._sizes()
        (b, db), (mb, nb) = other._ints(), other._sizes()
        if na * nb <= 2 * self.ncols * self.nrows * other.ncols:  # at most 2 multiply-adds an entry
            product = _sparse_product(a, b, other.ncols)
        else:
            packing, bias = other._packed, self.ncols * ma * mb  # read once: see the module docstring
            if packing is None or packing[0] < bias:
                packing = other._packed = _packing(b, bias)
            product = _packed_product(a, packing, other.ncols)
        return _quotient(product, da * db)

    def apply(self, v) -> tuple:
        if len(v) != self.ncols:
            raise DimensionError(f"vector of length {len(v)} against {self.nrows}x{self.ncols}")
        rows, d = self._ints()
        if not all(type(x) is int for x in v):
            v = vector(v)  # Fractions of denominator 1 become ints: most vectors need no clearing
            if not all(type(x) is int for x in v):
                (v,), dv = _cleared((v,), False)
                d *= dv
        out = [sum(map(mul, row, v)) for row in rows]
        return tuple(out if d == 1 else _divided(out, d)[0])

    def __add__(self, other: "Matrix") -> "Matrix":
        return self._entrywise(other, add, "addition")

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self._entrywise(other, sub, "subtraction")

    def _entrywise(self, other, op, name: str) -> "Matrix":
        if not isinstance(other, Matrix):
            return NotImplemented
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise DimensionError(f"shape mismatch in {name}")
        rows = [list(map(op, r1, r2)) for r1, r2 in zip(self._e, other._e)]
        integral = self._integral and other._integral
        if not integral:  # Fraction results of denominator 1 become ints
            rows = [[x.numerator if x.denominator == 1 else x for x in row] for row in rows]
            integral = all([type(x) is int for row in rows for x in row])
        return Matrix._trusted(tuple([tuple(row) for row in rows]), integral)

    def __neg__(self) -> "Matrix":
        return Matrix._trusted(tuple([tuple([-x for x in row]) for row in self._e]), self._integral)

    def scale(self, k) -> "Matrix":
        k = Fraction(as_rational(k))
        rows, d = self._ints()
        return _quotient([[k.numerator * x for x in row] for row in rows], d * k.denominator)

    def __rmul__(self, k) -> "Matrix":
        return self.scale(k)

    def power(self, n: int) -> "Matrix":
        if not isinstance(n := as_rational(n), int):  # bools and floats raise TypeError
            raise ValueError("exponent must be an integer")
        if not self.is_square:
            raise DimensionError("power of a non-square matrix")
        if n < 0:
            return inverse(self).power(-n)
        result, base = None, self
        while n:
            if n & 1:
                result = base if result is None else result @ base
            n >>= 1
            base = base @ base if n else base
        return Matrix.identity(self.nrows) if result is None else result

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
    for b in blocks:
        _needs(b, Matrix, "block_diagonal")
    m = sum(b.ncols for b in blocks)
    rows, j0 = [], 0
    for b in blocks:
        rows += [(0,) * j0 + row + (0,) * (m - j0 - b.ncols) for row in b.entries]
        j0 += b.ncols
    return Matrix._trusted(tuple(rows), all([b.is_integral for b in blocks]))


def _cleared(rows, integral: bool) -> tuple:
    """Integer rows (tuples) and one common denominator d, rows / d being
    the given rows; integral rows come back as they are, with d = 1."""
    if integral:
        return rows, 1
    d = lcm(*[x.denominator for row in rows for x in row])
    return tuple([tuple([x.numerator * (d // x.denominator) for x in row]) for row in rows]), d


def _sparse_product(a, b, p: int) -> list:
    """Integer rows of a b: row i adds x y into p zeros over nonzero x = a[i][k], y = b[k][j]."""
    nonzeros = [[(j, y) for j, y in enumerate(row) if y] for row in b]
    out = []
    for row in a:
        acc = [0] * p
        for x, nz in zip(row, nonzeros):
            if x:
                for j, y in nz:
                    acc[j] += x * y
        out.append(acc)
    return out


def _packing(b, bias: int) -> tuple:
    """(cap, w, P): row k of b as P_k = sum_j b[k][j] 2^(j w), for any product bias up to cap."""
    w = (2 * bias).bit_length() + 1
    packed = []
    for row in b:
        q = 0
        for x in reversed(row):
            q = (q << w) + x
        packed.append(q)
    return (1 << (w - 2)) - 1, w, packed


def _packed_product(a, packing, p: int) -> list:
    """Integer rows of a b from a packing (bias, w, P) of b, k max|a| max|b|
    <= bias: each slot of bias_row + sum_k a[i][k] P_k holds entry + bias in
    [0, 2 bias], below 2^(w - 1), so it carries into no other slot."""
    bias, w, packed = packing
    mask = (1 << w) - 1
    shifts = range(0, p * w, w)
    bias_row = bias * (((1 << (p * w)) - 1) // mask)  # bias in every slot
    out = []
    for row in a:
        acc = bias_row
        for x, q in zip(row, packed):
            if x:
                acc += x * q
        out.append([((acc >> s) & mask) - bias for s in shifts])
    return out


def _needs(value, cls, fn: str):
    """value itself; an argument that is not a cls raises one TypeError
    naming fn, not an AttributeError from deep inside."""
    if not isinstance(value, cls):
        article = "an" if cls.__name__[0] in "AEIOU" else "a"
        raise TypeError(f"{fn} needs {article} {cls.__name__}, got {type(value).__name__}")
    return value


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


def _quotient(rows, d: int) -> Matrix:
    """The trusted Matrix of the integer rows (lists) divided by d with
    _divided; when d is 1 they are its rows as they are."""
    if d == 1:
        return Matrix._trusted(tuple([tuple(row) for row in rows]), True)
    out = [_divided(row, d) for row in rows]
    return Matrix._trusted(tuple([tuple(row) for row, _ in out]), all([ok for _, ok in out]))


def det(m: Matrix):
    """Exact determinant: the signed last forward pivot of the rows cleared to d, over d^n."""
    _needs(m, Matrix, "det")
    if not m.is_square:
        raise DimensionError("determinant of a non-square matrix")
    _, pivots, sign, den = _eliminate(m)
    value = sign * den if len(pivots) == m.nrows else 0
    d = m._ints()[1]
    return value if d == 1 else _exact(Fraction(value, d ** m.nrows))


def inverse(m: Matrix) -> Matrix:
    """Exact inverse over Q, the right half of rref([m | I]); raises on
    singular input."""
    _needs(m, Matrix, "inverse")
    if not m.is_square:
        raise DimensionError("inverse of a non-square matrix")
    n = m.nrows
    aug = Matrix._trusted(tuple(list(map(add, m.entries, Matrix.identity(n).entries))), m.is_integral)
    reduced, pivots = rref(aug)
    # [m | I] has rank n; m is invertible iff its n pivots are all in m.
    if pivots[-1] != n - 1:
        raise ValueError("matrix is singular")
    return Matrix._trusted(tuple([row[n:] for row in reduced.entries]), reduced.is_integral)


def rref(m: Matrix) -> tuple:
    """Reduced row-echelon form over Q; returns (matrix, pivot columns).

    Column j holds column j of m in coordinates over the pivot columns:
    e_k at the k-th pivot column, written as it is, and at a free column
    the den x that _back_substitute reads, divided by den.
    """
    _needs(m, Matrix, "rref")
    a, pivots, _, den = _eliminate(m)
    n = m.ncols
    rows = [[0] * c + [1] + [0] * (n - c - 1) for c in pivots] + [[0] * n] * (m.nrows - len(pivots))
    for j in range(n):
        if j not in pivots:
            y = _back_substitute(a, pivots, den, j, n)
            for row, x in zip(rows, _divided([y[c] for c in pivots], den)[0]):
                row[j] = x
    rows = tuple([tuple(row) for row in rows])
    return Matrix._trusted(rows, all([type(x) is int for row in rows for x in row])), tuple(pivots)


def pivot_columns(m: Matrix) -> tuple:
    """The pivot columns of a row-echelon form of m, from one forward elimination."""
    _needs(m, Matrix, "pivot_columns")
    return tuple(_eliminate(m)[1])


def rank(m: Matrix) -> int:
    _needs(m, Matrix, "rank")
    return len(_eliminate(m)[1])


def _eliminate(m: Matrix, b=None) -> tuple:
    """Fraction-free forward elimination of m, or of [m | b], cleared to
    integer rows: (rows, pivot columns, sign of the row swaps, last pivot).
    Each row below the pivot p becomes (p row - f pivot row) / prev, f its
    entry in the pivot column and prev the previous pivot; Sylvester's
    identity makes the division exact (Bareiss, Math. Comp. 22, 1968).  The
    last pivot (1 at rank 0) is the minor of the cleared m on the pivot rows
    and columns, at full rank the determinant up to the sign."""
    if b is None:
        a = list(m._ints()[0])
    else:
        a = list(_cleared(tuple([row + (x,) for row, x in zip(m.entries, b)]),
                          m.is_integral and all([type(x) is int for x in b]))[0])
    nrows, ncols = len(a), len(a[0])
    pivots, sign, prev = [], 1, 1
    for c in range(ncols):
        r = len(pivots)
        piv = next((i for i in range(r, nrows) if a[i][c]), None)
        if piv is None:
            continue
        if piv != r:
            a[r], a[piv] = a[piv], a[r]
            sign = -sign
        prow = a[r]
        p = prow[c]
        for i in range(r + 1, nrows):
            f = a[i][c]
            if not (f or p != prev):  # the update would change nothing
                continue
            row = a[i] = list(a[i])  # zero left of c, so only its tail changes
            row[c] = 0
            for j in range(c + 1, ncols):
                row[j] = (row[j] * p - f * prow[j]) // prev
        pivots.append(c)
        prev = p
        if r + 1 == nrows:
            break
    return a, pivots, sign, prev


def _back_substitute(a, pivots, den: int, j: int, n: int) -> list:
    """den x, for x the solution of m x = (column j of m, or b at j = n)
    that is 0 off the pivot columns, from the rows a, pivots and last pivot
    den of _eliminate; n is the width of m.  By Cramer's rule den x is
    integral, so the division is exact: row k, zero left of its pivot c,
    gives den x_c from the den x_i already found, i > c."""
    y = [0] * n
    for row, c in reversed(list(zip(a, pivots))):
        y[c] = (den * row[j] - sum(map(mul, row, y))) // row[c]
    return y


def kernel_basis(m: Matrix) -> list:
    """A basis of the rational null space, empty when the matrix is injective."""
    _needs(m, Matrix, "kernel_basis")
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
    """One exact solution of m x = b over Q, or None when inconsistent: the
    one whose coordinates off the pivot columns of m are 0.  Those columns
    are fixed by m, and with them the solution, so it is the one a reduced
    row-echelon form of [m | b] reads off; _solve finds it without one."""
    _needs(m, Matrix, "solve_rational")
    if len(b) != m.nrows:
        raise DimensionError("right-hand side length mismatch")
    solved = _solve(m, vector(b))
    if solved is None:
        return None
    y, den, _ = solved
    return tuple(_divided(y, den)[0])


def _solve(m: Matrix, b: tuple) -> tuple | None:
    """(y, den, rank) for m x = b over Q, from one forward elimination of
    [m | b], or None when a pivot falls in the b column: y = den x is the
    back-substitution of the b column."""
    n = m.ncols
    a, pivots, _, den = _eliminate(m, b)
    if pivots and pivots[-1] == n:
        return None
    return _back_substitute(a, pivots, den, n, n), den, len(pivots)


def _hnf(a, nrows: int, ncols: int) -> None:
    """Row Hermite normal form, in place, of the first nrows rows and ncols
    columns of a.  Per column c, Euclid: the first row with the smallest
    nonzero entry is the pivot row, and the rows below are reduced modulo
    it until it is alone; then it is made positive and the entries above
    it are reduced into [0, p).  The pivot row is zero left of c, so a row
    operation rewrites a row from c on; reducing the rows below also finds
    the next pivot and counts the live rows, one scan per Euclid step."""
    r = 0
    for c in range(ncols):
        piv, count, least = r, 0, 0
        for i in range(r, nrows):
            if x := abs(a[i][c]):
                count += 1
                if count == 1 or x < least:
                    piv, least = i, x
        while count:
            a[r], a[piv] = a[piv], a[r]
            tail = a[r][c:]
            if count == 1 and tail[0] < 0:
                a[r][c:] = tail = [-x for x in tail]
            p = tail[0]
            if count == 1:
                for row in a[:r]:
                    if q := row[c] // p:
                        row[c:] = [x - q * y for x, y in zip(row[c:], tail)]
                r += 1
                break
            piv, count, least = r, 1, abs(p)
            for i in range(r + 1, nrows):
                row = a[i]
                if q := row[c] // p:
                    row[c:] = [x - q * y for x, y in zip(row[c:], tail)]
                if x := abs(row[c]):
                    count += 1
                    if x < least:
                        piv, least = i, x


def smith_normal_form(m: Matrix) -> tuple:
    """Decompose an integer matrix as U @ m @ V = D.

    U and V are unimodular; D is diagonal with nonnegative entries and
    each diagonal entry divides the next.  Total on all integer matrices.
    The passes of _smith run on [[m, I], [I, 0]] and leave [[D, U], [V, 0]].
    """
    _needs(m, Matrix, "smith_normal_form")
    nrows, ncols = m.nrows, m.ncols
    a = _smith(m, [[int(i == j) for j in range(nrows)] for i in range(nrows)])
    top, bottom = a[:nrows], a[nrows:]
    return (Matrix._trusted(tuple([tuple(row[ncols:]) for row in top]), True),
            Matrix._trusted(tuple([tuple(row[:ncols]) for row in top]), True),
            Matrix._trusted(tuple([tuple(row[:ncols]) for row in bottom]), True))


def _smith(m: Matrix, right) -> list:
    """The working matrix [[m, right], [I, 0]] of Smith normal form, its
    rows as lists, brought to [[D, U right], [V, 0]] with U m V = D.

    Row and column Hermite passes alternate until the m-block is diagonal
    (Kannan and Bachem, SIAM J. Comput. 8(4), 1979); reducing every entry
    off a pivot modulo it keeps U and V small.  The passes end: each one
    makes the first pivot not yet split off the gcd of its column (row),
    a divisor of the one before, equal only if it divides its whole row
    (column), which the next pass then clears for good.  The last pass
    leaves the diagonal positive, zeros last; a 2x2 gcd/lcm step on each
    pair of diagonal entries then makes each divide the next.  Every
    choice reads the m-block alone, so D and V do not depend on right.
    The column pass leaves the transposed m-block in echelon form, zero
    left of its diagonal and past row min(nrows, ncols), so m is diagonal
    exactly when those first rows are zero right of the diagonal.
    """
    if not m.is_integral:
        raise ValueError("Smith normal form needs an integer matrix")
    nrows, ncols = m.nrows, m.ncols
    a = [list(row) + list(r) for row, r in zip(m.entries, right)]
    a += [[int(i == j) for j in range(ncols)] + [0] * len(right[0]) for i in range(ncols)]
    diagonal = False
    while not diagonal:
        _hnf(a, nrows, ncols)  # a row pass, then a column pass on the transpose
        a = [list(col) for col in zip(*a)]
        _hnf(a, ncols, nrows)
        diagonal = not any([any(row[i + 1:nrows]) for i, row in enumerate(a[:min(nrows, ncols)])])
        a = [list(col) for col in zip(*a)]
    for i, j in combinations(range(min(nrows, ncols)), 2):
        x, y = a[i][i], a[j][j]
        if x and y % x:  # rows [[s, t], [-y/g, x/g]], columns [[1, -t y/g], [1, s x/g]]
            s, s1, g, g1 = 1, 0, x, y
            while g1:
                q = g // g1
                s, s1, g, g1 = s1, s - q * s1, g1, g - q * g1
            t, xg, yg = (g - s * x) // y, x // g, y // g
            a[i], a[j] = ([s * u + t * w for u, w in zip(a[i], a[j])],
                          [xg * w - yg * u for u, w in zip(a[i], a[j])])
            for row in a:  # diag(x, y) is now diag(g, x y / g)
                row[i], row[j] = row[i] + row[j], s * xg * row[j] - t * yg * row[i]
    return a


def solve_integer(m: Matrix, b) -> tuple | None:
    """An integer solution of m x = b, or None when none exists.

    When m has at least as many rows as columns, one forward elimination
    (_solve) comes first: no rational solution means none, and at full
    column rank the rational solution is the only one, so the answer is it
    when it is integral and None otherwise.  Wide and rank-deficient m take
    V D^-1 U b from the passes of _smith on [[m, b], [I, 0]], which carry
    U b, not U."""
    _needs(m, Matrix, "solve_integer")
    if len(b) != m.nrows:
        raise DimensionError("right-hand side length mismatch")
    if not m.is_integral or not all(isinstance(_exact(x), int) for x in b):
        raise ValueError("solve_integer needs integer data")
    nrows, ncols = m.nrows, m.ncols
    b = vector(b)
    if nrows >= ncols:
        solved = _solve(m, b)
        if solved is None:
            return None
        y, den, rank_m = solved
        if rank_m == ncols:
            return None if any([v % den for v in y]) else tuple([v // den for v in y])
    a = _smith(m, [[x] for x in b])
    y = [0] * ncols
    for i, row in enumerate(a[:nrows]):
        di, c = row[i] if i < ncols else 0, row[ncols]
        if di:
            q, r = divmod(c, di)
            if r:
                return None
            y[i] = q
        elif c:
            return None
    return tuple([sum(map(mul, row, y)) for row in a[nrows:]])


_set = object.__setattr__  # writes a field of a Value past its __setattr__


class Value:
    """An immutable value with the fields named, in order, in _fields: equal
    to a value of the same class with equal fields, hashed and printed
    (Name(field=value, ...)) by them, and its attributes cannot be assigned
    or deleted.  A constructor writes each field once, normalised, with
    _set, or passes all of them to this __init__.  Instances keep a
    __dict__, so cached_property works on them."""

    _fields = ()

    def __init_subclass__(cls):
        cls._values = attrgetter(*cls._fields)  # not a descriptor: self._values(x)

    def __init__(self, *values):
        if len(values) != len(self._fields):
            raise TypeError(f"{type(self).__name__} takes {len(self._fields)} values, got {len(values)}")
        for name, value in zip(self._fields, values):
            _set(self, name, value)

    def __eq__(self, other):
        if other is self:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == self._values(other)

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self._fields])
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class BilinearForm(Value):
    """A nondegenerate symmetric integer pairing on Z^dim."""

    _fields = ("dim", "gram")

    def __init__(self, dim: int, gram: Matrix):
        _needs(gram, Matrix, "BilinearForm")
        dim = as_rational(dim)  # bools and floats raise TypeError
        if not (gram.is_square and gram.nrows == dim and dim >= 1):
            raise DimensionError("Gram matrix does not match the stated dimension")
        if not gram.is_integral:
            raise ValueError("Gram matrix must be integral")
        if gram != gram.T:
            raise ValueError("Gram matrix must be symmetric")
        if det(gram) == 0:
            raise ValueError("Gram matrix must be nondegenerate")
        super().__init__(dim, gram)

    @classmethod
    def from_rows(cls, rows) -> "BilinearForm":
        g = Matrix(rows)
        return cls(g.nrows, g)

    def pair(self, u, v):
        if len(u) != self.dim or len(v) != self.dim:
            raise DimensionError("vector length does not match the lattice rank")
        return dot(u, self.gram.apply(v))
