"""Property tests of the exact products, elimination and Smith normal
form, of the averaging identity, of the pairings on the extended lattice,
of lifting isometries, of the cyclic-action functions against loops over
the stated order, and of the number and matrix literal parsers against
the tokenizer route they shortcut.

Every product, matrix-vector product and scalar multiple is compared with
a plain loop over Fraction, and every result of rref, kernel_basis,
solve_rational, det and inverse with a plain Gauss-Jordan elimination
over Fraction, both written out below and sharing no code with the
library; Smith normal forms and integer solutions are checked with the
same two.
"""

import random
import re
import sys
import threading
from fractions import Fraction
from math import gcd, lcm
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, assume, example, given, settings, strategies as st

from fmlattice.averaging import (
    CyclicRep,
    _companion,
    _cycle_matrix,
    _cyclotomic,
    descend_invariant,
    difference_operator,
    norm_operator,
    random_rep,
    verify_ker_im,
)
import fmlattice
from fmlattice import covers, lattice
from fmlattice.catalog import builtin_catalog
from fmlattice.covers import chi_adjunction_check, validate_cover
from fmlattice.defsio import (
    DefsParseError,
    _matrix,
    _tokenize,
    _Token,
    load_definitions,
    parse_matrix_text,
    parse_number_text,
)
from fmlattice.descent import freeness_gcd, generator_set, orbit_sum
from fmlattice.lattice import (
    BilinearForm,
    Matrix,
    block_diagonal,
    det,
    inverse,
    kernel_basis,
    rank,
    rref,
    smith_normal_form,
    solve_integer,
    solve_rational,
)
from fmlattice.surfaces import (
    ChernCharacter,
    ExtendedVector,
    InvariantError,
    MukaiVector,
    NumericalSurface,
    euler_pairing,
    mukai_pairing,
    mukai_vector,
)
from fmlattice.transport import (
    GActionLattice,
    LatticeIsometry,
    LiftFamily,
    check_equivariant,
    descend_isometry,
    identity_isometry,
    lift_isometry,
    minus_one,
    num_negation,
    tensor_twist,
)

SETTINGS = settings(max_examples=100, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


def reference_product(a, b):
    """The triple loop over Fraction."""
    return [[sum([Fraction(x) * Fraction(y) for x, y in zip(row, col)], Fraction(0))
             for col in zip(*b)] for row in a]


def reference_rref(rows):
    """Gauss-Jordan over Fraction: (reduced rows, pivot columns)."""
    a = [[Fraction(x) for x in row] for row in rows]
    nrows, ncols = len(a), len(a[0])
    pivots = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, nrows) if a[i][c] != 0), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        p = a[r][c]
        a[r] = [x / p for x in a[r]]
        for i in range(nrows):
            f = a[i][c]
            if i != r and f != 0:
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
    return a, pivots


def reference_det(rows):
    """Product of the pivots of Gauss elimination over Fraction."""
    a = [[Fraction(x) for x in row] for row in rows]
    n = len(a)
    result = Fraction(1)
    for k in range(n):
        piv = next((i for i in range(k, n) if a[i][k] != 0), None)
        if piv is None:
            return 0
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            result = -result
        result *= a[k][k]
        for i in range(k + 1, n):
            f = a[i][k] / a[k][k]
            a[i] = [x - f * y for x, y in zip(a[i], a[k])]
    return result


def reference_kernel(rows):
    a, pivots = reference_rref(rows)
    ncols = len(rows[0])
    basis = []
    for f in (c for c in range(ncols) if c not in pivots):
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for i, p in enumerate(pivots):
            v[p] = -a[i][f]
        basis.append(tuple(v))
    return basis


def reference_solve(rows, b):
    a, pivots = reference_rref([list(row) + [bi] for row, bi in zip(rows, b)])
    ncols = len(rows[0])
    if ncols in pivots:
        return None
    x = [Fraction(0)] * ncols
    for i, p in enumerate(pivots):
        x[p] = a[i][ncols]
    return tuple(x)


def normalised(values):
    """Entries are ints exactly when they are whole numbers."""
    return all(isinstance(x, int) if Fraction(x).denominator == 1 else isinstance(x, Fraction)
               for x in values)


@st.composite
def matrices(draw, rational=False, max_rows=8, max_cols=12, square=False):
    nrows = draw(st.integers(1, max_rows))
    ncols = nrows if square else draw(st.integers(1, max_cols))
    entry = st.one_of(st.just(0), st.integers(-9, 9), st.integers(-10**6, 10**6))
    if rational:
        entry = st.builds(Fraction, entry, st.integers(1, 12))
    if draw(st.integers(0, 3)) == 3:
        # already reduced, each pivot row scaled by some k != 1, zero rows last
        scale = st.integers(-9, 9)
        if rational:
            scale = st.builds(Fraction, scale, st.integers(1, 12))
        scale = scale.filter(lambda k: k not in (0, 1))
        pivots = sorted(draw(st.sets(st.integers(0, ncols - 1), min_size=1, max_size=min(nrows, ncols))))
        rows = []
        for c in pivots:
            k = draw(scale)
            rows.append([0] * c + [k] + [0 if j in pivots else k * draw(entry) for j in range(c + 1, ncols)])
        return rows + [[0] * ncols for _ in range(nrows - len(pivots))]
    rows = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols),
                         min_size=nrows, max_size=nrows))
    # rank deficiency: some rows become combinations of two earlier ones
    for i in draw(st.sets(st.integers(0, nrows - 1))):
        if i >= 1:
            j, k = draw(st.integers(0, i - 1)), draw(st.integers(0, i - 1))
            c, d = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
            rows[i] = [c * x + d * y for x, y in zip(rows[j], rows[k])]
    for i in draw(st.sets(st.integers(0, nrows - 1))):
        rows[i] = [0] * ncols
    for j in draw(st.sets(st.integers(0, ncols - 1))):
        for row in rows:
            row[j] = 0
    return rows


# Entries beyond 2^64 and 2^200, and at those powers, exercise the width
# of the product's packed slots.
WIDE = st.sampled_from([2**64, 2**64 + 1, 2**200 - 1, 2**200, 3**127]).flatmap(
    lambda x: st.sampled_from([x, -x]))
PRODUCT_INTS = st.one_of(st.just(0), st.integers(-9, 9), st.integers(-2**70, 2**70),
                         st.integers(-2**210, 2**210), WIDE)
PRODUCT_ENTRIES = {
    "int": PRODUCT_INTS,
    "fraction": st.builds(Fraction, PRODUCT_INTS, st.one_of(st.integers(1, 12), st.just(2**64 + 13))),
}
PRODUCT_ENTRIES["mixed"] = st.one_of(PRODUCT_ENTRIES["int"], PRODUCT_ENTRIES["fraction"])


@st.composite
def operand(draw, nrows, ncols):
    """Rows of int, Fraction or mixed entries, or of one magnitude with
    drawn signs, where product entries reach the bound k max|A| max|B|;
    a drawn share of the entries zero, so that products take the sparse
    path as well as the packed one; some rows zero, or all of them."""
    kind = draw(st.sampled_from(sorted(PRODUCT_ENTRIES) + ["extreme"]))
    if kind == "extreme":
        magnitude = draw(st.one_of(st.integers(1, 9), WIDE.map(abs)))
        entry = st.sampled_from([magnitude, -magnitude])
    else:
        entry = PRODUCT_ENTRIES[kind]
    rows = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols),
                         min_size=nrows, max_size=nrows))
    share = draw(st.integers(0, 10))  # tenths of the entries made zero
    rows = [[x if draw(st.integers(1, 10)) > share else 0 for x in row] for row in rows]
    zero_rows = range(nrows) if draw(st.integers(0, 9)) == 0 else draw(st.sets(st.integers(0, nrows - 1)))
    for i in zero_rows:
        rows[i] = [0] * ncols
    return rows


@st.composite
def product_operands(draw):
    """(A, B) with A n x k and B k x m; 1 x k and k x 1 shapes often."""
    n, k, m = draw(st.integers(1, 7)), draw(st.integers(1, 7)), draw(st.integers(1, 7))
    shape = draw(st.sampled_from(["any", "row", "column", "dot"]))
    n = 1 if shape in ("row", "dot") else n
    m = 1 if shape in ("column", "dot") else m
    return draw(operand(n, k)), draw(operand(k, m))


# a 20 x 20 signed permutation times a dense 20 x 20: na nb = 20 * 400 is
# within 2 k m p = 16000, the sparse path; two dense 8 x 8 of entries near
# 2^70: 64 * 64 > 2 * 8^3, the packed path; dense operands of one
# magnitude and one sign, whose product entries are all +bias or all -bias
# for bias = k max|A| max|B|, the ends of a packed slot's range (bias = 3
# fills the slots of the width it needs)
SIGNED_PERMUTATION = [[(-1) ** i if j == (7 * i + 3) % 20 else 0 for j in range(20)] for i in range(20)]
DENSE = [[(-1) ** j * ((7 * i + 3 * j) % 9 + 1) for j in range(20)] for i in range(20)]
WIDE_DENSE = [[(-1) ** (i + j) * (2**70 - 8 * i - j) for j in range(8)] for i in range(8)]
SAME_SIGN = [[3**40] * 5] * 3


@SETTINGS
@given(product_operands())
@example((SIGNED_PERMUTATION, DENSE))
@example((WIDE_DENSE, [row[::-1] for row in WIDE_DENSE]))
@example((SAME_SIGN, [[3**40] * 4] * 5))
@example((SAME_SIGN, [[-3**40] * 4] * 5))
@example(([[1] * 3] * 3, [[1] * 3] * 3))
@example(([[-7] * 6] * 4, [[Fraction(7, 2)] * 3] * 6))
def test_product_matches_reference_triple_loop(operands):
    a_rows, b_rows = operands
    product = Matrix(a_rows) @ Matrix(b_rows)
    assert [list(row) for row in product.entries] == reference_product(a_rows, b_rows)
    assert (product.nrows, product.ncols) == (len(a_rows), len(b_rows[0]))
    flat = [x for row in product.entries for x in row]
    assert normalised(flat)
    assert product.is_integral == all(type(x) is int for x in flat)


@SETTINGS
@given(product_operands())
def test_apply_matches_reference_loop(operands):
    a_rows, b_rows = operands
    a = Matrix(a_rows)
    expected = reference_product(a_rows, b_rows)
    for j, column in enumerate(zip(*b_rows)):
        image = a.apply(column)
        assert list(image) == [row[j] for row in expected]
        assert normalised(image)


# A right operand of the packed path keeps its packed rows, with the
# largest bias k max|A| max|B| they serve; a wider product packs again.
SIGNS = [[(-1) ** j * 13 for j in range(4)]] * 4  # dense: 16 * 16 > 2 * 4^3


def test_packed_rows_widen_for_a_product_at_a_wider_slot_bound():
    b = Matrix(SIGNS)
    for a_rows in ([[1] * 4] * 4, [[2**70] * 4] * 4, [[-(3**90)] * 4, [3**90] * 4]):
        bias = 4 * abs(a_rows[0][0]) * 13
        assert [list(row) for row in (Matrix(a_rows) @ b).entries] == reference_product(a_rows, SIGNS)
        assert bias <= b._packed[0] < 2 * bias  # every entry is +-bias, the slot bound


def test_wide_packed_rows_serve_a_narrower_product():
    b = Matrix(SIGNS)
    Matrix([[2**100] * 4] * 4) @ b
    packing = b._packed
    for a_rows in ([[1, -1, 1, 0]] * 4, [[Fraction(-5, 3)] * 4] * 2, [[2**99, -(2**99), 1, 2]] * 3):
        assert [list(row) for row in (Matrix(a_rows) @ b).entries] == reference_product(a_rows, SIGNS)
        assert b._packed is packing


def test_threads_share_a_right_operand_packed_at_different_widths():
    rng = random.Random(19)
    b_rows = [[rng.choice([-1, 1]) * rng.randint(1, 99) for _ in range(6)] for _ in range(6)]
    a_rows = [[[rng.choice([-1, 1]) * rng.randint(1, 10 ** (4 * t + 1)) for _ in range(6)]
               for _ in range(t % 3 + 2)] for t in range(8)]
    expected = [reference_product(rows, b_rows) for rows in a_rows]
    for _ in range(10):
        b = Matrix(b_rows)  # fresh: nothing packed yet
        barrier = threading.Barrier(8)
        agree = []

        def work(t):
            barrier.wait(timeout=10)
            for k in range(8):  # each thread walks the widths in its own order
                u = (t + k) % 8
                agree.append([list(row) for row in (Matrix(a_rows[u]) @ b).entries] == expected[u])

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(t,)) for t in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(previous)
        assert not any(t.is_alive() for t in threads)
        assert agree == [True] * 64


# Scalars as scale accepts them: ints, Fractions, 'p/q' strings, and zero
# in each of those forms.
SCALARS = st.one_of(
    st.sampled_from([0, Fraction(0), "0", "0/7"]),
    PRODUCT_INTS,
    PRODUCT_ENTRIES["fraction"],
    st.builds(lambda p, q: f"{p}/{q}", st.integers(-10**6, 10**6), st.integers(1, 10**6)),
)


@SETTINGS
@given(st.data(), SCALARS)
def test_scale_matches_reference(data, k):
    rows = data.draw(operand(data.draw(st.integers(1, 6)), data.draw(st.integers(1, 6))))
    scaled = Matrix(rows).scale(k)
    assert [list(row) for row in scaled.entries] == \
        [[Fraction(k) * Fraction(x) for x in row] for row in rows]
    flat = [x for row in scaled.entries for x in row]
    assert normalised(flat)
    assert scaled.is_integral == all(type(x) is int for x in flat)


def check_rref(rows):
    reduced, pivots = rref(Matrix(rows))
    expected, expected_pivots = reference_rref(rows)
    assert list(pivots) == expected_pivots
    assert [list(row) for row in reduced.entries] == expected
    flat = [x for row in reduced.entries for x in row]
    assert normalised(flat)
    assert reduced.is_integral == all(isinstance(x, int) for x in flat)


@SETTINGS
@given(matrices())
def test_rref_of_integer_matrices_matches_reference(rows):
    check_rref(rows)


@SETTINGS
@given(matrices(rational=True))
def test_rref_of_rational_matrices_matches_reference(rows):
    check_rref(rows)


@SETTINGS
@given(st.booleans().flatmap(lambda rational: matrices(rational=rational, max_rows=5, square=True)),
       st.integers(0, 9))
def test_power_matches_the_product_chain(rows, n):
    chain = [[Fraction(int(i == j)) for j in range(len(rows))] for i in range(len(rows))]
    for _ in range(n):
        chain = reference_product(chain, rows)
    power = Matrix(rows).power(n)
    assert [list(row) for row in power.entries] == chain
    assert normalised([x for row in power.entries for x in row])


@SETTINGS
@given(st.booleans().flatmap(lambda rational: matrices(rational=rational)))
def test_rank_matches_reference(rows):
    assert rank(Matrix(rows)) == len(reference_rref(rows)[1])


@SETTINGS
@given(st.booleans().flatmap(lambda rational: matrices(rational=rational)))
def test_kernel_basis_matches_reference(rows):
    basis = kernel_basis(Matrix(rows))
    assert basis == reference_kernel(rows)
    assert all(normalised(v) for v in basis)


@SETTINGS
@given(st.booleans().flatmap(lambda rational: matrices(rational=rational)), st.data())
def test_solve_rational_matches_reference(rows, data):
    m = Matrix(rows)
    if data.draw(st.booleans()):
        # a consistent right-hand side
        x = data.draw(st.lists(st.integers(-5, 5), min_size=m.ncols, max_size=m.ncols))
        b = m.apply(x)
    else:
        b = data.draw(st.lists(st.integers(-9, 9), min_size=m.nrows, max_size=m.nrows))
    x = solve_rational(m, b)
    assert x == reference_solve(rows, b)
    if x is not None:
        assert normalised(x)


@SETTINGS
@given(st.booleans().flatmap(lambda rational: matrices(rational=rational, square=True)))
def test_det_and_inverse_match_reference(rows):
    m = Matrix(rows)
    d = det(m)
    assert d == reference_det(rows)
    assert normalised([d])
    n = m.nrows
    reduced, pivots = reference_rref([list(row) + [int(i == j) for j in range(n)]
                                      for i, row in enumerate(rows)])
    if pivots[-1] != n - 1:
        assert d == 0
        with pytest.raises(ValueError, match="matrix is singular"):
            inverse(m)
    else:
        inv = inverse(m)
        assert [list(row) for row in inv.entries] == [row[n:] for row in reduced]
        flat = [x for row in inv.entries for x in row]
        assert normalised(flat)
        assert inv.is_integral == all(isinstance(x, int) for x in flat)



def check_snf(rows):
    """U M V = D against the Fraction references: U and V unimodular, D
    diagonal and nonnegative, each entry dividing the next, and on a
    square M the product of the diagonal equal to |det M|."""
    u, d, v = smith_normal_form(Matrix(rows))
    assert [list(row) for row in d.entries] == \
        reference_product(reference_product(u.entries, rows), v.entries)
    assert reference_det(u.entries) in (1, -1) and reference_det(v.entries) in (1, -1)
    nrows, ncols = len(rows), len(rows[0])
    assert all(d[i, j] == 0 for i in range(nrows) for j in range(ncols) if i != j)
    diag = [d[i, i] for i in range(min(nrows, ncols))]
    assert all(x >= 0 for x in diag)
    assert all(b % a == 0 if a else b == 0 for a, b in zip(diag, diag[1:]))
    if nrows == ncols:
        product = 1
        for x in diag:
            product *= x
        assert product == abs(reference_det(rows))


@SETTINGS
@given(matrices(max_rows=8, max_cols=8))
@example([[2, 4, 4], [-6, 6, 12], [10, -4, -16]])
@example([[0, -3, 5], [0, -2, 7], [0, 0, 0], [0, 4, -1]])  # a zero column first, a zero row
@example([[-6]])
def test_hnf_beside_the_identity_is_row_hermite_form(rows):
    """_hnf on [m | I] leaves [H | U]: H in row Hermite form (echelon,
    positive pivots, the entries above each pivot in [0, p)) and U
    unimodular with U m = H."""
    nrows, ncols = len(rows), len(rows[0])
    a = [list(row) + [int(i == j) for j in range(nrows)] for i, row in enumerate(rows)]
    lattice._hnf(a, nrows, ncols)
    h, u = [row[:ncols] for row in a], [row[ncols:] for row in a]
    leads = [next((c for c, x in enumerate(row) if x), ncols) for row in h]
    pivots = [c for c in leads if c < ncols]
    assert leads == pivots + [ncols] * (nrows - len(pivots))  # zero rows last
    assert pivots == sorted(set(pivots))
    for i, c in enumerate(pivots):
        assert h[i][c] > 0
        assert all(0 <= h[j][c] < h[i][c] for j in range(i))
    assert reference_product(u, rows) == h
    assert reference_det(u) in (1, -1)


SNF_INPUTS = st.one_of(
    matrices(max_rows=8, max_cols=8),
    st.tuples(st.integers(1, 8), st.integers(1, 8)).map(lambda shape: [[0] * shape[1]] * shape[0]),
)


@SETTINGS
@given(SNF_INPUTS)
@example([[2, 4, 4], [-6, 6, 12], [10, -4, -16]])  # square, D = diag(2, 6, 12)
@example([[1, 2], [3, 4], [5, 6], [7, 8], [9, 10], [11, 12], [13, 14], [15, 16]])  # tall
@example([[0, 6, 0, 9, 0, 0, 3, 12], [0, 4, 0, 6, 0, 0, 2, 8]])  # wide, rank 1
@example([[0, 0], [0, 3]])  # diagonal with its zero first
@example([[0] * 8] * 8)
def test_smith_normal_form_matches_references(rows):
    check_snf(rows)


@SETTINGS
@given(matrices(max_rows=8, max_cols=8), st.data())
def test_solve_integer_solves_a_consistent_system(rows, data):
    m = Matrix(rows)
    x0 = data.draw(st.lists(st.integers(-9, 9), min_size=m.ncols, max_size=m.ncols))
    b = m.apply(x0)
    x = solve_integer(m, b)
    assert x is not None and all(type(xi) is int for xi in x)
    assert [row[0] for row in reference_product(rows, [[xi] for xi in x])] == list(b)


@st.composite
def integer_systems(draw):
    """(rows, b): consistent systems b = m x0 and arbitrary b, most of them
    inconsistent."""
    rows = draw(st.one_of(matrices(max_rows=8, max_cols=8), matrices(max_rows=8, square=True)))
    nrows, ncols = len(rows), len(rows[0])
    if draw(st.booleans()):
        return rows, Matrix(rows).apply(draw(st.lists(st.integers(-9, 9), min_size=ncols, max_size=ncols)))
    return rows, tuple(draw(st.lists(st.integers(-30, 30), min_size=nrows, max_size=nrows)))


@SETTINGS
@given(integer_systems())
@example(([[3]], (7,)))  # 1x1
@example(([[1, 2], [3, 4]], (5, 11)))  # the last pivot -2
@example(([[1, 0], [0, 1], [1, 1]], (1, 1, 3)))  # tall, inconsistent over Q
@example(([[2, 0], [0, 1], [2, 1]], (1, 1, 2)))  # solvable over Q, not over Z
@example(([[1, 2], [2, 4]], (3, 6)))  # singular square
def test_solve_integer_is_read_off_the_smith_normal_form(system):
    rows, b = system
    m = Matrix(rows)
    u, d, v = smith_normal_form(m)
    c = u.apply(b)
    y = [0] * m.ncols
    expected = None
    for i in range(m.nrows):
        di = d[i, i] if i < m.ncols else 0
        if (c[i] % di if di else c[i]) != 0:
            break
        if di:
            y[i] = c[i] // di
    else:
        expected = v.apply(y)
    assert solve_integer(m, b) == expected


reps = st.integers(0, 2**32).map(lambda seed: random_rep(random.Random(seed), max_order=12,
                                                         max_dim=10))


def scan_all_divisors_random_rep(rng, max_order, max_dim):
    """random_rep as it was before it bounded its divisor scan: it lists
    every divisor of the order and builds every cyclotomic polynomial."""
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
    basis, basis_inv = reference_basis_pair(rng, dim, unimodular=rng.random() < 0.75)
    gen = basis @ gen @ basis_inv
    return CyclicRep(order, dim, gen)


def reference_basis_pair(rng, n, unimodular):
    """random_rep's change of basis as it was drawn before random_rep
    conjugated the generator in place: a random invertible integer matrix
    and its exact inverse, kept side by side through the same steps."""
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
        for row in inv:
            row[i] *= Fraction(1, k)
    return Matrix(rows), Matrix(inv)


@SETTINGS
@given(st.integers(0, 2**32), st.integers(1, 400), st.integers(1, 12))
def test_random_rep_draws_as_the_full_divisor_scan(seed, max_order, max_dim):
    rng, old_rng = random.Random(seed), random.Random(seed)
    rep = random_rep(rng, max_order=max_order, max_dim=max_dim)
    assert rep == scan_all_divisors_random_rep(old_rng, max_order, max_dim)
    assert rng.getstate() == old_rng.getstate()


def in_span(vectors, v):
    return reference_solve([list(r) for r in zip(*vectors)], v) is not None


@SETTINGS
@given(reps)
def test_dim_ker_norm_is_dim_minus_rank(rep):
    report = verify_ker_im(rep)
    n_op = norm_operator(rep)
    assert report.dim_ker_norm == rep.dim - len(reference_rref(n_op.entries)[1])
    assert report.dim_ker_norm == rep.dim - rank(n_op)
    assert report.holds


@SETTINGS
@given(st.integers(0, 2**32), st.sampled_from([12, 60, 1000]), st.integers(1, 8))
def test_ker_im_from_traces_matches_the_power_chain(seed, max_order, max_dim):
    # random_rep draws integral generators and, one time in four, rational
    # ones; the reference is the whole chain powers() and the eliminated N
    rep = random_rep(random.Random(seed), max_order=max_order, max_dim=max_dim)
    powers = rep.powers()
    trace = sum([p[i, i] for p in powers for i in range(rep.dim)], Fraction(0))
    report = verify_ker_im(rep)
    assert report.dim_ker_norm == rep.dim - trace / len(powers) == rep.dim - rank(norm_operator(rep))
    assert report.rank_difference == rank(difference_operator(rep))
    assert report.holds and type(report.dim_ker_norm) is int


@SETTINGS
@given(reps, st.data())
def test_descend_invariant_on_orbit_spans(rep, data):
    s = tuple(data.draw(st.lists(st.integers(-4, 4), min_size=rep.dim, max_size=rep.dim)))
    b_op = difference_operator(rep)
    span, v = [], b_op.apply(s)
    for _ in range(rep.order):
        span.append(v)
        v = rep.gen.apply(v)
    t = descend_invariant(rep, span, s)
    assert b_op.apply(t) == (0,) * rep.dim
    assert normalised(t)
    assert in_span(span, tuple(a - b for a, b in zip(s, t)))


@SETTINGS
@given(reps, st.booleans(), st.data())
def test_descend_invariant_is_the_cyclic_average(rep, whole_space, data):
    s = tuple(data.draw(st.lists(st.integers(-4, 4), min_size=rep.dim, max_size=rep.dim)))
    if whole_space:
        span = [tuple([int(i == j) for i in range(rep.dim)]) for j in range(rep.dim)]
    else:
        span, v = [], difference_operator(rep).apply(s)
        for _ in range(rep.order):
            span.append(v)
            v = rep.gen.apply(v)
    total, v = [Fraction(0)] * rep.dim, s
    for _ in range(rep.order):  # the stated order n, not the orbit length
        total = [a + b for a, b in zip(total, v)]
        v = rep.gen.apply(v)
    t = descend_invariant(rep, span, s)
    assert t == tuple([x / rep.order for x in total])
    assert normalised(t)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
@given(reps, st.data())
def test_not_stable_is_reported_before_b_s_outside(rep, data):
    dim = rep.dim
    vec = st.lists(st.integers(-3, 3), min_size=dim, max_size=dim).map(tuple)
    v, s = data.draw(vec), data.draw(vec)
    bs = difference_operator(rep).apply(s)
    assume(not in_span([v], rep.gen.apply(v)))
    assume(not in_span([v], bs))
    with pytest.raises(ValueError, match="not stable"):
        descend_invariant(rep, [v], s)


def reference_apply(rows, v):
    """rows times v over Fraction, whole entries as ints."""
    out = [sum([Fraction(x) * y for x, y in zip(row, v)], Fraction(0)) for row in rows]
    return tuple([x.numerator if x.denominator == 1 else x for x in out])


def reference_descend(rep, span, s):
    """descend_invariant's value, or its (exception type, message), from
    in_span and the cyclic average over the stated order."""
    rows = rep.gen.entries
    bs = tuple([a - b for a, b in zip(s, reference_apply(rows, s))])
    if not all(in_span(span, reference_apply(rows, v)) for v in span):
        return ValueError, "subspace is not stable under the group generator"
    if not (in_span(span, bs) if span else not any(bs)):
        return ValueError, "B s does not lie in the subspace"
    total, v = [Fraction(0)] * rep.dim, s
    for _ in range(rep.order):
        total = [a + b for a, b in zip(total, v)]
        v = reference_apply(rows, v)
    return tuple([x / rep.order for x in total])


# entries of s: ints, Fractions over 2 and 3, and whole numbers given as
# the unnormalised Fraction(4, 2)
rational_entries = st.one_of(st.integers(-4, 4), st.builds(Fraction, st.integers(-6, 6), st.sampled_from([2, 3])),
                             st.just(Fraction(4, 2)))


@SETTINGS
@given(reps, st.sampled_from(["truncated", "two orbits", "one dropped", "another orbit", "invariant", "rotated",
                              "stated order"]), st.booleans(), st.data())
def test_descend_invariant_on_spans_partly_closed_under_g(rep, kind, rational, data):
    # images of spanning vectors that are spanning vectors themselves are
    # left out of the elimination; the others must still decide the answer.
    # A whole orbit of B s less one vector still spans B s, which is minus
    # the sum of the rest; the orbit of another vector may not, and
    # invariant vectors (orbit sums) span B s only when it is 0.  A rotated
    # orbit starts at g^k B s, so its images are read off the orbit of s
    # from k on; over a stated order a multiple of the true one, the orbit
    # of B s repeats, and the orbit of s still closes at its true length.
    vec = st.lists(st.integers(-4, 4), min_size=rep.dim, max_size=rep.dim).map(tuple)
    s = data.draw(st.lists(rational_entries, min_size=rep.dim, max_size=rep.dim).map(tuple) if rational else vec)
    if kind == "stated order":
        rep = CyclicRep(rep.order * data.draw(st.integers(2, 3)), rep.dim, rep.gen)
    rows, n = rep.gen.entries, rep.order

    def orbit(v, length):
        out = []
        for _ in range(length):
            out.append(v)
            v = reference_apply(rows, v)
        return out

    bs = tuple([a - b for a, b in zip(s, reference_apply(rows, s))])
    if kind == "one dropped":
        span = orbit(bs, n)
        del span[data.draw(st.integers(0, n - 1))]
    elif kind == "another orbit":
        span = orbit(data.draw(vec), n)
    elif kind == "invariant":
        span = [tuple(map(sum, zip(*orbit(data.draw(vec), n)))) for _ in range(data.draw(st.integers(1, 2)))]
    elif kind == "rotated":
        span = orbit(orbit(bs, data.draw(st.integers(1, n)))[-1], data.draw(st.integers(1, n)))
    else:
        span = orbit(bs, data.draw(st.integers(1, n)))
        if kind == "two orbits":
            span += orbit(data.draw(vec), n)
    try:
        got = descend_invariant(rep, span, s)
        assert normalised(got)
    except ValueError as exc:
        got = type(exc), str(exc)
    assert got == reference_descend(rep, span, s)


CATALOG = builtin_catalog()


@st.composite
def characters(draw, surface):
    """A valid Chern character on surface: 2 ch2 + c^2 even."""
    r = draw(st.integers(-6, 6))
    c = tuple(draw(st.lists(st.integers(-6, 6), min_size=surface.dim, max_size=surface.dim)))
    cc = surface.num.pair(c, c)
    return surface.character(r, c, draw(st.integers(-6, 6)) + Fraction(cc % 2, 2))


surfaces = st.sampled_from(sorted(CATALOG.surfaces.items())).map(lambda item: item[1])
covers_of_catalog = st.sampled_from(sorted(CATALOG.covers.items())).map(lambda item: item[1])


@SETTINGS
@given(surfaces.flatmap(lambda s: st.tuples(st.just(s), characters(s), characters(s))))
def test_mukai_pairing_is_minus_euler_pairing(case):
    surface, e, f = case
    v, w = mukai_vector(surface, e), mukai_vector(surface, f)
    assert mukai_pairing(surface, v, w) == -euler_pairing(surface, e, f)


@SETTINGS
@given(covers_of_catalog.flatmap(
    lambda t: st.tuples(st.just(t), characters(t.base), characters(t.cover))))
def test_chi_adjunction_holds_on_every_builtin_cover(case):
    t, f, e = case
    lhs, rhs, equal = chi_adjunction_check(t, f, e)
    assert equal and lhs == rhs


@SETTINGS
@given(surfaces.flatmap(characters))
def test_coords_round_trip(e):
    assert ExtendedVector.from_coords(e.coords()) == e
    assert e.coords() == (e.r,) + e.c + (e.ch2,)


def test_one_class_object_for_every_role():
    assert ChernCharacter is MukaiVector is ExtendedVector
    assert covers.ExtendedVector is fmlattice.ExtendedVector is ExtendedVector


DATA = Path(__file__).resolve().parent / "data"


def _with_defs(catalog, name, allow_invalid=False):
    text = (DATA / name).read_text(encoding="utf-8")
    return catalog.extend(load_definitions(text, allow_invalid=allow_invalid,
                                           registry=catalog.registry()))


LIFT_CATALOG = _with_defs(_with_defs(CATALOG, "golden.defs", allow_invalid=True),
                          "enriques_k3_18.defs")
FAMILY_COVERS = ["enriques_k3_18_cover", "golden_split_cover"]
VALID_BUILTIN_COVERS = [name for name, t in sorted(CATALOG.covers.items())
                        if validate_cover(t).passed]


# euler_pairing, mukai_pairing, character and freeness_gcd run on each
# class's coordinates cleared to integers over the denominator of s; here
# they are compared with plain Fraction arithmetic on every catalog
# surface and cover, the chi-odd Enriques lattices enriques_toy and
# enriques_e10 among them, with s in Z, 1/2 Z and 1/3 Z.
def reference_form(rows, u, v):
    """u^T X v over Fraction for X given by its rows; a whole value as an int."""
    value = sum([Fraction(x) * a * b for row, a in zip(rows, u) for x, b in zip(row, v)], Fraction(0))
    return value.numerator if value.denominator == 1 else value


@st.composite
def triples(draw, dim):
    """(r, c, s) with integral r and c and s in Z, 1/2 Z or 1/3 Z."""
    r = draw(st.integers(-6, 6))
    c = tuple(draw(st.lists(st.integers(-6, 6), min_size=dim, max_size=dim)))
    return r, c, Fraction(draw(st.integers(-12, 12)), draw(st.sampled_from([1, 2, 3])))


def expect_chi(call, chi):
    """call() returns the int chi, or raises chi's InvariantError when it is not whole."""
    if isinstance(chi, int):
        got = call()
        assert got == chi and type(got) is int
    else:
        with pytest.raises(InvariantError, match=f"^{re.escape(f'chi(E,F) = {chi} is not an integer')}$"):
            call()


@SETTINGS
@given(st.sampled_from(sorted(LIFT_CATALOG.surfaces.items())), st.data())
def test_cleared_pairings_and_character_match_fraction_arithmetic(item, data):
    name, surface = item
    assert "enriques_e10" in LIFT_CATALOG.surfaces and "enriques_toy" in LIFT_CATALOG.surfaces
    (r, c, s), (rf, cf, sf) = data.draw(triples(surface.dim)), data.draw(triples(surface.dim))
    parity = 2 * s + reference_form(surface.num.gram.entries, c, c)
    if parity.denominator == 1 and parity % 2 == 0:
        e = surface.character(r, c, s)
        assert e == ExtendedVector(r, c, s)
    else:
        message = f"2*ch2 + c1^2 = {parity} must be an even integer on {name}"
        with pytest.raises(InvariantError, match=f"^{re.escape(message)}$"):
            surface.character(r, c, s)
        e = ExtendedVector(r, c, s)
    f = ExtendedVector(rf, cf, sf)
    expect_chi(lambda: euler_pairing(surface, e, f),
               reference_form(surface.euler_gram.entries, e.coords(), f.coords()))
    expect_chi(lambda: euler_pairing(surface, f, f),
               reference_form(surface.euler_gram.entries, f.coords(), f.coords()))
    assert mukai_pairing(surface, e, f) == reference_form(surface.mukai_gram.entries, e.coords(), f.coords())
    if surface.is_integral_class(rf, cf, sf) and surface.is_integral_class(r, c, s):
        v, w = mukai_vector(surface, e), mukai_vector(surface, f)
        assert mukai_pairing(surface, v, w) == -euler_pairing(surface, e, f)


@SETTINGS
@given(st.sampled_from(sorted(LIFT_CATALOG.covers.items())), st.data())
def test_cleared_freeness_gcd_matches_fraction_arithmetic(item, data):
    _, t = item
    e = ExtendedVector(*data.draw(triples(t.cover.dim)))
    pushed = [sum([Fraction(x) * y for x, y in zip(row, e.coords())], Fraction(0)) for row in t.push_extended.entries]
    values = [reference_form([row], [1], pushed) for row in t.base.euler_gram.entries]
    bad = next((chi for chi in values if not isinstance(chi, int)), None)
    if bad is not None:
        expect_chi(lambda: freeness_gcd(t, e), bad)
        return
    cert = freeness_gcd(t, e)
    assert [v for _, v in cert.values] == values
    assert cert.gcd == gcd(*values) and cert.free == (cert.gcd == 1)


# mukai_pairing and BilinearForm.pair run through the cleared pairing of
# the lattice kernel; here both are compared with plain Fraction sums of
# their formulas on the two chi-odd Enriques lattices, with s and the
# vector entries half-integral.
halves = st.integers(-12, 12).map(lambda k: Fraction(k, 2))


def plain_pair(gram, u, v):
    return sum([Fraction(a) * x * b for a, row in zip(u, gram) for x, b in zip(row, v)], Fraction(0))


def assert_exact(got, expected):
    """got is expected, as an int when whole and as a Fraction otherwise."""
    assert got == expected and type(got) is (int if expected.denominator == 1 else Fraction)


@SETTINGS
@given(st.sampled_from(["enriques_toy", "enriques_e10"]), st.data())
def test_cleared_mukai_pairing_and_form_pair_match_plain_fraction_sums(name, data):
    surface = LIFT_CATALOG.surfaces[name]
    gram, n = surface.num.gram.entries, surface.dim
    (r, c, _), (rf, cf, _) = data.draw(triples(n)), data.draw(triples(n))
    s, sf = data.draw(halves), data.draw(halves)
    e, f = ExtendedVector(r, c, s), ExtendedVector(rf, cf, sf)
    assert_exact(mukai_pairing(surface, e, f), plain_pair(gram, c, cf) - r * sf - rf * s)
    entries = st.lists(st.one_of(st.integers(-6, 6), halves), min_size=n, max_size=n)
    u, v = data.draw(entries), data.draw(entries)
    for a, b in ((u, v), (tuple(v), c), (c, cf), (c, c)):
        assert_exact(surface.num.pair(a, b), plain_pair(gram, a, b))


def isometry_word(surface, picks):
    """The product of line-bundle twists by basis divisors and their
    negatives, total negation and negation on Num, chosen by picks."""
    moves = [minus_one(surface), num_negation(surface)]
    for j in range(surface.dim):
        e = tuple([int(i == j) for i in range(surface.dim)])
        moves += [tensor_twist(surface, e), tensor_twist(surface, tuple([-x for x in e]))]
    mat = Matrix.identity(surface.extended_dim())
    for k in picks:
        mat = mat @ moves[k % len(moves)].mat
    return LatticeIsometry(surface, surface, mat)


picks = st.lists(st.integers(0, 1000), max_size=4)


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from(FAMILY_COVERS), picks, st.data())
def test_every_lift_family_member_satisfies_both_squares(name, word, data):
    t = LIFT_CATALOG.covers[name]
    phi = isometry_word(t.base, word)
    family = lift_isometry(phi, t, t)
    assert isinstance(family, LiftFamily)
    coeffs = data.draw(st.lists(st.fractions(-5, 5, max_denominator=7),
                                min_size=len(family.directions),
                                max_size=len(family.directions)))
    member = family.particular
    for c, d in zip(coeffs, family.directions):
        member = member + d.scale(c)
    assert member @ t.pull_extended == t.pull_extended @ phi.mat
    assert t.push_extended @ member == phi.mat @ t.push_extended


@SETTINGS
@given(st.sampled_from(VALID_BUILTIN_COVERS), picks)
def test_lift_then_descend_returns_the_isometry(name, word):
    t = CATALOG.covers[name]
    phi = isometry_word(t.base, word)
    lifts = lift_isometry(phi, t, t)
    assert len(lifts) == 1
    back = descend_isometry(lifts[0], t, t)
    assert back and back.isometry.mat == phi.mat


def reference_chi(surface, e, f):
    """Riemann-Roch written out: r_E r_F chi(O) + r_E s_F + r_F s_E - c_E.c_F."""
    g = surface.num.gram.entries
    cc = sum(x * g[i][j] * y for i, x in enumerate(e.c) for j, y in enumerate(f.c))
    return e.r * f.r * surface.chi_o + e.r * f.s + f.r * e.s - cc


CHI_SURFACES = st.sampled_from(sorted(LIFT_CATALOG.surfaces.items())).map(lambda item: item[1])
CERTIFIED_COVERS = sorted(CATALOG.covers) + ["enriques_k3_18_cover"]


@SETTINGS
@given(CHI_SURFACES.flatmap(lambda s: st.tuples(st.just(s), characters(s), characters(s))))
def test_euler_pairing_matches_the_scalar_formula(case):
    surface, e, f = case
    assert euler_pairing(surface, e, f) == reference_chi(surface, e, f)


@SETTINGS
@given(st.sampled_from(CERTIFIED_COVERS), st.data())
def test_certificate_is_the_scalar_chi_of_each_generator(name, data):
    # half-integral s is drawn too: then the certificate must raise on the
    # first non-integral chi, in generator order
    t = LIFT_CATALOG.covers[name]
    d = t.cover.dim
    e = ExtendedVector(data.draw(st.integers(-6, 6)),
                       tuple(data.draw(st.lists(st.integers(-6, 6), min_size=d, max_size=d))),
                       Fraction(data.draw(st.integers(-12, 12)), 2))
    pushed = covers.pushforward_ch(t, e)
    expected = [(label, reference_chi(t.base, f, pushed)) for label, f in generator_set(t.base)]
    bad = next((v for _, v in expected if v.denominator != 1), None)
    if bad is None:
        assert list(freeness_gcd(t, e).values) == expected
    else:
        with pytest.raises(InvariantError, match=f"^chi\\(E,F\\) = {bad} is not an integer$"):
            freeness_gcd(t, e)


# The cyclic-action functions loop over the true order of the generator;
# the references below loop over the stated order, as the definitions do.

def reference_norm(rep):
    total, power = Matrix.zero(rep.dim, rep.dim), Matrix.identity(rep.dim)
    for _ in range(rep.order):
        total, power = total + power, power @ rep.gen
    return total


def reference_equivariant(phi, a_y, a_x):
    n = a_y.order
    pows_y, pows_x = [Matrix.identity(a_y.dim)], [Matrix.identity(a_x.dim)]
    for _ in range(n - 1):
        pows_y.append(pows_y[-1] @ a_y.gen)
        pows_x.append(pows_x[-1] @ a_x.gen)
    for k in range(1, n + 1):
        if gcd(k, n) == 1 and all(pows_x[j] @ phi.mat == phi.mat @ pows_y[j * k % n]
                                  for j in range(n)):
            return [j * k % n for j in range(n)]
    return None


def reference_orbit_sum(action, e, m):
    total, current = [0] * action.dim, e.coords()
    for _ in range(m):
        total = [a + b for a, b in zip(total, current)]
        current = action.gen.apply(current)
    return ExtendedVector.from_coords(tuple(total))


@SETTINGS
@given(reps, st.integers(1, 4))
def test_norm_and_ker_im_match_stated_order_loops(rep, multiple):
    # reps draws integral and rational generators; verify_ker_im rests on
    # N B = B N = 0 without multiplying N and B out, so the products are
    # checked here with the Fraction loop
    for r in (rep, CyclicRep(rep.order * multiple, rep.dim, rep.gen)):
        n_op, b_op = norm_operator(r), difference_operator(r)
        assert n_op == reference_norm(r)
        assert not any(map(any, reference_product(n_op.entries, b_op.entries)
                           + reference_product(b_op.entries, n_op.entries)))
        report = verify_ker_im(r)
        assert report.dim_ker_norm == r.dim - len(reference_rref(n_op.entries)[1])
        assert report.rank_difference == len(reference_rref(b_op.entries)[1])


QUAD = NumericalSurface("quad", BilinearForm.from_rows([[0, 1], [1, 0]]), 0, 1)
ROTATION = Matrix([[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]])  # order 4 on QUAD
ACTION_SURFACES = [s for _, s in sorted(CATALOG.surfaces.items()) if s.canonical_order == 1]


def finite_order_isometries(surface):
    """Isometries of finite order: +-1 on the whole lattice or on Num, and
    the catalog swap or the rotation where they live."""
    mats = [identity_isometry(surface).mat, minus_one(surface).mat, num_negation(surface).mat]
    if surface is QUAD:
        mats += [ROTATION, -ROTATION, ROTATION.power(3)]
    if surface == CATALOG.actions["swap"].surface:
        mats.append(CATALOG.actions["swap"].gen)
    return mats


def true_order(g):
    t, power = 1, g
    while power != Matrix.identity(g.nrows):
        t, power = t + 1, power @ g
    return t


@st.composite
def action_pairs(draw):
    """Two actions of one stated order on one surface, each a conjugate of a
    finite-order isometry, often with a non-faithful stated order, and a
    lattice isometry phi; half the time a_x is phi a_y^k phi^-1.  QUAD,
    the one surface with order-4 actions, is drawn half the time."""
    surface = draw(st.one_of(st.just(QUAD), st.sampled_from(ACTION_SURFACES)))
    phi = isometry_word(surface, draw(picks))
    gens = []
    for _ in range(2):
        h = isometry_word(surface, draw(picks)).mat
        base = draw(st.sampled_from(finite_order_isometries(surface)))
        gens.append(h @ base @ inverse(h))
    if draw(st.booleans()):
        gens[1] = phi.mat @ gens[0].power(draw(st.sampled_from([1, 3]))) @ inverse(phi.mat)
    n = lcm(true_order(gens[0]), true_order(gens[1])) * draw(st.sampled_from([1, 2, 3, 6]))
    return phi, GActionLattice(surface, n, gens[0]), GActionLattice(surface, n, gens[1])


@SETTINGS
@given(action_pairs(), st.data())
def test_equivariance_and_orbit_sums_match_stated_order_loops(case, data):
    phi, a_y, a_x = case
    for y, x in ((a_y, a_x), (a_x, a_y), (a_y, a_y)):
        assert repr(check_equivariant(phi, y, x)) == repr(reference_equivariant(phi, y, x))
    twin = GActionLattice(a_y.surface, a_y.order, Matrix(a_y.gen.entries))  # equal, not the same
    assert repr(check_equivariant(phi, a_y, twin)) == repr(check_equivariant(phi, a_y, a_y))
    m = data.draw(st.sampled_from([d for d in range(1, a_y.order + 1) if a_y.order % d == 0]))
    e = data.draw(characters(a_y.surface))
    try:
        expected = repr(reference_orbit_sum(a_y, e, m))
    except InvariantError as exc:
        with pytest.raises(InvariantError, match=re.escape(str(exc))):
            orbit_sum(a_y, e, m)
    else:
        assert repr(orbit_sum(a_y, e, m)) == expected


def reference_tokenize(text):
    """The definitions tokenizer as it was when it counted each token's
    column character by character: a comment's characters are not counted,
    so the newline or end after a comment has the column of its '#'."""
    tokens = []
    line, col = 1, 1
    i = 0
    size = len(text)
    while i < size:
        ch = text[i]
        if ch == "#":
            while i < size and text[i] != "\n":
                i += 1
            continue
        if ch == "\n":
            tokens.append(_Token("newline", "\n", line, col))
            i += 1
            line += 1
            col = 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch in "{}[],;":
            tokens.append(_Token("punct", ch, line, col))
            i += 1
            col += 1
            continue
        if ch.isdigit() or (ch == "-" and i + 1 < size and text[i + 1].isdigit()):
            start = i
            start_col = col
            i += 1
            col += 1
            while i < size and (text[i].isdigit() or text[i] == "/"):
                i += 1
                col += 1
            tokens.append(_Token("number", text[start:i], line, start_col))
            continue
        if ch.isalpha() or ch == "_":
            start = i
            start_col = col
            while i < size and (text[i].isalnum() or text[i] in "_.-"):
                i += 1
                col += 1
            tokens.append(_Token("ident", text[start:i], line, start_col))
            continue
        raise DefsParseError(f"unexpected character {ch!r}", line, col)
    tokens.append(_Token("newline", "\n", line, col))
    return tokens


def token_outcome(tokenize, text):
    try:
        return [tuple(tok) for tok in tokenize(text)]
    except DefsParseError as exc:
        return str(exc), exc.line, exc.column


# ASCII (control characters included) mixed with characters that
# str.isdigit() ("²", "١"), str.isalpha() ("é", "五") or only str.isalnum()
# ("Ⅻ") accepts, and with the characters the tokenizer treats specially.
TOKENIZER_ALPHABET = st.one_of(st.characters(min_codepoint=0, max_codepoint=127),
                               st.sampled_from(list("²١é五Ⅻ") + list("{}[],;#-/_. \t\r\n0a")))


@settings(max_examples=1000, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.text(TOKENIZER_ALPHABET, max_size=48))
@example("a # note")
@example("x 1/2 # note\n  -3 ²1 Ⅻ五")
def test_tokenizer_matches_the_column_counting_reference(text):
    assert token_outcome(_tokenize, text) == token_outcome(reference_tokenize, text)


# Literal texts mix ASCII digits, non-ASCII characters that str.isdigit()
# accepts ("²" is no decimal digit, "٣" is), letters, the punctuation of
# literals, spaces, comments and newlines.
LITERAL_ALPHABET = st.sampled_from(list("0123456789" * 2 + "²٣aZ-/[],; #\n" + "-/,;" * 2))
# Number-shaped texts, and matrices of them, which reach the fast path.
literal_entries = st.one_of(
    st.from_regex(r"-?[0-9]{1,2}(/-?[0-9]{1,2})?", fullmatch=True),
    st.text(st.sampled_from(list("0123456789" * 3 + "--//²٣ ")), min_size=1, max_size=4))
literal_texts = st.one_of(
    literal_entries,
    st.text(LITERAL_ALPHABET, max_size=12),
    st.text(LITERAL_ALPHABET, max_size=24).map(lambda t: f"[{t}]"),
    st.lists(st.lists(literal_entries, min_size=1, max_size=3), min_size=1, max_size=3).map(
        lambda rows: "[" + ";".join(",".join(row) for row in rows) + "]"))


def reference_number(tok, allow_fraction):
    """The value of a number token, as the definitions parser read it."""
    try:
        if "/" not in tok.text:
            return int(tok.text)
        value = Fraction(tok.text)
    except (ValueError, ZeroDivisionError):
        raise DefsParseError(f"bad number {tok.text!r}", tok.line, tok.column) from None
    if not allow_fraction and value.denominator != 1:
        raise DefsParseError("expected an integer", tok.line, tok.column)
    return int(value) if value.denominator == 1 else value


def reference_number_text(text, allow_fraction):
    """parse_number_text by the token route: the text is one number token."""
    try:
        tokens = _tokenize(text)
    except DefsParseError:
        tokens = []
    if len(tokens) != 2 or tokens[0].kind != "number" or tokens[0].text != text:
        raise DefsParseError(f"bad number {text!r}", 1, 1)
    return reference_number(tokens[0], allow_fraction)


def reference_matrix_text(text, allow_fraction):
    """parse_matrix_text by the token route: the tokens through _matrix."""
    tokens = [t for t in _tokenize(text) if t.kind != "newline"]
    return _matrix(allow_fraction)(tokens, _Token("ident", "matrix", 1, 1), None)


def literal_outcome(parse, text, allow_fraction):
    """The value with the type of each number, or the exception's type and message."""
    try:
        value = parse(text, allow_fraction)
    except Exception as exc:  # noqa: BLE001 - the outcome is compared, whatever it is
        return type(exc), str(exc)
    rows = value.entries if isinstance(value, Matrix) else [[value]]
    return [[(type(x), x) for x in row] for row in rows]


@settings(max_examples=1000, deadline=None)
@given(literal_texts, st.booleans())
def test_literal_parsers_match_the_token_route(text, allow_fraction):
    assert (literal_outcome(parse_number_text, text, allow_fraction)
            == literal_outcome(reference_number_text, text, allow_fraction))
    assert (literal_outcome(parse_matrix_text, text, allow_fraction)
            == literal_outcome(reference_matrix_text, text, allow_fraction))


# Number texts: the literal entries, texts from the literal alphabet, and
# short texts of the characters Fraction() accepted beyond the definitions
# form (signs, points, exponents, underscores, spaces), kept short so that
# no exponent is large.
number_texts = st.one_of(literal_entries, st.text(LITERAL_ALPHABET, max_size=8),
                         st.text(st.sampled_from(list("0123456789" * 2 + "-+/._eE \t²٣")), max_size=6))


def number_outcome(read, text):
    """The value and its type, or None when read refuses the text with a ValueError."""
    try:
        value = read(text)
    except ValueError:
        return None
    return type(value), value


@settings(max_examples=1000, deadline=None)
@given(number_texts)
@example("1_0")
@example("1 / 2")
@example("+1")
@example("1/0")
@example("1/2/3")
@example("²")
@example("٣/6")
def test_the_library_reads_number_text_as_the_definitions_format_does(text):
    assert number_outcome(lattice.as_rational, text) == number_outcome(parse_number_text, text)
