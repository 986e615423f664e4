import ast
import itertools
import random
import re
import sys
import threading
import time
from fractions import Fraction
from pathlib import Path

import pytest

from fmlattice import lattice
from fmlattice.lattice import (
    BilinearForm,
    DimensionError,
    Matrix,
    det,
    inverse,
    kernel_basis,
    rank,
    rref,
    smith_normal_form,
    solve_integer,
    solve_rational,
)
from fmlattice.surfaces import ExtendedVector


def random_int_matrix(rng, nrows, ncols, bound=9):
    return Matrix([[rng.randint(-bound, bound) for _ in range(ncols)] for _ in range(nrows)])


def random_unimodular(rng, n, steps=12):
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(steps):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        q = rng.choice([-2, -1, 1, 2])
        m[i] = [x + q * y for x, y in zip(m[i], m[j])]
    return Matrix(m)


def brute_force_integer_solutions(m, b, bound):
    hits = []
    for x in itertools.product(range(-bound, bound + 1), repeat=m.ncols):
        if m.apply(x) == tuple(b):
            hits.append(x)
    return hits


class TestMatrixBasics:
    def test_matmul_and_apply(self):
        a = Matrix([[1, 2], [3, 4]])
        b = Matrix([[0, 1], [1, 0]])
        assert a @ b == Matrix([[2, 1], [4, 3]])
        assert a.apply((1, 1)) == (3, 7)

    def test_vector_returns_an_all_int_tuple_as_it_is(self):
        v = (1, -2, 10**30)
        assert lattice.vector(v) is v
        assert lattice.vector([1, 2]) == (1, 2)
        w = lattice.vector((1, Fraction(4, 2), Fraction(1, 2)))
        assert w == (1, 2, Fraction(1, 2)) and type(w[1]) is int
        for bad in ((1, True), (1, 2.0)):
            with pytest.raises(TypeError):
                lattice.vector(bad)

    def test_shapes_are_checked(self):
        a = Matrix([[1, 2]])
        with pytest.raises(DimensionError):
            a @ a
        with pytest.raises(DimensionError):
            a.apply((1, 2, 3))
        with pytest.raises(DimensionError):
            Matrix([[1], [2, 3]])
        with pytest.raises(DimensionError, match="shape mismatch in addition"):
            a + a.T
        with pytest.raises(DimensionError, match="shape mismatch in subtraction"):
            a - a.T

    def test_from_columns_refuses_a_longer_later_column(self):
        # the row count used to come from the first column, dropping the 3
        with pytest.raises(DimensionError, match="columns must be of equal length"):
            Matrix.from_columns([(1,), (2, 3)])

    def test_from_columns_refuses_a_shorter_later_column(self):
        # this used to raise IndexError
        with pytest.raises(DimensionError, match="columns must be of equal length"):
            Matrix.from_columns([(1, 2), (3,)])
        assert Matrix.from_columns([(1, 2), (3, 4)]) == Matrix([[1, 3], [2, 4]])

    def test_floats_rejected(self):
        with pytest.raises(TypeError):
            Matrix([[0.5]])

    def test_fraction_normalization(self):
        m = Matrix([[Fraction(4, 2)]])
        assert isinstance(m[0, 0], int) and m[0, 0] == 2

    def test_computed_matrices_are_normalised(self):
        half = Matrix([[Fraction(1, 2), 1]])
        assert not half.is_integral and not (-half).is_integral and not half.T.is_integral
        for m in (half @ Matrix([[2], [0]]), half + half, half.scale(2)):
            assert m.is_integral and all(isinstance(x, int) for row in m.entries for x in row)
        a = Matrix([[1, 2], [3, 4]])
        for m in (a @ a, a + a, a - a, -a, a.T, a.scale(3), rref(a)[0],
                  Matrix.identity(2), Matrix.zero(2, 3)):
            assert m.is_integral and all(isinstance(x, int) for row in m.entries for x in row)
        reduced = rref(Matrix([[2, 1], [4, 2]]))[0]
        assert reduced == Matrix([[1, Fraction(1, 2)], [0, 0]]) and not reduced.is_integral

    def test_products_at_the_slot_bound(self, monkeypatch):
        # entries of +-k M^2 = +-bias fill a packed slot from end to end;
        # at k = 5, na nb = 4 k^2 > 2 k * 2 * 3 takes the packed path (k = 1
        # and 2 the sparse one)
        packed = []
        monkeypatch.setattr(lattice, "_packed_product",
                            lambda *args, f=lattice._packed_product: packed.append(1) or f(*args))
        for m in (1, 7, 2**64, 2**200 + 1):
            for k in (1, 2, 5):
                a = Matrix([[m] * k, [-m] * k])
                b = Matrix([[m, -m, 0]] * k)
                assert a @ b == Matrix([[k * m * m, -k * m * m, 0], [-k * m * m, k * m * m, 0]])
                assert a.apply((m,) * k) == (k * m * m, -k * m * m)
                half = b.scale(Fraction(1, 2))
                assert a @ half == Matrix([[Fraction(k * m * m, 2), Fraction(-k * m * m, 2), 0],
                                           [Fraction(-k * m * m, 2), Fraction(k * m * m, 2), 0]])
        assert len(packed) == 4 * 2  # the two k = 5 products for each m

    def test_apply_returns_ints_where_the_value_is_whole(self):
        # the sum of Fractions 1/2 + 1/2 is the int 1, never Fraction(1, 1)
        half = Matrix([[Fraction(1, 2), Fraction(1, 2)], [Fraction(1, 3), 0]])
        assert half.apply((1, 1)) == (1, Fraction(1, 3))
        assert type(half.apply((1, 1))[0]) is int
        assert [type(x) for x in half.apply((2, 6))] == [int, Fraction]
        # a Fraction vector against an integer matrix
        out = Matrix([[2, 4], [1, 1]]).apply((Fraction(1, 2), Fraction(1, 4)))
        assert out == (2, Fraction(3, 4)) and type(out[0]) is int
        assert all(type(x) is int for x in Matrix([[1, 2]]).apply((Fraction(4, 2), 1)))

    def test_apply_does_not_clear_whole_fractions(self, monkeypatch):
        # ExtendedVector.s is a Fraction even when whole: such a vector is
        # the int vector, and the integer matrix needs no common denominator
        m = Matrix([[3, -1, 2], [0, 5, 7]])
        ints = m.apply((4, -2, 9))
        monkeypatch.setattr(lattice, "_cleared", None)  # m's integer rows are cached
        out = m.apply((Fraction(4), Fraction(-4, 2), 9))
        assert out == ints and all(type(x) is int for x in out)

    def test_apply_rejects_inexact_vectors(self):
        with pytest.raises(TypeError):
            Matrix([[1, 2]]).apply((0.5, 1))

    def test_power(self):
        s = Matrix([[0, 1], [1, 0]])
        assert s.power(0) == Matrix.identity(2)
        assert s.power(2) == Matrix.identity(2)
        assert s.power(5) == s

    def test_power_takes_an_exact_integer_exponent(self):
        # the exponent goes through as_rational, as CyclicRep's order does
        s = Matrix([[0, 1], [1, 0]])
        for bad in (True, 2.0):
            with pytest.raises(TypeError, match="exact number expected"):
                s.power(bad)
        with pytest.raises(ValueError, match="exponent must be an integer"):
            s.power(Fraction(1, 2))
        assert s.power(Fraction(6, 2)) == s

    def test_product_with_a_non_matrix_is_not_implemented(self):
        # this used to raise AttributeError from other.nrows
        m = Matrix([[1]])
        assert m.__matmul__(3) is NotImplemented
        with pytest.raises(TypeError):
            m @ 3

    def test_sum_and_difference_with_a_non_matrix_are_not_implemented(self):
        # these used to raise AttributeError from other.nrows
        m = Matrix([[1]])
        assert m.__add__(3) is NotImplemented and m.__sub__(3) is NotImplemented
        with pytest.raises(TypeError):
            m + 3
        with pytest.raises(TypeError):
            m - 3

    def test_trusted_constructors_reject_empty_shapes(self):
        for build in (lambda: Matrix.identity(0), lambda: Matrix.zero(0, 3),
                      lambda: Matrix.zero(3, 0), lambda: Matrix.diagonal([])):
            with pytest.raises(DimensionError):
                build()
        with pytest.raises(TypeError):
            Matrix.diagonal([0.5])

    def test_trusted_constructors_normalise(self):
        half = Matrix([[Fraction(1, 2)]])
        for m in (Matrix.diagonal([Fraction(2, 2)]), half + half):
            assert m == Matrix.identity(1) and m.is_integral and type(m[0, 0]) is int
        assert Matrix.diagonal([Fraction(1, 2), 3]) == Matrix([[Fraction(1, 2), 0], [0, 3]])
        assert not Matrix.diagonal([Fraction(1, 2), 3]).is_integral

    def test_results_agree_before_and_after_the_integer_form_is_cached(self):
        rows = [[Fraction(1, 2), 3, Fraction(-5, 6)], [2, Fraction(7, 4), 0], [Fraction(1, 3), 1, 1]]
        b = Matrix([[Fraction(2, 3), 1], [0, Fraction(-1, 2)], [5, 7]])
        m = Matrix(rows)
        before = (m @ b, rref(Matrix(rows)), rank(Matrix(rows)), det(Matrix(rows)))
        cached = m._ints()
        assert all(type(row) is tuple for row in cached[0])
        for _ in range(2):
            assert (m @ b, rref(m), rank(m), det(m)) == before
            assert (b.T @ m.T) == before[0].T
        assert m._ints() is cached

    def test_concurrent_products_fill_the_cache_consistently(self):
        rng = random.Random(5)
        rows_a = [[Fraction(rng.randint(-99, 99), rng.randint(1, 9)) for _ in range(12)] for _ in range(12)]
        rows_b = [[Fraction(rng.randint(-99, 99), rng.randint(1, 9)) for _ in range(12)] for _ in range(12)]
        expected = Matrix(rows_a) @ Matrix(rows_b)
        for _ in range(20):
            a, b = Matrix(rows_a), Matrix(rows_b)  # fresh: no integer form cached yet
            barrier = threading.Barrier(8)
            results = []

            def work():
                barrier.wait(timeout=10)
                results.append(a @ b)

            previous = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                threads = [threading.Thread(target=work) for _ in range(8)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=30)
            finally:
                sys.setswitchinterval(previous)
            assert not any(t.is_alive() for t in threads)
            assert len(results) == 8 and all(r == expected for r in results)

    def test_only_products_read_the_entry_sizes(self):
        # max |entry| and the nonzero count size the packed slots and pick
        # the product path; eliminating, applying or scaling never scans for them
        m = Matrix([[Fraction(1, 2), -3], [0, 5]])
        rank(m), det(m), rref(m), m.apply((1, 1)), m.scale(2)
        assert m._ints() == (((1, -6), (0, 10)), 2) and m._size is None
        assert m @ m == Matrix([[Fraction(1, 4), Fraction(-33, 2)], [0, 25]])
        assert m._sizes() == (10, 3)
        assert Matrix.zero(2, 3)._sizes() == (0, 0)


class TestDetInverse:
    def test_det_known(self):
        assert det(Matrix([[2, 0], [0, 3]])) == 6
        assert det(Matrix([[1, 2], [2, 4]])) == 0
        assert det(Matrix([[0, 1], [1, 0]])) == -1

    def test_det_matches_rational_path(self):
        rng = random.Random(7)
        for _ in range(25):
            n = rng.randint(1, 5)
            m = random_int_matrix(rng, n, n)
            scaled = m.scale(Fraction(1, 3))
            assert det(scaled) == Fraction(det(m), 3 ** n)

    def test_inverse_round_trip(self):
        rng = random.Random(11)
        for _ in range(20):
            n = rng.randint(1, 5)
            u = random_unimodular(rng, n)
            assert u @ inverse(u) == Matrix.identity(n)
            assert inverse(u).is_integral


class TestKernelAndSolve:
    def test_rref_divides_only_its_free_columns(self, monkeypatch):
        # pivot columns are unit vectors, written as they are; only the
        # free columns' back-substituted den x are divided by den
        divided = []
        monkeypatch.setattr(lattice, "_divided",
                            lambda values, d, f=lattice._divided: divided.append(len(values)) or f(values, d))
        reduced, pivots = rref(Matrix([[2, 4, 1, 3], [6, 3, 0, 1], [8, 7, 1, 4]]))
        assert pivots == (0, 1)
        assert reduced == Matrix([[1, 0, Fraction(-1, 6), Fraction(-5, 18)],
                                  [0, 1, Fraction(1, 3), Fraction(8, 9)], [0, 0, 0, 0]])
        assert divided == [2, 2] and not reduced.is_integral
        reduced, _ = rref(Matrix([[2, 4], [1, 3]]))
        assert reduced == Matrix.identity(2) and reduced.is_integral

    def test_kernel_identity_empty(self):
        assert kernel_basis(Matrix.identity(3)) == []

    def test_kernel_zero_full(self):
        basis = kernel_basis(Matrix.zero(4, 4))
        assert len(basis) == 4

    def test_kernel_rank_one(self):
        basis = kernel_basis(Matrix([[1, 1], [1, 1]]))
        assert len(basis) == 1
        v = basis[0]
        assert v[1] == -v[0] and v[0] != 0

    def test_kernel_properties_random(self):
        rng = random.Random(23)
        for _ in range(30):
            m = random_int_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
            basis = kernel_basis(m)
            assert len(basis) == m.ncols - rank(m)
            for v in basis:
                assert m.apply(v) == (0,) * m.nrows
            if basis:
                stacked = Matrix(list(basis))
                assert rank(stacked) == len(basis)

    def test_solve_rational(self):
        m = Matrix([[1, 1], [1, -1]])
        assert solve_rational(m, (2, 0)) == (1, 1)
        assert solve_rational(Matrix([[1, 1], [1, 1]]), (0, 1)) is None

    def test_rank_int_vs_rational_paths(self):
        rng = random.Random(45)
        for _ in range(30):
            m = random_int_matrix(rng, rng.randint(1, 6), rng.randint(1, 6))
            assert rank(m) == len(rref(m)[1])


# Three inputs, each with the U, D and V that smith_normal_form gives it and
# solve_integer's answers for a consistent right-hand side and for the same
# one with its first entry raised by 1.  Every pivot choice and every row
# operation of the Hermite passes shows in these entries, so a rewrite of
# _hnf or _smith has to leave them as they are.  The inputs: a square with
# D = diag(2, 6, 12), then dense 9x7 and 7x9 draws of random_int_matrix
# from one random.Random(20).
PINNED_SNF = [([[2, 4, 4], [-6, 6, 12], [10, -4, -16]], [[1, 0, 0], [-1, 3, 2], [3, -4, -3]],
  [[2, 0, 0], [0, 6, 0], [0, 0, 12]], [[1, -2, -2], [0, 1, 0], [0, 0, 1]],
  [([2, -30, 34], (5, -4, 2)), ([3, -30, 34], None)]),
 ([[-5, -1, -6, 1, 9, -4, -9], [4, 4, -7, -6, -5, 1, 6], [9, 5, 4, -3, -3, 1, 1],
   [1, 4, -7, 7, 6, 3, -7], [-3, 9, -2, -8, -3, -6, -7], [-3, -1, 0, 0, -1, -4, -6],
   [-9, -1, -2, -2, 9, -2, -8], [-9, 0, -1, -5, 1, 5, -5], [-1, 8, 4, -4, -4, 3, -6]],
  [[-356049596313063233, 35879674095457568, 101518328234020527, 142067708410013112,
    30224800270456436, 194739921180198005, 269302597256164755, 5978692471527488,
    -172926431437849219],
   [81124894729265105, -8175082387553159, -23130664312941774, -32369726039673623, -6886635360759936,
    -44370940927673562, -61359836042376902, -1362228190661544, 39400798909958758],
   [-8700183298989465, 876731063792620, 2480632116954744, 3471468910043959, 738552452386728,
    4758530910982307, 6580493232640714, 146091221361312, -4225511463370879],
   [-4200814279829349, 423322618131252, 1197753479644178, 1676171141243670, 356604175080945,
    2297618787432405, 3177338797357099, 70538983807800, -2040254588311116],
   [9082184242030, -915225895643, -2589549800117, -3623891491477, -770980244262, -4967464818811,
    -6869424457898, -152505682116, 4411041964093],
   [-19615413275, 1976675842, 5592827471, 7826765828, 1665138662, 10728572858, 14836364922,
    329376932, -9526828436],
   [-381378, 38432, 108740, 152174, 32375, 208593, 288460, 6404, -185228],
   [98828, -9964, -28176, -39432, -8384, -54057, -74755, -1654, 47992],
   [-804860, 81107, 229485, 321148, 68324, 440215, 608766, 13515, -390905]],
  [[1, 0, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0, 0], [0, 0, 1, 0, 0, 0, 0], [0, 0, 0, 1, 0, 0, 0],
   [0, 0, 0, 0, 1, 0, 0], [0, 0, 0, 0, 0, 1, 0], [0, 0, 0, 0, 0, 0, 1], [0, 0, 0, 0, 0, 0, 0],
   [0, 0, 0, 0, 0, 0, 0]],
  [[1, 0, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0, 0], [0, 0, 1, 0, 0, 0, 0], [0, 0, 0, 1, 0, 0, 0],
   [0, 0, 0, 0, 1, 0, 0], [0, 0, 0, 0, 0, 1, 0], [0, 0, 0, 0, 0, 0, 1]],
  [([51, 1, -28, 9, -45, -8, 36, -10, -75], (2, -5, -3, -2, 5, -1, 1)),
   ([52, 1, -28, 9, -45, -8, 36, -10, -75], None)]),
 ([[-5, 9, 4, 2, -2, -6, -8, 7, -3], [4, -4, -4, -7, -6, 0, -9, 1, 3],
   [5, 7, -8, -4, -6, 5, 8, 1, -9], [-7, 9, -6, -7, 1, -1, -7, 0, -8],
   [-9, -3, -2, 7, 7, -9, -4, -9, 7], [-5, 0, -5, 4, -1, -6, 3, -6, -3],
   [-2, -3, -2, -6, 0, -5, 8, 3, -5]],
  [[-73488, -278254, -4675, -43206, -226030, 219134, 236045],
   [-84049, -318242, -5347, -49415, -258513, 250626, 269967],
   [-32662, -123671, -2078, -19203, -100460, 97395, 104911],
   [-100568, -380789, -6398, -59127, -309321, 299884, 323026],
   [-39440, -149335, -2509, -23188, -121307, 117606, 126682],
   [-90113, -341202, -5733, -52980, -277164, 268708, 289444],
   [-101228, -383288, -6440, -59515, -311351, 301852, 325146]],
  [[1, 0, 0, 0, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0, 0, 0, 0], [0, 0, 1, 0, 0, 0, 0, 0, 0],
   [0, 0, 0, 1, 0, 0, 0, 0, 0], [0, 0, 0, 0, 1, 0, 0, 0, 0], [0, 0, 0, 0, 0, 1, 0, 0, 0],
   [0, 0, 0, 0, 0, 0, 3, 0, 0]],
  [[1, 0, 0, 0, 0, 0, 432, -1274, -256], [0, 1, 0, 0, 0, 0, 5470, -16115, -1020],
   [0, 0, 1, 0, 0, 0, 7530, -22176, -1429], [0, 0, 0, 1, 0, 0, -6648, 19568, 1230],
   [0, 0, 0, 0, 1, 0, -4167, 12270, 670], [0, 0, 0, 0, 0, 1, -2670, 7852, 596],
   [0, 0, 0, 0, 0, 0, 2612, -7693, -434], [0, 0, 0, 0, 0, 0, -8135, 23954, 1569],
   [0, 0, 0, 0, 0, 0, 3470, -10221, -539]],
  [([72, -8, -23, 89, 19, 5, 31],
    (-535154658, -6745228086, -9282445193, 8190451754, 5134678504, 3287670207, -3219472840,
     10026956950, -4277017900)),
   ([73, -8, -23, 89, 19, 5, 31], None)])]


class TestSmithNormalForm:
    def assert_valid_snf(self, m, u, d, v):
        assert det(u) in (1, -1) and det(v) in (1, -1)
        assert u @ m @ v == d
        k = min(m.nrows, m.ncols)
        diag = [d[i, i] for i in range(k)]
        for i in range(m.nrows):
            for j in range(m.ncols):
                if i != j:
                    assert d[i, j] == 0
        for i in range(k - 1):
            if diag[i]:
                assert diag[i + 1] % diag[i] == 0
            else:
                assert diag[i + 1] == 0
        assert all(x >= 0 for x in diag)
        # reconstruction through the inverses
        assert inverse(u) @ d @ inverse(v) == m

    def test_identity(self):
        eye = Matrix.identity(2)
        u, d, v = smith_normal_form(eye)
        assert (u, d, v) == (eye, eye, eye)

    def test_diag_2_3(self):
        m = Matrix([[2, 0], [0, 3]])
        u, d, v = smith_normal_form(m)
        self.assert_valid_snf(m, u, d, v)
        assert d == Matrix.diagonal([1, 6])

    def test_zero_1x1(self):
        u, d, v = smith_normal_form(Matrix([[0]]))
        assert d == Matrix([[0]])
        self.assert_valid_snf(Matrix([[0]]), u, d, v)

    def test_random(self):
        rng = random.Random(3)
        for _ in range(60):
            m = random_int_matrix(rng, rng.randint(1, 5), rng.randint(1, 5), bound=6)
            u, d, v = smith_normal_form(m)
            self.assert_valid_snf(m, u, d, v)

    def test_rejects_rational(self):
        with pytest.raises(ValueError):
            smith_normal_form(Matrix([[Fraction(1, 2)]]))

    def test_rejects_a_non_matrix(self):
        # this used to raise AttributeError from m.nrows
        with pytest.raises(TypeError, match="smith_normal_form needs a Matrix, got list"):
            smith_normal_form([[1, 2]])

    @pytest.mark.parametrize("rows, u, d, v, systems", PINNED_SNF, ids=["square", "tall", "wide"])
    def test_pinned_transforms(self, rows, u, d, v, systems):
        assert smith_normal_form(Matrix(rows)) == (Matrix(u), Matrix(d), Matrix(v))

    def test_dense_inputs_keep_small_transforms(self):
        # Dense inputs, square, tall and wide, are where U and V can grow:
        # without reduction modulo the pivots their entries reach thousands
        # of bits at 10x10, and the time grows with them.
        rng = random.Random(12)
        shapes = ((12, 12), (20, 20), (20, 12), (12, 20))
        inputs = [random_int_matrix(rng, nrows, ncols) for nrows, ncols in shapes]
        start = time.perf_counter()
        results = [smith_normal_form(m) for m in inputs]
        assert time.perf_counter() - start < 1.0
        for m, (u, d, v) in zip(inputs, results):
            self.assert_valid_snf(m, u, d, v)
            assert max(abs(x).bit_length() for t in (u, v) for row in t.entries for x in row) < 256


class TestSolveInteger:
    def test_examples(self):
        assert solve_integer(Matrix([[2]]), (4,)) == (2,)
        assert solve_integer(Matrix([[2]]), (3,)) is None

    def test_unimodular_unique(self):
        rng = random.Random(5)
        for _ in range(20):
            m = random_unimodular(rng, 3)
            b = tuple(rng.randint(-9, 9) for _ in range(3))
            x = solve_integer(m, b)
            assert x is not None
            assert m.apply(x) == b

    def test_against_brute_force(self):
        rng = random.Random(17)
        for _ in range(40):
            nrows, ncols = rng.randint(1, 2), rng.randint(1, 2)
            m = random_int_matrix(rng, nrows, ncols, bound=3)
            b = tuple(rng.randint(-4, 4) for _ in range(nrows))
            x = solve_integer(m, b)
            hits = brute_force_integer_solutions(m, b, bound=14)
            if x is None:
                # no solution in a generous box either
                assert hits == []
            else:
                assert m.apply(x) == b

    def test_dimension_error(self):
        with pytest.raises(DimensionError):
            solve_integer(Matrix([[1, 2]]), (1, 2))

    def test_rejects_a_non_matrix(self):
        # this used to raise AttributeError from m.nrows
        with pytest.raises(TypeError, match="solve_integer needs a Matrix, got list"):
            solve_integer([[1]], (1,))

    @pytest.mark.parametrize("rows, u, d, v, systems", PINNED_SNF, ids=["square", "tall", "wide"])
    def test_pinned_solutions(self, rows, u, d, v, systems):
        for b, x in systems:
            assert solve_integer(Matrix(rows), b) == x


NON_MATRIX_CALLS = {
    "rank": (), "det": (), "rref": (), "pivot_columns": (), "kernel_basis": (),
    "inverse": (), "solve_rational": ((1,),), "smith_normal_form": (), "solve_integer": ((1,),),
}


@pytest.mark.parametrize("name", sorted(NON_MATRIX_CALLS))
def test_a_non_matrix_is_refused_with_the_same_type_error(name):
    # rank, det, rref, pivot_columns, kernel_basis, inverse and
    # solve_rational used to raise AttributeError from deep inside
    with pytest.raises(TypeError, match=f"^{name} needs a Matrix, got list$"):
        getattr(lattice, name)([[1]], *NON_MATRIX_CALLS[name])


@pytest.mark.parametrize("call", [
    lambda: lattice.as_rational("1/0"),
    lambda: ExtendedVector(1, (), "1/0"),
    lambda: Matrix([[1]]).scale("1/0"),
], ids=["as_rational", "ExtendedVector", "scale"])
def test_a_zero_denominator_is_a_value_error_naming_the_text(call):
    # Fraction("1/0") raises ZeroDivisionError, which used to escape
    with pytest.raises(ValueError, match=r"^zero denominator in '1/0'$"):
        call()


@pytest.mark.parametrize("text", ["0.5", "1e3", " 1", "1_0", "+1", "1 / 2", "1/2/3", "²"])
def test_as_rational_refuses_text_outside_the_definitions_form(text):
    # Fraction() read the first six, some only on newer Pythons ('1_0' from
    # 3.11, '1 / 2' from 3.12); the library reads number text as --defs
    # files do, and names the text also where int() or Fraction() refuses it
    with pytest.raises(ValueError, match=f"^{re.escape(f'bad number {text!r}')}$"):
        lattice.as_rational(text)


@pytest.mark.parametrize("text, value", [("-3", -3), ("4/2", 2), ("-3/6", Fraction(-1, 2)), ("007", 7)])
def test_as_rational_reads_the_definitions_form(text, value):
    assert lattice.as_rational(text) == value
    assert type(lattice.as_rational(text)) is type(value)


class TestSolveRoute:
    """A system whose integer answer is unique, m of full column rank, is
    solved by one forward elimination; only wide and rank-deficient m run
    the Smith passes, and solve_rational never reduces [m | b]."""

    @pytest.fixture
    def smith_calls(self, monkeypatch):
        calls = []
        smith = lattice._smith

        def counted(*args):
            calls.append(args)
            return smith(*args)

        monkeypatch.setattr(lattice, "_smith", counted)
        return calls

    @pytest.mark.parametrize("rows, b, x", [
        ([[1, 2], [3, 4]], (5, 11), (1, 2)),  # det -2, the last pivot
        ([[2, 1], [1, 3], [1, 1]], (5, 5, 3), (2, 1)),  # tall, consistent
        ([[1, 0], [0, 1], [1, 1]], (1, 1, 3), None),  # tall, inconsistent over Q
        ([[2, 0], [0, 1], [2, 1]], (1, 1, 2), None),  # tall, solvable over Q, not over Z
    ], ids=["negative-det", "tall", "tall-inconsistent", "tall-rational-only"])
    def test_full_column_rank_runs_no_smith_pass(self, smith_calls, rows, b, x):
        assert solve_integer(Matrix(rows), b) == x
        assert smith_calls == []

    @pytest.mark.parametrize("rows, b", [
        ([[2, 4, 6]], (4,)),  # wide
        ([[1, 2], [2, 4]], (3, 6)),  # singular square
    ], ids=["wide", "singular"])
    def test_wide_and_rank_deficient_run_one_smith_pass_loop(self, smith_calls, rows, b):
        x = solve_integer(Matrix(rows), b)
        assert Matrix(rows).apply(x) == b
        assert len(smith_calls) == 1

    def test_solve_rational_reduces_nothing(self, monkeypatch):
        def refused(m):
            raise AssertionError("rref called")

        monkeypatch.setattr(lattice, "rref", refused)
        assert solve_rational(Matrix([[1, 2], [3, 4]]), (5, 10)) == (0, Fraction(5, 2))
        assert solve_rational(Matrix([[2, 0], [0, 1], [2, 1]]), (1, 1, 2)) == (Fraction(1, 2), 1)
        assert solve_rational(Matrix([[1, 2], [2, 4]]), (3, 6)) == (3, 0)
        assert solve_rational(Matrix([[1, 0], [0, 1], [1, 1]]), (1, 1, 3)) is None


class TestBilinearForm:
    def test_hyperbolic_pairing(self):
        u = BilinearForm.from_rows([[0, 1], [1, 0]])
        assert u.pair((1, 0), (0, 1)) == 1
        assert u.pair((1, 1), (1, 1)) == 2

    @pytest.mark.parametrize("bad", [0.5, 1.0, True, False], ids=repr)
    @pytest.mark.parametrize("first", [True, False], ids=["first", "second"])
    def test_refuses_a_float_or_bool_in_either_vector(self, bad, first):
        # a float in the first vector used to give a float (pair((0.5,), (1,)) was 1.0)
        form = BilinearForm.from_rows([[2, 1], [1, 2]])
        u, v = ((bad, 1), (1, 1)) if first else ((1, 1), (1, bad))
        with pytest.raises(TypeError, match="exact number expected"):
            form.pair(u, v)

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            BilinearForm.from_rows([[0, 1], [2, 0]])

    def test_rejects_degenerate(self):
        with pytest.raises(ValueError):
            BilinearForm.from_rows([[1, 1], [1, 1]])

    def test_dimension_is_an_exact_integer(self):
        # bools and floats used to be stored as the dimension
        for bad in (True, 1.0):
            with pytest.raises(TypeError, match="exact number expected"):
                BilinearForm(bad, Matrix([[1]]))
        with pytest.raises(DimensionError, match="does not match the stated dimension"):
            BilinearForm(Fraction(1, 2), Matrix([[1]]))
        form = BilinearForm(Fraction(2, 2), Matrix([[1]]))
        assert form.dim == 1 and type(form.dim) is int


SRC = Path(__file__).resolve().parent.parent / "src" / "fmlattice"


def tuples_over_iterators(tree):
    """Line numbers of tuple(...) calls over a generator expression or a
    map, zip or filter call, which CPython builds by resizing."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "tuple" and node.args:
            arg = node.args[0]
            if isinstance(arg, ast.GeneratorExp) or (isinstance(arg, ast.Call) and isinstance(arg.func, ast.Name)
                                                     and arg.func.id in ("map", "zip", "filter")):
                yield node.lineno


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda path: path.name)
def test_no_tuple_is_built_straight_from_an_iterator(path):
    # the lattice module docstring: a resized tuple that is freed lands on a
    # per-size free list that only a full collection empties, so a long
    # session of cheap calls raises peak memory; build tuples from lists
    lines = list(tuples_over_iterators(ast.parse(path.read_text(encoding="utf-8"))))
    assert lines == [], f"{path.name}: tuple() over an iterator on lines {lines}"


def integer_row_loops(tree):
    """Line numbers of sum(map(mul, ...)), the loop that applies an integer
    row to a vector."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "sum"
                and node.args and isinstance(arg := node.args[0], ast.Call)
                and isinstance(arg.func, ast.Name) and arg.func.id == "map"
                and arg.args and isinstance(arg.args[0], ast.Name) and arg.args[0].id == "mul"):
            yield node.lineno


# a matrix meets a vector in lattice._image and two vectors meet in
# lattice._pairing, so class pairings stay inside the kernel; the orbit
# loop of averaging.descend_invariant stays inline for speed
ROW_LOOP_MODULES = ("lattice.py", "averaging.py")


@pytest.mark.parametrize("path", [path for path in sorted(SRC.glob("*.py")) if path.name not in ROW_LOOP_MODULES],
                         ids=lambda path: path.name)
def test_integer_rows_are_applied_only_in_the_kernel(path):
    lines = list(integer_row_loops(ast.parse(path.read_text(encoding="utf-8"))))
    assert lines == [], f"{path.name}: sum(map(mul, ...)) on lines {lines}"


def test_the_integer_row_lint_finds_the_form_it_refuses():
    source = ("sum(map(mul, row, v))\nsum(map(mul, u, [sum(map(mul, r, v)) for r in rows]))\n"
              "sum(map(add, u, v))\nsum([x * y for x, y in zip(u, v)])\nmax(map(mul, u, v))\n")
    assert list(integer_row_loops(ast.parse(source))) == [1, 2, 2]
    assert {path.name for path in SRC.glob("*.py")} >= {*ROW_LOOP_MODULES, "surfaces.py", "descent.py"}
    for name in ROW_LOOP_MODULES:  # the exempt modules still hold the loop the lint keeps out of the rest
        assert list(integer_row_loops(ast.parse((SRC / name).read_text(encoding="utf-8"))))


def number_reads(tree):
    """Line numbers of int(...) and Fraction(...) calls."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id in ("int", "Fraction"):
            yield node.lineno


# number text is read by lattice._number alone, so the parser and the
# command line read it as the library does
@pytest.mark.parametrize("name", ["defsio.py", "cli.py"])
def test_the_parser_and_the_command_line_read_no_number_themselves(name):
    lines = list(number_reads(ast.parse((SRC / name).read_text(encoding="utf-8"))))
    assert lines == [], f"{name}: int() or Fraction() on lines {lines}"


def test_the_number_read_lint_finds_the_form_it_refuses():
    source = ("int(text)\nFraction(text)\nx = [int(t) for t in f(Fraction(1, 2))]\n"
              "_number(text)\nisinstance(x, int)\nfractions.Fraction(text)\nkw.get('type', int)\n")
    assert list(number_reads(ast.parse(source))) == [1, 2, 3, 3]
    assert list(number_reads(ast.parse((SRC / "lattice.py").read_text(encoding="utf-8"))))


def test_the_tuple_lint_finds_each_form_it_refuses():
    source = ("tuple(x for x in y)\ntuple(map(f, y))\ntuple(zip(a, b))\ntuple(filter(None, y))\n"
              "tuple([x for x in y])\ntuple(list(zip(a, b)))\ntuple(y)\nsum(x for x in y)\n")
    assert list(tuples_over_iterators(ast.parse(source))) == [1, 2, 3, 4]
    assert len(sorted(SRC.glob("*.py"))) >= 10  # the scan sees the package
