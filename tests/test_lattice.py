import itertools
import random
from fractions import Fraction

import pytest

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

    def test_products_at_the_slot_bound(self):
        # entries of +-k M^2 = +-bias fill a packed slot from end to end
        for m in (1, 7, 2**64, 2**200 + 1):
            for k in (1, 2, 5):
                a = Matrix([[m] * k, [-m] * k])
                b = Matrix([[m, -m, 0]] * k)
                assert a @ b == Matrix([[k * m * m, -k * m * m, 0], [-k * m * m, k * m * m, 0]])
                assert a.apply((m,) * k) == (k * m * m, -k * m * m)
                half = b.scale(Fraction(1, 2))
                assert a @ half == Matrix([[Fraction(k * m * m, 2), Fraction(-k * m * m, 2), 0],
                                           [Fraction(-k * m * m, 2), Fraction(k * m * m, 2), 0]])

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

    def test_apply_rejects_inexact_vectors(self):
        with pytest.raises(TypeError):
            Matrix([[1, 2]]).apply((0.5, 1))

    def test_power(self):
        s = Matrix([[0, 1], [1, 0]])
        assert s.power(0) == Matrix.identity(2)
        assert s.power(2) == Matrix.identity(2)
        assert s.power(5) == s


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


class TestBilinearForm:
    def test_hyperbolic_pairing(self):
        u = BilinearForm.from_rows([[0, 1], [1, 0]])
        assert u.pair((1, 0), (0, 1)) == 1
        assert u.pair((1, 1), (1, 1)) == 2

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            BilinearForm.from_rows([[0, 1], [2, 0]])

    def test_rejects_degenerate(self):
        with pytest.raises(ValueError):
            BilinearForm.from_rows([[1, 1], [1, 1]])
