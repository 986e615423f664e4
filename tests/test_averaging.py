import random
from fractions import Fraction

import pytest

from fmlattice.averaging import (
    CyclicRep,
    descend_invariant,
    difference_operator,
    norm_operator,
    random_rep,
    verify_ker_im,
    _cyclotomic,
)
from fmlattice.lattice import Matrix, rank


def regular_rep(n):
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        rows[(i + 1) % n][i] = 1
    return CyclicRep(n, n, Matrix(rows))


class TestOperators:
    def test_trivial_rep_norm(self):
        rep = CyclicRep(3, 2, Matrix.identity(2))
        assert norm_operator(rep) == Matrix.identity(2).scale(3)

    def test_regular_rep_norm_is_all_ones(self):
        rep = regular_rep(3)
        assert norm_operator(rep) == Matrix([[1, 1, 1], [1, 1, 1], [1, 1, 1]])

    def test_order_one_norm(self):
        rep = CyclicRep(1, 3, Matrix.identity(3))
        assert norm_operator(rep) == Matrix.identity(3)

    def test_norm_stops_at_the_true_order(self):
        # the stated order is only known to be a multiple of the true one
        assert norm_operator(CyclicRep(12, 2, Matrix([[0, 1], [1, 0]]))) == Matrix([[6, 6], [6, 6]])
        assert norm_operator(CyclicRep(10**9, 1, Matrix([[1]]))) == Matrix([[10**9]])

    def test_trivial_rep_difference(self):
        rep = CyclicRep(2, 2, Matrix.identity(2))
        assert difference_operator(rep) == Matrix.zero(2, 2)

    def test_regular_rep_difference(self):
        rep = regular_rep(2)
        assert difference_operator(rep) == Matrix([[1, -1], [-1, 1]])

    def test_sign_rep_difference(self):
        rep = CyclicRep(2, 1, Matrix([[-1]]))
        assert difference_operator(rep) == Matrix([[2]])


class TestKerIm:
    def test_trivial_rep(self):
        for d in (1, 3, 5):
            report = verify_ker_im(CyclicRep(4, d, Matrix.identity(d)))
            assert report.holds
            assert report.dim_ker_norm == 0 and report.rank_difference == 0

    def test_huge_stated_order_returns(self):
        report = verify_ker_im(CyclicRep(10**9, 2, Matrix.identity(2)))
        assert report.holds
        assert report.dim_ker_norm == 0 and report.rank_difference == 0

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 6, 8, 12])
    def test_regular_reps(self, n):
        report = verify_ker_im(regular_rep(n))
        assert report.holds
        assert report.dim_ker_norm == n - 1
        assert report.rank_difference == n - 1

    def test_random_conjugated_reps(self):
        rng = random.Random(31)
        for _ in range(60):
            rep = random_rep(rng, max_order=12, max_dim=12)
            report = verify_ker_im(rep)
            assert report.holds

    def test_operator_identities_random(self):
        rng = random.Random(32)
        for _ in range(30):
            rep = random_rep(rng, max_order=10, max_dim=10)
            a = norm_operator(rep)
            b = difference_operator(rep)
            zero = Matrix.zero(rep.dim, rep.dim)
            assert a @ b == zero and b @ a == zero
            # dim ker(norm) = dim - dim ker(difference): both count the
            # non-invariant directions
            assert rep.dim - rank(a.T) >= 0
            assert (rep.dim - rank(a)) == rank(b)

    def test_explicit_membership_small(self):
        from fmlattice.lattice import kernel_basis, solve_rational
        rng = random.Random(33)
        for _ in range(15):
            rep = random_rep(rng, max_order=6, max_dim=6)
            a = norm_operator(rep)
            b = difference_operator(rep)
            for v in kernel_basis(a):
                assert solve_rational(b, v) is not None  # ker(N) inside im(B)
            for j in range(rep.dim):
                col = b.column(j)
                assert a.apply(col) == (0,) * rep.dim  # im(B) inside ker(N)


class TestDescendInvariant:
    def test_already_invariant(self):
        rep = regular_rep(2)
        s = (1, 1)
        t = descend_invariant(rep, [(1, -1)], s)
        assert t == (1, 1)

    def test_regular_two_example(self):
        rep = regular_rep(2)
        t = descend_invariant(rep, [(1, -1)], (1, 0))
        assert t == (Fraction(1, 2), Fraction(1, 2))

    def test_whole_space(self):
        rng = random.Random(41)
        for _ in range(10):
            rep = random_rep(rng, max_order=6, max_dim=5)
            d = rep.dim
            span = [tuple(int(i == j) for i in range(d)) for j in range(d)]
            s = tuple(rng.randint(-4, 4) for _ in range(d))
            t = descend_invariant(rep, span, s)
            b = difference_operator(rep)
            assert b.apply(t) == (0,) * d

    def test_properties_random(self):
        from fmlattice.lattice import Matrix as M, solve_rational
        rng = random.Random(42)
        checked = 0
        while checked < 12:
            rep = random_rep(rng, max_order=8, max_dim=6)
            b = difference_operator(rep)
            # build a stable subspace: the image of B is always gen-stable
            cols = [b.column(j) for j in range(rep.dim)]
            if not any(any(c) for c in cols):
                continue
            s = tuple(rng.randint(-3, 3) for _ in range(rep.dim))
            t = descend_invariant(rep, cols, s)
            assert b.apply(t) == (0,) * rep.dim
            diff = tuple(a - bb for a, bb in zip(s, t))
            assert solve_rational(M.from_columns(cols), diff) is not None
            checked += 1

    def test_empty_subspace_returns_normalised_entries(self):
        rep = CyclicRep(2, 2, Matrix.identity(2))
        t = descend_invariant(rep, [], (Fraction(1), Fraction(4, 2)))
        assert t == (1, 2) and all(type(x) is int for x in t)
        t = descend_invariant(rep, [], (Fraction(1, 2), 3))
        assert t == (Fraction(1, 2), 3) and type(t[1]) is int

    def test_unstable_subspace_rejected(self):
        rep = regular_rep(3)
        with pytest.raises(ValueError, match="not stable"):
            descend_invariant(rep, [(1, 0, 0)], (1, 0, 0))

    def test_bs_outside_subspace_rejected(self):
        rep = regular_rep(2)
        with pytest.raises(ValueError, match="B s"):
            descend_invariant(rep, [(1, 1)], (1, 0))


class TestConstruction:
    def test_rejects_wrong_order(self):
        with pytest.raises(ValueError, match="^generator does not have order dividing 3$"):
            CyclicRep(3, 2, Matrix([[-1, 0], [0, 1]]))

    def test_rejects_shape(self):
        with pytest.raises(ValueError, match="^generator must be 3x3$"):
            CyclicRep(2, 3, Matrix.identity(2))

    def test_powers_stop_at_the_true_order(self):
        swap = Matrix([[0, 1], [1, 0]])
        assert CyclicRep(12, 2, swap).powers() == [Matrix.identity(2), swap]
        assert CyclicRep(10**9, 2, Matrix.identity(2)).powers() == [Matrix.identity(2)]
        assert len(regular_rep(6).powers()) == 6

    def test_cyclotomic_polynomials(self):
        assert _cyclotomic(1) == (-1, 1)
        assert _cyclotomic(2) == (1, 1)
        assert _cyclotomic(3) == (1, 1, 1)
        assert _cyclotomic(4) == (1, 0, 1)
        assert _cyclotomic(6) == (1, -1, 1)
        assert _cyclotomic(12) == (1, 0, -1, 0, 1)

    def test_random_rep_bounds(self):
        rng = random.Random(55)
        for _ in range(40):
            rep = random_rep(rng, max_order=12, max_dim=20)
            assert 1 <= rep.order <= 12
            assert 1 <= rep.dim <= 20
