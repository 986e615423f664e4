import random
import re
import time
from fractions import Fraction

import pytest

from fmlattice import averaging
from fmlattice.averaging import (
    MAX_ORDER,
    CyclicRep,
    KerImReport,
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
        assert norm_operator(CyclicRep(MAX_ORDER, 1, Matrix([[1]]))) == Matrix([[MAX_ORDER]])

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
        report = verify_ker_im(CyclicRep(MAX_ORDER, 2, Matrix.identity(2)))
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

    @pytest.mark.parametrize("seed", range(6))
    def test_makes_no_product_beyond_the_powers(self, monkeypatch, seed):
        # N B = B N = 0 holds by telescoping; the check must not multiply
        # N and B out again
        rep = random_rep(random.Random(seed), max_order=12, max_dim=10)
        products = 0
        matmul = Matrix.__matmul__

        def counted(a, b):
            nonlocal products
            products += 1
            return matmul(a, b)

        monkeypatch.setattr(Matrix, "__matmul__", counted)
        rep.powers()
        for_powers, products = products, 0
        verify_ker_im(rep)
        assert products <= for_powers

    @pytest.mark.parametrize("seed", range(4))
    def test_takes_rank_n_from_the_trace(self, monkeypatch, seed):
        # dim ker N = dim - tr(S)/t: N is not formed, and the one
        # elimination is the rank of B
        calls = {"norm_operator": 0, "rank": 0}
        for name in calls:
            monkeypatch.setattr(averaging, name, lambda *args, name=name, f=getattr(averaging, name):
                                calls.__setitem__(name, calls[name] + 1) or f(*args))
        rep = random_rep(random.Random(seed), max_order=12, max_dim=10)
        report = verify_ker_im(rep)
        assert calls == {"norm_operator": 0, "rank": 1}
        assert report.dim_ker_norm == rep.dim - rank(norm_operator(rep))

    @pytest.mark.parametrize("rep", [regular_rep(n) for n in (1, 2, 3, 4, 5, 6, 7, 8, 12, 13)]
                             + [random_rep(random.Random(seed), max_order=(12, 60, 1000)[seed % 3], max_dim=12)
                                for seed in range(12)],
                             ids=[f"regular{n}" for n in (1, 2, 3, 4, 5, 6, 7, 8, 12, 13)]
                             + [f"random{seed}" for seed in range(12)])
    def test_products_stop_at_a_quarter_of_the_order(self, monkeypatch, rep):
        # tr N pairs powers up to g^m, m = ceil(floor(n/2)/2), and folds
        # tr g^(n-k) = tr g^k; a power equal to 1 stops the chain at the
        # true order t, so it never makes more than the t - 1 of powers()
        t, n = len(rep.powers()), rep.order
        m = (n // 2 + 1) // 2
        products = 0
        matmul = Matrix.__matmul__

        def counted(a, b):
            nonlocal products
            products += 1
            return matmul(a, b)

        monkeypatch.setattr(Matrix, "__matmul__", counted)
        report = verify_ker_im(rep)
        assert products <= max(t - 1, 0)
        assert products <= max(min(t, m) - 1, 0)  # m - 1 when t = n
        assert report.holds

    @pytest.mark.parametrize("order, rows, dim_ker", [
        (1, [[1, 0], [0, 1]], 0),  # n = 1: no power at all, tr N = d = rank N
        (2, [[0, 1], [1, 0]], 1),  # n = 2: tr N = d + tr g^(n/2) = 2 + 0
        (2, [[-1]], 1),  # tr N = 1 - 1 = 0
        (3, [[0, -1], [1, -1]], 2),  # n = 3: tr N = d + 2 tr g = 2 - 2 = 0
        (3, [[0, 0, 1], [1, 0, 0], [0, 1, 0]], 2),  # 3 + 2 * 0 = 3, rank N = 1
        (4, [[0, -1], [1, 0]], 2),  # n = 4: tr N = d + 2 tr g + tr g^2, g^2 paired from g, g: 2 + 0 - 2
        (4, [[1, 0], [0, -1]], 1),  # true order 2 > m = 1: tr g^2 = 2 by pairing, tr N = 2 + 0 + 2 = 4
        (4, [[0, Fraction(-1, 2)], [2, 0]], 2),  # rational, tr g^2 = -2 from the cleared rows over 2 * 2
        (4, [[0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]], 3),  # 4 + 2 * 0 + 0 = 4, rank N = 1
    ])
    def test_hand_derived_traces_at_the_edges_of_the_symmetric_sum(self, order, rows, dim_ker):
        rep = CyclicRep(order, len(rows), Matrix(rows))
        assert verify_ker_im(rep) == KerImReport(True, dim_ker, dim_ker)
        assert dim_ker == rep.dim - rank(norm_operator(rep))

    def test_a_trace_that_is_not_a_multiple_of_the_order_raises(self, monkeypatch):
        # tr N / n is an integer for every representation; a wrong pairing
        # must not round to a rank
        rep = CyclicRep(4, 2, Matrix([[0, -1], [1, 0]]))
        monkeypatch.setattr(averaging, "_pairing", lambda a, b: 1)
        with pytest.raises(ArithmeticError, match="^tr N = 3 is not a multiple of the order 4$"):
            verify_ker_im(rep)

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

    def test_whole_space_gives_the_cyclic_average(self):
        # every invariant vector is a representative here; the average of
        # the orbit {(3, -5), (-5, 3)} is the one returned
        swap = CyclicRep(2, 2, Matrix([[0, 1], [1, 0]]))
        assert descend_invariant(swap, [(1, 0), (0, 1)], (3, -5)) == (-1, -1)
        # the orbit of e_0 under the 3-cycle is e_0, e_1, e_2
        whole = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
        assert descend_invariant(regular_rep(3), whole, (1, 0, 0)) == (Fraction(1, 3),) * 3

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

    @staticmethod
    def counted_eliminations(monkeypatch):
        calls = []
        pivot_columns = averaging.pivot_columns
        monkeypatch.setattr(averaging, "pivot_columns", lambda m: calls.append(m) or pivot_columns(m))
        return calls

    def test_one_image_a_spanning_vector_and_one_outside_is_not_stable(self, monkeypatch):
        # g e0 = e1 is a spanning vector and left out; g e1 = e2 leaves the span
        calls = self.counted_eliminations(monkeypatch)
        with pytest.raises(ValueError, match="^subspace is not stable under the group generator$"):
            descend_invariant(regular_rep(3), [(1, 0, 0), (0, 1, 0)], (1, 0, 0))
        assert [m.ncols for m in calls] == [4]  # [S | g e1 | B s], B s = e0 - e1 not being a spanning vector

    def test_stable_span_that_misses_b_s(self, monkeypatch):
        # the 4-cycle swaps e0 + e2 and e1 + e3, so only B s = e0 - e1 is eliminated
        calls = self.counted_eliminations(monkeypatch)
        with pytest.raises(ValueError, match="^B s does not lie in the subspace$"):
            descend_invariant(regular_rep(4), [(1, 0, 1, 0), (0, 1, 0, 1)], (1, 0, 0, 0))
        assert [m.ncols for m in calls] == [3]

    def test_orbit_span_of_b_s_runs_no_elimination(self, monkeypatch):
        # B e0 = e0 - e1, and g permutes e0 - e1, e1 - e2, e2 - e0
        calls = self.counted_eliminations(monkeypatch)
        orbit = [(1, -1, 0), (0, 1, -1), (-1, 0, 1)]
        assert descend_invariant(regular_rep(3), orbit, (1, 0, 0)) == (Fraction(1, 3),) * 3
        assert calls == []

    def test_an_image_in_the_span_but_not_spanning_is_eliminated(self, monkeypatch):
        # g (e1 - e2) = e2 - e0 = -(e0 - e1) - (e1 - e2): no pivot, so the
        # average; B s = e0 - e1 is a spanning vector and left out
        calls = self.counted_eliminations(monkeypatch)
        assert descend_invariant(regular_rep(3), [(1, -1, 0), (0, 1, -1)], (2, 1, 1)) == (Fraction(4, 3),) * 3
        assert [m.ncols for m in calls] == [3]

    @pytest.mark.parametrize("seed", range(8))
    def test_orbit_span_of_b_s_makes_no_product(self, monkeypatch, seed):
        # g's images on the orbit of B s are read off the orbit of s: with
        # integral or rational s and generator, no Matrix product is made
        rng = random.Random(seed)
        rep = random_rep(rng, max_order=12, max_dim=10)
        s = tuple([Fraction(rng.randint(-6, 6), rng.choice((1, 2, 3))) if seed % 2 else rng.randint(-4, 4)
                   for _ in range(rep.dim)])
        span, v = [], difference_operator(rep).apply(s)
        for _ in range(rep.order):
            span.append(v)
            v = rep.gen.apply(v)
        products = 0
        matmul = Matrix.__matmul__

        def counted(a, b):
            nonlocal products
            products += 1
            return matmul(a, b)

        monkeypatch.setattr(Matrix, "__matmul__", counted)
        calls = self.counted_eliminations(monkeypatch)
        t = descend_invariant(rep, span, s)
        assert (products, calls) == (0, [])
        monkeypatch.undo()
        assert difference_operator(rep).apply(t) == (0,) * rep.dim

    def test_some_generators_of_the_product_free_case_are_rational(self):
        # the seeds above cover rational generators as well as integral ones
        reps = [random_rep(random.Random(seed), max_order=12, max_dim=10) for seed in range(8)]
        assert {rep.gen.is_integral for rep in reps} == {True, False}


class TestArgumentTypes:
    @pytest.mark.parametrize("name, call", [
        ("verify_ker_im", verify_ker_im),
        ("norm_operator", norm_operator),
        ("difference_operator", difference_operator),
        ("descend_invariant", lambda rep: descend_invariant(rep, [(1, 0)], (1, 0))),
        ("descend_invariant", lambda rep: descend_invariant(rep, [], (1, 0))),
    ], ids=["verify_ker_im", "norm_operator", "difference_operator", "descend_invariant", "descend_empty_span"])
    @pytest.mark.parametrize("gen", [Matrix([[0, 1], [1, 0]]), [[0, 1], [1, 0]]], ids=["Matrix", "list"])
    def test_a_generator_in_place_of_a_rep_is_a_type_error(self, name, call, gen):
        # one TypeError naming the function, not an AttributeError from inside
        with pytest.raises(TypeError, match=f"^{name} needs a CyclicRep, got {type(gen).__name__}$"):
            call(gen)


class TestConstruction:
    def test_rejects_wrong_order(self):
        with pytest.raises(ValueError, match="^generator does not have order dividing 3$"):
            CyclicRep(3, 2, Matrix([[-1, 0], [0, 1]]))

    def test_rejects_shape(self):
        with pytest.raises(ValueError, match="^generator must be 3x3$"):
            CyclicRep(2, 3, Matrix.identity(2))

    def test_rejects_bool_and_float_order_and_dim(self):
        swap = Matrix([[0, 1], [1, 0]])
        with pytest.raises(TypeError, match="bool"):
            CyclicRep(True, 1, Matrix([[1]]))
        with pytest.raises(TypeError, match="bool"):
            CyclicRep(2, True, Matrix([[1]]))
        with pytest.raises(TypeError, match="float"):
            CyclicRep(2.0, 2, swap)
        with pytest.raises(TypeError, match="float"):
            CyclicRep(2, 2.0, swap)

    @pytest.mark.parametrize("field", ["order", "dim"])
    @pytest.mark.parametrize("text", ["1e3", "0.5", " 2", "2_0"])
    def test_rejects_order_and_dim_text_outside_the_definitions_form(self, field, text):
        # as_rational handed these to Fraction(), which built order 1000 from '1e3'
        fields = {"order": 1, "dim": 1, "gen": Matrix([[1]])}
        fields[field] = text
        with pytest.raises(ValueError, match=f"^{re.escape(f'bad number {text!r}')}$"):
            CyclicRep(**fields)

    @pytest.mark.parametrize("field", ["order", "dim"])
    @pytest.mark.parametrize("value", [Fraction(3, 2), 0, -2])
    def test_rejects_order_and_dim_that_are_not_positive_integers(self, field, value):
        fields = {"order": 2, "dim": 2, "gen": Matrix([[0, 1], [1, 0]])}
        fields[field] = value
        with pytest.raises(ValueError, match=f"^{field} must be a positive integer$"):
            CyclicRep(**fields)

    def test_rejects_an_order_above_the_cap_before_the_power_gate(self):
        # check_equivariant lists one exponent per element of the order
        assert MAX_ORDER == 1000
        with pytest.raises(ValueError, match="^order must be at most 1000$"):
            CyclicRep(1001, 1, Matrix([[1]]))
        with pytest.raises(ValueError, match="^order must be at most 1000$"):
            CyclicRep(10**9, 2, Matrix([[1, 1], [0, 1]]))  # no power of it is taken

    def test_whole_fraction_order_and_dim_become_ints(self):
        rep = CyclicRep(Fraction(4, 2), Fraction(2), Matrix([[0, 1], [1, 0]]))
        assert (rep.order, rep.dim) == (2, 2)
        assert type(rep.order) is int and type(rep.dim) is int

    def test_powers_stop_at_the_true_order(self):
        swap = Matrix([[0, 1], [1, 0]])
        assert CyclicRep(12, 2, swap).powers() == [Matrix.identity(2), swap]
        assert CyclicRep(MAX_ORDER, 2, Matrix.identity(2)).powers() == [Matrix.identity(2)]
        assert len(regular_rep(6).powers()) == 6

    def test_cyclotomic_polynomials(self):
        assert _cyclotomic(1) == (-1, 1)
        assert _cyclotomic(2) == (1, 1)
        assert _cyclotomic(3) == (1, 1, 1)
        assert _cyclotomic(4) == (1, 0, 1)
        assert _cyclotomic(6) == (1, -1, 1)
        assert _cyclotomic(12) == (1, 0, -1, 0, 1)

    def test_random_rep_is_quick_for_any_max_order(self):
        # only divisors up to 2 max_dim^2 can give a block, so the order's
        # size does not matter up to the largest order a CyclicRep takes
        rng = random.Random(3)
        start = time.perf_counter()
        for _ in range(20):
            rep = random_rep(rng, max_order=MAX_ORDER, max_dim=8)
            assert 1 <= rep.dim <= 8
        assert time.perf_counter() - start < 5

    @pytest.mark.parametrize("max_order, max_dim", [(10**6, 4), (MAX_ORDER + 1, 4), (0, 4), (-3, 4),
                                                    (12, 0), (12, -1)])
    def test_random_rep_checks_its_bounds_before_it_draws(self, max_order, max_dim):
        # an order above the cap used to be refused only on seeds that drew
        # above it, and max_order = 0 raised randrange's "empty range"
        for seed in range(6):
            rng = random.Random(seed)
            state = rng.getstate()
            with pytest.raises(ValueError, match=f"random_rep needs 1 <= max_order <= {MAX_ORDER} and max_dim >= 1"):
                random_rep(rng, max_order=max_order, max_dim=max_dim)
            assert rng.getstate() == state
        assert random_rep(random.Random(0), max_order=MAX_ORDER, max_dim=1).dim == 1

    def test_random_rep_reads_its_bounds_as_cyclic_rep_does(self):
        # bools and floats never reach randrange; whole Fractions draw as ints
        rng = random.Random(0)
        state = rng.getstate()
        for max_order, max_dim in ((True, 3), (12, True), (12.0, 3), (12, 3.0)):
            with pytest.raises(TypeError):
                random_rep(rng, max_order, max_dim)
        for max_order, max_dim in ((Fraction(25, 2), 3), (12, Fraction(7, 2))):
            with pytest.raises(ValueError, match="^random_rep needs integer max_order and max_dim$"):
                random_rep(rng, max_order, max_dim)
        assert rng.getstate() == state
        assert random_rep(rng, Fraction(24, 2), Fraction(3)) == random_rep(random.Random(0), 12, 3)

    def test_random_rep_refuses_max_dim_above_its_ceiling(self):
        # the change of basis is dense, so a ceiling keeps one call's memory bounded
        assert averaging.MAX_RANDOM_DIM >= 64
        for max_dim in (averaging.MAX_RANDOM_DIM + 1, 10**12):
            rng = random.Random(0)
            state = rng.getstate()
            with pytest.raises(ValueError, match=f"^random_rep needs max_dim <= {averaging.MAX_RANDOM_DIM}$"):
                random_rep(rng, max_order=12, max_dim=max_dim)
            assert rng.getstate() == state
        assert random_rep(random.Random(0), max_order=2, max_dim=averaging.MAX_RANDOM_DIM).dim >= 1

    def test_one_fill_pass_builds_one_block(self, monkeypatch):
        # the candidates are (builder, argument) pairs: only the drawn one is built
        built, chosen = [], []
        for name in ("_cycle_matrix", "_companion"):
            original = getattr(averaging, name)
            monkeypatch.setattr(averaging, name,
                                lambda arg, original=original: built.append(original(arg)) or built[-1])
        block_diagonal = averaging.block_diagonal
        monkeypatch.setattr(averaging, "block_diagonal",
                            lambda blocks: chosen.append(len(blocks)) or block_diagonal(blocks))
        rng = random.Random(21)
        for _ in range(40):
            del built[:], chosen[:]
            rep = random_rep(rng, max_order=12, max_dim=20)
            assert chosen == [len(built)] and sum(b.nrows for b in built) == rep.dim

    def test_random_rep_bounds(self):
        rng = random.Random(55)
        for _ in range(40):
            rep = random_rep(rng, max_order=12, max_dim=20)
            assert 1 <= rep.order <= 12
            assert 1 <= rep.dim <= 20
