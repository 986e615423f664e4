import random
from fractions import Fraction
from pathlib import Path

import pytest

from fmlattice import covers
from fmlattice.averaging import CyclicRep
from fmlattice.catalog import builtin_catalog
from fmlattice.covers import CoverTransfer, validate_cover
from fmlattice.defsio import load_definitions
from fmlattice.lattice import BilinearForm, Matrix
from fmlattice.descent import orbit_sum
from fmlattice.surfaces import ExtendedVector, InvariantError, NumericalSurface
from fmlattice.transport import (
    GActionLattice,
    LatticeIsometry,
    LiftFamily,
    check_equivariant,
    check_order_compatibility,
    descend_isometry,
    identity_isometry,
    lift_isometry,
    minus_one,
    num_negation,
    tensor_twist,
)

CATALOG = builtin_catalog()
PRODUCT = CATALOG.surfaces["product_elliptic"]
BI2 = CATALOG.covers["bielliptic_cover_2"]
SWAP_EXT = Matrix([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]])


def random_base_isometry(rng, surface):
    """A random word in isometries that genuinely lift along the catalog
    covers: line-bundle twists, total negation, negation on Num."""
    moves = [minus_one(surface), num_negation(surface)]
    for j in range(surface.dim):
        ell = tuple(int(i == j) for i in range(surface.dim))
        moves.append(tensor_twist(surface, ell))
        moves.append(tensor_twist(surface, tuple(-x for x in ell)))
    if surface.dim >= 2:
        moves.append(tensor_twist(surface, (1,) * surface.dim))
    mat = Matrix.identity(surface.extended_dim())
    for _ in range(rng.randint(2, 6)):
        mat = mat @ rng.choice(moves).mat
    return LatticeIsometry(surface, surface, mat)


class TestIsometryTypes:
    def test_standard_isometries_validate(self):
        for surface in CATALOG.surfaces.values():
            identity_isometry(surface)
            minus_one(surface)
            num_negation(surface)

    def test_tensor_twist_is_isometry(self):
        tensor_twist(PRODUCT, (1, 0))
        tensor_twist(PRODUCT, (2, -3))
        tensor_twist(CATALOG.surfaces["enriques_toy"], (1,))

    def test_tensor_twist_divisor_is_exact_not_truncated(self):
        # int() used to twist by 0 for 1/2 and by 1 for 1.9
        k3 = CATALOG.surfaces["k3_toy"]
        for half in ((Fraction(1, 2),), ("1/2",)):
            with pytest.raises(InvariantError):
                tensor_twist(k3, half)
        for inexact in ((1.9,), (1.0,), (True,)):
            with pytest.raises(TypeError):
                tensor_twist(k3, inexact)
        one = tensor_twist(k3, (1,))
        assert one.mat == Matrix([[1, 0, 0], [1, 1, 0], [2, 4, 1]])
        assert tensor_twist(k3, ("1",)) == one
        assert tensor_twist(k3, (Fraction(2, 2),)) == one

    def test_rejects_non_isometry(self):
        with pytest.raises(ValueError):
            LatticeIsometry(PRODUCT, PRODUCT, Matrix.identity(4).scale(2))

    def test_rejects_rational_matrix(self):
        m = Matrix.identity(4).scale(Fraction(1, 2)) + Matrix.identity(4).scale(Fraction(1, 2))
        assert m == Matrix.identity(4)  # sanity: scaling kept exactness
        bad = Matrix([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, Fraction(1, 2), 1]])
        with pytest.raises(ValueError):
            LatticeIsometry(PRODUCT, PRODUCT, bad)

    def test_rejects_rank_mismatch(self):
        with pytest.raises(ValueError):
            LatticeIsometry(PRODUCT, CATALOG.surfaces["k3_toy"], Matrix.identity(4))

    def test_action_validation(self):
        GActionLattice(PRODUCT, 2, SWAP_EXT)
        with pytest.raises(ValueError):
            GActionLattice(PRODUCT, 3, SWAP_EXT)  # wrong order
        with pytest.raises(ValueError):
            GActionLattice(CATALOG.surfaces["enriques_toy"], 2, Matrix.identity(3))

    def test_action_is_a_cyclic_rep_without_a_power_table(self):
        action = GActionLattice(PRODUCT, 6, SWAP_EXT)
        assert isinstance(action, CyclicRep)
        assert (action.order, action.dim, action.gen) == (6, 4, SWAP_EXT)
        assert action.powers() == [Matrix.identity(4), SWAP_EXT]
        assert set(vars(action)) == {"order", "dim", "gen", "surface"}
        assert action == GActionLattice(PRODUCT, 6, SWAP_EXT)
        assert "__post_init__" in vars(GActionLattice)

    def test_action_checks_keep_their_order(self):
        # a non-integral generator that also fails the order gate is
        # reported as non-integral, and the shape before either
        half = Matrix([[Fraction(1, 2), 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 2]])
        with pytest.raises(ValueError, match="integral extended lattice"):
            GActionLattice(PRODUCT, 2, half)
        with pytest.raises(ValueError, match="^generator must be 4x4 for product_elliptic$"):
            GActionLattice(PRODUCT, 2, Matrix([[Fraction(1, 2)]]))
        with pytest.raises(ValueError, match="^order must be a positive integer$"):
            GActionLattice(PRODUCT, 0, Matrix([[Fraction(1, 2)]]))
        unipotent = Matrix([[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
        with pytest.raises(ValueError, match="^generator does not have order dividing 1000$"):
            GActionLattice(PRODUCT, 1000, unipotent)
        # a stated order above the cap is refused before the power gate
        with pytest.raises(ValueError, match="^order must be at most 1000$"):
            GActionLattice(PRODUCT, 10**9, unipotent)


class TestOrderCompatibility:
    @pytest.mark.parametrize("nx", [1, 2, 3, 4, 6])
    @pytest.mark.parametrize("ny", [1, 2, 3, 4, 6])
    def test_table(self, nx, ny):
        sx = NumericalSurface("sx", BilinearForm.from_rows([[2]]), 0, nx)
        sy = NumericalSurface("sy", BilinearForm.from_rows([[2]]), 0, ny)
        assert check_order_compatibility(sx, sy) == (nx == ny)


class TestEquivariance:
    def test_trivial_actions_any_isometry(self):
        trivial = CATALOG.actions["trivial"]
        phi = random_base_isometry(random.Random(1), PRODUCT)
        assert check_equivariant(phi, trivial, trivial) == [0, 1]

    def test_swap_actions_identity(self):
        swap = CATALOG.actions["swap"]
        assert check_equivariant(identity_isometry(PRODUCT), swap, swap) == [0, 1]

    def test_mismatched_actions_fail(self):
        swap = CATALOG.actions["swap"]
        trivial = CATALOG.actions["trivial"]
        assert check_equivariant(identity_isometry(PRODUCT), trivial, swap) is None

    def test_order_mismatch_raises(self):
        swap = CATALOG.actions["swap"]
        order4 = GActionLattice(PRODUCT, 4, SWAP_EXT)
        with pytest.raises(ValueError):
            check_equivariant(identity_isometry(PRODUCT), swap, order4)

    # an order-4 isometry of the extended lattice: r -> a -> -r, b -> s -> -b
    ORDER4_GEN = Matrix([[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]])

    def test_exponents_form_automorphism(self):
        surface = NumericalSurface("quad", BilinearForm.from_rows([[0, 1], [1, 0]]), 0, 1)
        action = GActionLattice(surface, 4, self.ORDER4_GEN)
        # phi = g itself intertwines with exponent 1
        phi = LatticeIsometry(surface, surface, self.ORDER4_GEN)
        mu = check_equivariant(phi, action, action)
        assert mu == [0, 1, 2, 3]
        assert sorted(mu) == [0, 1, 2, 3]  # a bijection of Z_4

    def test_identity_action_products_do_not_grow_with_the_order(self, monkeypatch):
        calls = []
        matmul = Matrix.__matmul__

        def counted(a, b):
            calls.append(1)
            return matmul(a, b)

        counts = []
        for n in (2, 1000):
            action = GActionLattice(PRODUCT, n, Matrix.identity(4))
            e = ExtendedVector(1, (2, -1), Fraction(3, 2))
            monkeypatch.setattr(Matrix, "__matmul__", counted)
            calls.clear()
            mu = check_equivariant(identity_isometry(PRODUCT), action, action)
            total = orbit_sum(action, e, n)
            counts.append(len(calls))
            monkeypatch.setattr(Matrix, "__matmul__", matmul)
            assert len(mu) == n and mu[-1] == n - 1
            assert total == ExtendedVector(n, (2 * n, -n), Fraction(3 * n, 2))
        assert counts[0] == counts[1] <= 6

    def test_inverse_exponent(self):
        # negation on Num conjugates the rotation into its inverse
        surface = NumericalSurface("quad", BilinearForm.from_rows([[0, 1], [1, 0]]), 0, 1)
        action = GActionLattice(surface, 4, self.ORDER4_GEN)
        phi = num_negation(surface)
        mu = check_equivariant(phi, action, action)
        assert mu == [0, 3, 2, 1]


class TestDescend:
    def test_identity_descends_to_identity(self):
        outcome = descend_isometry(identity_isometry(PRODUCT), BI2, BI2)
        assert outcome
        assert outcome.isometry.mat == Matrix.identity(4)

    def test_num_negation_descends(self):
        outcome = descend_isometry(num_negation(PRODUCT), BI2, BI2)
        assert outcome
        assert outcome.isometry.mat == Matrix.diagonal([1, -1, -1, 1])

    def test_swap_fails_with_witness(self):
        phi_t = LatticeIsometry(PRODUCT, PRODUCT, SWAP_EXT)
        outcome = descend_isometry(phi_t, BI2, BI2)
        assert not outcome
        assert outcome.failure == "no integral solution"
        src, dst = outcome.witness
        assert src == (0, 2, 0, 0)  # push of f1 is 2a
        assert dst == (0, 0, 1, 0)  # forced image is b
        assert outcome.isometry is None

    def test_degree_mismatch_raises(self):
        bi3 = CATALOG.covers["bielliptic_cover_3"]
        with pytest.raises(ValueError):
            descend_isometry(identity_isometry(PRODUCT), BI2, bi3)

    def test_wrong_surfaces_raise(self):
        enr = CATALOG.covers["enriques_cover"]
        with pytest.raises(ValueError):
            descend_isometry(identity_isometry(PRODUCT), enr, enr)


class TestLift:
    def test_identity_lifts_to_identity(self):
        base = BI2.base
        lifts = lift_isometry(identity_isometry(base), BI2, BI2)
        assert len(lifts) == 1
        assert lifts[0].mat == Matrix.identity(4)

    def test_num_negation_lifts(self):
        lifts = lift_isometry(num_negation(BI2.base), BI2, BI2)
        assert len(lifts) == 1
        assert lifts[0].mat == Matrix.diagonal([1, -1, -1, 1])

    def test_degree_zero_twist_lifts(self):
        phi = tensor_twist(BI2.base, (0, 1))
        lifts = lift_isometry(phi, BI2, BI2)
        assert len(lifts) == 1
        assert lifts[0].mat.is_integral

    def test_rank_degree_swap_does_not_lift(self):
        # (r,c,s) -> (s,-c,r) is a base isometry whose forced lift has a
        # 1/n entry; the lattice correctly refuses it
        d = BI2.base.dim
        rows = [[0] * (d + 2) for _ in range(d + 2)]
        rows[0][d + 1] = 1
        rows[d + 1][0] = 1
        for i in range(d):
            rows[1 + i][1 + i] = -1
        phi = LatticeIsometry(BI2.base, BI2.base, Matrix(rows))
        assert lift_isometry(phi, BI2, BI2) == []

    def test_round_trip_all_covers(self):
        rng = random.Random(21)
        for t in CATALOG.covers.values():
            for _ in range(12):
                phi = random_base_isometry(rng, t.base)
                lifts = lift_isometry(phi, t, t)
                assert len(lifts) == 1
                back = descend_isometry(lifts[0], t, t)
                assert back and back.isometry.mat == phi.mat

    def test_underdetermined_transfer_returns_family(self):
        # base of rank 1 covered by rank 2: the two squares leave one
        # rational degree of freedom
        base = NumericalSurface("thin_base", BilinearForm.from_rows([[1]]), 0, 2)
        cover = NumericalSurface("wide_cover", BilinearForm.from_rows([[0, 1], [1, 0]]), 0, 1)
        t = CoverTransfer(base, cover, 2, Matrix([[1], [1]]), Matrix([[1, 1]]))
        assert validate_cover(t).passed
        result = lift_isometry(identity_isometry(base), t, t)
        assert isinstance(result, LiftFamily)
        assert len(result.directions) == 1
        # every member satisfies both squares by construction
        member = result.particular + result.directions[0]
        assert member @ t.pull_extended == t.pull_extended
        assert t.push_extended @ member == t.push_extended


FIXTURE = Path(__file__).resolve().parent / "data" / "enriques_k3_18.defs"


class TestLiftRealisticRank:
    """The cover of U + E8(-1) (rank 10) by U + E8(-1) + E8(-1) (rank 18)."""

    @pytest.fixture(scope="class")
    def cover(self):
        text = FIXTURE.read_text(encoding="utf-8")
        catalog = CATALOG.extend(load_definitions(text, registry=CATALOG.registry()))
        return catalog.covers["enriques_k3_18_cover"]

    def test_fixture_is_a_valid_cover(self, cover):
        assert validate_cover(cover).passed
        assert (cover.base.dim, cover.cover.dim) == (10, 18)

    @pytest.mark.parametrize("make_phi", [identity_isometry, num_negation])
    def test_family_dimension(self, cover, make_phi):
        # push o pull = 2 makes push_X onto and pull_Y one-to-one over Q,
        # so ker push_X and ker pull_Y^T both have dimension 20 - 12, and
        # the homogeneous solutions are their outer products.
        d_cover, d_base = cover.cover.dim + 2, cover.base.dim + 2
        phi = make_phi(cover.base)
        family = lift_isometry(phi, cover, cover)
        assert isinstance(family, LiftFamily)
        assert len(family.directions) == (d_cover - d_base) * (d_cover - d_base) == 64
        assert family.particular @ cover.pull_extended == cover.pull_extended @ phi.mat
        assert cover.push_extended @ family.particular == phi.mat @ cover.push_extended

    def test_particular_is_zero_where_each_direction_is_one(self, cover):
        family = lift_isometry(num_negation(cover.base), cover, cover)
        for d in family.directions:
            last = max((i, j) for i in range(d.nrows) for j in range(d.ncols) if d[i, j])
            assert d[last] == 1 and family.particular[last] == 0
            assert all(other[last] == 0 for other in family.directions if other is not d)


class TestLiftPrecondition:
    def test_cover_without_degree_identity_is_refused(self):
        # pull = diag(1, 2), push = id: push o pull = diag(1, 2), not 2
        base = CATALOG.surfaces["bielliptic_2"]
        t = CoverTransfer(base, PRODUCT, 2, Matrix([[1, 0], [0, 2]]), Matrix.identity(2))
        assert "degree_identity" in validate_cover(t).failed_names()
        with pytest.raises(ValueError, match="cover of bielliptic_2 by product_elliptic "
                                             "violates axiom 'degree_identity'"):
            lift_isometry(identity_isometry(base), t, t)
        with pytest.raises(ValueError, match="degree_identity"):
            lift_isometry(identity_isometry(base), BI2, t)

    def test_degree_identity_is_checked_once_per_transfer(self, monkeypatch):
        calls = []
        original = covers.degree_identity
        monkeypatch.setattr(covers, "degree_identity", lambda t: calls.append(t) or original(t))
        base = CATALOG.surfaces["bielliptic_2"]
        t = CoverTransfer(base, BI2.cover, 2, BI2.pull_num, BI2.push_num)
        for _ in range(3):
            assert len(lift_isometry(identity_isometry(base), t, t)) == 1
        assert validate_cover(t).passed
        assert calls == [t] and covers.degree_identity(t) == t.degree_check
