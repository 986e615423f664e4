import random
from fractions import Fraction

import pytest

from fmlattice.catalog import builtin_catalog
from fmlattice.covers import ExtendedVector, pushforward_ch
from fmlattice.descent import (
    GcdCertificate,
    divisibility_obstruction,
    freeness_gcd,
    generator_set,
    orbit_sum,
)
from fmlattice.surfaces import InvariantError, euler_pairing
from fmlattice.transport import GActionLattice
from fmlattice.lattice import Matrix

CATALOG = builtin_catalog()


class TestGeneratorSet:
    def test_counts(self):
        assert len(generator_set(CATALOG.surfaces["bielliptic_2"])) == 4
        assert len(generator_set(CATALOG.surfaces["abelian_ppav"])) == 3
        assert len(generator_set(CATALOG.surfaces["enriques_toy"])) == 3

    def test_labels_and_shapes(self):
        gens = generator_set(CATALOG.surfaces["bielliptic_2"])
        assert [label for label, _ in gens] == ["O", "e1", "e2", "point"]
        assert gens[0][1].r == 1 and gens[-1][1].ch2 == 1


class TestFreenessGcd:
    def test_rank_four_class_descends_for_all_orders(self):
        e = CATALOG.vectors["v_4_2l_1"].chern
        for n in (2, 3, 4, 6):
            t = CATALOG.covers[f"bielliptic_cover_{n}"]
            cert = freeness_gcd(t, e)
            assert cert.free and cert.gcd == 1
            assert dict(cert.values)["O"] == 1

    def test_poincare_fibre_never_descends(self):
        e = CATALOG.vectors["poincare"].chern
        for n in (2, 3, 4, 6):
            t = CATALOG.covers[f"bielliptic_cover_{n}"]
            cert = freeness_gcd(t, e)
            assert [v for _, v in cert.values] == [0, 0, 0, n]
            assert cert.gcd == n and not cert.free

    def test_points_are_free(self):
        for t in CATALOG.covers.values():
            cert = freeness_gcd(t, t.cover.point_class())
            assert cert.free and cert.gcd == 1
            assert dict(cert.values)["O"] == 1

    def test_gcd_invariant_under_generator_augmentation(self):
        # the certificate is a true gcd over the whole lattice: adjoining
        # random integer combinations of generators never changes it
        rng = random.Random(12)
        for t in CATALOG.covers.values():
            e = _random_char(rng, t.cover)
            cert = freeness_gcd(t, e)
            pushed = pushforward_ch(t, e)
            gens = generator_set(t.base)
            for _ in range(20):
                coeffs = [rng.randint(-5, 5) for _ in gens]
                extra_r = sum(k * g.r for k, (_, g) in zip(coeffs, gens))
                extra_c = tuple(
                    sum(k * g.c[i] for k, (_, g) in zip(coeffs, gens))
                    for i in range(t.base.dim))
                extra_s = sum(k * g.ch2 for k, (_, g) in zip(coeffs, gens))
                chi = euler_pairing(t.base, ExtendedVector(extra_r, extra_c, extra_s), pushed)
                augmented = GcdCertificate.from_values(
                    list(cert.values) + [("extra", chi)])
                assert augmented.gcd == cert.gcd

    def test_gcd_divides_chi_for_arbitrary_classes(self):
        rng = random.Random(13)
        for t in CATALOG.covers.values():
            e = _random_char(rng, t.cover)
            cert = freeness_gcd(t, e)
            pushed = pushforward_ch(t, e)
            for _ in range(25):
                f = _random_char(rng, t.base)
                chi = euler_pairing(t.base, f, pushed)
                if cert.gcd == 0:
                    assert chi == 0
                else:
                    assert chi % cert.gcd == 0

    def test_zero_class_reports_gcd_zero_not_free(self):
        t = CATALOG.covers["bielliptic_cover_2"]
        zero = ExtendedVector(0, (0, 0), 0)
        cert = freeness_gcd(t, zero)
        assert cert.gcd == 0 and not cert.free


def _random_char(rng, surface):
    while True:
        r = rng.randint(-3, 3)
        c = tuple(rng.randint(-3, 3) for _ in range(surface.dim))
        try:
            return surface.character(r, c, rng.randint(-3, 3))
        except InvariantError:
            continue


class TestOrbitSum:
    def test_trivial_action_multiplies(self):
        action = CATALOG.actions["trivial"]
        e = ExtendedVector(1, (2, -1), Fraction(3, 2))
        total = orbit_sum(action, e, 2)
        assert total == ExtendedVector(2, (4, -2), 3)

    def test_swap_action_symmetrizes(self):
        action = CATALOG.actions["swap"]
        f1 = ExtendedVector(0, (1, 0), 0)
        assert orbit_sum(action, f1, 2) == ExtendedVector(0, (1, 1), 0)

    def test_length_one_is_identity(self):
        action = CATALOG.actions["swap"]
        e = ExtendedVector(2, (5, 7), -1)
        assert orbit_sum(action, e, 1) == e

    def test_triple_of_order_three_action(self):
        surface = CATALOG.surfaces["product_elliptic"]
        action = GActionLattice(surface, 3, Matrix.identity(4))
        e = ExtendedVector(1, (1, 1), 0)
        assert orbit_sum(action, e, 3) == ExtendedVector(3, (3, 3), 0)

    def test_non_integral_rank_is_rejected_not_truncated(self):
        # Swapping r and s preserves the Mukai pairing on product_elliptic;
        # the orbit sum of (1, 0, 1/2) is (3/2, 0, 3/2), whose rank is no
        # integer, so there is no class to return.
        surface = CATALOG.surfaces["product_elliptic"]
        swap_rs = Matrix([[0, 0, 0, 1], [0, 1, 0, 0], [0, 0, 1, 0], [1, 0, 0, 0]])
        action = GActionLattice(surface, 2, swap_rs)
        with pytest.raises(InvariantError):
            orbit_sum(action, ExtendedVector(1, (0, 0), Fraction(1, 2)), 2)
        assert orbit_sum(action, ExtendedVector(1, (0, 0), 1), 2) == ExtendedVector(2, (0, 0), 2)

    def test_huge_stated_order_sums_one_period(self):
        surface = CATALOG.surfaces["product_elliptic"]
        swap = CATALOG.actions["swap"].gen
        action = GActionLattice(surface, 10**9, swap)
        f1 = ExtendedVector(0, (1, 0), 0)
        assert orbit_sum(action, f1, 10**9) == ExtendedVector(0, (5 * 10**8, 5 * 10**8), 0)
        assert orbit_sum(action, f1, 5) == ExtendedVector(0, (3, 2), 0)

    def test_rejects_non_divisor(self):
        action = CATALOG.actions["swap"]
        with pytest.raises(ValueError):
            orbit_sum(action, ExtendedVector(0, (1, 0), 0), 3)


class TestDivisibilityObstruction:
    def test_poincare_orbit_obstruction(self):
        t = CATALOG.covers["bielliptic_cover_2"]
        e = CATALOG.vectors["poincare"].chern
        report = divisibility_obstruction(t, e, 1)
        assert report.applicable
        assert report.divisor == 2 and report.all_divisible
        assert [v for _, v in report.values] == [0, 0, 0, 2]

    def test_free_class_not_applicable(self):
        t = CATALOG.covers["bielliptic_cover_2"]
        e = CATALOG.vectors["v_4_2l_1"].chern
        report = divisibility_obstruction(t, e, 1)
        assert not report.applicable
        assert report.reason is not None
        assert report.divisor is None

    def test_full_orbit_trivially_divisible(self):
        t = CATALOG.covers["bielliptic_cover_2"]
        e = CATALOG.vectors["v_4_2l_1"].chern
        report = divisibility_obstruction(t, e, 2)
        assert report.applicable and report.divisor == 1 and report.all_divisible

    def test_rejects_non_divisor_length(self):
        t = CATALOG.covers["bielliptic_cover_2"]
        with pytest.raises(ValueError):
            divisibility_obstruction(t, CATALOG.vectors["poincare"].chern, 3)

    def test_applicable_obstruction_forces_not_free(self):
        rng = random.Random(14)
        for t in CATALOG.covers.values():
            n = t.degree
            for m in [d for d in range(1, n) if n % d == 0]:
                for _ in range(10):
                    e = _random_char(rng, t.cover)
                    report = divisibility_obstruction(t, e, m)
                    if report.applicable and report.divisor > 1:
                        cert = freeness_gcd(t, e)
                        assert not cert.free
