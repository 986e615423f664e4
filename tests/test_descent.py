import random
from fractions import Fraction

import pytest

from fmlattice.catalog import builtin_catalog
from fmlattice.covers import ExtendedVector, pushforward_ch
from fmlattice.defsio import load_definitions
from fmlattice.descent import (
    GcdCertificate,
    divisibility_obstruction,
    freeness_gcd,
    generator_set,
    orbit_sum,
)
from fmlattice.surfaces import InvariantError, euler_pairing
from fmlattice.transport import GActionLattice
from fmlattice.lattice import DimensionError, Matrix

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
        # empty and all-zero families have gcd 0; signs are ignored
        for values, g in [([], 0), ([0, 0], 0), ([4, -6], 2), ([0, 0, 0, 2], 2),
                          ([3, 5], 1), ([-1], 1)]:
            cert = GcdCertificate.from_values([(f"v{i}", v) for i, v in enumerate(values)])
            assert (cert.gcd, cert.free) == (g, g == 1)

    def test_values_are_exact_integers_not_truncated(self):
        # int() used to turn 3/2 and 1.0 into 1 and certify freeness
        with pytest.raises(InvariantError):
            GcdCertificate.from_values([("a", Fraction(3, 2)), ("b", 2)])
        with pytest.raises(InvariantError):
            GcdCertificate.from_values([("a", "1/2")])
        for inexact in (1.0, True):
            with pytest.raises(TypeError):
                GcdCertificate.from_values([("a", 2), ("b", inexact)])
        cert = GcdCertificate.from_values([("a", Fraction(4, 2)), ("b", "-6")])
        assert cert.values == (("a", 2), ("b", -6)) and cert.gcd == 2
        assert all(type(v) is int for _, v in cert.values)

    def test_odd_base_lattice_raises_the_generator_parity_error(self):
        # e2 has square -1 on the base, so the class (0, e2, 0) is not the
        # character of an integral class; the certificate refuses the base
        defs = """
surface odd_base {
  rank 2
  intersection [2,0;0,-1]
  chi_o 0
  canonical_order 2
}
surface odd_cover {
  rank 2
  intersection [4,0;0,-2]
  chi_o 0
  canonical_order 1
}
cover odd_cover_2 {
  base odd_base
  cover odd_cover
  degree 2
  pull [1,0;0,1]
  push [2,0;0,2]
}
"""
        catalog = CATALOG.extend(load_definitions(defs, registry=CATALOG.registry()))
        t = catalog.covers["odd_cover_2"]
        message = "^2\\*ch2 \\+ c1\\^2 = -1 must be an even integer on odd_base$"
        with pytest.raises(InvariantError, match=message):
            generator_set(t.base)
        with pytest.raises(InvariantError, match=message):
            freeness_gcd(t, t.cover.structure_class())
        # a class of the wrong length is refused before the parity check
        with pytest.raises(DimensionError, match="^class does not live on odd_cover$"):
            freeness_gcd(t, ExtendedVector(1, (0, 0, 0), 0))

    def test_class_of_the_wrong_length_is_refused(self):
        for t in CATALOG.covers.values():
            for dim in (t.cover.dim - 1, t.cover.dim + 1):
                with pytest.raises(DimensionError, match=f"^class does not live on {t.cover.name}$"):
                    freeness_gcd(t, ExtendedVector(1, (0,) * dim, 0))

    def test_non_integral_chi_is_refused(self):
        # a half-integral s is no integral class: chi(O, push e) = 1/2
        t = CATALOG.covers["bielliptic_cover_2"]
        with pytest.raises(InvariantError, match="^chi\\(E,F\\) = 1/2 is not an integer$"):
            freeness_gcd(t, ExtendedVector(1, (0, 0), Fraction(1, 2)))


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
        action = GActionLattice(surface, 1000, swap)
        f1 = ExtendedVector(0, (1, 0), 0)
        assert orbit_sum(action, f1, 1000) == ExtendedVector(0, (500, 500), 0)
        assert orbit_sum(action, f1, 5) == ExtendedVector(0, (3, 2), 0)

    def test_rejects_non_divisor(self):
        action = CATALOG.actions["swap"]
        with pytest.raises(ValueError):
            orbit_sum(action, ExtendedVector(0, (1, 0), 0), 3)

    def test_length_is_exact(self):
        action, f1 = CATALOG.actions["swap"], ExtendedVector(0, (1, 0), 0)
        for bad in (True, 2.0):
            with pytest.raises(TypeError):
                orbit_sum(action, f1, bad)
        with pytest.raises(ValueError, match="does not divide the action order 2"):
            orbit_sum(action, f1, Fraction(1, 2))
        assert orbit_sum(action, f1, Fraction(4, 2)) == ExtendedVector(0, (1, 1), 0)

    def test_class_of_the_wrong_length_is_a_dimension_error(self):
        action = CATALOG.actions["swap"]
        with pytest.raises(DimensionError, match=f"class does not live on {action.surface.name}"):
            orbit_sum(action, ExtendedVector(0, (1, 0, 0), 0), 2)


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

    def test_length_is_exact(self):
        t, e = CATALOG.covers["bielliptic_cover_2"], CATALOG.vectors["poincare"].chern
        for bad in (True, 1.0):
            with pytest.raises(TypeError):
                divisibility_obstruction(t, e, bad)
        with pytest.raises(ValueError, match="does not divide the cover degree 2"):
            divisibility_obstruction(t, e, Fraction(1, 2))
        assert divisibility_obstruction(t, e, Fraction(2, 2)) == divisibility_obstruction(t, e, 1)

    def test_class_of_the_wrong_length_is_refused(self):
        # refused before the rational pullback is solved, which would say
        # "right-hand side length mismatch"
        for t in CATALOG.covers.values():
            for dim in (t.cover.dim - 1, t.cover.dim + 1):
                with pytest.raises(DimensionError, match=f"^class does not live on {t.cover.name}$"):
                    divisibility_obstruction(t, ExtendedVector(1, (0,) * dim, 0), 1)

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
