import random
from fractions import Fraction

import pytest

from fmlattice.catalog import builtin_catalog
from fmlattice.lattice import BilinearForm, DimensionError
from fmlattice.surfaces import (
    ExtendedVector,
    InvariantError,
    MukaiVector,
    NumericalSurface,
    euler_pairing,
    moduli_dim_expectation,
    mukai_pairing,
    mukai_vector,
)

ABELIAN = NumericalSurface("abelian_ppav", BilinearForm.from_rows([[2]]), 0, 1)
K3 = NumericalSurface("k3", BilinearForm.from_rows([[4]]), 2, 1)
ENRIQUES = NumericalSurface("enriques", BilinearForm.from_rows([[2]]), 1, 2)
PRODUCT = NumericalSurface("product", BilinearForm.from_rows([[0, 1], [1, 0]]), 0, 1)


def random_character(rng, surface, bound=4):
    while True:
        r = rng.randint(-bound, bound)
        c = tuple(rng.randint(-bound, bound) for _ in range(surface.dim))
        cc = surface.num.pair(c, c)
        ch2 = rng.randint(-bound, bound) + (Fraction(cc, 2) - cc // 2)
        try:
            return surface.character(r, c, ch2)
        except InvariantError:
            continue


class TestEulerPairing:
    def test_point_self_pairing_vanishes(self):
        point = ABELIAN.point_class()
        assert euler_pairing(ABELIAN, point, point) == 0

    def test_structure_sheaf_against_rank_four(self):
        e = ABELIAN.structure_class()
        f = ABELIAN.character(4, (2,), 1)
        assert euler_pairing(ABELIAN, e, f) == 1

    def test_rank_four_self_pairing_vanishes(self):
        f = ABELIAN.character(4, (2,), 1)
        assert euler_pairing(ABELIAN, f, f) == 0

    def test_ideal_sheaf_on_k3(self):
        e = K3.character(1, (0,), -1)
        assert euler_pairing(K3, e, e) == 0

    def test_symmetry_and_bilinearity(self):
        rng = random.Random(2)
        for surface in (ABELIAN, K3, ENRIQUES, PRODUCT):
            for _ in range(25):
                e = random_character(rng, surface)
                f = random_character(rng, surface)
                g = random_character(rng, surface)
                assert euler_pairing(surface, e, f) == euler_pairing(surface, f, e)
                # additivity in the first slot via raw triples
                combo = surface.character(
                    e.r + f.r, tuple(a + b for a, b in zip(e.c, f.c)), e.ch2 + f.ch2)
                assert euler_pairing(surface, combo, g) == \
                    euler_pairing(surface, e, g) + euler_pairing(surface, f, g)

    def test_point_row_and_structure_row(self):
        rng = random.Random(3)
        for surface in (ABELIAN, K3, ENRIQUES, PRODUCT):
            point = surface.point_class()
            struct = surface.structure_class()
            assert euler_pairing(surface, struct, point) == 1
            for _ in range(10):
                x = random_character(rng, surface)
                assert euler_pairing(surface, point, x) == x.r

    def test_dimension_mismatch(self):
        e = ABELIAN.structure_class()
        f = PRODUCT.structure_class()
        with pytest.raises(DimensionError):
            euler_pairing(ABELIAN, e, f)

    def test_non_integral_chi_raises(self):
        # an odd rank-1 lattice admits valid characters with half-integral
        # ch2; their pairings against rank-1 classes need not be integers
        odd = NumericalSurface("odd_toy", BilinearForm.from_rows([[1]]), 0, 1)
        e = odd.character(1, (0,), 0)
        f = odd.character(0, (1,), Fraction(1, 2))
        with pytest.raises(InvariantError):
            euler_pairing(odd, e, f)


class TestExactConstructor:
    def test_rational_rank_is_rejected_not_truncated(self):
        with pytest.raises(InvariantError):
            ExtendedVector(Fraction(3, 2), (0,), 0)
        with pytest.raises(InvariantError):
            ExtendedVector(1, (Fraction(1, 2),), 0)

    def test_floats_and_bools_are_rejected(self):
        with pytest.raises(TypeError):
            ExtendedVector(1.9, (2.7,), 0.5)
        with pytest.raises(TypeError):
            ExtendedVector(1, (2,), 0.5)
        with pytest.raises(TypeError):
            ExtendedVector(True, (0,), 0)

    def test_bool_is_named_as_the_rejected_value(self):
        for make in (lambda: ExtendedVector(True, (0,), 0),
                     lambda: NumericalSurface("x", BilinearForm.from_rows([[2]]), True, 1)):
            with pytest.raises(TypeError) as exc:
                make()
            assert str(exc.value) == "exact number expected, got bool True"
            assert "matrix entry" not in str(exc.value)

    def test_character_rejects_float_rank(self):
        with pytest.raises(TypeError):
            ABELIAN.character(1.0, (0,), 0)

    def test_exact_values_are_normalised(self):
        v = ExtendedVector(Fraction(4, 2), [Fraction(-3, 1)], "1/2")
        assert (v.r, v.c, v.s) == (2, (-3,), Fraction(1, 2))
        assert type(v.r) is int and type(v.c[0]) is int and type(v.s) is Fraction

    def test_character_refuses_text_outside_the_definitions_form(self):
        # as_rational handed ' 1 ' and '1_0' to Fraction(), which gave s = 10
        # on Python 3.11 and later; the CLI and --defs files refuse both
        k3 = builtin_catalog().surfaces["k3_toy"]
        with pytest.raises(ValueError, match="^bad number ' 1 '$"):
            k3.character(" 1 ", ["0"], "1_0")
        with pytest.raises(ValueError, match="^bad number '1_0'$"):
            k3.character("1", ["0"], "1_0")
        assert k3.character("1", ["0"], "-3") == k3.character(1, [0], -3)

    @pytest.mark.parametrize("divisor", ["12", b"12"])
    def test_string_divisor_is_rejected_not_iterated(self, divisor):
        with pytest.raises(TypeError):
            ExtendedVector(1, divisor, 0)
        with pytest.raises(TypeError):
            PRODUCT.character(1, divisor, 0)


class TestParityInvariant:
    def test_rejects_odd_combination(self):
        with pytest.raises(InvariantError):
            ABELIAN.character(1, (1,), Fraction(1, 2))
        with pytest.raises(InvariantError):
            K3.character(1, (0,), Fraction(1, 2))

    def test_accepts_half_integral_on_odd_lattice(self):
        odd = NumericalSurface("odd_toy", BilinearForm.from_rows([[1]]), 0, 1)
        e = odd.character(0, (1,), Fraction(1, 2))
        assert e.ch2 == Fraction(1, 2)

    def test_wrong_length(self):
        with pytest.raises(DimensionError):
            ABELIAN.character(1, (0, 0), 0)


class TestMukai:
    def test_structure_sheaf_on_k3(self):
        v = mukai_vector(K3, K3.structure_class())
        assert (v.r, v.c, v.s) == (1, (0,), 1)

    def test_abelian_untouched(self):
        e = ABELIAN.character(4, (2,), 1)
        v = mukai_vector(ABELIAN, e)
        assert (v.r, v.c, v.s) == (4, (2,), 1)

    def test_point_untouched(self):
        v = mukai_vector(K3, K3.point_class())
        assert (v.r, v.c, v.s) == (0, (0,), 1)

    def test_enriques_half_integral(self):
        v = mukai_vector(ENRIQUES, ENRIQUES.structure_class())
        assert v.s == Fraction(1, 2)

    def test_pairing_examples(self):
        assert mukai_pairing(ABELIAN, MukaiVector(0, (0,), 1), MukaiVector(0, (0,), 1)) == 0
        assert mukai_pairing(ABELIAN, MukaiVector(4, (2,), 1), MukaiVector(4, (2,), 1)) == 0
        assert mukai_pairing(K3, MukaiVector(1, (0,), 1), MukaiVector(1, (0,), 1)) == -2

    def test_pairing_vs_euler(self):
        rng = random.Random(5)
        for surface in (ABELIAN, K3, ENRIQUES, PRODUCT):
            for _ in range(25):
                e = random_character(rng, surface)
                f = random_character(rng, surface)
                lhs = mukai_pairing(surface, mukai_vector(surface, e), mukai_vector(surface, f))
                assert lhs == -euler_pairing(surface, e, f)


class TestModuliDim:
    def test_rank_four_family_is_a_surface(self):
        assert moduli_dim_expectation(ABELIAN, ABELIAN.character(4, (2,), 1)) == 2

    def test_ideal_sheaves_are_a_surface(self):
        assert moduli_dim_expectation(K3, K3.character(1, (0,), -1)) == 2

    def test_rigid_structure_sheaf(self):
        assert moduli_dim_expectation(K3, K3.structure_class()) == 0


def test_surface_rejects_nonpositive_order():
    with pytest.raises(InvariantError):
        NumericalSurface("bad", BilinearForm.from_rows([[2]]), 0, 0)


@pytest.mark.parametrize("chi_o, order, error", [
    (0.5, 1, TypeError),
    (1, 1.5, TypeError),
    (True, 1, TypeError),
    (1, True, TypeError),
    (Fraction(1, 2), 1, InvariantError),
    (1, Fraction(3, 2), InvariantError),
])
def test_surface_rejects_inexact_invariants(chi_o, order, error):
    with pytest.raises(error):
        NumericalSurface("bad", BilinearForm.from_rows([[2]]), chi_o, order)


def test_surface_invariants_are_normalised():
    s = NumericalSurface("s", BilinearForm.from_rows([[2]]), Fraction(4, 2), Fraction(2, 1))
    assert (s.chi_o, s.canonical_order) == (2, 2)
    assert type(s.chi_o) is int and type(s.canonical_order) is int
    assert euler_pairing(s, s.structure_class(), s.structure_class()) == 2


def test_mukai_gram_matches_pairing():
    rng = random.Random(8)
    for surface in (ABELIAN, PRODUCT, ENRIQUES):
        gram = surface.mukai_gram
        for _ in range(10):
            e = random_character(rng, surface)
            f = random_character(rng, surface)
            ve = mukai_vector(surface, e)
            vf = mukai_vector(surface, f)
            coords_e = (ve.r,) + ve.c + (ve.s,)
            coords_f = (vf.r,) + vf.c + (vf.s,)
            assert sum([x * y for x, y in zip(coords_e, gram.apply(coords_f))]) == mukai_pairing(surface, ve, vf)


def test_mukai_gram_is_built_once_and_leaves_equality_alone():
    surface = NumericalSurface("product", BilinearForm.from_rows([[0, 1], [1, 0]]), 0, 1)
    before = hash(surface)
    assert surface.mukai_gram is surface.mukai_gram
    assert hash(surface) == before and surface == PRODUCT and hash(surface) == hash(PRODUCT)
    assert repr(surface) == repr(PRODUCT)


def test_is_integral_class():
    assert PRODUCT.is_integral_class(1, (0, 0), 0)
    assert not PRODUCT.is_integral_class(1, (0, 0), Fraction(1, 2))
    assert not PRODUCT.is_integral_class(Fraction(1, 2), (0, 0), 0)
    assert not PRODUCT.is_integral_class(0, (Fraction(1, 2), 0), 0)
