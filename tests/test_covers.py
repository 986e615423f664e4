import random
from fractions import Fraction
from pathlib import Path

import pytest

from fmlattice.catalog import builtin_catalog
from fmlattice.covers import (
    CoverTransfer,
    ExtendedVector,
    chi_adjunction_check,
    pullback_ch,
    pushforward_ch,
    validate_cover,
)
from fmlattice.lattice import DimensionError, Matrix
from fmlattice.surfaces import euler_pairing

CATALOG = builtin_catalog()
BI2 = CATALOG.covers["bielliptic_cover_2"]
ENR = CATALOG.covers["enriques_cover"]


def extended_basis(surface):
    d = surface.dim
    basis = [ExtendedVector(1, (0,) * d, 0)]
    for j in range(d):
        basis.append(ExtendedVector(0, tuple(int(i == j) for i in range(d)), 0))
    basis.append(ExtendedVector(0, (0,) * d, 1))
    return basis


class TestValidateCover:
    def test_catalog_covers_pass(self):
        for name, t in sorted(CATALOG.covers.items()):
            report = validate_cover(t)
            assert report.passed, (name, report.failed_names())
            assert len(report.checks) == 5

    def test_axioms_by_direct_multiplication(self):
        # independent of validate_cover: re-derive each axiom by hand
        for t in CATALOG.covers.values():
            n = t.degree
            gb, gc = t.base.num.gram, t.cover.num.gram
            assert t.degree == t.base.canonical_order
            assert t.pull_num.T @ gc @ t.pull_num == gb.scale(n)
            assert t.push_num.T @ gb == gc @ t.pull_num
            assert t.push_num @ t.pull_num == Matrix.identity(t.base.dim).scale(n)
            assert t.cover.chi_o == n * t.base.chi_o

    def test_degree_identity_failure_reported_with_witness(self):
        # push o pull = identity instead of 2: the degree axiom must fail
        base = CATALOG.surfaces["bielliptic_2"]
        cover = CATALOG.surfaces["product_elliptic"]
        bad = CoverTransfer(base, cover, 2, Matrix.identity(2), Matrix.identity(2))
        report = validate_cover(bad)
        assert not report.passed
        by_name = {c.name: c for c in report.checks}
        failed = by_name["degree_identity"]
        assert not failed.passed
        assert "e1" in failed.detail and "expected" in failed.detail

    def test_chi_failure(self):
        base = CATALOG.surfaces["enriques_toy"]
        wrong_cover = CATALOG.surfaces["abelian_ppav"]  # chi 0, not 2
        t = CoverTransfer(base, wrong_cover, 2, Matrix([[1]]), Matrix([[2]]))
        report = validate_cover(t)
        names = report.failed_names()
        assert "chi_multiplicativity" in names


class TestTransferMaps:
    def test_extended_transfers_are_built_once_and_leave_equality_alone(self):
        fresh = CoverTransfer(BI2.base, BI2.cover, BI2.degree, BI2.pull_num, BI2.push_num)
        before = hash(fresh)
        assert fresh.pull_extended is fresh.pull_extended
        assert fresh.push_extended is fresh.push_extended
        assert fresh.pull_extended == BI2.pull_extended and fresh.push_extended == BI2.push_extended
        assert hash(fresh) == before == hash(BI2) and fresh == BI2

    def test_structure_sheaf_pulls_to_structure_sheaf(self):
        o = BI2.base.structure_class()
        assert pullback_ch(BI2, o) == ExtendedVector(1, (0, 0), 0)

    def test_point_pulls_to_fibre(self):
        point = BI2.base.point_class()
        assert pullback_ch(BI2, point) == ExtendedVector(0, (0, 0), 2)

    def test_divisor_pullback_uses_catalog_matrix(self):
        a = ExtendedVector(0, (1, 0), 0)
        b = ExtendedVector(0, (0, 1), 0)
        assert pullback_ch(BI2, a) == ExtendedVector(0, (1, 0), 0)
        assert pullback_ch(BI2, b) == ExtendedVector(0, (0, 2), 0)

    def test_push_rank_multiplies(self):
        e = BI2.cover.character(4, (2, 2), 1)
        pushed = pushforward_ch(BI2, e)
        assert pushed.r == 8
        assert pushed.s == 1

    def test_push_structure_sheaf(self):
        for t in CATALOG.covers.values():
            pushed = pushforward_ch(t, t.cover.structure_class())
            assert pushed == ExtendedVector(t.degree, (0,) * t.base.dim, 0)

    def test_push_point_is_point(self):
        for t in CATALOG.covers.values():
            pushed = pushforward_ch(t, t.cover.point_class())
            assert pushed == ExtendedVector(0, (0,) * t.base.dim, 1)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            pullback_ch(BI2, ExtendedVector(1, (0,), 0))
        with pytest.raises(DimensionError):
            pushforward_ch(ENR, ExtendedVector(1, (0, 0), 0))


class TestAdjunction:
    def test_structure_vs_rank_four(self):
        f = BI2.base.structure_class()
        e = BI2.cover.character(4, (2, 2), 1)
        assert chi_adjunction_check(BI2, f, e) == (1, 1, True)

    def test_point_vs_structure(self):
        for t in CATALOG.covers.values():
            f = t.base.point_class()
            e = t.cover.structure_class()
            assert chi_adjunction_check(t, f, e) == (t.degree, t.degree, True)

    def test_zero_class(self):
        f = ExtendedVector(0, (0, 0), 0)
        e = BI2.cover.structure_class()
        assert chi_adjunction_check(BI2, f, e) == (0, 0, True)

    def test_exhaustive_on_basis_pairs(self):
        for t in CATALOG.covers.values():
            for f in extended_basis(t.base):
                for e in extended_basis(t.cover):
                    lhs, rhs, equal = chi_adjunction_check(t, f, e)
                    assert equal, (t.base.name, f, e, lhs, rhs)


class TestCompositionLaws:
    def test_push_pull_is_multiplication_by_degree(self):
        rng = random.Random(4)
        for t in CATALOG.covers.values():
            for _ in range(15):
                r = rng.randint(-4, 4)
                c = tuple(rng.randint(-4, 4) for _ in range(t.base.dim))
                s = Fraction(rng.randint(-8, 8), 2)
                e = ExtendedVector(r, c, s)
                round_trip = pushforward_ch(t, pullback_ch(t, e))
                n = t.degree
                assert round_trip == ExtendedVector(n * r, tuple(n * x for x in c), n * s)

    def test_pullback_scales_euler_pairing(self):
        rng = random.Random(6)
        for t in CATALOG.covers.values():
            for _ in range(15):
                f = _random_char(rng, t.base)
                g = _random_char(rng, t.base)
                lhs = euler_pairing(t.cover, pullback_ch(t, f), pullback_ch(t, g))
                assert lhs == t.degree * euler_pairing(t.base, f, g)


def _random_char(rng, surface):
    from fmlattice.surfaces import InvariantError
    while True:
        r = rng.randint(-3, 3)
        c = tuple(rng.randint(-3, 3) for _ in range(surface.dim))
        try:
            return surface.character(r, c, rng.randint(-3, 3))
        except InvariantError:
            continue


class TestConstruction:
    def test_rejects_nontrivial_cover_order(self):
        enr = CATALOG.surfaces["enriques_toy"]
        with pytest.raises(ValueError):
            CoverTransfer(enr, enr, 2, Matrix([[1]]), Matrix([[2]]))

    def test_rejects_bad_shapes(self):
        base = CATALOG.surfaces["bielliptic_2"]
        cover = CATALOG.surfaces["product_elliptic"]
        with pytest.raises(DimensionError):
            CoverTransfer(base, cover, 2, Matrix([[1]]), Matrix([[2, 0], [0, 1]]))

    def test_rejects_rational_matrices(self):
        base = CATALOG.surfaces["enriques_toy"]
        cover = CATALOG.surfaces["k3_toy"]
        with pytest.raises(ValueError):
            CoverTransfer(base, cover, 2, Matrix([[Fraction(1, 2)]]), Matrix([[2]]))

    def test_degree_is_exact_like_an_action_order(self):
        # bools and floats are no degree; a whole Fraction is stored as the int
        base, cover = ENR.base, ENR.cover
        for bad in (True, 2.0):
            with pytest.raises(TypeError):
                CoverTransfer(base, cover, bad, ENR.pull_num, ENR.push_num)
        for bad in (Fraction(3, 2), 0, -2):
            with pytest.raises(ValueError, match="cover degree must be a positive integer"):
                CoverTransfer(base, cover, bad, ENR.pull_num, ENR.push_num)
        t = CoverTransfer(base, cover, Fraction(4, 2), ENR.pull_num, ENR.push_num)
        assert type(t.degree) is int and t == ENR
        assert validate_cover(t).passed


class TestValidatedOnce:
    """validate_cover reads CoverTransfer.validation, made once per transfer;
    the definitions loader makes it for every cover it checks, so a
    `cover validate` line multiplies no matrix at all."""

    @staticmethod
    def count_products(monkeypatch):
        calls = []
        original = Matrix.__matmul__

        def counted(self, other):
            calls.append(1)
            return original(self, other)

        monkeypatch.setattr(Matrix, "__matmul__", counted)
        return calls

    def test_one_report_per_transfer(self):
        for t in CATALOG.covers.values():
            assert validate_cover(t) is validate_cover(t) is t.validation

    def test_cover_validate_line_makes_no_product(self, monkeypatch):
        from fmlattice.cli import run_cli

        builtin_catalog()
        calls = self.count_products(monkeypatch)
        code, out = run_cli(["cover", "validate", "bielliptic_cover_3"])
        assert code == 0 and out.count("PASS ") == 5
        assert calls == []  # 4 while each line validated the cover again

    def test_loaded_cover_is_not_checked_again(self, monkeypatch):
        from fmlattice.defsio import load_definitions

        text = (Path(__file__).resolve().parent / "data" / "enriques_k3_18.defs").read_text(encoding="utf-8")
        entries = load_definitions(text, registry=CATALOG.registry())
        calls = self.count_products(monkeypatch)
        for entry in entries:
            if entry.kind == "cover":
                assert validate_cover(entry.payload).passed
        assert calls == []

    def test_allow_invalid_cover_still_prints_its_fail_lines(self):
        from fmlattice.cli import run_cli

        defs = str(Path(__file__).resolve().parent / "data" / "golden.defs")
        argv = ["cover", "validate", "golden_bad_cover", "--defs", defs, "--allow-invalid"]
        expected = ("PASS degree_equals_canonical_order\n"
                    "PASS intersection_scaling\n"
                    "FAIL pushforward_adjointness: (push f1).e2 = 1 but f1.(pull e2) = 2\n"
                    "FAIL degree_identity: push(pull(e1)) = (1, 0), expected (2, 0)\n"
                    "PASS chi_multiplicativity\n")
        assert run_cli(argv) == (0, expected)
        assert run_cli(argv) == (0, expected)
        assert run_cli(argv + ["--strict"]) == (1, expected)
