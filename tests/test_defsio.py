from fractions import Fraction

import pytest

from fmlattice.catalog import builtin_catalog, builtin_text
from fmlattice.defsio import (
    DefsError,
    DefsParseError,
    load_definitions,
    parse_matrix_text,
)
from fmlattice.lattice import Matrix

SURFACE = """
surface s {
  rank 1
  intersection [2]
  chi_o 0
  canonical_order 1
}
"""


class TestShippedCatalog:
    def test_counts(self):
        entries = load_definitions(builtin_text())
        kinds = {}
        for e in entries:
            kinds[e.kind] = kinds.get(e.kind, 0) + 1
        assert kinds == {"surface": 8, "cover": 5, "vector": 6, "action": 2}

    def test_every_cover_validates(self):
        from fmlattice.covers import validate_cover
        for t in builtin_catalog().covers.values():
            assert validate_cover(t).passed

    def test_chi_values(self):
        cat = builtin_catalog()
        expected = {"abelian_ppav": 0, "product_elliptic": 0, "k3_toy": 2,
                    "enriques_toy": 1, "bielliptic_2": 0, "bielliptic_3": 0,
                    "bielliptic_4": 0, "bielliptic_6": 0}
        for name, chi in expected.items():
            assert cat.surfaces[name].chi_o == chi
        for t in cat.covers.values():
            assert t.cover.chi_o == t.degree * t.base.chi_o

    def test_registry_is_built_once_and_read_only(self):
        cat = builtin_catalog()
        registry = cat.registry()
        assert cat.registry() is registry
        assert set(registry) == {e.id for e in cat.entries}
        with pytest.raises(TypeError):
            registry["abelian_ppav"] = None
        extended = cat.extend(load_definitions(SURFACE, registry=registry))
        assert "s" in extended.registry() and "s" not in registry


class TestParsing:
    def test_empty_input(self):
        assert load_definitions("") == []
        assert load_definitions("   \n # just a comment\n") == []

    def test_single_surface(self):
        entries = load_definitions(SURFACE)
        assert len(entries) == 1
        s = entries[0].payload
        assert s.name == "s" and s.dim == 1 and s.num.gram == Matrix([[2]])

    def test_vector_with_fraction(self):
        text = SURFACE + """
vector half {
  on s
  r 0
  c 1
  ch2 -1/1
}
"""
        entries = load_definitions(text)
        assert entries[1].payload.chern.ch2 == -1

    def test_whitespace_insensitive_inside_blocks(self):
        text = "surface  s   {\n   rank   1\n\n  intersection   [ 2 ]\n chi_o 0\n canonical_order 1\n}\n"
        entries = load_definitions(text)
        assert entries[0].payload.num.gram == Matrix([[2]])

    def test_matrix_spanning_lines(self):
        text = """
surface s {
  rank 2
  intersection [0,1;
                1,0]
  chi_o 0
  canonical_order 1
}
"""
        entries = load_definitions(text)
        assert entries[0].payload.num.gram == Matrix([[0, 1], [1, 0]])

    def test_parse_error_carries_position(self):
        with pytest.raises(DefsParseError) as err:
            load_definitions("surface s {\n  rank ?\n}\n")
        assert err.value.line == 2

    @pytest.mark.parametrize("number, outcome", [
        ("1/0", "bad number '1/0'"),
        ("3/", "bad number '3/'"),
        ("\u00b2", "bad number '\u00b2'"),
        ("1/2", "expected an integer"),
        ("4/2", 2),
        ("-7", -7),
    ])
    def test_numbers_on_both_sides_of_the_slash_split(self, number, outcome):
        text = SURFACE.replace("chi_o 0", f"chi_o {number}")
        if isinstance(outcome, int):
            assert load_definitions(text)[0].payload.chi_o == outcome
            return
        with pytest.raises(DefsParseError) as err:
            load_definitions(text)
        assert (str(err.value), err.value.line, err.value.column) == (
            f"line 5, column 9: {outcome}", 5, 9)

    def test_unknown_field(self):
        with pytest.raises(DefsParseError, match="unknown field"):
            load_definitions("surface s {\n  volume 1\n}\n")

    def test_missing_field(self):
        with pytest.raises(DefsParseError, match="missing field"):
            load_definitions("surface s {\n  rank 1\n}\n")

    def test_duplicate_id(self):
        with pytest.raises(DefsError, match="duplicate id"):
            load_definitions(SURFACE + SURFACE)

    def test_duplicate_against_registry(self):
        cat = builtin_catalog()
        text = SURFACE.replace("surface s", "surface abelian_ppav")
        with pytest.raises(DefsError, match="duplicate id"):
            load_definitions(text, registry=cat.registry())

    def test_unknown_reference(self):
        with pytest.raises(DefsParseError, match="unknown surface"):
            load_definitions("vector v {\n  on nowhere\n  r 1\n  c 0\n  ch2 0\n}\n")


class TestValidation:
    def test_degenerate_form_rejected(self):
        text = """
surface s {
  rank 2
  intersection [1,1;1,1]
  chi_o 0
  canonical_order 1
}
"""
        with pytest.raises(DefsError, match="nondegenerate"):
            load_definitions(text)

    def test_degree_axiom_failure_named(self):
        text = """
surface base {
  rank 1
  intersection [2]
  chi_o 0
  canonical_order 3
}
surface top {
  rank 1
  intersection [4]
  chi_o 0
  canonical_order 1
}
cover c {
  base base
  cover top
  degree 2
  pull [1]
  push [2]
}
"""
        with pytest.raises(DefsError, match="degree_equals_canonical_order"):
            load_definitions(text)

    def test_allow_invalid_skips_axioms(self):
        text = """
surface base {
  rank 1
  intersection [2]
  chi_o 0
  canonical_order 3
}
surface top {
  rank 1
  intersection [4]
  chi_o 0
  canonical_order 1
}
cover c {
  base base
  cover top
  degree 2
  pull [1]
  push [2]
}
"""
        entries = load_definitions(text, allow_invalid=True)
        assert entries[-1].kind == "cover"

    def test_parity_violation_rejected(self):
        text = SURFACE + """
vector bad {
  on s
  r 1
  c 1
  ch2 1/2
}
"""
        with pytest.raises(DefsError, match="even"):
            load_definitions(text)

    def test_action_validation(self):
        text = SURFACE + """
action a {
  on s
  order 2
  gen [1,0,0;0,1,0;0,0,2]
}
"""
        with pytest.raises(DefsError, match="order"):
            load_definitions(text)


def test_parse_matrix_text():
    assert parse_matrix_text("[1,0;0,2]") == Matrix([[1, 0], [0, 2]])
    assert parse_matrix_text("[1/2]") == Matrix([[Fraction(1, 2)]])
    with pytest.raises(DefsParseError):
        parse_matrix_text("1,0;0,2")
    with pytest.raises(DefsParseError):
        parse_matrix_text("[1,0;2]")
