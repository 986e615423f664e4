import re

import pytest

import fmlattice.cli
from fmlattice.catalog import EXAMPLE_IDS, ReproReport, builtin_catalog, reproduce


@pytest.mark.parametrize("example", EXAMPLE_IDS)
def test_every_report_passes_with_unique_check_names(example):
    report = reproduce(example)
    assert isinstance(report, ReproReport) and report.example == example
    assert report.passed and report.checks
    names = [c.name for c in report.checks]
    assert len(set(names)) == len(names)
    assert isinstance(report.checks, tuple)
    hash(report)  # a frozen report of frozen checks
    assert reproduce(example, builtin_catalog()) == report


def test_example_ids_keep_their_order_and_are_the_cli_choices():
    assert EXAMPLE_IDS == ("ex3.5", "ex3.6", "ex5.2", "ex5.3", "mukai-no-descent")
    (spec,) = fmlattice.cli._COMMANDS["reproduce"].args
    assert spec == ("id", {"choices": EXAMPLE_IDS})


def test_unknown_id_names_every_known_id():
    message = "unknown example id 'ex9.9'; known: " + ", ".join(EXAMPLE_IDS)
    with pytest.raises(ValueError, match=re.escape(message) + "$"):
        reproduce("ex9.9")
