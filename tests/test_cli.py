import json
import os
import shlex
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import fmlattice.cli
from fmlattice.cli import _catalog_for, _parser, _table_parse, main, run_cli, run_script

ROOT = Path(__file__).resolve().parent.parent
GOLDEN_DEFS = ROOT / "tests" / "data" / "golden.defs"
CLI_GOLDEN = ROOT / "tests" / "data" / "cli_golden.txt"


@pytest.fixture(autouse=True)
def fresh_catalog_cache():
    """Each test starts and ends with an empty --defs catalog cache."""
    _catalog_for.cache_clear()
    yield
    _catalog_for.cache_clear()


def run(*argv):
    return run_cli(list(argv))


def surface_defs(name, gram="[6]", chi_o=2):
    return (f"surface {name} {{\n  rank 1\n  intersection {gram}\n"
            f"  chi_o {chi_o}\n  canonical_order 1\n}}\n")


class TestBasicCommands:
    def test_chi_example(self):
        code, out = run("chi", "--surface", "abelian_ppav", "--e", "1,0;0", "--f", "4,2;1")
        assert (code, out) == (0, "1\n")

    def test_chi_records(self):
        code, out = run("chi", "--surface", "abelian_ppav", "--e", "1,0;0",
                        "--f", "4,2;1", "--records")
        assert (code, out) == (0, "chi\t1\n")

    def test_chi_with_catalog_vector(self):
        code, out = run("chi", "--surface", "abelian_ppav", "--e", "1,0;0",
                        "--f", "v_4_2l_1_ppav")
        assert (code, out) == (0, "1\n")

    def test_pairing(self):
        code, out = run("pairing", "--surface", "k3_toy", "--v", "1,0;1", "--w", "1,0;1")
        assert (code, out) == (0, "-2\n")

    def test_mukai(self):
        code, out = run("mukai", "--surface", "k3_toy", "--e", "1,0;0")
        assert (code, out) == (0, "1,0;1\n")

    def test_mukai_half_integral(self):
        code, out = run("mukai", "--surface", "enriques_toy", "--e", "1,0;0")
        assert (code, out) == (0, "1,0;1/2\n")

    def test_moduli_dim(self):
        code, out = run("moduli-dim", "--surface", "k3_toy", "--e", "ideal_point")
        assert (code, out) == (0, "2\n")

    def test_surface_show(self):
        code, out = run("surface", "show", "enriques_toy")
        assert code == 0
        assert out.splitlines() == [
            "surface enriques_toy",
            "rank 1",
            "intersection [2]",
            "chi_o 1",
            "canonical_order 2",
        ]


class TestCoverCommands:
    def test_validate_five_pass_lines(self):
        code, out = run("cover", "validate", "bielliptic_cover_3")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 5
        assert all(line.startswith("PASS ") for line in lines)

    def test_push(self):
        code, out = run("push", "--cover", "bielliptic_cover_2", "--e", "v_4_2l_1")
        assert (code, out) == (0, "8,4,2;1\n")

    def test_pull(self):
        code, out = run("pull", "--cover", "bielliptic_cover_2", "--f", "0,0,0;1")
        assert (code, out) == (0, "0,0,0;2\n")

    def test_adjunction(self):
        code, out = run("adjunction", "--cover", "bielliptic_cover_2",
                        "--f", "1,0,0;0", "--e", "v_4_2l_1")
        assert code == 0
        assert out.splitlines() == ["lhs 1", "rhs 1", "equal true"]

    def test_free_by_vector_name(self):
        code, out = run("free", "--cover", "bielliptic_cover_2", "--vector", "v_4_2l_1")
        assert code == 0
        assert "gcd 1" in out.splitlines()
        assert "free true" in out.splitlines()

    def test_free_negative_strict(self):
        code, out = run("free", "--cover", "bielliptic_cover_2",
                        "--e", "1,0,0;0", "--strict")
        assert code == 1
        assert "free false" in out.splitlines()

    def test_free_negative_not_strict(self):
        code, _ = run("free", "--cover", "bielliptic_cover_2", "--e", "1,0,0;0")
        assert code == 0

    def test_obstruction(self):
        code, out = run("obstruction", "--cover", "bielliptic_cover_2",
                        "--e", "poincare", "--m", "1")
        assert code == 0
        assert out.splitlines() == ["applicable true", "divisor 2", "all_divisible true"]

    def test_obstruction_not_applicable(self):
        code, out = run("obstruction", "--cover", "bielliptic_cover_2",
                        "--e", "v_4_2l_1", "--m", "1")
        assert code == 0
        assert out.splitlines()[0] == "applicable false"

    def test_vector_surface_mismatch(self):
        code, out = run("free", "--cover", "bielliptic_cover_2", "--vector", "ideal_point")
        assert code == 2
        assert out.startswith("error:")


class TestTransportCommands:
    IDENTITY = "[1,0,0,0;0,1,0,0;0,0,1,0;0,0,0,1]"
    SWAP = "[1,0,0,0;0,0,1,0;0,1,0,0;0,0,0,1]"

    def test_descend_identity(self):
        code, out = run("descend-map", "--cover-y", "bielliptic_cover_2",
                        "--cover-x", "bielliptic_cover_2", "--mat", self.IDENTITY)
        assert code == 0
        assert out.splitlines() == ["descends true", f"map {self.IDENTITY}"]

    def test_descend_swap_witness(self):
        code, out = run("descend-map", "--cover-y", "bielliptic_cover_2",
                        "--cover-x", "bielliptic_cover_2", "--mat", self.SWAP,
                        "--strict")
        assert code == 1
        lines = out.splitlines()
        assert lines[0] == "descends false"
        assert lines[1] == "reason no integral solution"
        assert lines[2] == "witness (0,2,0,0) -> (0,0,1,0)"

    def test_lift_identity(self):
        code, out = run("lift-map", "--cover-y", "bielliptic_cover_2",
                        "--cover-x", "bielliptic_cover_2", "--mat", self.IDENTITY)
        assert code == 0
        assert out.splitlines() == ["lifts 1", f"lift.1 {self.IDENTITY}"]

    def test_equivariant(self):
        code, out = run("equivariant", "--action-y", "swap", "--action-x", "swap",
                        "--mat", self.IDENTITY)
        assert code == 0
        assert out.splitlines() == ["equivariant true", "mu 0,1"]

    def test_not_equivariant_strict(self):
        code, out = run("equivariant", "--action-y", "trivial", "--action-x", "swap",
                        "--mat", self.IDENTITY, "--strict")
        assert code == 1
        assert out.splitlines() == ["equivariant false"]


class TestAvgAndReproduce:
    def test_avg_verify_deterministic(self):
        first = run("avg", "verify", "--trials", "25", "--seed", "7")
        second = run("avg", "verify", "--trials", "25", "--seed", "7")
        assert first == second
        code, out = first
        assert code == 0
        assert out.splitlines() == ["trials 25", "failures 0", "all_hold true"]

    @pytest.mark.parametrize("example", ["ex3.5", "ex3.6", "ex5.2", "ex5.3",
                                         "mukai-no-descent"])
    def test_reproduce_all_pass(self, example):
        code, out = run("reproduce", example)
        assert code == 0
        lines = out.splitlines()
        assert lines[-1] == "result PASS"
        assert all(line.startswith("PASS") for line in lines[:-1])

    def test_reproduce_records(self):
        code, out = run("reproduce", "ex3.6", "--records")
        assert code == 0
        assert "computed.moduli dimension of (4,2l,1)\t2" in out.splitlines()
        assert out.splitlines()[-1] == "result\tpass"


class TestErrorsAndDeterminism:
    def test_unknown_command(self):
        code, out = run("frobnicate")
        assert code == 2

    def test_no_command(self):
        code, out = run()
        assert code == 2

    def test_unknown_surface(self):
        code, out = run("chi", "--surface", "nowhere", "--e", "1;0", "--f", "1;0")
        assert code == 2
        assert out.startswith("error: unknown surface")

    def test_bad_vector_syntax(self):
        code, out = run("chi", "--surface", "k3_toy", "--e", "whatever", "--f", "1,0;0")
        assert code == 2

    def test_wrong_vector_length(self):
        code, out = run("chi", "--surface", "k3_toy", "--e", "1,0,0;0", "--f", "1,0;0")
        assert code == 2

    def test_parity_violation_is_input_error(self):
        code, out = run("chi", "--surface", "k3_toy", "--e", "1,0;1/2", "--f", "1,0;0")
        assert code == 2

    def test_free_empty_vector_is_input_error(self):
        code, out = run("free", "--cover", "bielliptic_cover_2", "--vector", "")
        assert code == 2
        assert out.startswith("error: bad class ''")

    def test_result_beyond_the_int_string_limit_is_an_input_error(self, capsys):
        # CPython will not print an int of more than sys.get_int_max_str_digits()
        # digits (4,300 by default); chi of two 3,000-digit ranks has 6,001
        nines = "9" * 3000
        previous = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            code, out = run("chi", "--surface", "k3_toy", "--e", f"{nines},0;0",
                            "--f", f"{nines},0;0")
        finally:
            sys.set_int_max_str_digits(previous)
        assert code == 2
        assert out == ("error: a number in the result has more than 4300 digits;"
                       " set PYTHONINTMAXSTRDIGITS=0 to lift the limit\n")
        assert capsys.readouterr() == ("", "")

    def test_missing_defs_file(self):
        code, out = run("chi", "--surface", "k3_toy", "--e", "1,0;0", "--f", "1,0;0",
                        "--defs", "/nonexistent/file.defs")
        assert code == 2

    def test_defs_file_that_is_not_utf8_names_the_file(self, tmp_path):
        bad = tmp_path / "bad.defs"
        bad.write_bytes(b"\xff\xfe")
        code, out = run("free", "--cover", "bielliptic_cover_2", "--e", "1,0,0;0", "--defs", str(bad))
        assert (code, out) == (2, f"error: cannot read {bad}: 'utf-8' codec can't decode byte 0xff"
                                  " in position 0: invalid start byte\n")

    def test_defs_extend_catalog(self, tmp_path):
        defs = tmp_path / "extra.defs"
        defs.write_text("""
surface my_k3 {
  rank 1
  intersection [6]
  chi_o 2
  canonical_order 1
}
""")
        code, out = run("chi", "--surface", "my_k3", "--e", "1,0;0", "--f", "1,0;0",
                        "--defs", str(defs))
        assert (code, out) == (0, "2\n")

    def test_action_order_above_the_cap_is_an_input_error(self, tmp_path):
        # equivariant prints one exponent per element of the stated order
        defs = tmp_path / "big.defs"
        identity = "[1,0,0;0,1,0;0,0,1]"
        for order, expected in ((1000, 0), (1001, 2)):
            defs.write_text(surface_defs("my_k3") + f"action big {{ on my_k3\n  order {order}\n  gen {identity} }}\n")
            code, out = run("equivariant", "--action-y", "big", "--action-x", "big", "--mat", identity,
                            "--defs", str(defs))
            assert code == expected
        assert out == "error: action 'big': order must be at most 1000\n"

    def test_byte_identical_output(self):
        args = ("free", "--cover", "bielliptic_cover_6", "--vector", "v_4_2l_1",
                "--records")
        assert run(*args) == run(*args)

    def test_session_script_replays_identically(self):
        script = """
# a short session
chi --surface abelian_ppav --e 1,0;0 --f 4,2;1
free --cover bielliptic_cover_2 --vector v_4_2l_1
cover validate enriques_cover
reproduce ex5.3 --records
"""
        first = run_script(script)
        second = run_script(script)
        assert first == second
        code, out = first
        assert code == 0
        assert out.startswith("$ chi")

    def test_unbalanced_quote_is_an_error_of_its_line(self):
        code, out = run_script('chi "abc\nchi --surface abelian_ppav --e 1,0;0 --f 4,2;1\n')
        assert code == 2
        assert out == ('$ chi "abc\nerror: No closing quotation\n'
                       "$ chi --surface abelian_ppav --e 1,0;0 --f 4,2;1\n1\n")


class TestHelp:
    @pytest.mark.parametrize("argv", [["-h"], ["chi", "--help"], ["surface", "-h"],
                                      ["surface", "show", "-h"], ["avg", "verify", "--help"]])
    def test_help_is_returned_not_printed(self, argv, capsys):
        code, out = run(*argv)
        assert code == 0
        assert out.startswith("usage: fmlat")
        assert "show this help message and exit" in out
        assert capsys.readouterr().out == ""

    def test_help_line_does_not_end_a_session(self):
        code, out = run_script("chi -h\nchi --surface abelian_ppav --e 1,0;0 --f 4,2;1\n")
        assert code == 0
        assert out.startswith("$ chi -h\nusage: fmlat chi ")
        assert out.endswith("$ chi --surface abelian_ppav --e 1,0;0 --f 4,2;1\n1\n")

    def test_main_prints_help_and_exits_zero(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "argv", ["fmlat", "chi", "-h"])
        with pytest.raises(SystemExit) as exc:
            main()
        assert exc.value.code == 0
        assert capsys.readouterr().out == run("chi", "-h")[1]


class TestFlagPlacement:
    """Common flags belong after the full subcommand; placed before a
    sub-subcommand they are rejected, not silently dropped."""

    @pytest.mark.parametrize("argv", [
        ["surface", "--defs=extra.defs", "show", "enriques_toy"],
        ["surface", "--records", "show", "enriques_toy"],
        ["cover", "--strict", "validate", "bielliptic_cover_2"],
        ["avg", "--allow-invalid", "verify", "--trials", "1"],
    ])
    def test_common_flag_before_leaf_is_rejected(self, argv):
        code, out = run(*argv)
        assert code == 2
        assert out.endswith(f"error: unrecognized arguments: {argv[1]}\n")

    def test_defs_before_leaf_is_rejected(self, tmp_path):
        defs = tmp_path / "extra.defs"
        defs.write_text("surface my_k3 {\n  rank 1\n  intersection [6]\n"
                        "  chi_o 2\n  canonical_order 1\n}\n")
        code, out = run("surface", "--defs", str(defs), "show", "my_k3")
        assert code == 2
        assert "error: " in out
        code, out = run("surface", "show", "my_k3", "--defs", str(defs), "--records")
        assert code == 0
        assert out.splitlines()[:2] == ["surface\tmy_k3", "rank\t1"]



class TestArgvTypes:
    """argv must be a sequence of str; anything else is an input error that
    names the offending type, found before any parsing."""

    @pytest.mark.parametrize("argv, kind", [
        (["chi", 5], "int"),
        ("chi", "str"),
        (b"chi", "bytes"),
        (["surface", "show", b"k3_toy"], "bytes"),
        (["chi", None], "NoneType"),
        (None, "NoneType"),
        (7, "int"),
    ])
    def test_odd_argv_is_an_input_error(self, argv, kind):
        assert run_cli(argv) == (2, f"error: argv must be a sequence of str, got {kind}\n")

    def test_any_iterable_of_str_is_argv(self):
        argv = ["chi", "--surface", "abelian_ppav", "--e", "1,0;0", "--f", "4,2;1"]
        assert run_cli(iter(argv)) == run_cli(tuple(argv)) == (0, "1\n")


def golden_lines(exit_code):
    """The argv of each "$" line of the CLI golden transcript that exits
    with exit_code."""
    lines, argv = [], None
    for line in CLI_GOLDEN.read_text(encoding="utf-8").splitlines():
        if line.startswith("$ "):
            argv = shlex.split(line[2:])
        elif line.startswith("# exit ") and int(line[7:]) == exit_code:
            lines.append(argv)
    return lines


class TestTableParse:
    """Well-formed lines are parsed from the option table, exactly as
    argparse would parse them; argparse parses every other line, and is
    built only then."""

    def test_golden_lines_that_succeed_take_the_table_path(self):
        lines = golden_lines(0)
        assert len(lines) > 60
        for argv in lines:
            table = _table_parse(argv)
            assert table is not None, argv
            assert vars(table) == vars(_parser().parse_args(argv)), argv

    def test_well_formed_line_builds_no_parser(self):
        _parser.cache_clear()
        try:
            assert run("surface", "show", "k3_toy", "--records")[0] == 0
            assert run("avg", "verify", "--trials=1", "--seed", "3", "--max-dim=3")[0] == 0
            assert _parser.cache_info().currsize == 0
            assert run("chi", "--surf", "abelian_ppav", "--e", "1,0;0", "--f", "4,2;1") == (0, "1\n")
            assert _parser.cache_info().currsize == 1
        finally:
            _parser.cache_clear()

    @pytest.mark.parametrize("argv", [
        ["chi", "--surf", "k3_toy", "--e", "1,0;0", "--f", "1,0;0"],  # abbreviated
        ["chi", "--surface", "k3_toy", "--e", "-1,0;0", "--f", "1,0;0"],  # dashed value
        ["chi", "--surface=k3_toy", "--e=--", "--f", "1,0;0"],
        ["chi", "--surface", "k3_toy", "--e", "1,0;0", "--e", "2,0;0", "--f", "1,0;0"],
        ["chi", "--surface", "k3_toy", "--e", "1,0;0"],  # --f missing
        ["chi", "--surface", "k3_toy", "--e", "1,0;0", "--f"],
        ["chi", "--surface", "k3_toy", "--e", "1,0;0", "--f", "1,0;0", "extra"],
        ["chi", "--surface", "k3_toy", "--e", "1,0;0", "--f", "1,0;0", "--records=yes"],
        ["chi", "--surface", "k3_toy", "--e", "1,0;0", "--f", "1,0;0", "-h"],
        ["free", "--cover", "bielliptic_cover_2"],  # neither --vector nor --e
        ["free", "--cover", "bielliptic_cover_2", "--vector", "v_4_2l_1", "--e", "1,0,0;0"],
        ["obstruction", "--cover", "bielliptic_cover_2", "--e", "poincare", "--m", "two"],
        ["reproduce", "ex9.9"],
        ["surface", "--records", "show", "k3_toy"],
        ["surface", "k3_toy"],
        ["avg"],
        [],
    ])
    def test_other_lines_go_to_argparse(self, argv):
        assert _table_parse(argv) is None

    def test_table_namespace_has_every_default(self):
        ns = vars(_table_parse(["avg", "verify", "--seed=4", "--records", "--records"]))
        assert ns == {"command": "avg", "leaf": "verify", "defs": [], "records": True,
                      "strict": False, "allow_invalid": False, "trials": 200, "seed": 4,
                      "max_order": 12, "max_dim": 20}
        assert ns == vars(_parser().parse_args(["avg", "verify", "--seed=4", "--records",
                                                "--records"]))

    @pytest.mark.parametrize("argv, flag", [
        (["pairing", "--surface", "k3_toy", "--v=--", "--w", "1,0;0"], "--v"),
        (["lift-map", "--cover-y", "bielliptic_cover_2", "--cover-x", "bielliptic_cover_2",
          "--mat=--"], "--mat"),
        (["chi", "--surf=--", "--e", "1,0;0", "--f", "1,0;0"], "--surface"),
        (["obstruction", "--cover", "bielliptic_cover_2", "--e", "poincare", "--m=--"], "--m"),
        (["surface", "show", "k3_toy", "--defs=--"], "--defs"),
    ])
    def test_dash_dash_joined_to_a_flag_is_a_usage_error(self, argv, flag):
        # argparse reads --v=-- as the empty list before 3.13 and as "--"
        # from 3.13 on; on every version it is the error of --v --
        code, out = run(*argv)
        assert (code, out) == run(*[w.replace("=--", "") for w in argv], "--")
        assert code == 2
        assert out.startswith("usage: fmlat ")
        assert out.endswith(f"\nerror: argument {flag}: expected one argument\n")


SESSION = [
    ["chi", "--surface", "abelian_ppav", "--e", "1,0;0", "--f", "4,2;1"],
    ["surface", "show", "bielliptic_4", "--records"],
    ["cover", "validate", "bielliptic_cover_6"],
    ["free", "--cover", "bielliptic_cover_2", "--e", "1,0,0;0", "--strict"],
    ["descend-map", "--cover-y", "bielliptic_cover_2", "--cover-x", "bielliptic_cover_2",
     "--mat", "[1,0,0,0;0,0,1,0;0,1,0,0;0,0,0,1]", "--records"],
    ["lift-map", "--cover-y", "bielliptic_cover_3", "--cover-x", "bielliptic_cover_3",
     "--mat", "[1,0,0,0;0,1,0,0;0,0,1,0;0,0,0,1]"],
    ["equivariant", "--action-y", "swap", "--action-x", "swap",
     "--mat", "[1,0,0,0;0,1,0,0;0,0,1,0;0,0,0,1]", "--records"],
    ["avg", "verify", "--trials", "2", "--seed", "5", "--max-order", "4", "--max-dim", "4"],
    ["reproduce", "ex3.6", "--records"],
    ["pairing", "--surface", "k3_toy", "--v", "1,0;1", "--w", "2,1;-1/2"],
    ["chi", "--surface", "nowhere", "--e", "1;0", "--f", "1;0"],
    ["cover", "--strict", "validate", "bielliptic_cover_2"],
    ["obstruction", "--cover", "bielliptic_cover_2", "--e", "poincare"],
    ["mukai", "--help"],
    [],
]


def test_threads_share_the_parser_safely():
    threads_n = 8
    serial = [run_cli(argv) for argv in SESSION]
    results = [None] * threads_n
    barrier = threading.Barrier(threads_n)

    def work(i):
        # each thread runs the session from a different starting line
        order = SESSION[i:] + SESSION[:i]
        barrier.wait(timeout=30)
        results[i] = [run_cli(argv) for argv in order for _ in range(3)]

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(threads_n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    for i, got in enumerate(results):
        expected = serial[i:] + serial[:i]
        assert got == [r for r in expected for _ in range(3)]


def show_k3(*defs):
    """surface show k3_toy with each path in defs given as --defs."""
    argv = ["surface", "show", "k3_toy"]
    for path in defs:
        argv += ["--defs", str(path)]
    return run_cli(argv)


class TestDefsCache:
    """--defs files are read on every call and parsed and validated once per
    distinct content; errors are never cached."""

    @pytest.fixture
    def load_calls(self, monkeypatch):
        calls = []
        real = fmlattice.cli.load_definitions

        def counting(text, **kw):
            calls.append(text)
            return real(text, **kw)

        monkeypatch.setattr(fmlattice.cli, "load_definitions", counting)
        return calls

    def test_rewritten_file_gives_the_new_output(self, tmp_path):
        defs = tmp_path / "extra.defs"
        argv = ("chi", "--surface", "my_k3", "--e", "1,0;0", "--f", "1,0;0", "--defs", str(defs))
        for chi_o in (2, 5, 2):
            defs.write_text(surface_defs("my_k3", chi_o=chi_o))
            assert run(*argv) == (0, f"{chi_o}\n")

    def test_errors_keep_their_order(self, tmp_path):
        good = tmp_path / "good.defs"
        good.write_text(surface_defs("my_k3"))
        bad = tmp_path / "bad.defs"
        bad.write_text("surface s {\n  rank ?\n}\n")
        missing = tmp_path / "missing.defs"
        parse_error = (2, "error: line 2, column 8: unexpected character '?'\n")
        cannot_read = (2, f"error: cannot read {missing}: No such file or directory\n")
        assert show_k3(good)[0] == 0
        # the second round starts from a cached file
        for lead in ((), (good,)):
            assert show_k3(*lead, bad, missing) == parse_error
            assert show_k3(*lead, missing, bad) == cannot_read

    @pytest.mark.parametrize("order", [(True, False), (False, True)])
    def test_invalid_cover_needs_allow_invalid_in_either_order(self, order):
        argv = ["cover", "validate", "golden_bad_cover", "--defs", str(GOLDEN_DEFS)]
        rejected = (2, "error: cover 'golden_bad_cover' violates axiom 'pushforward_adjointness': "
                       "(push f1).e2 = 1 but f1.(pull e2) = 2\n")
        for allow in order * 2:
            code, out = run_cli(argv + ["--allow-invalid"] * allow)
            if allow:
                assert code == 0 and "FAIL pushforward_adjointness: " in out
            else:
                assert (code, out) == rejected

    def test_failing_file_fails_on_every_call(self, tmp_path, load_calls):
        bad = tmp_path / "bad.defs"
        bad.write_text("surface s {\n  rank ?\n}\n")
        results = [show_k3(bad) for _ in range(3)]
        assert results == [(2, "error: line 2, column 8: unexpected character '?'\n")] * 3
        assert len(load_calls) == 3
        assert _catalog_for.cache_info().currsize == 0

    def test_script_loads_one_file_once(self, load_calls):
        line = ("chi --surface bench_enriques --e bench_enriques_v2 --f bench_enriques_v2 "
                f"--defs {ROOT / 'bench' / 'defs' / 'enriques_k3.defs'}\n")
        code, out = run_script(line * 10)
        assert code == 0
        assert out.splitlines()[1::2] == ["6"] * 10
        assert len(load_calls) == 1

    def test_threads_share_cached_catalogs(self):
        threads_n = 8
        lines = [
            ["cover", "validate", "golden_bad_cover", "--allow-invalid"],
            ["cover", "validate", "golden_bad_cover"],
            ["lift-map", "--cover-y", "golden_split_cover", "--cover-x", "golden_split_cover",
             "--mat", "[1,0,0;0,1,0;0,0,1]", "--allow-invalid", "--records"],
            ["surface", "show", "golden_k3_rank2", "--allow-invalid"],
        ]
        lines = [argv + ["--defs", str(GOLDEN_DEFS)] for argv in lines]
        serial = [run_cli(argv) for argv in lines]
        _catalog_for.cache_clear()
        results = [None] * threads_n
        barrier = threading.Barrier(threads_n)

        def work(i):
            barrier.wait(timeout=30)
            results[i] = [run_cli(argv) for argv in lines for _ in range(3)]

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=work, args=(i,)) for i in range(threads_n)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)
        assert results == [[r for r in serial for _ in range(3)]] * threads_n

    def test_cache_stays_bounded(self, tmp_path):
        defs = tmp_path / "extra.defs"
        for k in range(1, 41):
            defs.write_text(surface_defs("my_s", gram=f"[{2 * k}]"))
            code, out = show_k3(defs)
            assert code == 0
            info = _catalog_for.cache_info()
            assert info.maxsize is not None and info.currsize <= info.maxsize
        assert info.misses == 40


def test_python_m_fmlattice_runs_the_cli():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "fmlattice", "chi", "--surface", "abelian_ppav",
         "--e", "1,0;0", "--f", "4,2;1"],
        capture_output=True, text=True, env=env, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "1\n", "")


COLD_START = """
import importlib.resources, json, sys
# what the catalog's resource reader imports (inspect, from Python 3.12 on)
# is not charged to fmlattice
before = set(sys.modules)
import fmlattice.cli
from fmlattice.catalog import builtin_catalog
builtin_catalog()
chi = fmlattice.cli.run_cli(["chi", "--surface", "abelian_ppav", "--e", "1,0;0", "--f", "4,2;1"])
imported = [m for m in ("dataclasses", "inspect", "argparse", "shlex")
            if m in sys.modules and m not in before]
print(json.dumps([chi, imported, fmlattice.cli.run_cli(["chi", "-h"])]))
"""


def test_cold_start_imports_neither_dataclasses_nor_argparse():
    # -S skips site, whose .pth files may import any of these first
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-S", "-c", COLD_START],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    chi, imported, (help_code, help_text) = json.loads(proc.stdout)
    assert chi == [0, "1\n"]
    assert imported == []
    assert help_code == 0 and help_text.startswith("usage: fmlat chi [-h]")
    assert "--surface SURFACE" in help_text
