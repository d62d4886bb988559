import contextlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import trideck
from trideck import cli, determinacy
from trideck.cli import (EXIT_BUDGET, EXIT_DOMAIN, EXIT_OK, EXIT_USAGE, main)

# the module, which the package's function of the same name hides
cyclotomic = sys.modules["trideck.cyclotomic"]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


_UNREAD_AND_CONFLICTING = [
    ["zeros", "--n", "5"],
    ["gm", "--p", "2", "--q", "3", "--r", "3", "--budget", "1"],
    ["zeros", "--n", "5", "--set", "0,1", "--values", "1"],
    ["rline", "norms", "--suite", "default"],
    ["deck", "--set", "0,1", "--values", "1,2"],
    ["reconstruct", "--deck", "d.json", "--values", "1,2"],
]


_SET = '{"intervals": [[0, 1]]}'
_BAD_RATIONALS = [
    (["rline", "cospair", "--h", "1/0"], "--h", "1/0"),
    (["rline", "cospair", "--h", "inf"], "--h", "inf"),
    (["rline", "cospair", "--max-x", "1/0"], "--max-x", "1/0"),
    (["rline", "riesz", "--signs", "1,-1", "--amps", "1/2,x"], "--amps", "x"),
    (["rline", "continuity", "--radii", "0.1,nan"], "--radii", "nan"),
    (["deck", "--values", "1/0,1"], "--values", "1/0"),
    (["intervals", "deck", "--set", _SET, "--x", "1/2", "--y", "1/0"],
     "--y", "1/0"),
    (["intervals", "ddx", "--set", _SET, "--x", "", "--y", "0"], "--x", ""),
    (["intervals", "translate", "--set", _SET, "--other", _SET,
      "--tol=-1/0"], "--tol", "-1/0"),
]
_HUGE_RATIONALS = [
    (["rline", "cospair", "--h", "1e999"], "--h"),
    (["rline", "cospair", "--max-x", "1e999"], "--max-x"),
    (["rline", "riesz", "--signs", "1,1", "--amps", "1e999,1"], "--amps"),
    (["rline", "riesz", "--signs", "1,1", "--amps", "1,1", "--h", "1e999"],
     "--h"),
    (["rline", "continuity", "--radii", "1e999"], "--radii"),
    (["rline", "continuity", "--h", "1e999"], "--h"),
]
_BAD_GRIDS = [
    (["--stride", "0"], "grid deck stride must be >= 1, got 0"),
    (["--stride=-1"], "grid deck stride must be >= 1, got -1"),
    (["--max-x=-1"], "grid deck max_offset must be >= 0, got -256"),
]
_EXTENT = "grid half-width must be positive and finite"
_BAD_EXTENTS = [
    (["--half-width", "0"], _EXTENT),
    (["--half-width=-5"], _EXTENT),
    (["--half-width", "nan"], _EXTENT),
    (["--tail-tol", "nan"], "tail tolerance must be positive"),
    (["--tail-tol", "0"], "tail tolerance must be positive"),
]
_EMPTY_EXPERIMENTS = [
    (["continuity", "--radii=-0.2,0.1"], "probe radii must be nonnegative"),
    (["norms", "--draws", "0"], "--draws must be >= 1, got 0"),
    (["norms", "--draws=-3"], "--draws must be >= 1, got -3"),
]
# Every option that takes a rational, after the words its command needs.
_RATIONAL_OPTIONS = [
    (["deck", "--k", "2"], "--values"),
    (["intervals", "deck", "--set", _SET, "--y", "0"], "--x"),
    (["intervals", "ddx", "--set", _SET, "--x", "0"], "--y"),
    (["intervals", "translate", "--set", _SET, "--other", _SET], "--tol"),
    (["rline", "cospair"], "--h"),
    (["rline", "cospair", "--h", "1/8", "--half-width", "8"], "--max-x"),
    (["rline", "riesz", "--signs", "1"], "--amps"),
    (["rline", "continuity", "--h", "1/8"], "--radii"),
]


class TestExitCodes:
    def test_success(self, capsys):
        code, out, err = run(capsys, "deck", "--n", "5", "--set", "0,1",
                             "--k", "2")
        assert code == EXIT_OK
        assert json.loads(out)["values"] == [2, 1, 0, 0, 1]
        assert "wall_time" in err  # manifest on stderr

    def test_domain_error(self, capsys):
        code, _, err = run(capsys, "gm", "--p", "2", "--q", "3", "--r", "2")
        assert code == EXIT_DOMAIN and "r must be >= 3" in err

    def test_budget_error(self, capsys, monkeypatch):
        monkeypatch.setenv("TRIDECK_BUDGET", "10")
        code, _, err = run(capsys, "sweep", "--n", "7", "--k", "3")
        assert code == EXIT_BUDGET and "budget" in err

    def test_survey_residue_matrix_is_charged(self, capsys, monkeypatch):
        # 10007 * 10006 entries pass the default budget of 10^8; the
        # refusal comes before the matrix is built
        def unbuilt(n):
            raise AssertionError("the residue matrix was built")
        monkeypatch.delenv("TRIDECK_BUDGET", raising=False)
        monkeypatch.setattr(determinacy, "_residue_matrix", unbuilt)
        code, out, err = run(capsys, "survey", "--n", "10007", "--samples",
                             "1", "--mode", "sampled")
        assert code == EXIT_BUDGET and out == ""
        assert err.startswith("trideck: budget refusal: ")

    @pytest.mark.parametrize("argv", [
        ["bispectrum", "--n", "100000", "--set", "0,1"],
        ["bispectrum", "--values", ",".join(["1"] * 10001)]])
    def test_bispectrum_is_charged(self, capsys, monkeypatch, argv):
        # one n x n complex array is 149 GiB at n = 10^5; the refusal
        # comes before the function is built
        def unbuilt(*a):
            raise AssertionError("the function was built")
        monkeypatch.delenv("TRIDECK_BUDGET", raising=False)
        monkeypatch.setattr(cli, "_function_from_args", unbuilt)
        code, out, err = run(capsys, *argv)
        assert code == EXIT_BUDGET and out == ""
        assert err.startswith("trideck: budget refusal: ")

    @pytest.mark.parametrize("argv", [
        ["deck", "--n", "3000000", "--set", "0", "--k", "2"],
        ["deck", "--values", ",".join(["1"] * 1001), "--k", "3"],
        ["reconstruct", "--n", "3000000", "--set", "0"],
        ["reconstruct", "--values", ",".join(["1"] * 501)]])
    def test_deck_and_reconstruct_are_charged(self, capsys, monkeypatch,
                                              argv):
        # n^k deck entries: the refusal comes before the function, with
        # its n Fractions, is built
        def unbuilt(*a):
            raise AssertionError("the function was built")
        monkeypatch.delenv("TRIDECK_BUDGET", raising=False)
        monkeypatch.setattr(cli, "_function_from_args", unbuilt)
        code, out, err = run(capsys, *argv)
        assert code == EXIT_BUDGET and out == ""
        assert err.startswith("trideck: budget refusal: ")

    def test_unsupported_deck_order_is_refused_as_such(self, capsys,
                                                        monkeypatch):
        # 30^7 entries are over the budget too, but no budget makes k = 7
        # a supported order
        monkeypatch.delenv("TRIDECK_BUDGET", raising=False)
        code, out, err = run(capsys, "deck", "--n", "30", "--set", "0",
                             "--k", "7")
        assert (code, out) == (EXIT_DOMAIN, "")
        assert err == "trideck: error: deck order 7 > 6 is unsupported\n"

    @pytest.mark.parametrize("command", ["zeros", "classify"])
    def test_zero_test_is_charged(self, capsys, monkeypatch, command):
        # n * tau(n) = 6.4 * 10^8 additions at n = 10^7: the refusal comes
        # before the n coefficients are built or any divisor is tested
        def unbuilt(*a):
            raise AssertionError("the polynomial was built or tested")
        monkeypatch.delenv("TRIDECK_BUDGET", raising=False)
        monkeypatch.setattr(cyclotomic, "_subset_poly", unbuilt)
        monkeypatch.setattr(cyclotomic, "_divisible", unbuilt)
        code, out, err = run(capsys, command, "--n", "10000000", "--set",
                             "0")
        assert code == EXIT_BUDGET and out == ""
        assert err.startswith("trideck: budget refusal: ")

    def test_gm_decks_are_charged(self, capsys, monkeypatch):
        # n = 4 088 468: the refusal comes before any set is built
        def unbuilt(*a):
            raise AssertionError("an indicator was built")
        monkeypatch.delenv("TRIDECK_BUDGET", raising=False)
        monkeypatch.setattr(trideck.CyclicFunction, "indicator", unbuilt)
        code, out, err = run(capsys, "gm", "--p", "1009", "--q", "1013",
                             "--r", "4")
        assert code == EXIT_BUDGET and out == ""
        assert err.startswith("trideck: budget refusal: ")

    def test_usage_error(self, capsys):
        assert run(capsys, "frobnicate")[0] == EXIT_USAGE
        assert run(capsys)[0] == EXIT_USAGE
        assert run(capsys, "deck", "--bogus-flag")[0] == EXIT_USAGE

    @pytest.mark.parametrize("argv", _UNREAD_AND_CONFLICTING)
    def test_unread_and_conflicting_flags(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == EXIT_USAGE and out == ""
        assert "error:" in err and "usage: trideck" in err

    @pytest.mark.parametrize("argv, message", [
        (["deck"], "one of the arguments --set --values is required"),
        (["deck", "--set", "0,1"], "--set requires --n"),
        (["deck", "--n", "3", "--values", "1,2"],
         "--n 3 but 2 values given"),
        (["bispectrum", "--set", "0,1"], "--set requires --n"),
        (["reconstruct"],
         "one of the arguments --set --values --deck is required"),
        (["reconstruct", "--n", "4", "--values", "1,2"],
         "--n 4 but 2 values given"),
    ])
    def test_function_mistakes_are_usage_errors(self, capsys, argv,
                                                 message):
        code, out, err = run(capsys, *argv)
        assert code == EXIT_USAGE and out == ""
        assert err.startswith(f"trideck {argv[0]}: error: {message}\n"
                              f"usage: trideck {argv[0]} [-h]")

    # Each of these grids is refused before it is allocated.
    @pytest.mark.parametrize("h, budget", [
        ("1e-12", None), ("1/256", "100"), ("5e-324", None)])
    def test_continuity_grid_is_charged(self, capsys, monkeypatch, h,
                                        budget):
        monkeypatch.delenv("TRIDECK_BUDGET", raising=False)
        if budget is not None:
            monkeypatch.setenv("TRIDECK_BUDGET", budget)
        code, out, err = run(capsys, "rline", "continuity", "--h", h)
        assert code == EXIT_BUDGET and out == ""
        assert err.startswith("trideck: budget refusal: ")

    # A step that is not positive and finite is refused before the grid is
    # sized from it; -5e-324 made the size -inf and round() raise.
    @pytest.mark.parametrize("argv", [
        ["cospair", "--h=-5e-324"], ["cospair", "--h=0"],
        ["riesz", "--signs", "1,-1", "--amps", "1/2,1/4", "--h=-5e-324"],
        ["riesz", "--signs", "1,-1", "--amps", "1/2,1/4", "--h=-1/256"],
        ["continuity", "--h=-5e-324"], ["continuity", "--h=0"]],
        ids=" ".join)
    def test_step_must_be_positive_and_finite(self, capsys, argv):
        code, out, err = run(capsys, "rline", *argv)
        assert code == EXIT_DOMAIN and out == ""
        assert err == "trideck: error: grid step must be positive and finite\n"

    # A negative value given as its own word is the same value as after
    # "=": argparse took -1/256 and -1e999 for unknown options (exit 64).
    @pytest.mark.parametrize("value", ["-1/256", "-1e999", "-0.5"])
    @pytest.mark.parametrize("argv, option", _RATIONAL_OPTIONS,
                             ids=[c[1] for c in _RATIONAL_OPTIONS])
    def test_negative_value_as_its_own_word(self, capsys, argv, option,
                                            value):
        code, out, err = run(capsys, *argv, option, value)
        want = run(capsys, *argv, f"{option}={value}")
        assert code == want[0] != EXIT_USAGE and out == want[1]
        if code != EXIT_OK:  # the manifest on success holds a wall time
            assert err == want[2]

    @pytest.mark.parametrize("option", ["--max-x", "-h", "--max"])
    def test_options_are_still_options(self, capsys, option):
        code, out, err = run(capsys, "rline", "cospair", "--h", option, "2")
        assert code == EXIT_USAGE and out == ""
        assert "argument --h: expected one argument" in err

    # A rational argument that does not parse names its option and text.
    @pytest.mark.parametrize("argv, option, text", _BAD_RATIONALS,
                             ids=[" ".join(c[0]) for c in _BAD_RATIONALS])
    def test_bad_rational_names_option(self, capsys, argv, option, text):
        code, out, err = run(capsys, *argv)
        assert code == EXIT_DOMAIN and out == ""
        assert err == (f"trideck: error: {option} {text!r} is not a "
                       "rational number\n")

    # A rational too large for a float names its option and text; float()
    # raised OverflowError, which main did not catch.
    @pytest.mark.parametrize("argv, option", _HUGE_RATIONALS,
                             ids=[" ".join(c[0]) for c in _HUGE_RATIONALS])
    def test_huge_rational_names_option(self, capsys, argv, option):
        code, out, err = run(capsys, *argv)
        assert code == EXIT_DOMAIN and out == ""
        assert err == (f"trideck: error: {option} '1e999' is too large for "
                       "a float\n")

    @given(st.text("0123456789/+-. e_\u0663\u00b2x", max_size=8))
    @settings(max_examples=300, deadline=None)
    def test_rational_is_fraction(self, text):
        try:
            want = Fraction(text)
        except (ValueError, ZeroDivisionError):
            with pytest.raises(trideck.DomainError):
                cli._rational(text, "--x")
        else:
            assert cli._rational(text, "--x") == want

    # Each of these grids is refused before it is allocated too.
    @pytest.mark.parametrize("pair", [
        ["cospair"], ["riesz", "--signs", "1,-1", "--amps", "1/2,1/4"]],
        ids=["cospair", "riesz"])
    @pytest.mark.parametrize("grid", [
        ["--h", "1e-12"], ["--h", "5e-324"], ["--half-width", "1e12"],
        ["--half-width", "inf"], ["--h", "1/256", "--budget", "100"]],
        ids=" ".join)
    def test_pair_grid_is_charged(self, capsys, monkeypatch, pair, grid):
        monkeypatch.delenv("TRIDECK_BUDGET", raising=False)
        code, out, err = run(capsys, "rline", *pair, *grid)
        assert code == EXIT_BUDGET and out == ""
        assert err.startswith("trideck: budget refusal: grid of ")

    # Grid arguments out of range fail with their own message: a stride of
    # 0 raised ZeroDivisionError, and a negative stride or window reduced an
    # empty deck.
    @pytest.mark.parametrize("argv, msg", _BAD_GRIDS,
                             ids=[" ".join(c[0]) for c in _BAD_GRIDS])
    def test_grid_arguments_in_range(self, capsys, argv, msg):
        code, out, err = run(capsys, "rline", "cospair", *argv)
        assert code == EXIT_DOMAIN and out == ""
        assert err == f"trideck: error: {msg}\n"

    # A grid extent that is not positive and finite, or a tail tolerance
    # that is not positive, is refused by both pairs: --tail-tol nan skipped
    # the truncation check and exited 0.
    @pytest.mark.parametrize("pair", [
        ["cospair"], ["riesz", "--signs", "1,-1", "--amps", "1/2,1/4"]],
        ids=["cospair", "riesz"])
    @pytest.mark.parametrize("argv, msg", _BAD_EXTENTS,
                             ids=[" ".join(c[0]) for c in _BAD_EXTENTS])
    def test_pair_extent_is_checked(self, capsys, pair, argv, msg):
        code, out, err = run(capsys, "rline", *pair, *argv)
        assert code == EXIT_DOMAIN and out == ""
        assert err == f"trideck: error: {msg}\n"

    # Neither experiment runs empty: a negative radius was probed at the
    # origin, and no draws printed "worst_ratio": 0.0; both exited 0.
    @pytest.mark.parametrize("argv, msg", _EMPTY_EXPERIMENTS,
                             ids=[" ".join(c[0]) for c in _EMPTY_EXPERIMENTS])
    def test_no_empty_experiment(self, capsys, argv, msg):
        code, out, err = run(capsys, "rline", *argv)
        assert code == EXIT_DOMAIN and out == ""
        assert err == f"trideck: error: {msg}\n"


def _leaves(tree=cli.COMMANDS, words=()):
    for name, node in tree.items():
        if isinstance(node, dict):
            yield from _leaves(node, words + (name,))
        else:
            yield [*words, name]


def _outcome(argv):
    """(exit code, stdout, stderr) of main(argv), --help's exit taken as its
    code and the manifest's wall time blanked."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as e:
            code = e.code
    return code, out.getvalue(), re.sub(r'"wall_time": [-+.0-9e]+',
                                        '"wall_time": 0', err.getvalue())


_SPEC = json.dumps({"intervals": [["0", "1"], ["3/2", "2"]]})


class TestLeafParser:
    """main builds only the parser of the leaf a command names; every
    outcome is the one the full parser gives."""

    @pytest.mark.parametrize("argv", [
        *([*words, "--help"] for words in _leaves()),
        ["intervals", "--help"], ["rline", "--help"], ["--help"], ["-h"],
        [], ["sweep"], ["gm", "--p", "2", "--q", "3"],
        ["sweep", "--n", "8", "--bogus"], ["deck", "--bogus-flag"],
        ["sweep", "--n", "8", "--bud", "10"], ["sweep", "--n", "x"],
        ["survey", "--n", "6", "--mode", "fast"],
        ["frobnicate"], ["intervals"], ["rline"], ["rline", "bogus"],
        ["intervals deck", "--set", _SPEC, "--x", "0", "--y", "0"],
        ["sweep", "--n", "8", "extra"], ["sweep", "--n", "8", "--"],
        ["sweep", "--n", "8"], ["deck", "--n", "5", "--set", "0,1"],
        ["deck", "--set", "0,1"], ["intervals", "gaps", "--set", _SPEC],
        ["rline", "continuity", "--k", "2", "--radii", "0.1,0.05"],
        *_UNREAD_AND_CONFLICTING,
    ])
    def test_same_outcome_as_full_parser(self, monkeypatch, argv):
        lazy = _outcome(argv)
        assert _outcome(argv) == lazy  # the leaf parser, cached, again
        monkeypatch.setattr(cli, "_parse",
                            lambda a: cli.build_parser().parse_args(a))
        assert _outcome(argv) == lazy

    def test_handlers_are_read_when_they_run(self, monkeypatch):
        _outcome(["sweep", "--n", "8"])  # builds and caches the leaf parser
        monkeypatch.setattr(cli, "_cmd_sweep",
                            lambda args: {"traced": args.n})
        assert _outcome(["sweep", "--n", "8"])[1] == \
            '{\n  "traced": 8\n}\n'

    def test_module_entry_reads_sys_argv(self):
        src = os.path.dirname(os.path.dirname(trideck.__file__))
        done = subprocess.run(
            [sys.executable, "-m", "trideck.cli", "sweep", "--n", "8"],
            capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": src})
        assert done.returncode == EXIT_OK
        assert done.stdout == _outcome(["sweep", "--n", "8"])[1]


class TestSubcommands:
    def test_deck_rational_values(self, capsys):
        code, out, _ = run(capsys, "deck", "--values", "1/2,1/2", "--k", "2")
        assert code == EXIT_OK
        assert json.loads(out)["values"] == ["1/2", "1/2"]

    def test_deck_csv(self, capsys):
        code, out, _ = run(capsys, "deck", "--n", "3", "--values", "2,1,0",
                           "--format", "csv")
        assert code == EXIT_OK
        assert out.startswith("# n=3,k=3")

    def test_zeros_and_classify(self, capsys):
        code, out, _ = run(capsys, "zeros", "--n", "9", "--set", "0,1,2")
        assert code == EXIT_OK and json.loads(out)["zeros"] == [3, 6]
        code, out, _ = run(capsys, "classify", "--n", "9", "--set", "0,1,2")
        assert json.loads(out)["case"] == "PrimePowerGapCase"

    def test_reconstruct(self, capsys):
        code, out, _ = run(capsys, "reconstruct", "--n", "3",
                           "--values", "2,1,0")
        rep = json.loads(out)
        assert code == EXIT_OK
        assert rep["uniqueness"]["kind"] == "UniqueUpToTranslation"

    def test_sweep(self, capsys):
        code, out, _ = run(capsys, "sweep", "--n", "7", "--k", "3")
        assert code == EXIT_OK
        assert json.loads(out)["ambiguous_classes"] == []

    def test_sweep_byte_reproducible(self, capsys):
        code, out1, _ = run(capsys, "sweep", "--n", "12")
        assert code == EXIT_OK
        assert run(capsys, "sweep", "--n", "12")[1] == out1

    def test_gm_and_allk(self, capsys):
        code, out, _ = run(capsys, "gm", "--p", "2", "--q", "3", "--r", "3")
        pair = json.loads(out)
        assert code == EXIT_OK and pair["n"] == 18
        code, out, _ = run(capsys, "allk", "--n", "18",
                           "--set", ",".join(map(str, pair["E"])),
                           "--other", ",".join(map(str, pair["F"])),
                           "--kmax", "4")
        assert json.loads(out)["first_differing_k"] == 4

    def test_survey_deterministic(self, capsys):
        args = ("survey", "--n", "26", "--samples", "1000", "--seed", "3",
                "--mode", "sampled")
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1 == out2

    def test_intervals(self, capsys, tmp_path):
        spec = json.dumps({"intervals": [["0", "1"], ["3/2", "2"]]})
        code, out, _ = run(capsys, "intervals", "deck", "--set", spec,
                           "--x", "1/4", "--y", "1/2")
        assert code == EXIT_OK and json.loads(out)["N"] == "1/2"
        p = tmp_path / "set.json"
        p.write_text(spec)
        code, out, _ = run(capsys, "intervals", "gaps", "--set", str(p))
        assert json.loads(out)["min_gap"] == "1/2"
        code, out, _ = run(capsys, "intervals", "ddx", "--set", spec,
                           "--x=-1/4", "--y", "1/8")
        assert json.loads(out)["ddx"] == 2
        code, out, _ = run(capsys, "intervals", "translate", "--set", spec,
                           "--other", spec)
        assert json.loads(out)["shift"] == "0"
        code, out, err = run(capsys, "intervals", "translate", "--set", spec,
                             "--other", spec, "--tol=-1")
        assert (code, out) == (EXIT_DOMAIN, "")
        assert err == "trideck: error: tolerance must be >= 0, got -1\n"

    def test_rline_cospair(self, capsys):
        code, out, _ = run(capsys, "rline", "cospair", "--k", "3",
                           "--h", "1/64", "--half-width", "16",
                           "--tail-tol", "0.05", "--stride", "16")
        res = json.loads(out)
        assert code == EXIT_OK
        assert res["deck_rel_error"] < 1e-6
        assert res["shift_scan_distance"] > 0.05

    def test_rline_stability(self, capsys, tmp_path):
        import trideck as td
        g = td.SampledFunction(1 / 64, 0.0, np.ones(64))
        p = str(tmp_path / "g.csv")
        g.save_csv(p)
        code, out, _ = run(capsys, "rline", "stability", "--in", p)
        assert code == EXIT_OK and json.loads(out)["is_indicator_like"]

    def test_rline_norms(self, capsys):
        code, out, _ = run(capsys, "rline", "norms", "--seed", "7",
                           "--draws", "10")
        assert code == EXIT_OK and json.loads(out)["violations"] == 0

    def test_rline_continuity(self, capsys):
        code, out, _ = run(capsys, "rline", "continuity", "--k", "2",
                           "--radii", "0.1,0.05")
        res = json.loads(out)
        assert code == EXIT_OK
        assert res["deviations"][0][1] == pytest.approx(0.1, abs=2 / 256)


def _every_command(tmp_path):
    """One argv for each leaf of the command tree."""
    g = str(tmp_path / "g.csv")
    trideck.SampledFunction(1 / 64, 0.0, np.ones(64)).save_csv(g)
    spec = json.dumps({"intervals": [["0", "1"], ["3/2", "2"]]})
    pair = ["--k", "3", "--h", "1/64", "--half-width", "16",
            "--tail-tol", "0.05", "--stride", "16"]
    runs = {
        ("deck",): ["--n", "6", "--values", "1/2,1,0,3,1,2"],
        ("bispectrum",): ["--n", "5", "--set", "0,1"],
        ("reconstruct",): ["--values", "1,2,3,1,5,1,1,2"],
        ("zeros",): ["--n", "9", "--set", "0,1,2"],
        ("classify",): ["--n", "9", "--set", "0,1,2"],
        ("sweep",): ["--n", "8"],
        ("gm",): ["--p", "2", "--q", "3", "--r", "3"],
        ("survey",): ["--n", "10"],
        ("allk",): ["--n", "18", "--set", "0,1,3,4,5,6,7,8,11",
                    "--other", "0,7,10,11,12,13,14,15,17"],
        ("intervals", "deck"): ["--set", spec, "--x", "1/4", "--y", "1/2"],
        ("intervals", "gaps"): ["--set", spec],
        ("intervals", "ddx"): ["--set", spec, "--x=-1/4", "--y", "1/8"],
        ("intervals", "translate"): ["--set", spec, "--other", spec],
        ("rline", "cospair"): pair,
        ("rline", "riesz"): ["--signs", "1,-1", "--amps", "1/2,1/4", *pair],
        ("rline", "stability"): ["--in", g],
        ("rline", "norms"): ["--draws", "3"],
        ("rline", "continuity"): ["--radii", "0.1,0.05"],
    }
    assert sorted(runs) == sorted(tuple(w) for w in _leaves())
    return [[*words, *rest] for words, rest in runs.items()]


# Runs main on each argv of a JSON list with json's C accelerator blocked,
# and prints the JSON list of [exit code, stdout] pairs.
_WITHOUT_ACCELERATOR = """
import contextlib, io, sys
sys.modules["_json"] = None
import json
from trideck import cli
assert json.encoder.c_make_encoder is None
done = []
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    done.append([code, out.getvalue()])
print(json.dumps(done))
"""


class TestJsonWriter:
    """main prints a result dict as json.dumps(result, indent=2,
    sort_keys=True) text, and the deck and report texts are those bytes."""

    def test_every_command(self, tmp_path):
        for argv in _every_command(tmp_path):
            code, out, _ = _run_quiet(argv)
            assert code == EXIT_OK, argv
            assert out == json.dumps(json.loads(out), indent=2,
                                     sort_keys=True) + "\n", argv

    def test_every_command_without_the_c_accelerator(self, tmp_path):
        argvs = _every_command(tmp_path)
        src = os.path.dirname(os.path.dirname(trideck.__file__))
        done = subprocess.run(
            [sys.executable, "-c", _WITHOUT_ACCELERATOR, json.dumps(argvs)],
            capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": src})
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout) == [
            [EXIT_OK, _run_quiet(argv)[1]] for argv in argvs]


class TestArtifacts:
    def test_out_writes_result_and_manifest(self, capsys, tmp_path):
        out_path = str(tmp_path / "deck.json")
        code, _, _ = run(capsys, "deck", "--n", "5", "--set", "0,1",
                         "--k", "2", "--out", out_path)
        assert code == EXIT_OK
        assert json.load(open(out_path))["values"] == [2, 1, 0, 0, 1]
        manifest = json.load(open(out_path + ".manifest.json"))
        assert manifest["command"] == "deck"
        assert manifest["output_paths"] == [out_path]
        assert "trideck" in manifest["versions"]


def _run_quiet(argv):
    """main(argv) with stdout and stderr captured: (code, out, err)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _strict_json(text):
    def refuse(token):
        raise ValueError(f"non-standard JSON constant {token}")
    return json.loads(text, parse_constant=refuse)


_RATIONALS = st.builds(
    Fraction, st.one_of(st.integers(0, 3), st.integers(0, 10**30)),
    st.one_of(st.integers(1, 4), st.integers(1, 10**30)))


class TestDeckOutput:
    """`deck` prints what the plain encoders make of the deck's entries,
    each N(j)/D written as a reduced fraction."""

    @given(st.lists(_RATIONALS, min_size=1, max_size=8), st.integers(2, 5),
           st.sampled_from(["json", "csv"]))
    @settings(max_examples=60, deadline=None)
    def test_bytes_match_plain_encoding(self, values, k, fmt):
        code, out, _ = _run_quiet(
            ["deck", "--k", str(k), "--format", fmt,
             "--values", ",".join(map(str, values))])
        assert code == EXIT_OK
        deck = trideck.k_deck(trideck.CyclicFunction.of(values), k)
        plain = [Fraction(x, deck.denominator)
                 for x in deck.values.reshape(-1).tolist()]
        if fmt == "json":
            assert deck.to_json_dict()["values"] == [
                int(q) if q.denominator == 1 else str(q) for q in plain]
            assert out == json.dumps(deck.to_json_dict(), indent=2,
                                     sort_keys=True) + "\n"
        else:
            n = len(values)
            rows = [",".join(map(str, plain[i:i + n]))
                    for i in range(0, len(plain), n)]
            assert out == "\n".join(
                [f"# n={n},k={k},convention=positive-exponent"] + rows) + "\n"


class TestDeckText:
    def test_stdout_and_out_file_are_the_deck_text(self, tmp_path):
        values = "1/4,1/3,2,0,5/6,1,7"
        argv = ["deck", "--k", "5", "--values", values]
        text = trideck.k_deck(
            trideck.CyclicFunction.of(values.split(",")), 5).to_json()
        assert text.endswith("}\n")
        code, out, _ = _run_quiet(argv)
        assert code == EXIT_OK and out == text
        path = tmp_path / "deck.json"
        code, out, _ = _run_quiet(argv + ["--out", str(path)])
        assert code == EXIT_OK and out == ""
        assert path.read_bytes() == text.encode()


class TestReportText:
    def test_stdout_and_out_file_are_the_report_text(self, tmp_path):
        # a pq input: the family of the 15 translates
        values = "1,5,3,4,3,2,3,4,5,1,3,4,2,6,2"
        argv = ["reconstruct", "--values", values]
        rep = trideck.reconstruct_from_deck(trideck.k_deck(
            trideck.CyclicFunction.of(values.split(",")), 3))
        assert rep.uniqueness == trideck.Uniqueness("FiniteFamily", 15)
        text = rep.to_json()
        assert text == json.dumps(rep.to_json_dict(), indent=2,
                                  sort_keys=True) + "\n"
        code, out, _ = _run_quiet(argv)
        assert code == EXIT_OK and out == text
        path = tmp_path / "report.json"
        code, out, _ = _run_quiet(argv + ["--out", str(path)])
        assert code == EXIT_OK and out == ""
        assert path.read_bytes() == text.encode()


class TestMalformedInput:
    def test_deck_without_k(self, capsys, tmp_path):
        p = tmp_path / "deck.json"
        p.write_text(json.dumps({"n": 2, "values": [1, 2, 2, 1]}))
        code, _, err = run(capsys, "reconstruct", "--deck", str(p))
        assert code == EXIT_DOMAIN and "keys n, k and values" in err

    @pytest.mark.parametrize("values", [[True, False, False, False],
                                        [1.5, False, 0.0, 0.0]])
    def test_deck_of_booleans(self, capsys, tmp_path, values):
        p = tmp_path / "deck.json"
        p.write_text(json.dumps({"n": 2, "k": 3, "values": values}))
        code, out, err = run(capsys, "reconstruct", "--deck", str(p))
        assert code == EXIT_DOMAIN and out == ""
        assert err == ("trideck: error: deck values must be finite numbers "
                       "or rational strings\n")

    def test_unsupported_deck_order_is_refused_as_such(self, capsys,
                                                        monkeypatch):
        # 30^7 entries are over the budget too, but no budget makes k = 7
        # a supported order
        monkeypatch.delenv("TRIDECK_BUDGET", raising=False)
        code, out, err = run(capsys, "deck", "--n", "30", "--set", "0",
                             "--k", "7")
        assert (code, out) == (EXIT_DOMAIN, "")
        assert err == "trideck: error: deck order 7 > 6 is unsupported\n"

    @pytest.mark.parametrize("command", ["zeros", "classify"])
    @pytest.mark.parametrize("n", ["0", "-1"])
    def test_modulus_below_one(self, capsys, command, n):
        code, out, err = run(capsys, command, "--n", n, "--set", "0")
        assert code == EXIT_DOMAIN and out == ""
        assert "modulus must be >= 1" in err

    @pytest.mark.parametrize("argv", [
        ["deck"], ["bispectrum"], ["reconstruct"], ["allk", "--other", "0"]])
    def test_indicator_modulus_below_one(self, capsys, argv):
        code, out, err = run(capsys, *argv, "--n", "0", "--set", "0")
        assert code == EXIT_DOMAIN and out == ""
        assert err == "trideck: error: modulus must be >= 1, got 0\n"

    def test_stability_names_the_header(self, capsys, tmp_path):
        p = tmp_path / "g.csv"
        p.write_text("")
        code, out, err = run(capsys, "rline", "stability", "--in", str(p))
        assert code == EXIT_DOMAIN and out == ""
        assert err == (f"trideck: error: {p}: expected a first line "
                       "h,origin,count\n")

    def test_stability_rejects_nan(self, capsys, tmp_path):
        p = tmp_path / "g.csv"
        p.write_text("0.125,0.0,3\n1.0\nnan\n1.0\n")
        code, out, err = run(capsys, "rline", "stability", "--in", str(p))
        assert code == EXIT_DOMAIN and out == "" and "finite" in err

    @staticmethod
    def _run_on_overflowing_csv(tmp_path, subcommand):
        """`trideck rline SUBCOMMAND --in` on samples holding 1e200, in a
        fresh interpreter, so that any warning numpy prints shows."""
        p = tmp_path / "g.csv"
        p.write_text("0.125,0.0,3\n1.0\n1e200\n1.0\n")
        src = os.path.dirname(os.path.dirname(trideck.__file__))
        return subprocess.run(
            [sys.executable, "-m", "trideck.cli", "rline", subcommand,
             "--in", str(p)], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": src})

    def test_stability_overflow_is_one_error_line(self, tmp_path):
        done = self._run_on_overflowing_csv(tmp_path, "stability")
        assert done.returncode == EXIT_DOMAIN and done.stdout == ""
        assert done.stderr == \
            "trideck: error: the sample integrals overflow float64\n"

    def test_continuity_overflow_is_one_error_line(self, tmp_path):
        done = self._run_on_overflowing_csv(tmp_path, "continuity")
        assert done.returncode == EXIT_DOMAIN and done.stdout == ""
        assert done.stderr == \
            "trideck: error: the sample integrals overflow float64\n"


_SCALARS = st.one_of(
    st.integers(-3, 30), st.integers(-10**30, 10**30),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from(["1/2", "-3/4", "7", "1/0", "nan", "x", ""]),
    st.none(), st.booleans(), st.lists(st.integers(0, 3), max_size=2))


@st.composite
def _deck_documents(draw):
    """Deck JSON objects that are often nearly well formed: n^(k-1)
    values, give or take one, with keys sometimes dropped or mistyped."""
    n, k = draw(st.integers(-1, 6)), draw(st.integers(0, 4))
    size = max(0, max(n, 0) ** max(k - 1, 0)
               + draw(st.sampled_from([0, 0, 0, -1, 1])))
    entries = draw(st.sampled_from([st.integers(0, 20), st.floats(0, 100),
                                    _SCALARS]))
    values = draw(st.lists(entries, min_size=size, max_size=size))
    doc = {"n": n, "k": k, "values": values, "convention": "positive-exponent"}
    for key in draw(st.sets(st.sampled_from(sorted(doc)))):
        if draw(st.booleans()):
            del doc[key]
        else:
            doc[key] = draw(_SCALARS)
    return doc


@st.composite
def _interval_documents(draw):
    """Interval-set JSON documents: {"intervals": [[a, b], ...]} with
    ordered endpoints, or odd scalars, wrong-length pairs and other
    shapes in their place."""
    ends = sorted(draw(st.lists(st.integers(-20, 20), max_size=6,
                                unique=True)))
    pairs = [list(ends[i:i + 2]) for i in range(0, len(ends) - 1, 2)]
    for i in draw(st.sets(st.integers(0, max(len(pairs) - 1, 0)))):
        if i < len(pairs):
            pairs[i] = draw(st.one_of(
                st.lists(_SCALARS, max_size=3), _SCALARS))
    return draw(st.sampled_from([{"intervals": pairs}, pairs, {},
                                 {"intervals": draw(_SCALARS)},
                                 draw(_SCALARS)]))


@st.composite
def _sample_csvs(draw):
    """Sample CSV texts: a header h,origin,count and one value per line."""
    values = draw(st.lists(st.one_of(
        st.floats(min_value=0), st.floats(),
        st.sampled_from(["nan", "-inf", "x", "", "1,2"])), max_size=12))
    count = len(values) + draw(st.sampled_from([0, 0, 0, -1, 1]))
    h = draw(st.one_of(st.sampled_from([0.125, 1.0]), st.floats()))
    header = draw(st.sampled_from([f"{h!r},0.0,{count}", f"{h!r},{count}",
                                   "", "h,origin,n"]))
    return "\n".join([header] + [str(v) for v in values]) + "\n"


class TestLoaderFuzz:
    """Whatever a file holds, the CLI answers with a documented exit code,
    never a traceback, and on success with standard JSON."""

    @staticmethod
    def _check(argv):
        code, out, err = _run_quiet(argv)
        assert code in (EXIT_OK, EXIT_DOMAIN, EXIT_BUDGET, EXIT_USAGE)
        assert "Traceback" not in err
        if code == EXIT_OK:
            _strict_json(out)

    @given(st.one_of(_deck_documents(), st.text(max_size=40)))
    @settings(max_examples=150, deadline=None)
    def test_reconstruct_deck(self, doc):
        text = doc if isinstance(doc, str) else json.dumps(doc)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "deck.json")
            with open(path, "w") as fh:
                fh.write(text)
            self._check(["reconstruct", "--deck", path])

    @given(st.one_of(_interval_documents(), st.text(max_size=40)))
    @settings(max_examples=150, deadline=None)
    def test_intervals_gaps(self, doc):
        text = doc if isinstance(doc, str) else json.dumps(doc)
        self._check(["intervals", "gaps", "--set", text])

    @given(_sample_csvs())
    @settings(max_examples=150, deadline=None)
    def test_rline_stability(self, text):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "g.csv")
            with open(path, "w") as fh:
                fh.write(text)
            self._check(["rline", "stability", "--in", path])
