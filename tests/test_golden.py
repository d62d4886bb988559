"""Golden stdout: the exact bytes and exit code of every documented command
line whose output is exact.

The lines are those of README's CLI and Scripts sections and of the CI step
"Installed console script, cold", which runs every case here on the
installed script.  `bispectrum`, `rline` and sampled `survey` print floats
that depend on the BLAS/FFT build or the numpy version, so they are not
here.  README's CLI lines of that kind are FLOAT_LINES and must exit 0,
and every other README CLI line must be a case here, so README and the
golden files cannot drift apart.  A change that alters stdout on purpose
rewrites the golden files with `PYTHONPATH=src python tests/test_golden.py`
and says so in CHANGES.md.
"""

import contextlib
import io
import pathlib
import shlex

import pytest

from trideck import cli

GOLDEN = pathlib.Path(__file__).with_name("golden")

_SET = '{"intervals": [["0","1"],["3/2","2"]]}'
_HIT = ('{"intervals": [["0","1/16"],["11/16","13/16"],["9","145/16"],'
        '["77/8","157/16"]]}')
_ALLK = ["allk", "--n", "18", "--set", "0,1,3,4,5,6,7,8,11",
         "--other", "0,7,10,11,12,13,14,15,17", "--kmax"]

# (golden file stem, argv, exit code)
CASES = [
    # README, CLI
    ("deck_n5_k2", ["deck", "--n", "5", "--set", "0,1", "--k", "2"], 0),
    ("reconstruct_n3", ["reconstruct", "--n", "3", "--values", "2,1,0"], 0),
    ("zeros_n9", ["zeros", "--n", "9", "--set", "0,1,2"], 0),
    ("classify_n9", ["classify", "--n", "9", "--set", "0,1,2"], 0),
    ("sweep_n15_k3", ["sweep", "--n", "15", "--k", "3"], 0),
    ("gm_p2_q3_r3", ["gm", "--p", "2", "--q", "3", "--r", "3"], 0),
    ("allk_kmax4", _ALLK + ["4"], 0),
    ("intervals_deck",
     ["intervals", "deck", "--set", _SET, "--x", "1/4", "--y", "1/2"], 0),
    ("intervals_ddx",
     ["intervals", "ddx", "--set", _SET, "--x=-1/4", "--y", "1/8"], 0),
    # README, Scripts
    *((f"sweep_n{n}_budget", ["sweep", "--n", str(n), "--budget",
                              "1000000000"], 0) for n in range(2, 19)),
    *((f"survey_n{n}", ["survey", "--n", str(n), "--samples", "50000"], 0)
      for n in (5, 6, 7, 10, 11, 13)),
    ("allk_kmax6", _ALLK + ["6"], 0),
    # CI, installed console script
    ("sweep_n10", ["sweep", "--n", "10"], 0),
    ("deck_usage", ["deck", "--set", "0,1"], 64),
    ("deck_k4", ["deck", "--k", "4", "--values", "1/4,1/3,2,0,5/6,1"], 0),
    ("survey_n12", ["survey", "--n", "12"], 0),
    ("zeros_n12", ["zeros", "--n", "12", "--set", "0,1,3"], 0),
    ("survey_over_budget",
     ["survey", "--n", "10007", "--samples", "1", "--mode", "sampled"], 2),
    ("reconstruct_pq6", ["reconstruct", "--values", "1,1,0,2,0,1"], 0),
    ("classify_n15", ["classify", "--n", "15", "--set", "0,3,5,6"], 0),
    ("intervals_ddx_hit",
     ["intervals", "ddx", "--set", _HIT, "--x=-1/8", "--y=-3/4"], 0),
    ("intervals_ddx_kink",
     ["intervals", "ddx", "--set", _SET, "--x=-1/4", "--y", "5/4"], 1),
    ("zeros_over_budget", ["zeros", "--n", "10000000", "--set", "0"], 2),
    ("deck_over_budget",
     ["deck", "--n", "3000000", "--set", "0", "--k", "2"], 2),
]


# README's CLI lines that print floats, in README's order: each must exit 0.
# `rline stability` reads the grid that `rline cospair --save-prefix` wrote.
FLOAT_LINES = [
    ["survey", "--n", "26", "--samples", "50000", "--seed", "0", "--mode",
     "sampled"],
    ["rline", "cospair", "--k", "3", "--h", "1/256", "--save-prefix", "grid"],
    ["rline", "stability", "--in", "grid_f.csv"],
]


def _readme_cli_lines() -> list[list[str]]:
    """The argv of each line of README's `## CLI` code block."""
    text = (GOLDEN.parent.parent / "README.md").read_text()
    block = text.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1]
    lines = block.split("```", 1)[0].splitlines()
    assert all(line.startswith("trideck ") for line in lines), lines
    return [shlex.split(line)[1:] for line in lines]


def test_readme_cli_lines_are_checked(tmp_path, monkeypatch, capsys):
    golden = [argv for _, argv, _ in CASES]
    lines = _readme_cli_lines()
    assert [argv for argv in lines if argv not in golden] == FLOAT_LINES
    monkeypatch.chdir(tmp_path)
    for argv in FLOAT_LINES:
        assert cli.main(argv) == 0, (argv, capsys.readouterr().err)


@pytest.mark.parametrize("stem,argv,code", CASES,
                         ids=[stem for stem, _, _ in CASES])
def test_stdout_matches_golden(stem, argv, code, capsys):
    got = cli.main(argv)
    out = capsys.readouterr().out.encode()
    assert (got, out) == (code, (GOLDEN / f"{stem}.out").read_bytes())


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for stem, argv, code in CASES:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            got = cli.main(argv)
        assert got == code, (stem, argv, got)
        (GOLDEN / f"{stem}.out").write_bytes(buf.getvalue().encode())
