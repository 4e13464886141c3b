"""The CLI as programs run it: cold in a fresh interpreter, and many times
in one process sharing one parser."""

import os
import subprocess
import sys

import pytest

import finitetop as ft
from finitetop import formats
from finitetop.cli import build_parser, main

from test_formats_cli import DIV6_SPACE, WEB5

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def fresh(argv, cwd, timeout=120):
    """Run a fresh interpreter without bytecode caches, as a cold CLI call runs."""
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run([sys.executable, *argv], cwd=cwd, env=env, capture_output=True, text=True, timeout=timeout)


def test_space_report_leaves_numpy_unloaded(tmp_path):
    # the test process has numpy loaded already, so only a fresh one can tell;
    # the fixed-point solver iterates on plain floats, so it needs none either
    (tmp_path / "s.top").write_text("points: a b\nopen: a\n")
    code = (
        "import sys\n"
        "from finitetop.cli import main\n"
        "code = main(['space', 'report', '--in', 's.top'])\n"
        "code += main(['solve', 'fixpoint', '--fn', 'cos', '--x0', '1,2', '--metric', 'linf'])\n"
        "print('numpy' in sys.modules, code)\n"
    )
    proc = fresh(["-c", code], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False 0"


def test_cli_import_leaves_fractions_unloaded(tmp_path):
    # exact distances are ints, so no module needs `fractions` (nor the
    # `decimal` and `numbers` modules it loads)
    code = "import sys\nimport finitetop.cli\nprint(sorted({'fractions', 'decimal', 'numbers'} & set(sys.modules)))\n"
    proc = fresh(["-c", code], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


def test_cli_import_leaves_dataclasses_and_inspect_unloaded(tmp_path):
    # `finitetop.records` builds the record classes without generated code,
    # so a cold CLI call pays for neither module nor for compiling methods
    code = "import sys\nimport finitetop.cli\nprint(sorted({'dataclasses', 'inspect'} & set(sys.modules)))\n"
    proc = fresh(["-c", code], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


def test_quotient_of_a_nontransitive_zero_exits_1(tmp_path):
    # a valid pseudometric (1e-10 is inside the triangle test's slack) whose
    # distance-zero relation is not transitive: 1 ~ 2 ~ 3 but d(1, 3) > 0
    (tmp_path / "eps.csv").write_text("0,0,1e-10\n0,0,0\n1e-10,0,0\n")
    proc = fresh(["-m", "finitetop.cli", "check", "pmetric", "--in", "eps.csv"], tmp_path)
    assert (proc.returncode, proc.stdout) == (0, "pseudometric: ok, metric: False\n"), proc.stderr
    proc = fresh(["-m", "finitetop.cli", "metric", "quotient", "--in", "eps.csv"], tmp_path)
    assert proc.returncode == 1 and proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("failed: distance zero is not transitive")


def test_base_check_on_every_subset_of_12_points_is_linear(tmp_path):
    """The 4095 nonempty subsets of 12 points form a base of the discrete space.

    A pairwise check over the members takes |B|^3 steps here; the kernel
    criterion takes |B|·n, and the timeout fails the test on a regression.
    """
    pts = [f"p{i}" for i in range(12)]
    lines = ["points: " + " ".join(pts)]
    lines += ["member: " + " ".join(p for i, p in enumerate(pts) if m >> i & 1) for m in range(1, 1 << 12)]
    (tmp_path / "all12.fam").write_text("\n".join(lines) + "\n")
    proc = fresh(["-m", "finitetop.cli", "check", "base", "--in", "all12.fam"], tmp_path, timeout=30)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == formats.dump_space(ft.discrete_space(pts))


def test_solvers_in_a_fresh_interpreter(tmp_path):
    proc = fresh(["-m", "finitetop.cli", "solve", "fixpoint", "--fn", "cos", "--x0", "1"], tmp_path)
    assert proc.returncode == 0 and proc.stdout.startswith("x: 0.739085"), proc.stderr
    (tmp_path / "web5.csv").write_text(WEB5)
    proc = fresh(["-m", "finitetop.cli", "solve", "pagerank", "--in", "web5.csv"], tmp_path)
    assert proc.returncode == 0 and proc.stdout.startswith("distribution: 0.29"), proc.stderr


def test_chained_biconditional_is_linear(tmp_path):
    """`a <-> a <-> ...` uses each side twice; every walk must visit a shared node once.

    A fresh interpreter bounds the time a regression, exponential in the
    chain's length, can take before the test fails.
    """
    (tmp_path / "chain.thy").write_text(" <-> ".join(["a"] * 30) + "\n")
    code = (
        "import time\n"
        "from finitetop.cli import main\n"
        "t0 = time.perf_counter()\n"
        "code = main(['logic', 'model', '--in', 'chain.thy'])\n"
        "print(code, time.perf_counter() - t0)\n"
    )
    proc = fresh(["-c", code], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0] == "valuation: a=bot"
    code, seconds = proc.stdout.split()[-2:]
    assert code == "0" and float(seconds) < 1.0


def test_cached_parser_carries_no_state(tmp_path, capsys):
    space = tmp_path / "div6.top"
    space.write_text(DIV6_SPACE)
    thy = tmp_path / "t.thy"
    thy.write_text("p | q\n~p\n")
    calls = [
        ["space", "report", "--in", str(space)],
        ["space", "report", "--in", str(space), "--json"],
        ["locale", "implication", "--in", str(space), "--a", "2 6", "--b", "3 6"],
        ["solve", "fixpoint", "--fn", "halve", "--x0", "1,2", "--metric", "linf", "--json"],
        ["space", "report"],  # usage error: --in is missing
        ["logic", "model", "--in", str(thy), "--json"],
        ["logic", "model", "--in", str(thy)],
        ["approx", "sqrt", "--n", "2", "--grid", "0,1"],
        ["locale", "implication", "--in", str(space), "--a", "2", "--b", "6", "--json"],  # {2} is not open
        ["space", "report", "--in", str(space)],
    ]

    def call(argv):
        code = main(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    first = []
    for argv in calls:
        build_parser.cache_clear()
        first.append(call(argv))
    assert [code for code, *_ in first] == [0, 0, 0, 0, 2, 0, 0, 0, 1, 0]
    parser = build_parser()
    assert [call(argv) for argv in calls] == first
    assert build_parser() is parser


FIXPOINT = ["solve", "fixpoint", "--fn", "cos", "--x0", "1"]
WEIERSTRASS = ["approx", "weierstrass", "--fn", "square", "--grid", "0.5"]


@pytest.mark.parametrize(
    "argv, option",
    [
        (FIXPOINT + ["--max-iter", "-5"], "--max-iter"),
        (FIXPOINT + ["--max-iter", "0"], "--max-iter"),
        (FIXPOINT + ["--tol", "nan"], "--tol"),
        (FIXPOINT + ["--tol", "0"], "--tol"),
        (FIXPOINT + ["--tol", "-1e-9"], "--tol"),
        (["solve", "pagerank", "--in", "web5.csv", "--max-iter", "-5"], "--max-iter"),
        (["solve", "pagerank", "--in", "web5.csv", "--tol", "inf"], "--tol"),
        (WEIERSTRASS + ["--n", "4", "--panels", "3"], "--panels"),
        (WEIERSTRASS + ["--n", "4", "--panels", "0"], "--panels"),
        (WEIERSTRASS + ["--n", "0"], "--n"),
        (["approx", "kernel-ratio", "--n", "0", "--delta", "0.5"], "--n"),
        (["approx", "kernel-ratio", "--n", "4", "--delta", "0.5", "--panels", "7"], "--panels"),
        (["approx", "sqrt", "--n", "-1", "--grid", "0.5"], "--n"),
        *[(["metric", "net", "--in", "web5.csv", "--eps", eps], "--eps") for eps in ("0", "-1", "nan")],
        *[(["approx", "kernel-ratio", "--n", "4", "--delta", d], "--delta") for d in ("0", "1", "3", "nan")],
        (WEIERSTRASS + ["--n", "4", "--panels", "65538"], "--panels"),  # above the cap; never run
        (["approx", "kernel-ratio", "--n", "4", "--delta", "0.5", "--panels", str(1 << 20)], "--panels"),
        (["metric", "hausdorff", "--in", "web5.csv", "--a", "", "--b", "1"], "--a"),
        (["metric", "hausdorff", "--in", "web5.csv", "--a", "1 2", "--b", "  "], "--b"),
        *[(["approx", "sqrt", "--n", n, "--grid", "0.5"], "--n") for n in ("65537", "1000000000")],  # never run
    ],
)
def test_option_values_outside_their_range_are_usage_errors(tmp_path, monkeypatch, capsys, argv, option):
    """A count, panel number, tolerance, radius, delta or empty set outside its range exits 2 before anything runs."""
    (tmp_path / "web5.csv").write_text(WEB5)
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and f"error: argument {option}: " in err and "Traceback" not in err
