"""The CLI as programs run it: cold in a fresh interpreter, and many times
in one process sharing one parser per subcommand."""

import argparse
import os
import random
import subprocess
import sys

import pytest

import finitetop as ft
from finitetop import formats
from finitetop.cli import _leaf, _parse, build_parser, main

from test_cli_fuzz import FILES, argv_for, subcommands
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


def test_a_text_report_never_imports_json(tmp_path, monkeypatch, capsys):
    # a text call loads no JSON code; a `--json` call loads only the C string
    # encoder of `_json`, not the `json` package, and the output is the one
    # the same call prints in process
    (tmp_path / "two.top").write_text("points: a b\nopen: a\n")
    monkeypatch.chdir(tmp_path)
    for extra, module, imported in (([], "json", False), (["--json"], "_json", True)):
        argv = ["space", "report", "--in", "two.top", *extra]
        proc = fresh(["-X", "importtime", "-m", "finitetop.cli", *argv], tmp_path)
        assert proc.returncode == 0
        lines = proc.stderr.splitlines()
        modules = {line.rsplit("|", 1)[1].strip() for line in lines if line.startswith("import time:")}
        assert (module in modules) == imported
        assert "json" not in modules
        assert main(argv) == 0
        assert proc.stdout == capsys.readouterr().out


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

    Printed, the 30-operand chain has 2^29 copies of `a`: `logic model`
    answers it, and `logic consistent` names the refuted 31-operand chain by
    its number and connective count. A fresh interpreter bounds the time a
    regression, exponential in the chain's length, can take before the test
    fails.
    """
    (tmp_path / "chain.thy").write_text(" <-> ".join(["a"] * 30) + "\n")
    (tmp_path / "refuted.thy").write_text("~a\n" + " <-> ".join(["a"] * 31) + "\n")
    code = (
        "import time\n"
        "from finitetop.cli import main\n"
        "t0 = time.perf_counter()\n"
        "codes = main(['logic', 'model', '--in', 'chain.thy']), main(['logic', 'consistent', '--in', 'refuted.thy'])\n"
        "print(*codes, time.perf_counter() - t0)\n"
    )
    proc = fresh(["-c", code], tmp_path)
    assert proc.returncode == 0
    assert proc.stderr == "failed: inconsistent theory [{'formula_number': 2, 'connectives': 11811160053}]\n"
    assert proc.stdout.splitlines()[:2] == ["valuation: a=bot", "consistent: False"]
    codes, seconds = proc.stdout.split()[-3:-1], proc.stdout.split()[-1]
    assert codes == ["0", "1"] and float(seconds) < 1.0


def test_cached_parser_carries_no_state(tmp_path, monkeypatch, capsys):
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
        ["space", "report", "--in", str(space), "extra"],  # usage error: the top level refuses the leftover
        ["space", "report", "--in", str(space)],
    ]
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)

    def call(argv):
        code = main(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def reset():
        _leaf.cache_clear()
        build_parser.cache_clear()
        built.clear()

    first, builds = [], []
    for argv in calls:
        reset()
        first.append(call(argv))
        builds.append(list(built))
    assert [code for code, *_ in first] == [0, 0, 0, 0, 2, 0, 0, 0, 1, 2, 0]
    # a cold call builds its own subcommand's parser alone, also when that parser refuses the call
    assert all(b == [f"finitetop {argv[0]} {argv[1]}"] for argv, b in zip(calls, builds) if "extra" not in argv)
    # a leftover is refused in the top level's words, which only the tree holds
    assert builds[-2][:2] == ["finitetop space report", "finitetop"]
    assert first[-2][2].splitlines()[-1] == "finitetop: error: unrecognized arguments: extra"
    reset()
    ok = [argv for argv, (code, *_) in zip(calls, first) if code != 2]
    assert [call(argv) for argv in ok] == [result for result in first if result[0] != 2]
    # each subcommand's parser is built once and reused, and no tree is built
    leaves = {(argv[0], argv[1]): _leaf(argv[0], argv[1]) for argv in ok}
    assert len(built) == len(leaves) == _leaf.cache_info().currsize
    assert build_parser.cache_info().currsize == 0
    assert [call(argv) for argv in calls] == first
    assert all(_leaf(*leaf) is parser for leaf, parser in leaves.items())


# argv around the dispatch: no command, an option or an invalid choice before
# one, a command name as a later argument; "x.top" is never read
EDGE_ARGV = [
    [], ["-h"], ["--help"], ["--he"], ["bogus"], ["-1", "space"], ["-", "space", "report"], ["--"],
    ["--", "space", "report", "--in", "x.top"], ["-x", "space", "report", "--in", "x.top"],
    ["report", "space"], ["space", "space"], ["space", "-h"], ["-h", "space"], ["space", "report", "-h"],
    ["space", "-h", "report"], ["space", "--in", "x.top", "report"], ["--in", "x.top", "space", "report"],
    ["check", "space"], ["space", "report", "--in", "x.top", "check"], ["solve", "fixpoint", "-h"],
    ["approx", "bogus"], ["logic", "--bogus"], ["-h", "bogus"], ["bogus", "-h"],
    # after a command and its subcommand: leftovers, "--", abbreviations, `--opt=value`, negative values
    ["space", "report", "--in", "x.top", "extra"], ["space", "report", "extra", "--in", "x.top", "more"],
    ["space", "report", "--in", "x.top", "--", "extra"], ["space", "report", "--", "--in", "x.top"],
    ["space", "report", "--in", "x.top", "--"], ["space", "report", "--jso", "--in", "x.top"],
    ["space", "report", "--e", "--in", "x.top"], ["space", "report", "--in=x.top", "--json"],
    ["space", "report", "--in", "x.top", "--bogus"], ["space", "report", "--in", "x.top", "-h", "extra"],
    ["space", "report", "--in", "x.top", "report"], ["space", "report", "--in"],
    ["solve", "fixpoint", "--fn", "cos", "--x0", "-1e-3"], ["solve", "fixpoint", "--fn=cos", "--x0=-1e-3"],
    ["solve", "fixpoint", "--fn", "cos", "--x0", "-.5", "--tol", "-1e-9"],
    ["approx", "weierstrass", "--fn", "square", "--n", "4", "--grid", "-1e-3,0.5"],
    ["approx", "sqrt", "--n", "-1", "--grid", "-inf"],
    ["solve", "fixpoint", "--fn", "cos", "--x0", "1", "--tol", "-inf"], ["metric", "net", "--in", "x", "--eps", "-NaN"],
    ["approx", "weierstrass", "--fn", "square", "--n", "4", "--grid", "-Infinity,0"],
]


def test_the_lazy_parser_parses_as_the_full_one(tmp_path, capsys):
    """Every fuzz argv (seeds 1 and 2) and edge argv parses alike with the
    full parser and through `main`'s dispatch, which hands an argv that
    starts with a command and its subcommand to that subcommand's parser
    alone: the same namespace, or the same exit code and output."""
    for name, text in FILES.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    leaves = subcommands()
    assert len(leaves) == 34 and len({command for command, _, _ in leaves}) == 9
    argvs = list(EDGE_ARGV)
    for seed in (1, 2):
        rng = random.Random(f"cli-fuzz:{seed}")
        argvs += [argv_for(rng, tmp_path, *leaf) for _ in range(40) for leaf in leaves]

    def parse(parse_args, argv):
        try:
            return parse_args(argv), capsys.readouterr()
        except SystemExit as e:
            return e.code, capsys.readouterr()

    for argv in argvs:
        assert parse(_parse, argv) == parse(build_parser().parse_args, argv), argv


FIXPOINT = ["solve", "fixpoint", "--fn", "cos", "--x0", "1"]
WEIERSTRASS = ["approx", "weierstrass", "--fn", "square", "--grid", "0.5"]


# (argv, option, the message after "argument <option>: "); a count's message shows the
# converted value (`+03` as 3), a real's the text as given (`1e0`, not 1.0)
USAGE_CASES = [
    (FIXPOINT + ["--max-iter", "-5"], "--max-iter", "must be at least 1, got -5"),
    (FIXPOINT + ["--max-iter", "0"], "--max-iter", "must be at least 1, got 0"),
    (FIXPOINT + ["--tol", "nan"], "--tol", "must be a finite positive number, got nan"),
    (FIXPOINT + ["--tol", "0"], "--tol", "must be a finite positive number, got 0"),
    (FIXPOINT + ["--tol", "-1e-9"], "--tol", "must be a finite positive number, got -1e-9"),
    (["solve", "pagerank", "--in", "web5.csv", "--max-iter", "-5"], "--max-iter", "must be at least 1, got -5"),
    (["solve", "pagerank", "--in", "web5.csv", "--tol", "inf"], "--tol", "must be a finite positive number, got inf"),
    (WEIERSTRASS + ["--n", "-3"], "--n", "must be at least 1, got -3"),
    (["approx", "kernel-ratio", "--n", "-1", "--delta", "0.5"], "--n", "must be at least 1, got -1"),
    (WEIERSTRASS + ["--n", "0"], "--n", "must be at least 1, got 0"),
    (["approx", "kernel-ratio", "--n", "0", "--delta", "0.5"], "--n", "must be at least 1, got 0"),
    (["approx", "kernel-ratio", "--n", "4", "--delta", "-0.5"], "--delta",
     "must be strictly between 0 and 1, got -0.5"),
    (["approx", "sqrt", "--n", "-1", "--grid", "0.5"], "--n", "must be at least 0, got -1"),
    *[(["metric", "net", "--in", "web5.csv", "--eps", eps], "--eps", f"must be a positive number, got {eps}")
      for eps in ("0", "-1", "nan")],
    *[(["approx", "kernel-ratio", "--n", "4", "--delta", d], "--delta", f"must be strictly between 0 and 1, got {d}")
      for d in ("0", "1", "3", "nan")],
    (WEIERSTRASS + ["--n", "two"], "--n", "invalid int value: 'two'"),
    (["approx", "kernel-ratio", "--n", "4", "--delta", "x"], "--delta", "invalid float value: 'x'"),
    (["metric", "hausdorff", "--in", "web5.csv", "--a", "", "--b", "1"], "--a", "must name at least one point"),
    (["metric", "hausdorff", "--in", "web5.csv", "--a", "1 2", "--b", "  "], "--b", "must name at least one point"),
    *[(["approx", "sqrt", "--n", n, "--grid", "0.5"], "--n", f"must be at most 65536, got {n}")
      for n in ("65537", "1000000000")],  # never run
    *[(FIXPOINT + ["--max-iter", m], "--max-iter", f"must be at most 65536, got {m}")
      for m in ("65537", str(1 << 40))],  # never run
    *[(["solve", "pagerank", "--in", "web5.csv", "--max-iter", m], "--max-iter", f"must be at most 65536, got {m}")
      for m in ("65537", str(1 << 40))],
    *[(["build", "subspace", "--in", "web5.csv", "--keep", k], "--keep", "must name at least one point")
      for k in ("", "  ")],  # never read
    (["approx", "sqrt", "--n", "1e3", "--grid", "0.5"], "--n", "invalid int value: '1e3'"),
    (["metric", "net", "--in", "web5.csv", "--eps", "x"], "--eps", "invalid float value: 'x'"),
    (FIXPOINT + ["--tol", "x"], "--tol", "invalid float value: 'x'"),
    (WEIERSTRASS + ["--n", "+0"], "--n", "must be at least 1, got 0"),
    (FIXPOINT + ["--max-iter", "+0"], "--max-iter", "must be at least 1, got 0"),
    (["approx", "sqrt", "--n", "070000", "--grid", "0.5"], "--n", "must be at most 65536, got 70000"),
    (["approx", "kernel-ratio", "--n", "4", "--delta", "1e-400"], "--delta",
     "must be strictly between 0 and 1, got 1e-400"),  # underflows to 0
    (["approx", "kernel-ratio", "--n", "4", "--delta", "1e0"], "--delta", "must be strictly between 0 and 1, got 1e0"),
]


@pytest.mark.parametrize(
    "argv, option, message", [pytest.param(*case, id=f"argv{i}-{case[1]}") for i, case in enumerate(USAGE_CASES)]
)
def test_option_values_outside_their_range_are_usage_errors(tmp_path, monkeypatch, capsys, argv, option, message):
    """A count, tolerance, radius, delta or empty set outside its range exits 2 before anything runs."""
    (tmp_path / "web5.csv").write_text(WEB5)
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and "Traceback" not in err
    assert err.splitlines()[-1] == f"finitetop {argv[0]} {argv[1]}: error: argument {option}: {message}"


@pytest.mark.parametrize("argv", [
    WEIERSTRASS + ["--n", "4", "--panels", "8"],
    ["approx", "kernel-ratio", "--n", "4", "--delta", "0.5", "--panels", "8"],
], ids=lambda argv: argv[1])
def test_panels_is_no_longer_an_option(capsys, argv):
    """The rule is sized to the degree, so there is no panel count to choose: `--panels` is a leftover."""
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.splitlines()[-1] == "finitetop: error: unrecognized arguments: --panels 8"


@pytest.mark.parametrize("argv", [
    ["solve", "fixpoint", "--fn", "cos", "--x0", "-1e-3"],
    ["approx", "weierstrass", "--fn", "square", "--n", "4", "--grid", "-1e-3,0.5"],
], ids=lambda argv: argv[1])
def test_a_negative_value_with_an_exponent_is_a_value(capsys, argv):
    """`-1e-3` after an option is its value, not a flag, and runs as `--opt=-1e-3` does."""
    assert main(argv) == 0
    out, err = capsys.readouterr()
    assert err == "" and out
    assert main(argv[:-2] + [f"{argv[-2]}={argv[-1]}"]) == 0
    assert capsys.readouterr() == (out, "")


@pytest.mark.parametrize("argv", [
    FIXPOINT + ["--tol", "-inf"],
    FIXPOINT + ["--tol", "-NaN"],
    ["solve", "fixpoint", "--fn", "cos", "--x0", "-inf"],
    ["metric", "net", "--in", "web5.csv", "--eps", "-Infinity"],
    ["approx", "kernel-ratio", "--n", "4", "--delta", "-nan"],
    ["approx", "weierstrass", "--fn", "square", "--n", "4", "--grid", "-inf,0"],
], ids=lambda argv: " ".join(argv[1:]))
def test_a_value_that_starts_minus_inf_or_nan_is_a_value(tmp_path, monkeypatch, capsys, argv):
    """`-inf`, `-infinity` and `-nan`, in any case, are read by `float`, so after an option they are
    its value, not a flag: each call exits and prints as its `--opt=value` form does."""
    (tmp_path / "web5.csv").write_text(WEB5)
    monkeypatch.chdir(tmp_path)
    code = main(argv)
    out, err = capsys.readouterr()
    assert code == 2 and "expected one argument" not in err
    assert main(argv[:-2] + [f"{argv[-2]}={argv[-1]}"]) == code
    assert capsys.readouterr() == (out, err)
