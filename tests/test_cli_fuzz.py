"""A seeded fuzz of the exit-code contract over every subcommand.

The argv come from walking `build_parser()`, so a new subcommand or option
is fuzzed without editing this file. Values are drawn from edge cases
(`nan`, `inf`, negatives, huge counts, empty and unknown label lists) and
from files of every format, well formed or with one line mutated. Whatever
the input, `main` returns 0, 1 or 2, prints no traceback, names a `[{...}]`
witness on every exit 1, finishes within a time bound, and prints `--json`
output as `json.dumps(indent=2, sort_keys=True)` would. The seeds come from
`CLI_FUZZ_SEEDS`, whitespace-separated, by default `1 2`; a longer list is a
longer profile.
"""

import argparse
import json
import os
import random

import pytest

from finitetop.cli import build_parser, main

from test_formats_cli import DIV6_POSET, DIV6_SPACE, WEB5, time_limit

CAP = "abcdefghijklmnop"  # 16 labels, the carrier cap, which the label pool's "a", "b" and "c" name
UPSETS = [" ".join(CAP[i:]) for i in range(16)]  # the nonempty up-sets of the chain a < b < ... < p
FILES = {  # well-formed inputs whose labels fit each other and the label pool
    "div6.top": DIV6_SPACE,
    "abc.top": "points: a b c\nopen: a\nopen: a b\n",
    "abc.fam": "points: a b c\nmember: a\nmember: a b\nmember: c\n",
    "div6.pos": DIV6_POSET,
    "ab.clo": "points: a b\ncl: -> \ncl: a -> a b\ncl: b -> b\ncl: a b -> a b\n",
    "swap.map": "1 -> 1\n2 -> 3\n3 -> 2\n6 -> 6\n",
    "onto.map": "1 -> a\n2 -> a\n3 -> b\n6 -> c\n",
    "div6.eq": "block: 1 2\nblock: 3 6\n",
    "web5.csv": WEB5,
    "line.csv": "0,1,2\n1,0,1\n2,1,0\n",
    "thirds.csv": "0,1/3,1/2\n1/3,0,1/6\n1/2,1/6,0\n",  # a pseudometric exactly, not in binary
    "tie.csv": "0,1e-1,8e-1\n1e-1,0,7e-1\n8e-1,7e-1,0\n",  # likewise: 0.1 + 0.7 falls short of 0.8 in binary
    "abc.chn": "points: a b c\nrelation 1:\npair: a b\nrelation 2:\npair: a b\n",
    "w.rnk": "rank: w1 1\nrank: w2 2\n",
    "pq.thy": "p | q\n~p\n",
    "inconsistent.thy": "a | b\n~a\nb -> a\n",
    "chain16.top": f"points: {' '.join(CAP)}\n" + "".join(f"open: {u}\n" for u in UPSETS[1:]),
    "chain16.pos": f"points: {' '.join(CAP)}\n" + "".join(f"le: {x} {y}\n" for x, y in zip(CAP, CAP[1:])),
    "chain16.fam": f"points: {' '.join(CAP)}\n" + "".join(f"member: {u}\n" for u in UPSETS),
    "wide17.top": f"points: {' '.join(CAP)} q\n",  # one point past the cap
}
# the files a command reads, by "command", "command subcommand" or "command
# option", the most specific first: its file options draw from these, and
# now and then from every file
TOPS = ("div6.top", "abc.top", "chain16.top", "wide17.top")
READS = {
    "space": TOPS,
    "check base": ("abc.fam", "chain16.fam"),
    "check subbase": ("abc.fam", "chain16.fam"),
    "check closure-op": ("ab.clo",),
    "check pmetric": ("line.csv", "thirds.csv", "tie.csv"),
    "check chain": ("abc.chn",),
    "map --map": ("swap.map", "onto.map"),
    "map": TOPS,
    "build from-poset": ("div6.pos", "chain16.pos"),
    "build scott": ("div6.pos", "chain16.pos"),
    "build from-closure": ("ab.clo",),
    "build --classes": ("div6.eq",),
    "build": TOPS,
    "locale": TOPS,
    "metric chain": ("abc.chn",),
    "metric ultrarank": ("w.rnk",),
    "metric": ("line.csv", "thirds.csv", "tie.csv"),
    "solve": ("web5.csv",),
    "logic": ("pq.thy", "inconsistent.thy"),
}
# edge cases, and enough ordinary values that most calls get past argparse
COUNTS = ["-1", "0", "1", "2", "4", "7", "16", "64", "2048", "65536", "65537", "1000000000", str(1 << 80), str(10**400), "nan", ""]
REALS = ["nan", "inf", "-inf", "-1", "0", "1e-300", "1e-9", "0.1", "0.25", "0.5", "0.9", "1", "3", "1e308", "x"]
LABELS = ["", "  ", "1", "1 2", "2 6", "3 6", "6 1", "1 1", "a", "a b", "b c", "a b c", "w1", "w2", "zz", "inf"]
VALUES = {
    "--n": COUNTS,
    "--max-iter": COUNTS,
    "--tol": REALS,
    "--eps": REALS,
    "--delta": REALS,
    "--grid": ["0,0.5,1", "0.25", "", "nan", "inf,0", "0,,1", "-1,2", "1e308", "1e400", "a"],
    "--fn": ["cos", "halve", "damped-shift", "square", "abs-half", "sqrt", "sin-scaled", "poly:1,2",
             "constant:1e306", "poly:1e308,1e308", "poly:a", "constant:nan", "nope", ""],
    "--a": LABELS,
    "--b": LABELS,
    "--keep": LABELS,
    "--labels": LABELS,
    "--label": LABELS,
}
VALUES["--x0"] = VALUES["--grid"]
JUNK = ["zz", "", "nan", "-1", "1/0", "->", "open:", "cl:", "relation 9:", "((((", "~", "1e400", "é", "a a"]


def mutate(rng, text):
    """The text with one line deleted, doubled, swapped for another file's, or one token replaced."""
    lines = text.splitlines() or [""]
    i = rng.randrange(len(lines))
    how = rng.randrange(4)
    if how == 0:
        del lines[i]
    elif how == 1:
        lines.insert(i, lines[i])
    elif how == 2:
        lines[i] = rng.choice(rng.choice(list(FILES.values())).splitlines())
    else:
        words = lines[i].split(" ")
        words[rng.randrange(len(words))] = rng.choice(JUNK)
        lines[i] = " ".join(words)
    return "\n".join(lines) + "\n"


def subcommands():
    """(command, subcommand, parser) for every leaf of the full parser."""
    out = []
    for action in build_parser()._actions:
        if isinstance(action, argparse._SubParsersAction):
            for command, group in action.choices.items():
                for leaf in group._actions:
                    if isinstance(leaf, argparse._SubParsersAction):
                        out += [(command, what, p) for what, p in leaf.choices.items()]
    return out


def argv_for(rng, tmp_path, command, what, parser):
    argv = [command, what]
    for action in parser._actions:
        if isinstance(action, argparse._HelpAction):
            continue
        flag = action.option_strings[0]
        if rng.random() < (0.03 if action.required else 0.5):
            continue  # a missing required option is a usage error
        if action.nargs == 0:  # a switch
            argv.append(flag)
            continue
        if action.choices:
            value = rng.choice([*action.choices, "bogus"])
        elif flag in VALUES:
            value = rng.choice(VALUES[flag])
        else:
            reads = next((READS[k] for k in (f"{command} {what}", f"{command} {flag}", command) if k in READS), FILES)
            name = rng.choice(tuple(reads if rng.random() < 0.9 else FILES))
            value = str(tmp_path / name)
            if rng.random() < 0.3:
                value = str(tmp_path / f"mutant-{rng.randrange(10 ** 9)}-{name}")
                with open(value, "w", encoding="utf-8") as fh:
                    fh.write(mutate(rng, FILES[name]))
            elif rng.random() < 0.05:
                value = str(tmp_path / rng.choice(["missing.top", "bytes.bin"]))
        argv += [flag, value]
    if rng.random() < 0.02:
        argv.append(rng.choice(["--bogus", "-h"]))
    return argv


def check_contract(capsys, argv):
    with time_limit(10):
        code = main(argv)
    out, err = capsys.readouterr()
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err, argv
    if code == 1:
        last = err.rstrip("\n").rsplit("\n", 1)[-1]
        assert last.startswith("failed: ") and last.endswith("}]") and " [{" in last, (argv, err)
    if "--json" in argv and not {"-h", "--emit"} & set(argv) and out:  # a report, not help or a space file
        assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n", argv
    return code, out, err


@pytest.fixture
def inputs(tmp_path):
    for name, text in FILES.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    (tmp_path / "bytes.bin").write_bytes(random.Random(0).randbytes(64))
    return tmp_path


@pytest.mark.parametrize("seed", [int(s) for s in os.environ.get("CLI_FUZZ_SEEDS", "1 2").split()])
def test_every_subcommand_keeps_the_exit_code_contract(inputs, capsys, seed):
    rng = random.Random(f"cli-fuzz:{seed}")
    leaves = subcommands()
    assert len(leaves) > 30
    codes = {0: 0, 1: 0, 2: 0}
    for _ in range(40):
        for command, what, parser in leaves:
            code, _, _ = check_contract(capsys, argv_for(rng, inputs, command, what, parser))
            codes[code] += 1
    assert min(codes.values()) > 20, codes  # every outcome is reached, not only usage errors


# argv the fuzz found exiting 1 without a witness; files are named as in FILES
REGRESSIONS = [
    ["logic", "consistent", "--in", "inconsistent.thy"],
    ["map", "continuity", "--src", "div6.top", "--dst", "abc.top", "--map", "onto.map"],
    ["map", "homeo", "--src", "div6.top", "--dst", "abc.top", "--map", "onto.map"],
    ["approx", "weierstrass", "--fn", "sqrt", "--n", "2", "--grid", "-1"],
]


@pytest.mark.parametrize("argv", REGRESSIONS, ids=" ".join)
def test_fuzz_regressions(inputs, capsys, argv):
    argv = [str(inputs / a) if a in FILES else a for a in argv]
    assert check_contract(capsys, argv)[0] == 1
