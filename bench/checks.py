"""Operations, program calls and the output checks shared by the workloads.

An operation runs the program once (`call`) and hands the result to
`check`, which returns None when the output is right and a short reason
otherwise. Only `call` is timed. Expected values come from `oracles`.
"""

import ast
import contextlib
import io
import json
import os
import subprocess
import sys
import traceback
from dataclasses import dataclass

from oracles import bits


@dataclass
class Op:
    name: str
    call: object  # () -> result
    check: object  # result -> None | str
    fault: str = ""  # id of a known program fault this operation trips


@dataclass
class Result:
    code: object  # exit code, or None when the call raised
    out: str
    err: str


class Program:
    """Runs the CLI in this process or as a fresh child process."""

    def __init__(self, root, work):
        self.root = root
        self.work = work
        self.cli = None  # finitetop.cli, set once the package is imported
        self.trace_file = None  # set while a traced round runs children
        src = os.path.join(root, "src")
        self.env = dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1")

    def in_process(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = self.cli.main(argv)
            except Exception:  # a traceback is an outcome the checks judge
                code = None
                err.write(traceback.format_exc())
        return Result(code, out.getvalue(), err.getvalue())

    def child(self, argv):
        if self.trace_file is None:
            cmd = [sys.executable, "-m", "finitetop.cli", *argv]
            env = self.env
        else:
            cmd = [sys.executable, os.path.join(self.root, "bench", "child.py"), *argv]
            env = dict(self.env, BENCH_SPANS=self.trace_file)
        proc = subprocess.run(cmd, cwd=self.work, env=env, capture_output=True, text=True, timeout=120)
        return Result(proc.returncode, proc.stdout, proc.stderr)


# -- generic verdicts -----------------------------------------------------------


def verdict(res, code):
    """None when the call ended with `code` and no traceback."""
    if "Traceback" in res.err:
        last = res.err.strip().splitlines()[-1]
        return f"traceback: {last[:120]}"
    if res.code != code:
        return f"exit {res.code}, expected {code}: {res.err.strip()[:120]}"
    return None


def expect(code, inner=None):
    """Check: exit `code`, then `inner(res)` if given."""

    def check(res):
        bad = verdict(res, code)
        if bad or inner is None:
            return bad
        try:
            return inner(res)
        except (ValueError, KeyError, IndexError, TypeError, SyntaxError) as e:
            return f"unreadable output: {type(e).__name__}: {e}"

    return check


def witness(res):
    """The dict the CLI prints in brackets after 'failed: ...'."""
    line = res.err.strip().splitlines()[-1]
    return ast.literal_eval(line[line.index("[") + 1: line.rindex("]")])


def fields(text):
    """'key: value' lines of a plain text report."""
    out = {}
    for line in text.splitlines():
        if ": " in line:
            k, v = line.split(": ", 1)
            out[k.strip()] = v.strip()
    return out


def label_set(text):
    """'{a b} {c}' -> [frozenset({'a','b'}), frozenset({'c'})]."""
    out = []
    for part in text.split("}"):
        part = part.strip()
        if part:
            out.append(frozenset(part.lstrip("{").split()))
    return out


def as_labels(labels, mask):
    return frozenset(labels[i] for i in bits(mask))


def read_space(text):
    """A space file -> (points, set of opens as label frozensets)."""
    points = None
    opens = set()
    for line in text.splitlines():
        key, _, rest = line.partition(":")
        if key == "points":
            points = tuple(rest.split())
        elif key == "open":
            opens.add(frozenset(rest.split()))
    return points, opens


def same_space(text, labels, opens):
    """Check a space file against expected labels and opens (masks over labels)."""
    points, got = read_space(text)
    if points is None or sorted(points) != sorted(labels):
        return f"carrier {points} != {labels}"
    want = {as_labels(labels, u) for u in opens}
    want |= {frozenset(), frozenset(labels)}
    got |= {frozenset(), frozenset(labels)}
    if got != want:
        extra = sorted(map(sorted, got - want))[:2]
        missing = sorted(map(sorted, want - got))[:2]
        return f"{len(got)} opens, expected {len(want)}; extra {extra} missing {missing}"
    return None


def json_out(res):
    return json.loads(res.out)
