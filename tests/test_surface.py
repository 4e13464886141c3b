"""The library surface: every name `finitetop` exports is used by the package or named in the README.

A name that no module of the package uses at run time (annotations aside,
`__init__` aside) is reached only through the library, so the README's
"What is in the box" list must give it a `- Library only:` line with its
reason. Each such line names one export that the package does not use, so
the list cannot go stale either, and one that the test suite or the
benchmark calls, so no line names code that nothing runs.
"""

import ast
import pathlib
import re
import types

import finitetop

PACKAGE = pathlib.Path(finitetop.__file__).parent
ROOT = pathlib.Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


def names_loaded(paths):
    """Every name the modules at `paths` load, bare or as an attribute, outside annotations."""
    used = set()
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        annotations = set()
        for node in ast.walk(tree):
            for ann in (getattr(node, "annotation", None), getattr(node, "returns", None)):
                if ann is not None:
                    annotations.update(map(id, ast.walk(ann)))
        for node in ast.walk(tree):
            if id(node) in annotations:
                continue
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return used


def library_only_lines():
    """The name of each `- Library only:` line of the README's "What is in the box" list."""
    text = README.read_text(encoding="utf-8")
    box = text.split("What is in the box", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"^\s*- Library only: `(\w+)`", box, re.M)


def test_every_export_is_used_or_named_library_only():
    exported = {
        name for name, obj in vars(finitetop).items()
        if not name.startswith("_") and not isinstance(obj, types.ModuleType)
    }
    unused = exported - names_loaded(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    listed = library_only_lines()
    assert sorted(unused - set(listed)) == [], "exported, unused, and not named on a Library only line"
    assert sorted(set(listed) - unused) == [], "named on a Library only line, but used or not exported"
    assert len(listed) == len(set(listed)), "one Library only line per name"


def test_every_library_only_name_has_a_suite_or_bench_caller():
    callers = names_loaded([*(ROOT / "tests").glob("*.py"), *(ROOT / "bench").glob("*.py")])
    uncalled = [name for name in library_only_lines() if name not in callers]
    assert uncalled == [], "named on a Library only line, but neither the test suite nor the benchmark calls it"
