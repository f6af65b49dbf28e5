"""Every top-level function and class of the package has a caller outside
the tests: a command, a module-level statement or the benchmark.

Roots are every definition in cli.py, every name used in a module-level
statement of the package (imports aside, so an export alone is no caller)
and every identifier written in bench/*.py (the tracer names its targets in
strings).  A reached definition reaches every name and attribute its body
mentions, matched by name alone.  Code that only the tests need belongs in
tests/oracles.py.
"""

import ast
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent


def mentioned(node):
    """Names and attribute names that appear anywhere under node."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
    return out


def unreached(root):
    """(module, line, name) of each top-level definition of the checkout at
    root outside the closure."""
    defs, roots = {}, set()
    for path in sorted((root / "src" / "nbodyred").glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                defs.setdefault(stmt.name, []).append((path.name, stmt))
                if path.name == "cli.py":
                    roots.add(stmt.name)
            elif not isinstance(stmt, (ast.Import, ast.ImportFrom)):
                roots |= mentioned(stmt)
    for path in (root / "bench").glob("*.py"):
        roots |= set(re.findall(r"[A-Za-z_]\w*", path.read_text()))
    reached, todo = set(), [name for name in roots if name in defs]
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            todo += [n for _, node in defs[name] for n in mentioned(node) if n in defs]
    return sorted((module, node.lineno, name) for name, found in defs.items()
                  if name not in reached for module, node in found)


def test_every_definition_has_a_caller_outside_the_tests():
    assert unreached(ROOT) == []


def test_the_census_names_a_definition_without_a_caller(tmp_path):
    # a copy of the checkout's package and bench with one function nothing calls
    for folder in ("src/nbodyred", "bench"):
        (tmp_path / folder).mkdir(parents=True)
        for path in (ROOT / folder).glob("*.py"):
            (tmp_path / folder / path.name).write_text(path.read_text())
    with open(tmp_path / "src" / "nbodyred" / "geometry.py", "a") as fh:
        fh.write("\n\ndef orphan(x):\n    return x\n")
    assert [(module, name) for module, _, name in unreached(tmp_path)] == [("geometry.py", "orphan")]
