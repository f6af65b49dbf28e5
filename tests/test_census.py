"""Every top-level function and class of the package has a caller outside
the tests: a command, a module-level statement or the benchmark; and every
member of a package class has a reader outside the tests.

Roots are every definition in cli.py, every name used in a module-level
statement of the package (imports aside, so an export alone is no caller)
and every identifier written in bench/*.py (the tracer names its targets in
strings).  A reached definition reaches every name and attribute its body
mentions, matched by name alone.  A member (method, property, dataclass
field or self. attribute, dunders aside) is read when an attribute load of
its name appears in the package or in bench/*.py, or when a string of
bench/*.py names it as Class.member (a tracer target).  Code that only the
tests need belongs in tests/oracles.py.
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


# members read by no code outside the tests, each with the reason it stays
UNREAD_MEMBERS = {
    # the solvers' counters (evaluations, accepted and rejected steps), which
    # ROADMAP item 8 writes into the output files; no writer reads them yet
    "Trajectory.metadata",
}


def members(cls):
    """(line, name) of the methods, properties, annotated fields and self.
    attributes of a class definition, dunders aside."""
    found = [(stmt.lineno, stmt.name) for stmt in cls.body if isinstance(stmt, ast.FunctionDef)]
    found += [(stmt.lineno, stmt.target.id) for stmt in cls.body
              if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)]
    found += [(sub.lineno, sub.attr) for sub in ast.walk(cls)
              if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Store)
              and isinstance(sub.value, ast.Name) and sub.value.id == "self"]
    return [(line, name) for line, name in found
            if not (name.startswith("__") and name.endswith("__"))]


def unread_members(root):
    """(module, line, Class.member) of each member of a package class of the
    checkout at root that nothing outside the tests reads."""
    loads, named, classes = set(), set(), []
    for path in sorted((root / "src" / "nbodyred").glob("*.py")) + sorted((root / "bench").glob("*.py")):
        tree = ast.parse(path.read_text())
        for sub in ast.walk(tree):
            if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
                loads.add(sub.attr)
            elif path.parent.name == "bench" and isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                named |= set(re.findall(r"[A-Za-z_]\w*\.[A-Za-z_]\w*", sub.value))
            elif path.parent.name == "nbodyred" and isinstance(sub, ast.ClassDef):
                classes.append((path.name, sub))
    return sorted({(module, line, f"{cls.name}.{name}") for module, cls in classes
                   for line, name in members(cls)
                   if name not in loads and f"{cls.name}.{name}" not in named
                   and f"{cls.name}.{name}" not in UNREAD_MEMBERS})


def checkout_copy(tmp_path):
    """A copy of the checkout's package and bench under tmp_path."""
    for folder in ("src/nbodyred", "bench"):
        (tmp_path / folder).mkdir(parents=True)
        for path in (ROOT / folder).glob("*.py"):
            (tmp_path / folder / path.name).write_text(path.read_text())
    return tmp_path / "src" / "nbodyred"


def test_every_definition_has_a_caller_outside_the_tests():
    assert unreached(ROOT) == []


def test_every_class_member_has_a_reader_outside_the_tests():
    assert unread_members(ROOT) == []


def test_the_census_names_a_definition_without_a_caller(tmp_path):
    # a function nothing calls
    with open(checkout_copy(tmp_path) / "geometry.py", "a") as fh:
        fh.write("\n\ndef orphan(x):\n    return x\n")
    assert [(module, name) for module, _, name in unreached(tmp_path)] == [("geometry.py", "orphan")]


def test_the_census_names_a_member_without_a_reader(tmp_path):
    # a method nothing calls, and a self. attribute nothing reads
    path = checkout_copy(tmp_path) / "geometry.py"
    text = path.read_text()
    anchor = "    def __repr__(self):\n        return f\"MassSystem("
    assert text.count(anchor) == 1
    path.write_text(text.replace(anchor, "    def orphan(self):\n        self.orphan_count = 1\n\n" + anchor))
    assert [(module, name) for module, _, name in unread_members(tmp_path)] == [
        ("geometry.py", "MassSystem.orphan"), ("geometry.py", "MassSystem.orphan_count")]
    assert unreached(tmp_path) == []
