"""Every name a module imports is used in that module, and every
top-level definition in `src/meridian` serves a command, a benchmark
workload or an oracle.

The first is a stdlib stand-in for pyflakes' unused-import check over
`src/meridian` and `tests`.  A package `__init__.py` is exempt: its
imports are the package's exports.  The second fails on code that only
tests reach.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CHECKED = (ROOT / "src" / "meridian", ROOT / "tests")


def unused_imports(source):
    """(line, name) of every name `source` imports and never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                # `import a.b` binds `a`
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    imported.setdefault(alias.asname or alias.name,
                                        node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_checker_finds_only_unread_names():
    source = ("import os\nimport numpy as np\nimport os.path\n"
              "from math import pi, tau\n\nprint(np.pi, tau, os.sep)\n")
    assert unused_imports(source) == [(4, "pi")]


def test_no_module_imports_a_name_it_never_uses():
    found = ["%s:%d: %s" % (path.relative_to(ROOT), line, name)
             for top in CHECKED for path in sorted(top.glob("*.py"))
             if path.name != "__init__.py"
             for line, name in unused_imports(path.read_text())]
    assert not found, "unused imports:\n" + "\n".join(found)


# test-only oracles kept in the package beside the code they check
TEST_ONLY_ORACLES = {"curl_axisym", "divergence_axisym"}


def _names(tree):
    """How often `tree` reads, imports, or spells as a string (perfbench
    binds some functions by name) each name."""
    found = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found[node.id] += 1
        elif isinstance(node, ast.Attribute):
            found[node.attr] += 1
        elif isinstance(node, ast.alias):
            found[node.name.split(".")[-1]] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found[node.value] += 1
    return found


def unreached_definitions(package, others):
    """(module, name) of every top-level def or class in the `package`
    directory that is named nowhere in the package outside its own
    definition and `__init__.py`, nor in any module under `others`."""
    trees = {path: ast.parse(path.read_text())
             for path in sorted(package.glob("*.py"))
             if path.name != "__init__.py"}
    named = Counter()
    for tree in trees.values():
        named += _names(tree)
    for top in others:
        for path in sorted(top.glob("*.py")):
            named += _names(ast.parse(path.read_text()))
    return [(path.stem, node.name)
            for path, tree in trees.items() for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and named[node.name] == _names(node)[node.name]]


def test_reach_checker_finds_a_test_only_function(tmp_path):
    package, bench = tmp_path / "pkg", tmp_path / "bench"
    package.mkdir()
    bench.mkdir()
    (package / "__init__.py").write_text(
        "from .core import only_tested, helper\n")
    # only_tested names itself, and __init__ exports it: neither counts
    (package / "core.py").write_text(
        "def helper():\n    return 1\n\n\n"
        "def only_tested():\n    return only_tested\n\n\n"
        "def command():\n    return helper()\n\n\n"
        "class Bound:\n    pass\n")
    (package / "cli.py").write_text("from .core import command\n")
    (bench / "run.py").write_text("TRACED = ('Bound',)\n")
    assert unreached_definitions(package, [bench]) == [("core", "only_tested")]


def test_every_definition_serves_a_command_a_workload_or_an_oracle():
    found = unreached_definitions(ROOT / "src" / "meridian",
                                  [ROOT / "perfbench"])
    extra = ["%s.%s" % pair for pair in found
             if pair[1] not in TEST_ONLY_ORACLES]
    assert not extra, ("defined in src/meridian but reached only from "
                       "tests:\n" + "\n".join(extra))
    # the allowlist names only definitions that need it
    assert {name for _, name in found} == TEST_ONLY_ORACLES
