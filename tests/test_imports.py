"""Every name a module imports is used in that module.

A stdlib stand-in for pyflakes' unused-import check over `src/meridian`
and `tests`.  A package `__init__.py` is exempt: its imports are the
package's exports.
"""

import ast
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
