"""No module of ``src/cvqec`` reaches another module's private name.

A name with a leading underscore is its module's own.  The test parses every
module with ``ast`` and collects each private name it takes from another
package module: ``from .m import _name`` (or ``from cvqec.m import``), and
``m._name`` through a module bound by ``from . import m``.  One not in
``ALLOWLIST`` fails the test; an allowlisted one that is no longer taken
fails it too, so the list only shrinks.  Tests may still reach private names.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "cvqec"

# "importer: module._name" of each private name kept across modules, with
# the reason it stays.
ALLOWLIST: dict[str, str] = {}


def _package_module(node: ast.ImportFrom) -> str | None:
    """The package module ``node`` imports from, or None outside the package."""
    if node.level == 1:
        return node.module
    if node.level == 0 and (node.module or "").startswith("cvqec."):
        return node.module.split(".", 1)[1]
    return None


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def private_names_taken(path: Path) -> set[str]:
    """``module._name`` of every private name ``path`` takes from another module."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    modules, taken = {}, set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        if (node.level, node.module) in ((1, None), (0, "cvqec")):      # from . import m
            modules.update({a.asname or a.name: a.name for a in node.names})
        elif module := _package_module(node):
            taken |= {f"{module}.{a.name}" for a in node.names if _private(a.name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules and _private(node.attr)):
            taken.add(f"{modules[node.value.id]}.{node.attr}")
    return taken


def test_no_private_name_crosses_a_module():
    taken = {f"{path.stem}: {name}" for path in sorted(PACKAGE.glob("*.py"))
             for name in private_names_taken(path)}
    crossing = sorted(taken - set(ALLOWLIST))
    assert not crossing, f"private names taken across modules: {crossing}"
    stale = sorted(set(ALLOWLIST) - taken)
    assert not stale, f"allowlisted but no longer taken: {stale}; drop them from ALLOWLIST"


def test_the_check_sees_each_spelling(tmp_path):
    """A relative, an absolute and an attribute spelling are each caught,
    and a module's own private names and dunders are not."""
    source = tmp_path / "probe.py"
    source.write_text("from .code import _a, b\nfrom cvqec.errors import _c\n"
                      "from . import code as qec\nfrom cvqec import exact\n"
                      "x = qec._d + exact._e + qec.__name__ + exact.f + _own\n",
                      encoding="utf-8")
    assert private_names_taken(source) == {"code._a", "errors._c", "code._d", "exact._e"}
