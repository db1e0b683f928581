"""Every public top-level name in the package has a caller.

A name counts as used when the package sources, the README or the
acceptance suite refer to it: as a bare name, as an imported name, or as an
attribute of a package module (``sdp.solve``).  Unit tests alone do not keep
a name alive, so code that only its own tests call shows up here.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "trotopt"


def _public_names(tree: ast.Module) -> list[str]:
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, ast.Assign):
            names.extend(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.append(node.target.id)
    return [name for name in names if not name.startswith("_")]


def _references(tree: ast.Module, modules: set[str]) -> set[str]:
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.ImportFrom):
            used.update(alias.name for alias in node.names)
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in modules
        ):
            used.add(node.attr)
    return used


def test_every_public_name_has_a_caller():
    sources = sorted(PACKAGE.glob("*.py"))
    modules = {path.stem for path in sources} | {"trotopt"}
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in sources}
    used = set(re.findall(r"\w+", (ROOT / "README.md").read_text(encoding="utf-8")))
    acceptance = ast.parse((ROOT / "tests" / "test_acceptance.py").read_text(encoding="utf-8"))
    for tree in [*trees.values(), acceptance]:
        used |= _references(tree, modules)
    unused = [
        f"{path.stem}.{name}"
        for path, tree in trees.items()
        for name in _public_names(tree)
        if name not in used
    ]
    assert not unused, f"public names without a caller: {unused}"
