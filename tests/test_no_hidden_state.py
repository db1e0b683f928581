"""No module of the package keeps state that its own code changes.

A module-level name that code writes through (``NAME[key] = ...``,
``NAME.update(...)``) or rebinds under ``global`` is shared by every caller
in the process, so one call's result could depend on the calls before it.
Such state belongs to an object that callers create and pass, as the
analysis of a term set belongs to ``channels.TermSet``.  Module-level tables
that are only read, such as ``PAULIS``, ``NOISES`` and ``METRICS``, pass.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "trotopt"
MUTATORS = {"clear", "update", "append", "extend", "setdefault", "pop", "add"}


def _module_names(tree: ast.Module) -> set[str]:
    names = set()
    for node in tree.body:
        if isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return names


def hidden_state(source: str) -> list[str]:
    """Each write to a module-level name of ``source`` outside a plain
    module-level binding, as ``"line N: ..."`` in line order."""
    tree = ast.parse(source)
    module = _module_names(tree)

    def is_module_name(node) -> bool:
        return isinstance(node, ast.Name) and node.id in module

    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Global):
            found += [(node.lineno, f"global {name}") for name in node.names]
        elif isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            found += [
                (node.lineno, f"{target.value.id}[...] assigned")
                for target in targets
                if isinstance(target, ast.Subscript) and is_module_name(target.value)
            ]
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in MUTATORS
            and is_module_name(node.func.value)
        ):
            found.append((node.lineno, f"{node.func.value.id}.{node.func.attr}()"))
    return [f"line {line}: {what}" for line, what in sorted(found)]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_module_level_state_is_written(path):
    assert hidden_state(path.read_text(encoding="utf-8")) == []


def test_the_scan_sees_a_module_memo():
    source = (
        "_MEMO: dict = {}\nCOUNT = 0\nTABLE = {'a': 1}\n"
        "def f(key):\n    global COUNT\n    _MEMO.clear()\n    _MEMO[key] = TABLE['a']\n"
    )
    assert hidden_state(source) == [
        "line 5: global COUNT",
        "line 6: _MEMO.clear()",
        "line 7: _MEMO[...] assigned",
    ]
