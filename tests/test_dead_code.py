"""Every private function of ``pdmm`` has a caller in ``pdmm``.

A ``_private`` function or method (dunders aside) that no module of
``src/pdmm`` names outside its own ``def`` is dead: no run reaches it,
and only the tests that call it keep it.  Imports do not count as a
use, and neither does a function naming itself.  The check goes by
name, so it is a floor: a dead function that shares its name with a
live one passes.  Public names are the API, pinned in
``test_public_api.py`` instead.
"""

import ast
from collections import Counter
from pathlib import Path

SOURCE = Path(__file__).parents[1] / "src" / "pdmm"


def names(node):
    """Every variable and attribute name read or written under ``node``."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr


def unreferenced(sources):
    """``module.name`` of every private function or method in ``sources``
    (module name -> source text) that no module names outside its own body."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    total = Counter(name for tree in trees.values() for name in names(tree))
    dead = []
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and node.name.startswith("_")
                    and not (node.name.startswith("__") and node.name.endswith("__"))
                    and total[node.name] == Counter(names(node))[node.name]):
                dead.append(f"{module}.{node.name}")
    return sorted(dead)


def test_every_private_function_is_named_outside_its_def():
    sources = {path.stem: path.read_text() for path in sorted(SOURCE.glob("*.py"))}
    assert len(sources) >= 7
    assert unreferenced(sources) == []


def test_the_check_reports_an_unreferenced_helper():
    source = '''
import numpy as np
from helpers import _imported


class Box:
    def __init__(self):
        self.size = self._size()

    def _size(self):
        return 1


def public(x):
    return _used(x) + np.sum(x)


def _used(x):
    return x


def _helper(x):
    return x + 1


def _loop(n):
    return n and _loop(n - 1)
'''
    assert unreferenced({"m": source}) == ["m._helper", "m._loop"]
