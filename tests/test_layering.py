"""Module layering: the GRS math in ``pdmm.grs`` sits below the protocol.

``grs`` imports only ``gf``; the evaluation frame, which ties points to a
plan, belongs to ``protocol``.
"""

import ast
from pathlib import Path

import pdmm
from pdmm import grs, protocol

GRS_SOURCE = Path(__file__).parents[1] / "src" / "pdmm" / "grs.py"


def imported_modules(source):
    """Every module an import statement in ``source`` names, relative ones with their dots."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = "." * node.level + (node.module or "")
            names.add(base)
            if node.module is None:  # from . import protocol
                names.update(base + alias.name for alias in node.names)
    return names


def upper_layers(source):
    return sorted(name for name in imported_modules(source)
                  if name.rsplit(".", 1)[-1] in ("degree_tables", "protocol"))


def test_grs_imports_neither_degree_tables_nor_protocol():
    source = GRS_SOURCE.read_text()
    assert ".gf" in imported_modules(source)
    assert upper_layers(source) == []
    # negative controls: the import grs had while it held the frame, and its other spellings
    assert upper_layers("from .degree_tables import ExponentPlan\n") == [".degree_tables"]
    assert upper_layers("from . import protocol\n") == [".protocol"]
    assert upper_layers("import pdmm.protocol\n") == ["pdmm.protocol"]


def test_the_frame_belongs_to_protocol():
    assert pdmm.EvalFrame is protocol.EvalFrame
    assert "EvalFrame" in protocol.__all__
    assert not hasattr(grs, "EvalFrame")
