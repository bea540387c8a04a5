"""The part of netclass the benchmark harness under ``perfbench/`` relies on:
every name it imports, and the ``netclass.ordering`` globals its traced pass
patches to time ranking and betweenness inside ``sorted_adjacency``."""

import ast
import importlib
from pathlib import Path

from netclass import from_edge_list, ordering, sorted_adjacency

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _netclass_imports():
    """``(file, module, name)`` for each ``from netclass... import name``."""
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "netclass":
                for alias in node.names:
                    yield path.name, node.module, alias.name


def test_perfbench_surface(monkeypatch):
    found = list(_netclass_imports())
    assert {"child.py", "traced.py"} <= {f for f, _, _ in found}
    for file, module, name in found:
        assert hasattr(importlib.import_module(module), name), f"{file}: {module}.{name}"

    calls = []
    for name in ("node_ranking", "betweenness"):
        real = getattr(ordering, name)
        monkeypatch.setattr(ordering, name,
                            lambda g, name=name, real=real: calls.append(name) or real(g))
    sorted_adjacency(from_edge_list(4, [(0, 1), (1, 2), (2, 3)]))
    assert calls == ["node_ranking", "betweenness"]
