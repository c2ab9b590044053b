"""Every nimlab name the bench scripts import, or read off an imported
nimlab name, must exist, so that retiring a name shows up here rather
than only in a later bench run."""

import ast
import importlib
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _nimlab_names(tree: ast.AST) -> list[tuple[str, int]]:
    """(dotted name, line) of each `from nimlab... import` name, and of
    each attribute chain read off a name that an import binds to nimlab."""
    bound: dict[str, str] = {}
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "nimlab":
            for alias in node.names:
                bound[alias.asname or alias.name] = f"{node.module}.{alias.name}"
                names.append((f"{node.module}.{alias.name}", node.lineno))
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "nimlab":
                    local = alias.asname or "nimlab"
                    bound[local] = alias.name if alias.asname else "nimlab"
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            chain = []
            base = node
            while isinstance(base, ast.Attribute):
                chain.append(base.attr)
                base = base.value
            if isinstance(base, ast.Name) and base.id in bound:
                names.append((".".join([bound[base.id], *reversed(chain)]), node.lineno))
    return names


def _resolve(dotted: str):
    parts = dotted.split(".")
    obj = importlib.import_module(parts[0])
    for i, part in enumerate(parts[1:], 2):
        if not hasattr(obj, part):
            obj = importlib.import_module(".".join(parts[:i]))
        else:
            obj = getattr(obj, part)
    return obj


@pytest.mark.parametrize("script", sorted(p.name for p in BENCH.glob("*.py")))
def test_bench_nimlab_names_resolve(script):
    names = _nimlab_names(ast.parse((BENCH / script).read_text()))
    for dotted, line in names:
        try:
            _resolve(dotted)
        except (ImportError, AttributeError) as exc:
            pytest.fail(f"{script}:{line}: {dotted} does not resolve ({exc})")


def test_the_name_reader_sees_both_import_styles():
    tree = ast.parse(
        "from nimlab.search import f_exact\n"
        "from nimlab import search\n"
        "import nimlab.canon as canon\n"
        "search._gone = canon.enumerate_graphs\n"
    )
    got = {name for name, _ in _nimlab_names(tree)}
    assert got == {"nimlab.search.f_exact", "nimlab.search", "nimlab.search._gone",
                   "nimlab.canon.enumerate_graphs"}
    with pytest.raises(ImportError):
        _resolve("nimlab.search._gone")
