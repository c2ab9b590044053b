"""Shared helpers.

The oracles here are deliberately written against the definitions, not
against the library's algorithms: NIM flags by enumerating every injection
of the pattern, freeness the same way.  Slow on purpose.
"""

import itertools

import pytest

from nimlab.graphs import edge_index, edge_pairs
from nimlab.monoscan import EdgeColoring
from nimlab.patterns import BipartitePattern, build_pattern


def oracle_nim_flags(coloring: EdgeColoring, pattern: BipartitePattern) -> list[bool]:
    """flags[e] is True when edge e lies in no monochromatic pattern copy."""
    n = coloring.n
    h = pattern.graph.n
    pat_edges = list(pattern.graph.edges())
    m = n * (n - 1) // 2
    covered = [False] * m
    if h <= n and pat_edges:
        for img in itertools.permutations(range(n), h):
            idxs = [edge_index(n, img[a], img[b]) for a, b in pat_edges]
            cols = {coloring.colors[i] for i in idxs}
            if len(cols) == 1:
                for i in idxs:
                    covered[i] = True
    return [not c for c in covered]


def oracle_is_free(g, pattern: BipartitePattern) -> bool:
    """No injection of the pattern lands entirely on edges of g."""
    h = pattern.graph.n
    if h > g.n:
        return True
    pat_edges = list(pattern.graph.edges())
    for img in itertools.permutations(range(g.n), h):
        if all(g.has_edge(img[a], img[b]) for a, b in pat_edges):
            return False
    return True


def oracle_coloring_key(coloring: EdgeColoring) -> tuple[int, ...]:
    """Smallest color vector over all n! vertex relabelings, colors renamed
    in first-use order; equal keys mean equal up to relabeling and renaming."""
    n = coloring.n
    pairs = edge_pairs(n)
    best = None
    for vp in itertools.permutations(range(n)):
        arr = [0] * len(pairs)
        for i, (u, v) in enumerate(pairs):
            arr[edge_index(n, vp[u], vp[v])] = coloring.colors[i]
        ren: dict[int, int] = {}
        key = tuple(ren.setdefault(c, len(ren) + 1) for c in arr)
        if best is None or key < best:
            best = key
    return best


def oracle_mono_free(coloring: EdgeColoring, pattern: BipartitePattern) -> bool:
    return all(oracle_nim_flags(coloring, pattern))


@pytest.fixture
def k3():
    return build_pattern("k3")


@pytest.fixture
def c4():
    return build_pattern("c4")


@pytest.fixture
def k23():
    return build_pattern("k2,3")
