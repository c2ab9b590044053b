"""Shared helpers.

The oracles here are deliberately written against the definitions, not
against the library's algorithms: NIM flags by enumerating every injection
of the pattern, freeness the same way.  Slow on purpose.
"""

import itertools

import pytest

from nimlab.canon import _refine, canonical_code, canonical_form, enumerate_graphs
from nimlab.graphs import SimpleGraph, edge_index, edge_pairs
from nimlab.monoscan import EdgeColoring
from nimlab.patterns import BipartitePattern, build_pattern
from nimlab.turan import _pattern_free_predicate


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


def oracle_children(parent: SimpleGraph, predicate=None):
    """Canonical augmentation that tries every neighbor mask of the new
    vertex, with no automorphism pruning: the accepted children of
    `parent`, in mask order."""
    v = parent.n
    seen = set()
    for mask in range(1 << v):
        child = parent.add_vertex(mask)
        if predicate is not None and not predicate(child, v):
            continue
        root = _refine(child.adj, [list(range(v + 1))])
        if v not in root[-1]:
            continue
        res = canonical_form(child, _root_cells=root)
        last = res.labeling.index(v)
        if res.orbits[v] != res.orbits[last] or res.code in seen:
            continue
        seen.add(res.code)
        yield child


def oracle_enumerate_graphs(n: int, predicate=None):
    """One graph per isomorphism class on n >= 1 vertices, built with
    `oracle_children`."""
    def rec(g):
        if g.n == n:
            yield g
            return
        for child in oracle_children(g, predicate):
            yield from rec(child)

    yield from rec(SimpleGraph.empty(1))


def oracle_mono_free(coloring: EdgeColoring, pattern: BipartitePattern) -> bool:
    return all(oracle_nim_flags(coloring, pattern))


def oracle_ex(n: int, pattern: BipartitePattern) -> tuple[int, set[bytes]]:
    """ex(n, H) and the canonical codes of its extremal classes, from the
    full isomorph-free enumeration of H-free graphs on n >= 1 vertices."""
    best, classes = -1, set()
    for g in enumerate_graphs(n, ceiling=n, predicate=_pattern_free_predicate(pattern)):
        if g.num_edges > best:
            best, classes = g.num_edges, set()
        if g.num_edges == best:
            classes.add(canonical_code(g).data)
    return best, classes


# Brute-force isomorphism helpers.  Deliberately naive: these are the
# oracles the clever code is validated against, so they stay independent
# of it.

def isomorphic_brute(g: SimpleGraph, h: SimpleGraph) -> bool:
    if g.n != h.n or g.num_edges != h.num_edges:
        return False
    if sorted(g.degrees()) != sorted(h.degrees()):
        return False
    target = h.adj
    for perm in itertools.permutations(range(g.n)):
        if g.relabel(perm).adj == target:
            return True
    return False


def automorphisms_brute(g: SimpleGraph) -> list[tuple[int, ...]]:
    return [p for p in itertools.permutations(range(g.n)) if g.relabel(p).adj == g.adj]


def orbits_brute(g: SimpleGraph) -> list[int]:
    """Vertex orbit labels (smallest member of each orbit) under Aut(g)."""
    label = list(range(g.n))
    for p in automorphisms_brute(g):
        for v in range(g.n):
            a, b = v, p[v]
            ra, rb = label[a], label[b]
            if ra != rb:
                lo, hi = min(ra, rb), max(ra, rb)
                for u in range(g.n):
                    if label[u] == hi:
                        label[u] = lo
    return label


@pytest.fixture
def k3():
    return build_pattern("k3")


@pytest.fixture
def c4():
    return build_pattern("c4")


@pytest.fixture
def k23():
    return build_pattern("k2,3")
