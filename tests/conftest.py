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


def reference_extend(rows, plan, assign, used, pos, allowed, placed=None) -> bool:
    """The matcher's depth-first search as a recursive interpreter, one
    plan position per call: the reference for the compiled searches of
    `monoscan._extend`.  `placed`, if given, counts the vertices placed
    at each position."""
    order, preds = plan.order, plan.preds
    if pos == len(order):
        return True
    full = (1 << len(rows)) - 1
    m = full & ~used
    for p in preds[pos]:
        m &= rows[assign[p]]
    if allowed is not None:
        m &= allowed[order[pos]]
    twin = plan.twins[pos]
    if twin >= 0:
        m &= -2 << assign[twin]
    while m:
        w = (m & -m).bit_length() - 1
        m &= m - 1
        assign[pos] = w
        if placed is not None:
            placed[pos] += 1
        if reference_extend(rows, plan, assign, used | (1 << w), pos + 1, allowed, placed):
            return True
    return False


def _image(plan, assign) -> tuple[int, ...]:
    image = [0] * len(assign)
    for i, pv in enumerate(plan.order):
        image[pv] = assign[i]
    return tuple(image)


def reference_copy_through(rows, pattern: BipartitePattern, u: int, v: int, placed=None):
    """The image of the first copy through edge (u, v) that the reference
    search finds, plan by plan, or None.  `placed`, if given, holds one
    per-position count list per plan."""
    for k, plan in enumerate(pattern.pin_plans):
        assign = [0] * pattern.h
        assign[0], assign[1] = u, v
        if reference_extend(rows, plan, assign, (1 << u) | (1 << v), 2, None,
                            None if placed is None else placed[k]):
            return _image(plan, assign)
    return None


def reference_contains_copy(g, pattern: BipartitePattern, allowed=None, placed=None):
    """The image of the first copy in g that the reference search finds
    from the free plan, root vertex by root vertex, or None."""
    if pattern.h > g.n:
        return None
    plan = pattern.free_plan
    rootmask = (1 << g.n) - 1 if allowed is None else allowed[plan.order[0]]
    for r in range(g.n):
        if rootmask >> r & 1:
            if placed is not None:
                placed[0] += 1
            assign = [0] * pattern.h
            assign[0] = r
            if reference_extend(g.adj, plan, assign, 1 << r, 1, allowed, placed):
                return _image(plan, assign)
    return None


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
