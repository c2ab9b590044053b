"""Canonical labeling, automorphism orbits, and isomorph-free enumeration.

Canonical forms come from equitable partition refinement with
individualization and backtracking.  The search prunes sibling branches
that are equivalent under automorphisms discovered so far (restricted to
automorphisms fixing the branch sequence pointwise) and unwinds a branch
as soon as a leaf reproduces an anchor leaf's code.  Both prunings are the
classical ones and the module is validated exhaustively against brute
force relabeling for small orders in the test suite.

Enumeration uses canonical augmentation (McKay, "Isomorph-free
exhaustive generation", J. Algorithms 1998): a graph built by appending
vertex z to a parent is kept iff z lies in the automorphism orbit of the
vertex occupying the last canonical position.  Every isomorphism class on
the target order is produced exactly once, and no canonical form is spent
where nothing reads it:

- A parent's neighbor masks for z are grouped into exact orbits of its
  automorphism group, from the generators its own canonical form found,
  and only the smallest mask of each orbit is tried.  Two kept children
  of one parent are isomorphic only if their masks share an orbit, so no
  per-parent record of codes is needed; this rests on the generators
  generating the whole group, which the test suite checks.
- A mask that cannot give z top degree in the child is dropped before
  the child is built, since the canonical-last vertex has top degree
  unless the caller ranks the vertices by another invariant key: fewer
  than Δ(parent) neighbors, or exactly Δ with one of degree Δ.
- With a caller's edge cap, a mask that would take the child over it is
  dropped before the child is built.
- On the last level, a child whose z is alone in the last cell of the
  root refinement is kept without a canonical form: the canonical-last
  vertex lies in that cell, and the child's generators are never read.
  When z has strictly the top degree it is alone there, and the child is
  kept without refining it.
- The caller's `keep` test runs before the canonical test, so the test
  runs only on the children it keeps.

The output does not depend on these shortcuts: the same labeled graphs
come out in the same order as from trying every mask.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Iterator, NamedTuple, Optional, Sequence

from .errors import InvalidInputError, ResourceLimitError
from .graphs import SimpleGraph

DEFAULT_ENUM_CEILING = 10


class CanonicalCode:
    """Comparable, hashable key; equal codes mean isomorphic inputs."""

    __slots__ = ("data",)

    def __init__(self, data: bytes):
        self.data = data

    def hex(self) -> str:
        return self.data.hex()

    def __eq__(self, other):
        return isinstance(other, CanonicalCode) and self.data == other.data

    def __lt__(self, other):
        return self.data < other.data

    def __le__(self, other):
        return self.data <= other.data

    def __hash__(self):
        return hash(self.data)

    def __repr__(self):
        return f"CanonicalCode({self.data.hex()[:16]}...)"


class CanonResult(NamedTuple):
    code: CanonicalCode
    labeling: tuple[int, ...]  # labeling[v] = canonical position of v
    orbits: tuple[int, ...]  # orbits[v] = smallest vertex in v's orbit
    generators: tuple[tuple[int, ...], ...]


def _mask(cell) -> int:
    m = 0
    for v in cell:
        m |= 1 << v
    return m


def _refine(adj: Sequence[int], cells: list[list[int]], seeds=None) -> list[list[int]]:
    """Coarsest equitable refinement of the ordered partition `cells`;
    a discrete partition is returned as soon as it is reached."""
    cells = [list(c) for c in cells]
    queue = [_mask(c) for c in (cells if seeds is None else seeds)]
    while queue and len(cells) < len(adj):
        splitter = queue.pop()
        out = []
        for cell in cells:
            if len(cell) == 1:
                out.append(cell)
                continue
            buckets: dict[int, list[int]] = {}
            for v in cell:
                buckets.setdefault((adj[v] & splitter).bit_count(), []).append(v)
            if len(buckets) == 1:
                out.append(cell)
            else:
                for key in sorted(buckets):
                    sub = buckets[key]
                    out.append(sub)
                    queue.append(_mask(sub))
        cells = out
    return cells


def _leaf(adj, cells, n):
    order = [cell[0] for cell in cells]
    label = [0] * n
    for pos, v in enumerate(order):
        label[v] = pos
    bits = bytearray((n * (n - 1) // 2 + 7) // 8)
    idx = 0
    for p in range(n):
        row = adj[order[p]]
        for q in range(p + 1, n):
            if (row >> order[q]) & 1:
                bits[idx >> 3] |= 0x80 >> (idx & 7)
            idx += 1
    return bytes(bits), tuple(label), order


def _orbit(v: int, generators) -> set[int]:
    """The orbit of v under the group `generators` generate.  Forward
    images suffice: each generator has finite order, so its inverse is
    one of its powers."""
    orbit = {v}
    stack = [v]
    while stack:
        x = stack.pop()
        for gamma in generators:
            y = gamma[x]
            if y not in orbit:
                orbit.add(y)
                stack.append(y)
    return orbit


def _validate_cells(n, cells):
    seen = 0
    total = 0
    for cell in cells:
        for v in cell:
            if not 0 <= v < n or (seen >> v) & 1:
                raise InvalidInputError("invalid-partition", f"vertex {v}")
            seen |= 1 << v
            total += 1
    if total != n:
        raise InvalidInputError("invalid-partition", "cells must cover all vertices")


def canonical_form(g: SimpleGraph, cells=None, _root_cells=None) -> CanonResult:
    """Canonical code, labeling, vertex orbits, and generators for g.

    `cells` is an optional ordered initial partition (e.g. pattern side
    classes); isomorphism is then taken relative to it.
    """
    n = g.n
    adj = g.adj
    if n > 255:
        raise InvalidInputError("invalid-order", "canonical forms support n <= 255")
    if cells is None:
        given = [list(range(n))] if n else []
    else:
        _validate_cells(n, cells)
        given = [list(c) for c in cells]
    header = bytes([n, len(given)]) + bytes(len(c) for c in given)

    if n == 0:
        return CanonResult(CanonicalCode(header), (), (), ())

    work = [c for c in given if c]
    root = _refine(adj, work) if _root_cells is None else _root_cells

    # (code, order, label, seq) of the first leaf and of the least one
    first = best = None
    gens: list[tuple[int, ...]] = []

    def leaf(cells, seq):
        """Record the leaf that individualizing `seq` reaches.  A leaf with
        the code of the least or of the first leaf gives an automorphism
        carrying that leaf's branch onto this one, so below the node where
        the two branches part, the rest of this branch only repeats leaves
        seen before: that node's depth is returned, to go on there with
        the next vertex."""
        nonlocal first, best
        code, label, order = _leaf(adj, cells, n)
        if first is None:
            first = best = (code, order, label, seq)
            return None
        for anchor_code, anchor_order, _, anchor_seq in (best, first):
            if code == anchor_code:
                gamma = [0] * n
                for p in range(n):
                    gamma[anchor_order[p]] = order[p]
                gens.append(tuple(gamma))
                # a leaf ends its branch, so two branches part before either ends
                depth = 0
                while anchor_seq[depth] == seq[depth]:
                    depth += 1
                return depth
        if code < best[0]:
            best = (code, order, label, seq)
        return None

    def dfs(cells, seq):
        """Search the leaves below `seq`; return the depth to unwind to,
        or None."""
        split = [(len(cell), i) for i, cell in enumerate(cells) if len(cell) > 1]
        if not split:
            return leaf(cells, seq)
        target = min(split)[1]
        cell = cells[target]
        depth = len(seq)
        explored: list[int] = []
        for v in sorted(cell):
            if explored:
                fixing = [gm for gm in gens if all(gm[s] == s for s in seq)]
                if not _orbit(v, fixing).isdisjoint(explored):
                    explored.append(v)
                    continue
            rest = [u for u in cell if u != v]
            sub = cells[:target] + [[v], rest] + cells[target + 1 :]
            back = dfs(_refine(adj, sub, seeds=[[v], rest]), seq + [v])
            if back is not None and back < depth:
                return back
            explored.append(v)
        return None

    dfs(root, [])
    orbits = [-1] * n
    for v in range(n):
        if orbits[v] < 0:
            for u in _orbit(v, gens):
                orbits[u] = v
    return CanonResult(
        CanonicalCode(header + best[0]), best[2], tuple(orbits), tuple(gens)
    )


def canonical_code(g: SimpleGraph, cells=None) -> CanonicalCode:
    return canonical_form(g, cells).code


def canonical_graph(g: SimpleGraph) -> SimpleGraph:
    """The canonically labeled representative of g's isomorphism class."""
    return g.relabel(canonical_form(g).labeling)


# ---------------------------------------------------------------------------
# Isomorph-free enumeration by canonical augmentation.
# ---------------------------------------------------------------------------

def _mask_images(gamma: tuple[int, ...], v: int) -> list[list[int]]:
    """Image tables of gamma on masks of v bits, one per byte: gamma(M) is
    the union of tables[b][(M >> 8b) & 255] over the bytes b of M, so the
    tables grow with v rather than with 2^v."""
    tables = []
    for lo in range(0, v, 8):
        table = [0] * (1 << min(8, v - lo))
        for sub in range(1, len(table)):
            low = sub & -sub
            table[sub] = table[sub ^ low] | (1 << gamma[lo + low.bit_length() - 1])
        tables.append(table)
    return tables


def _orbit_minima(
    generators: Sequence[tuple[int, ...]], v: int, masks: Iterable[int]
) -> Iterable[int]:
    """The first mask of each orbit in `masks`, under the group that
    `generators` (permutations of v bits) generate, in `masks` order.

    `masks` is a union of orbits; read once, it may be an iterator.  When
    it is increasing, the first mask of an orbit is its smallest.  Each
    orbit is walked once through the generators' image tables.
    """
    if not generators:
        return masks
    images = [_mask_images(gamma, v) for gamma in generators]
    marked = bytearray(1 << v)
    minima = []
    for mask in masks:
        if marked[mask]:
            continue
        minima.append(mask)
        marked[mask] = 1
        stack = [mask]
        while stack:
            m = stack.pop()
            for tables in images:
                x = 0
                rest = m
                for table in tables:
                    x |= table[rest & 255]
                    rest >>= 8
                if not marked[x]:
                    marked[x] = 1
                    stack.append(x)
    return minima


def _accept(child: SimpleGraph, strict_top: bool, final: bool, cells=None):
    """The automorphism generators of `child` if canonical augmentation
    keeps it, () on the last level (`final`), or None if it is rejected.

    z = child.n - 1 is kept iff it lies in the orbit of the canonical-last
    vertex, which lies in the last cell of the root refinement, as every
    leaf of the canonical search refines it.  So z outside that cell is
    rejected.  On the last level, where the generators are never read, z
    alone in that cell is accepted without a canonical form, and z of
    strictly the top degree (`strict_top`) without refining: the first
    split of the refinement already puts it alone in the last cell, and
    later splits never reorder cells.

    `cells`, when given, orders the vertices into cells by an invariant
    key, largest last, and both refinement and canonical form start from
    it, so the canonical-last vertex has the largest key; z outside
    `cells[-1]` is rejected unrefined.  The group of (child, cells) is
    Aut(child), so the generators are still the child's.
    """
    if strict_top:
        return ()
    z = child.n - 1
    if cells is not None and z not in cells[-1]:
        return None
    root = _refine(child.adj, cells or [list(range(child.n))])
    cell = root[-1]
    if z not in cell:
        return None
    if final and len(cell) == 1:
        return ()
    res = canonical_form(child, cells, _root_cells=root)
    if res.orbits[z] != res.orbits[res.labeling.index(z)]:
        return None
    return () if final else res.generators


def _children(
    parent: SimpleGraph,
    generators: tuple[tuple[int, ...], ...],
    keep: Callable[[SimpleGraph, int], Optional[tuple[Optional[list[list[int]]], Any]]],
    room: int,
    final: bool,
    top: bool = True,
) -> Iterator[tuple[SimpleGraph, tuple[tuple[int, ...], ...], Any]]:
    """Accepted children of `parent` with their automorphism generators.

    `generators` generate the parent's automorphism group.  Only the
    smallest mask of each orbit of that group is tried: an automorphism
    carrying one mask to another, extended to fix the new vertex z, is an
    isomorphism between the two children, so a larger mask of the orbit
    gives a child the smallest one has already given or rejected.  Two
    accepted children whose masks lie in different orbits are not
    isomorphic: an isomorphism between them can be chosen to fix z, since
    z is in the orbit of the canonical-last vertex in both, and then it
    restricts to an automorphism of the parent carrying one mask to the
    other.  So no child needs a second look.

    A mask M is dropped before the child is built when it has more than
    `room` members (the child would have more edges than the caller
    keeps), or, with `top` set, when z cannot have top degree in the
    child, since the canonical-last vertex does: when |M| < Δ(parent), or
    |M| = Δ(parent) and M meets a vertex of degree Δ.  These tests are
    unchanged by automorphisms, so a dropped mask takes its whole orbit
    with it.

    `keep(child, z)` runs on each child built and returns None to drop
    it, or (cells, state): the canonical test (`_accept`) runs on the kept
    child from `cells` in place of top degree unless they are None, and
    `state`, the caller's own, is yielded with it.  `top` is set only when
    the largest key of `cells` implies top degree.  With `final` set the
    children are leaves of the enumeration and come with no generators.
    """
    v = parent.n
    degrees = [row.bit_count() for row in parent.adj]
    top_degree = max(degrees)
    tops = _mask(u for u in range(v) if degrees[u] == top_degree)
    least = top_degree if top else -1  # -1 lets every mask pass
    masks = [
        mask for mask in range(1 << v)
        if (size := mask.bit_count()) <= room
        and (size > least or (size == least and not mask & tops))
    ]
    for mask in _orbit_minima(generators, v, masks):
        child = parent.add_vertex(mask)
        if (kept := keep(child, v)) is None:
            continue
        cells, state = kept
        strict_top = cells is None and final and mask.bit_count() > top_degree + bool(mask & tops)
        gens = _accept(child, strict_top, final, cells)
        if gens is not None:
            yield child, gens, state


def enumerate_graphs(
    n: int,
    *,
    ceiling: int = DEFAULT_ENUM_CEILING,
    predicate: Optional[Callable[[SimpleGraph, int], bool]] = None,
    max_edges: Optional[Callable[[int], int]] = None,
) -> Iterator[SimpleGraph]:
    """Stream one representative per isomorphism class on n vertices.

    Canonical augmentation from K_1 (see `_children`): each parent tries
    one neighbor mask per orbit of its automorphism group, among the masks
    that let the new vertex have top degree, and the children on the last
    level skip their canonical form when the root refinement already puts
    the new vertex alone in the last cell.  Representatives are labeled
    graphs, yielded depth first in mask order.

    `max_edges(v)` is the most edges a kept graph on v vertices may have;
    a parent on v vertices with e edges then tries only masks of at most
    max_edges(v + 1) - e members, so children over the cap are never
    built.  Like the predicate below, the cap must hold on every graph
    that the kept ones reach by deleting canonical-last vertices: a
    constant cap does, and so does a cap on complements from an edge
    floor that deleting a vertex of minimum degree keeps.
    (`turan._enum_ex` applies such caps through `_children` itself, so
    that its levels can share layers.)

    `predicate(child, z)` prunes a just-augmented child (z is the new
    vertex); it must reject a graph only if no graph to be kept reaches it
    by deleting canonical-last vertices, which have top degree (hereditary
    filters such as pattern-freeness qualify), and it must judge two
    children alike when an isomorphism between them fixes z.  A predicate
    that reads vertex labels breaks the second rule and can lose classes.

    The predicate sees every labeled child built, before its canonical
    test, so a child it rejects costs no canonical form.
    """
    if n < 0:
        raise InvalidInputError("invalid-order", str(n))
    if n > ceiling:
        raise ResourceLimitError(
            "enumeration-ceiling", f"n={n} exceeds ceiling {ceiling}"
        )
    if n == 0:
        yield SimpleGraph.empty(0)
        return

    def keep(child: SimpleGraph, z: int):
        return (None, None) if predicate is None or predicate(child, z) else None

    def rec(g: SimpleGraph, gens) -> Iterator[SimpleGraph]:
        if g.n == n:
            yield g
            return
        room = g.n if max_edges is None else max_edges(g.n + 1) - g.num_edges
        for child, child_gens, _ in _children(g, gens, keep, room, g.n + 1 == n):
            yield from rec(child, child_gens)

    yield from rec(SimpleGraph.empty(1), ())
