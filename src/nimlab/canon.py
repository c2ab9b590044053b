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
  the child is built, since the canonical-last vertex has top degree:
  fewer than Δ(parent) neighbors, or exactly Δ with one of degree Δ.
- With a caller's edge cap, a mask that would take the child over it is
  dropped before the child is built.
- On the last level, a child whose z is alone in the last cell of the
  root refinement is kept without a canonical form: the canonical-last
  vertex lies in that cell, and the child's generators are never read.
  When z has strictly the top degree it is alone there, and the child is
  kept without refining it.
- The caller's predicate runs before the canonical test, so on the last
  level the test runs only on the children the predicate keeps: the
  exact two-color search scores each coloring in its predicate and keeps
  only those that tie or beat its best score.

The output does not depend on these shortcuts: the same labeled graphs
come out in the same order as from trying every mask.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Sequence

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


class _Jump(Exception):
    def __init__(self, depth: int):
        self.depth = depth


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

    best_code: Optional[bytes] = None
    best_order: Optional[list[int]] = None
    best_label = None
    best_seq: list[int] = []
    first_code: Optional[bytes] = None
    first_order: Optional[list[int]] = None
    first_seq: list[int] = []
    gens: list[tuple[int, ...]] = []
    uf = list(range(n))

    def find(x: int) -> int:
        while uf[x] != x:
            uf[x] = uf[uf[x]]
            x = uf[x]
        return x

    def union(a: int, b: int):
        ra, rb = find(a), find(b)
        if ra != rb:
            uf[max(ra, rb)] = min(ra, rb)

    def common_prefix(a: list[int], b: list[int]) -> int:
        i = 0
        for x, y in zip(a, b):
            if x != y:
                break
            i += 1
        return i

    def record(gamma: tuple[int, ...]):
        if any(gamma[v] != v for v in range(n)):
            gens.append(gamma)
            for v in range(n):
                union(v, gamma[v])

    def handle_leaf(cells, seq):
        nonlocal best_code, best_order, best_label, best_seq, first_code, first_order, first_seq
        code, label, order = _leaf(adj, cells, n)
        if first_code is None:
            first_code, first_order, first_seq = code, order, list(seq)
            best_code, best_order, best_label, best_seq = code, order, label, list(seq)
            return
        jumps = []
        if code == best_code:
            gamma = [0] * n
            for p in range(n):
                gamma[best_order[p]] = order[p]
            record(tuple(gamma))
            jumps.append(common_prefix(best_seq, seq))
        elif code < best_code:
            best_code, best_order, best_label, best_seq = code, order, label, list(seq)
        if code == first_code and first_code != best_code:
            gamma = [0] * n
            for p in range(n):
                gamma[first_order[p]] = order[p]
            record(tuple(gamma))
            jumps.append(common_prefix(first_seq, seq))
        if jumps:
            raise _Jump(min(jumps))

    def dfs(cells, seq, depth):
        target = -1
        tsize = 0
        for i, cell in enumerate(cells):
            sz = len(cell)
            if sz > 1 and (target < 0 or sz < tsize):
                target, tsize = i, sz
        if target < 0:
            handle_leaf(cells, seq)
            return
        explored: list[int] = []
        for v in sorted(cells[target]):
            if explored:
                relevant = [
                    gm for gm in gens if all(gm[s] == s for s in seq)
                ]
                if relevant:
                    reach = {v}
                    frontier = [v]
                    while frontier:
                        x = frontier.pop()
                        for gm in relevant:
                            y = gm[x]
                            if y not in reach:
                                reach.add(y)
                                frontier.append(y)
                            # inverse direction
                            z = gm.index(x)
                            if z not in reach:
                                reach.add(z)
                                frontier.append(z)
                    if any(u in reach for u in explored):
                        explored.append(v)
                        continue
            rest = [u for u in cells[target] if u != v]
            sub = cells[:target] + [[v], rest] + cells[target + 1 :]
            sub = _refine(adj, sub, seeds=[[v], rest])
            try:
                dfs(sub, seq + [v], depth + 1)
            except _Jump as jump:
                if jump.depth != depth:
                    raise
            explored.append(v)

    try:
        dfs(root, [], 0)
    except _Jump:
        pass

    reps = {}
    orbit = [0] * n
    for v in range(n):
        r = find(v)
        if r not in reps:
            reps[r] = v
        orbit[v] = reps[r]

    return CanonResult(
        CanonicalCode(header + best_code),
        tuple(best_label),
        tuple(orbit),
        tuple(gens),
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


def _accept(child: SimpleGraph, strict_top: bool, final: bool):
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
    """
    if strict_top:
        return ()
    z = child.n - 1
    root = _refine(child.adj, [list(range(child.n))])
    cell = root[-1]
    if z not in cell:
        return None
    if final and len(cell) == 1:
        return ()
    res = canonical_form(child, _root_cells=root)
    if res.orbits[z] != res.orbits[res.labeling.index(z)]:
        return None
    return () if final else res.generators


def _children(
    parent: SimpleGraph,
    generators: tuple[tuple[int, ...], ...],
    predicate: Optional[Callable[[SimpleGraph, int], bool]],
    room: int,
    final: bool,
) -> Iterator[tuple[SimpleGraph, tuple[tuple[int, ...], ...]]]:
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
    keeps), or when z cannot have top degree in the child, since the
    canonical-last vertex does: when |M| < Δ(parent), or |M| = Δ(parent)
    and M meets a vertex of degree Δ.  These tests are unchanged by
    automorphisms, so a dropped mask takes its whole orbit with it.

    The predicate runs on each child built, and the canonical test
    (`_accept`) only on the children it keeps.  With `final` set the
    children are leaves of the enumeration and come with no generators.
    """
    v = parent.n
    degrees = [row.bit_count() for row in parent.adj]
    top_degree = max(degrees)
    top = _mask(u for u in range(v) if degrees[u] == top_degree)
    masks = [
        mask for mask in range(1 << v)
        if (size := mask.bit_count()) <= room
        and (size > top_degree or (size == top_degree and not mask & top))
    ]
    for mask in _orbit_minima(generators, v, masks):
        child = parent.add_vertex(mask)
        if predicate is not None and not predicate(child, v):
            continue
        strict_top = final and mask.bit_count() > top_degree + bool(mask & top)
        gens = _accept(child, strict_top, final)
        if gens is not None:
            yield child, gens


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
    constant cap does, as `search._smallest_classes` passes, and so does
    a cap on complements from an edge floor that deleting a vertex of
    minimum degree keeps.  (`turan._enum_ex` applies such caps through
    `_children` itself, so that its levels can share layers.)

    `predicate(child, z)` prunes a just-augmented child (z is the new
    vertex); it must reject a graph only if no graph to be kept reaches it
    by deleting canonical-last vertices, which have top degree (hereditary
    filters such as pattern-freeness qualify), and it must judge two
    children alike when an isomorphism between them fixes z.  A predicate
    that reads vertex labels breaks the second rule and can lose classes.
    A predicate may tighten over a run, as a branch and bound's does when
    its best score grows, if it only ever rejects graphs whose
    descendants cannot be kept.

    On n vertices the predicate sees every labeled child built, before
    its canonical test, so a child it rejects there costs no canonical
    form; and a child it keeps is yielded, if the test accepts it, before
    the next child is built, so a caller may read what the predicate
    learnt about the yielded graph.
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

    def rec(g: SimpleGraph, gens) -> Iterator[SimpleGraph]:
        if g.n == n:
            yield g
            return
        room = g.n if max_edges is None else max_edges(g.n + 1) - g.num_edges
        for child, child_gens in _children(g, gens, predicate, room, g.n + 1 == n):
            yield from rec(child, child_gens)

    yield from rec(SimpleGraph.empty(1), ())
