"""Canonical labeling, automorphism orbits, and isomorph-free enumeration.

Canonical forms come from equitable partition refinement with
individualization and backtracking.  The search prunes sibling branches
that are equivalent under automorphisms discovered so far (restricted to
automorphisms fixing the branch sequence pointwise) and unwinds a branch
as soon as a leaf reproduces an anchor leaf's code.  Both prunings are the
classical ones and the module is validated exhaustively against brute
force relabeling for small orders in the test suite.

Enumeration uses canonical augmentation: a graph built by appending vertex
z to a parent is kept iff z lies in the automorphism orbit of the vertex
occupying the last canonical position, with per-parent deduplication by
canonical code.  Every isomorphism class on the target order is produced
exactly once.  Each kept graph carries the automorphism generators its
own canonical form found, and among its children a neighbor mask M of z
is skipped when one generator maps M to a smaller mask.  The output is
unchanged: the smallest mask of each orbit is never skipped, and two kept
children of one parent are isomorphic only if their masks share an orbit.
A child whose z is below the top degree is dropped before refinement,
since the canonical-last vertex always has top degree.
"""

from __future__ import annotations

from typing import Callable, Iterator, NamedTuple, Optional, Sequence

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


def graph_from_code(code: CanonicalCode) -> SimpleGraph:
    """Rebuild the representative graph stored in a canonical code."""
    data = code.data
    n = data[0]
    ncells = data[1]
    bits = data[2 + ncells :]
    rows = [0] * n
    idx = 0
    for p in range(n):
        for q in range(p + 1, n):
            if bits[idx >> 3] & (0x80 >> (idx & 7)):
                rows[p] |= 1 << q
                rows[q] |= 1 << p
            idx += 1
    return SimpleGraph(n, tuple(rows))


# ---------------------------------------------------------------------------
# Isomorph-free enumeration by canonical augmentation.
# ---------------------------------------------------------------------------

def _mask_images(gamma: tuple[int, ...], v: int) -> list[int]:
    """images[M] is the mask gamma(M), for every mask M on v vertices."""
    images = [0] * (1 << v)
    for mask in range(1, 1 << v):
        low = mask & -mask
        images[mask] = images[mask ^ low] | (1 << gamma[low.bit_length() - 1])
    return images


def _children(
    parent: SimpleGraph,
    generators: tuple[tuple[int, ...], ...],
    predicate: Optional[Callable[[SimpleGraph, int], bool]],
) -> Iterator[tuple[SimpleGraph, tuple[tuple[int, ...], ...]]]:
    """Accepted children of `parent` with their automorphism generators.

    `generators` are automorphisms of the parent.  A mask that one of them
    maps to a smaller mask is skipped: the smallest mask of its orbit is
    tried first and gives an isomorphic child (the automorphism, fixing the
    new vertex, carries one child onto the other), so the skipped child
    could only repeat a code already in `seen` or be rejected like it.
    """
    v = parent.n
    images = [_mask_images(gamma, v) for gamma in generators]
    seen: set[CanonicalCode] = set()
    for mask in range(1 << v):
        if any(img[mask] < mask for img in images):
            continue
        child = parent.add_vertex(mask)
        # the canonical-last vertex always sits in the final cell of the
        # root refinement, and that cell holds only vertices of top degree
        if mask.bit_count() < max(row.bit_count() for row in child.adj):
            continue
        if predicate is not None and not predicate(child, v):
            continue
        root = _refine(child.adj, [list(range(v + 1))])
        if v not in root[-1]:
            continue
        res = canonical_form(child, _root_cells=root)
        pos = res.labeling
        last = pos.index(v)  # vertex occupying the last canonical position
        if res.orbits[v] != res.orbits[last]:
            continue
        if res.code in seen:
            continue
        seen.add(res.code)
        yield child, res.generators


def enumerate_graphs(
    n: int,
    *,
    ceiling: int = DEFAULT_ENUM_CEILING,
    predicate: Optional[Callable[[SimpleGraph, int], bool]] = None,
) -> Iterator[SimpleGraph]:
    """Stream one representative per isomorphism class on n vertices.

    `predicate(child, z)` prunes a just-augmented child (z is the new
    vertex); it must reject a graph only if no graph to be kept reaches it
    by deleting canonical-last vertices, which have top degree (hereditary
    filters such as pattern-freeness qualify, and so does the edge floor
    of `turan._enum_ex`), and it must judge two children alike when an
    isomorphism between them fixes z.  A predicate that reads
    vertex labels breaks the second rule and can lose classes.
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
        for child, child_gens in _children(g, gens, predicate):
            yield from rec(child, child_gens)

    yield from rec(SimpleGraph.empty(1), ())
