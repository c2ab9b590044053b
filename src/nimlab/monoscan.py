"""Edge colorings of complete graphs and monochromatic-copy scanning.

An edge e of a k-colored K_n is NIM for a pattern H when no monochromatic
copy of H uses e; such a copy would have to live in the color class of e,
so scanning one class per edge suffices.  The matcher pins a pattern edge
onto the queried edge, one pinned plan per orbit of directed pattern edges,
and extends by intersecting neighborhood bitmasks, placing unpinned twin
pattern vertices on increasing host vertices.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations, permutations
from typing import Iterable, Optional, Sequence

from .errors import InvalidInputError
from .graphs import SimpleGraph, bits_to_list, edge_index, edge_pairs
from .patterns import BipartitePattern, PinPlan


class EdgeColoring:
    """A k-coloring of E(K_n), colors 1..k, stored per edge index."""

    __slots__ = ("n", "k", "colors", "_rows")

    def __init__(self, n: int, k: int, colors: Sequence[int]):
        if n < 1:
            raise InvalidInputError("invalid-coloring", "need n >= 1")
        if k < 2:
            raise InvalidInputError("invalid-coloring", "need k >= 2")
        want = n * (n - 1) // 2
        colors = list(colors)
        if len(colors) != want:
            raise InvalidInputError(
                "invalid-coloring", f"expected {want} edge colors, got {len(colors)}"
            )
        for c in colors:
            if not 1 <= c <= k:
                raise InvalidInputError("invalid-coloring", f"color {c} outside 1..{k}")
        self.n = n
        self.k = k
        self.colors = colors
        self._rows = [[0] * n for _ in range(k)]
        for idx, (u, v) in enumerate(edge_pairs(n)):
            row = self._rows[colors[idx] - 1]
            row[u] |= 1 << v
            row[v] |= 1 << u

    # -- constructors --------------------------------------------------------

    @classmethod
    def random(cls, n: int, k: int, seed: int = 0) -> "EdgeColoring":
        rng = random.Random(seed)
        m = n * (n - 1) // 2
        return cls(n, k, [rng.randint(1, k) for _ in range(m)])

    @classmethod
    def from_graph(cls, g: SimpleGraph, k: int = 2, inside: int = 1, outside: int = 2) -> "EdgeColoring":
        """Color edges of g with `inside`, all remaining edges with `outside`."""
        colors = [outside] * (g.n * (g.n - 1) // 2)
        for u, v in g.edges():
            colors[edge_index(g.n, u, v)] = inside
        return cls(g.n, k, colors)

    @classmethod
    def parse(cls, text: str) -> "EdgeColoring":
        tokens = text.split()
        if len(tokens) < 2:
            raise InvalidInputError("invalid-coloring", "missing header")
        try:
            n, k = int(tokens[0]), int(tokens[1])
            colors = [int(t) for t in tokens[2:]]
        except ValueError as exc:
            raise InvalidInputError("invalid-coloring", str(exc)) from exc
        return cls(n, k, colors)

    @classmethod
    def read(cls, path) -> "EdgeColoring":
        with open(path, "r", encoding="ascii") as fh:
            return cls.parse(fh.read())

    def to_text(self) -> str:
        return f"{self.n} {self.k}\n" + " ".join(map(str, self.colors)) + "\n"

    def write(self, path) -> None:
        with open(path, "w", encoding="ascii") as fh:
            fh.write(self.to_text())

    # -- access ----------------------------------------------------------------

    def color_of(self, u: int, v: int) -> int:
        return self.colors[edge_index(self.n, u, v)]

    def set_color(self, u: int, v: int, c: int) -> None:
        if not 1 <= c <= self.k:
            raise InvalidInputError("invalid-coloring", f"color {c} outside 1..{self.k}")
        idx = edge_index(self.n, u, v)
        old = self.colors[idx]
        if old == c:
            return
        self.colors[idx] = c
        bu, bv = 1 << u, 1 << v
        self._rows[old - 1][u] &= ~bv
        self._rows[old - 1][v] &= ~bu
        self._rows[c - 1][u] |= bv
        self._rows[c - 1][v] |= bu

    def class_adj(self, c: int) -> list[int]:
        """Adjacency bitmasks of color class c (live; do not mutate)."""
        return self._rows[c - 1]

    def class_graph(self, c: int) -> SimpleGraph:
        return SimpleGraph(self.n, tuple(self._rows[c - 1]))

    def class_sizes(self) -> list[int]:
        out = [0] * self.k
        for c in self.colors:
            out[c - 1] += 1
        return out

    def copy(self) -> "EdgeColoring":
        return EdgeColoring(self.n, self.k, self.colors)

    def __eq__(self, other):
        return (
            isinstance(other, EdgeColoring)
            and self.n == other.n
            and self.k == other.k
            and self.colors == other.colors
        )

    def __repr__(self):
        return f"EdgeColoring(n={self.n}, k={self.k})"


# ---------------------------------------------------------------------------
# Subgraph matcher on neighborhood bitmasks.
# ---------------------------------------------------------------------------

def _extend(rows: list[int], plan: PinPlan, assign: list[int], used: int, pos: int,
            allowed: Optional[list[int]]) -> bool:
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
        if _extend(rows, plan, assign, used | (1 << w), pos + 1, allowed):
            return True
    return False


def _copy_through(rows: list[int], pattern: BipartitePattern, u: int, v: int,
                  want_map: bool = False):
    """Copy of the pattern inside `rows` using edge (u, v); None if absent.

    Returns True/False, or the vertex image (pattern vertex -> host vertex)
    when want_map is set.
    """
    h = pattern.h
    for plan in pattern.pin_plans:
        assign = [0] * h
        assign[0], assign[1] = u, v
        if _extend(rows, plan, assign, (1 << u) | (1 << v), 2, None):
            if not want_map:
                return True
            image = [0] * h
            for i, pv in enumerate(plan.order):
                image[pv] = assign[i]
            return tuple(image)
    return None if want_map else False


def contains_copy(g: SimpleGraph, pattern: BipartitePattern,
                  allowed: Optional[list[int]] = None) -> bool:
    """Whether g contains the pattern as a subgraph (not induced).

    `allowed`, if given, maps each pattern vertex to a bitmask of host
    vertices it may occupy; used for side-constrained containment.  Twins
    (same neighborhood, same side) must get the same mask.
    """
    if pattern.h > g.n:
        return False
    plan = pattern.free_plan
    root = plan.order[0]
    rootmask = (1 << g.n) - 1 if allowed is None else allowed[root]
    for r in bits_to_list(rootmask):
        assign = [0] * pattern.h
        assign[0] = r
        if _extend(g.adj, plan, assign, 1 << r, 1, allowed):
            return True
    return False


def mono_copy_exists(coloring: EdgeColoring, pattern: BipartitePattern,
                     u: int, v: int) -> bool:
    """Whether some monochromatic pattern copy uses edge (u, v)."""
    c = coloring.color_of(u, v)
    return bool(_copy_through(coloring.class_adj(c), pattern, u, v))


@dataclass(frozen=True)
class NimReport:
    """NIM status of every edge of a colored K_n for one pattern."""

    n: int
    k: int
    pattern_name: str
    flags: tuple[bool, ...]
    colors: tuple[int, ...]

    @property
    def count(self) -> int:
        return sum(self.flags)

    def edges(self) -> list[tuple[int, int]]:
        pairs = edge_pairs(self.n)
        return [pairs[i] for i, f in enumerate(self.flags) if f]

    def by_color(self) -> dict[int, int]:
        out = {c: 0 for c in range(1, self.k + 1)}
        for i, f in enumerate(self.flags):
            if f:
                out[self.colors[i]] += 1
        return out

    @cached_property
    def _class_nim_graphs(self) -> tuple[SimpleGraph, ...]:
        """The NIM graph of every color, from one walk over the flags."""
        n = self.n
        rows = [[0] * n for _ in range(self.k)]
        for (u, v), f, c in zip(edge_pairs(n), self.flags, self.colors):
            if f:
                r = rows[c - 1]
                r[u] |= 1 << v
                r[v] |= 1 << u
        return tuple(SimpleGraph(n, tuple(r)) for r in rows)

    def color_class_nim_graph(self, c: int) -> SimpleGraph:
        """Graph of NIM edges having color c, for c in 1..k."""
        return self._class_nim_graphs[c - 1]

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "k": self.k,
            "pattern": self.pattern_name,
            "nim_count": self.count,
            "by_color": {str(c): v for c, v in sorted(self.by_color().items())},
            "nim_edges": [[u, v] for u, v in self.edges()],
        }


def _nim_scan(rows: list[int], pattern: BipartitePattern,
              edges: Iterable[tuple[int, int]], need: Optional[int] = None):
    """Which of `edges` (pairs u < v of the graph with adjacency `rows`)
    no pattern copy inside the graph passes through.

    Returns the NIM edges in the order given, and a witness for every
    other edge the scan settled: a copy through it, as its vertex image
    (pattern vertex -> host vertex).  Edges of a found copy are skipped
    later: an edge covered by some copy can never be NIM.

    With a floor `need`, `edges` must be every edge of the graph, so
    that every witnessed edge is one of them; the scan then returns None
    as soon as fewer than `need` of them can still be NIM, that is, as
    soon as len(edges) - len(witness) < need.
    """
    witness: dict[tuple[int, int], tuple[int, ...]] = {}
    pedges = list(pattern.graph.edges())
    nim = []
    limit = None  # most edges that may be witnessed
    if need is not None and need > 0:
        edges = list(edges)
        limit = len(edges) - need
        if limit < 0:
            return None
    for u, v in edges:
        if (u, v) in witness:
            continue
        img = _copy_through(rows, pattern, u, v, want_map=True)
        if img is None:
            nim.append((u, v))
        else:
            for a, b in pedges:
                x, y = img[a], img[b]
                witness[(x, y) if x < y else (y, x)] = img
            if limit is not None and len(witness) > limit:
                return None
    return nim, witness


def _graph_nim(g: SimpleGraph, pattern: BipartitePattern, need: Optional[int] = None):
    """NIM edges of g in edge order, and a witness copy for each other
    edge of g (see `_nim_scan`, also for the floor `need`)."""
    return _nim_scan(g.adj, pattern, g.edges(), need)


def nim_edges(coloring: EdgeColoring, pattern: BipartitePattern) -> NimReport:
    """Scan each color class once; a copy of H through an edge lies in its class."""
    n = coloring.n
    flags = [False] * (n * (n - 1) // 2)
    for c in range(1, coloring.k + 1):
        for u, v in _graph_nim(coloring.class_graph(c), pattern)[0]:
            flags[edge_index(n, u, v)] = True
    return NimReport(n, coloring.k, pattern.name, tuple(flags), tuple(coloring.colors))


def enumerate_mono_copies(coloring: EdgeColoring, pattern: BipartitePattern,
                          color: Optional[int] = None,
                          limit: Optional[int] = None) -> list[tuple[int, tuple[int, ...]]]:
    """Monochromatic pattern copies as (color, vertex image), one per copy.

    Copies are distinct image subgraphs (injections equal up to a pattern
    automorphism count once); the first injection in scan order represents
    each.  Exhaustive over vertex injections, so usable as a slow
    reference; keep n and the pattern small or pass a limit.
    """
    n = coloring.n
    h = pattern.h
    pedges = list(pattern.graph.edges())
    out: list[tuple[int, tuple[int, ...]]] = []
    seen: set[tuple[int, tuple[int, ...]]] = set()
    cs = range(1, coloring.k + 1) if color is None else (color,)
    for c in cs:
        rows = coloring.class_adj(c)
        for sub in combinations(range(n), h):
            for perm in permutations(sub):
                ok = all((rows[perm[a]] >> perm[b]) & 1 for a, b in pedges)
                if not ok:
                    continue
                key = (c, tuple(sorted(edge_index(n, perm[a], perm[b]) for a, b in pedges)))
                if key in seen:
                    continue
                seen.add(key)
                out.append((c, perm))
                if limit is not None and len(out) >= limit:
                    return out
    return out


def is_h_free(g: SimpleGraph, pattern: BipartitePattern) -> bool:
    return not contains_copy(g, pattern)
