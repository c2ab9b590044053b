"""Pattern graphs: the fixed graph H whose monochromatic copies are scanned.

A pattern carries its graph, an optional ordered bipartition (X, Y), and an
optional designated vertex w in X whose deletion yields the reduced pattern
used by one-sided bounds.  Named families: cliques, even cycles, complete
bipartite graphs, theta graphs, plus custom descriptors.
"""

from __future__ import annotations

import json
import re
from functools import cached_property, lru_cache
from typing import NamedTuple, Optional

from .canon import CanonicalCode, CanonResult, canonical_form
from .errors import InvalidInputError
from .graphs import SimpleGraph, bits_to_list


class PinPlan(NamedTuple):
    """Static embedding schedule for the backtracking matcher.

    order: pattern vertices, the first `len(pins)` of which are pinned.
    preds: for each position, positions (into order) of earlier neighbors.
    twins: for each position, the position of the previous unpinned twin
    (same neighborhood, same side), or -1.  Swapping twins' images gives
    another copy, so the matcher places twins on increasing host vertices.
    """

    order: tuple[int, ...]
    preds: tuple[tuple[int, ...], ...]
    twins: tuple[int, ...]


def _plan(graph: SimpleGraph, pinned: tuple[int, ...], xside: tuple[int, ...]) -> PinPlan:
    n = graph.n
    order = list(pinned)
    placed = set(order)
    while len(order) < n:
        best = None
        best_key = None
        for v in range(n):
            if v in placed:
                continue
            back = sum(1 for u in order if graph.has_edge(u, v))
            key = (back > 0, back, graph.degree(v), -v)
            if best_key is None or key > best_key:
                best, best_key = v, key
        order.append(best)
        placed.add(best)
    preds = []
    twins = []
    for i, v in enumerate(order):
        preds.append(tuple(j for j in range(i) if graph.has_edge(order[j], v)))
        twins.append(max((j for j in range(len(pinned), i)
                          if graph.adj[order[j]] == graph.adj[v]
                          and (order[j] in xside) == (v in xside)), default=-1))
    return PinPlan(tuple(order), tuple(preds), tuple(twins))


class BipartitePattern:
    """A pattern graph H, optionally with ordered sides (X, Y) and weak w."""

    def __init__(
        self,
        name: str,
        graph: SimpleGraph,
        X: tuple[int, ...] = (),
        Y: tuple[int, ...] = (),
        weak: Optional[int] = None,
        bipartite: bool = True,
    ):
        self.name = name
        self.graph = graph
        self.X = tuple(X)
        self.Y = tuple(Y)
        self.weak = weak
        self.bipartite = bipartite
        if bipartite:
            self._check_sides()

    def _check_sides(self):
        n = self.graph.n
        if sorted(self.X + self.Y) != list(range(n)):
            raise InvalidInputError("not-a-bipartition", "X and Y must partition the vertices")
        xmask = 0
        for v in self.X:
            xmask |= 1 << v
        for u, v in self.graph.edges():
            if ((xmask >> u) & 1) == ((xmask >> v) & 1):
                raise InvalidInputError(
                    "not-a-bipartition", f"edge ({u},{v}) does not cross the sides"
                )
        if self.weak is not None and self.weak not in self.X:
            raise InvalidInputError("invalid-weak-vertex", f"w={self.weak} is not in X")

    @property
    def h(self) -> int:
        """Order of the pattern (the count the star bound is phrased in)."""
        return self.graph.n

    @property
    def num_edges(self) -> int:
        return self.graph.num_edges

    def is_connected(self) -> bool:
        return self.graph.component_count() <= 1

    def contains_cycle(self) -> bool:
        g = self.graph
        return g.num_edges > g.n - g.component_count()

    def reduced(self) -> "BipartitePattern":
        """The pattern minus its weak vertex, sides relabeled accordingly.

        Built once per pattern, so the reduced pattern's canonical forms
        are computed once too.
        """
        if self.weak is None:
            raise InvalidInputError("no-weak-vertex", f"pattern {self.name} has no weak vertex")
        return self._reduced

    @cached_property
    def _reduced(self) -> "BipartitePattern":
        w = self.weak
        remap = lambda v: v - (v > w)
        g = self.graph.delete_vertex(w)
        X = tuple(remap(v) for v in self.X if v != w)
        Y = tuple(remap(v) for v in self.Y)
        return BipartitePattern(self.name + "-w", g, X, Y, None, True)

    @cached_property
    def reduced_connected(self) -> bool:
        return self.weak is not None and self.reduced().is_connected()

    @property
    def reducible(self) -> bool:
        """Whether a weak vertex is designated and H-w is connected."""
        return self.bipartite and self.weak is not None and self.reduced_connected

    # -- canonical identities ------------------------------------------------

    @cached_property
    def _canon(self) -> CanonResult:
        """The one canonical form of the graph that `graph_code` and
        `aut_generators` both read."""
        return canonical_form(self.graph)

    @cached_property
    def graph_code(self) -> CanonicalCode:
        return self._canon.code

    @cached_property
    def oriented_fingerprint(self) -> CanonicalCode:
        """Code aware of (X, Y, w); distinguishes side orientations."""
        if not self.bipartite:
            return self.graph_code
        xcell = [v for v in self.X if v != self.weak]
        cells = [xcell, list(self.Y)]
        if self.weak is not None:
            cells.append([self.weak])
        return canonical_form(self.graph, cells=cells).code

    # -- matcher support -----------------------------------------------------

    @cached_property
    def aut_generators(self) -> tuple[tuple[int, ...], ...]:
        return self._canon.generators

    @cached_property
    def directed_edge_reps(self) -> tuple[tuple[int, int], ...]:
        """One representative per orbit of directed edges under Aut(H)."""
        gens = self.aut_generators
        seen: set[tuple[int, int]] = set()
        reps = []
        darts = []
        for u, v in self.graph.edges():
            darts.append((u, v))
            darts.append((v, u))
        for dart in darts:
            if dart in seen:
                continue
            reps.append(dart)
            frontier = [dart]
            seen.add(dart)
            while frontier:
                a, b = frontier.pop()
                for gm in gens:
                    nxt = (gm[a], gm[b])
                    if nxt not in seen:
                        seen.add(nxt)
                        frontier.append(nxt)
        return tuple(reps)

    @cached_property
    def pin_plans(self) -> tuple[PinPlan, ...]:
        return tuple(_plan(self.graph, rep, self.X) for rep in self.directed_edge_reps)

    @cached_property
    def free_plan(self) -> PinPlan:
        root = max(range(self.graph.n), key=lambda v: (self.graph.degree(v), -v))
        return _plan(self.graph, (root,), self.X)

    def __repr__(self):
        return f"BipartitePattern({self.name}, h={self.h}, m={self.num_edges})"


# ---------------------------------------------------------------------------
# Named families.
# ---------------------------------------------------------------------------

def complete_pattern(r: int) -> BipartitePattern:
    if r < 2:
        raise InvalidInputError("invalid-pattern", f"k{r}: need r >= 2")
    g = SimpleGraph.complete(r)
    if r == 2:
        return BipartitePattern("k2", g, (0,), (1,), 0, True)
    return BipartitePattern(f"k{r}", g, (), (), None, False)


def cycle_pattern(length: int) -> BipartitePattern:
    if length < 4 or length % 2:
        raise InvalidInputError(
            "invalid-pattern", f"c{length}: only even cycles of length >= 4 are bipartite"
        )
    g = SimpleGraph.cycle(length)
    X = tuple(range(0, length, 2))
    Y = tuple(range(1, length, 2))
    return BipartitePattern(f"c{length}", g, X, Y, 0, True)


def biclique_pattern(s: int, t: int) -> BipartitePattern:
    if not 1 <= s <= t:
        raise InvalidInputError("invalid-pattern", f"k{s},{t}: need 1 <= s <= t")
    g = SimpleGraph.complete_bipartite(s, t)
    X = tuple(range(s))
    Y = tuple(range(s, s + t))
    return BipartitePattern(f"k{s},{t}", g, X, Y, 0, True)


def theta_pattern(k: int, length: int) -> BipartitePattern:
    """k internally disjoint paths of the given length joining two hubs."""
    if k < 2 or length < 2:
        raise InvalidInputError("invalid-pattern", f"theta{k},{length}: need k,l >= 2")
    edges = []
    n = 2 + k * (length - 1)
    for p in range(k):
        prev = 0
        for i in range(length - 1):
            v = 2 + p * (length - 1) + i
            edges.append((prev, v))
            prev = v
        edges.append((prev, 1))
    g = SimpleGraph.from_edges(n, edges)

    def dist_parity(v: int) -> int:
        if v == 0:
            return 0
        if v == 1:
            return length % 2
        return ((v - 2) % (length - 1) + 1) % 2

    X = tuple(v for v in range(n) if dist_parity(v) == 1)
    Y = tuple(v for v in range(n) if dist_parity(v) == 0)
    return BipartitePattern(f"theta{k},{length}", g, X, Y, 2, True)


_NAME_RES = [
    (re.compile(r"^k(\d+),(\d+)$"), lambda m: biclique_pattern(int(m.group(1)), int(m.group(2)))),
    (re.compile(r"^k(\d+)$"), lambda m: complete_pattern(int(m.group(1)))),
    (re.compile(r"^c(\d+)$"), lambda m: cycle_pattern(int(m.group(1)))),
    (
        re.compile(r"^theta(\d+),(\d+)$"),
        lambda m: theta_pattern(int(m.group(1)), int(m.group(2))),
    ),
]


def build_pattern(name: str) -> BipartitePattern:
    """Build a named family member from a compact string like "c4" or "k3,3"."""
    text = name.strip().lower().replace(" ", "").replace("_", "")
    for rx, make in _NAME_RES:
        m = rx.match(text)
        if m:
            return make(m)
    raise InvalidInputError("unknown-pattern", name)


def _parse_edge(item, n: int) -> tuple[int, int]:
    if isinstance(item, int):
        if 0 <= item < 100:
            return divmod(item, 10)
        raise InvalidInputError("invalid-pattern", f"bad edge {item!r}")
    if isinstance(item, str):
        txt = item.replace("-", "").replace(",", "")
        if len(txt) == 2 and txt.isdigit():
            return int(txt[0]), int(txt[1])
        raise InvalidInputError("invalid-pattern", f"bad edge {item!r}")
    pair = list(item)
    if len(pair) != 2:
        raise InvalidInputError("invalid-pattern", f"bad edge {item!r}")
    return int(pair[0]), int(pair[1])


def parse_pattern(source) -> BipartitePattern:
    """Parse a pattern from a compact family name or a descriptor document.

    Descriptors are JSON objects with fields n, edges, optional X, Y, weak.
    Text sources are memoized on the text: a repeated text returns the same
    pattern object, whose canonical identities and matcher plans are then
    computed once.
    """
    if isinstance(source, BipartitePattern):
        return source
    if isinstance(source, str):
        return _parse_text(source)
    if isinstance(source, dict):
        return _parse_descriptor(source)
    raise InvalidInputError("invalid-pattern", repr(source))


# Bounded: a process that sees more distinct texts re-parses the least
# recently used ones.
@lru_cache(maxsize=256)
def _parse_text(source: str) -> BipartitePattern:
    text = source.strip()
    if not text.startswith("{"):
        return build_pattern(text)
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidInputError("invalid-pattern", f"bad descriptor: {exc}") from exc
    return _parse_descriptor(doc)


def _parse_descriptor(doc) -> BipartitePattern:
    try:
        n = int(doc["n"])
        raw_edges = doc["edges"]
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidInputError("invalid-pattern", "descriptor needs n and edges") from exc
    if n < 2:
        raise InvalidInputError("invalid-pattern", "need at least two vertices")
    edges = [_parse_edge(e, n) for e in raw_edges]
    if not edges:
        raise InvalidInputError("invalid-pattern", "pattern needs at least one edge")
    graph = SimpleGraph.from_edges(n, edges)

    if "X" in doc or "Y" in doc:
        X = tuple(int(v) for v in doc.get("X", ()))
        Y = tuple(int(v) for v in doc.get("Y", ()))
        weak = doc.get("weak")
        weak = None if weak is None else int(weak)
        return BipartitePattern(doc.get("name", f"custom{n}"), graph, X, Y, weak, True)
    return BipartitePattern(doc.get("name", f"custom{n}"), graph, (), (), None, False)


# ---------------------------------------------------------------------------
# Structural detectors used by the closed-form Turan layer.
# ---------------------------------------------------------------------------

def detect_clique(g: SimpleGraph) -> Optional[int]:
    n = g.n
    if n >= 2 and g.num_edges == n * (n - 1) // 2:
        return n
    return None


def detect_star(g: SimpleGraph) -> Optional[int]:
    """Return r if g is the star K_{1,r} (r >= 1)."""
    n = g.n
    if n >= 2 and g.num_edges == n - 1 and max(g.degrees()) == n - 1:
        return n - 1
    return None


def detect_biclique(g: SimpleGraph) -> Optional[tuple[int, int]]:
    """Return (s, t) with s <= t if g is a complete bipartite graph."""
    n = g.n
    if n < 2 or g.num_edges == 0:
        return None
    color = [-1] * n
    color[0] = 0
    frontier = [0]
    while frontier:
        v = frontier.pop()
        for u in bits_to_list(g.adj[v]):
            if color[u] < 0:
                color[u] = 1 - color[v]
                frontier.append(u)
            elif color[u] == color[v]:
                return None
    if any(c < 0 for c in color):
        return None
    s = sum(1 for c in color if c == 0)
    t = n - s
    if g.num_edges != s * t:
        return None
    return (min(s, t), max(s, t))
