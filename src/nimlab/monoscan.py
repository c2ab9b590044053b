"""Edge colorings of complete graphs and monochromatic-copy scanning.

An edge e of a k-colored K_n is NIM for a pattern H when no monochromatic
copy of H uses e; such a copy would have to live in the color class of e,
so scanning one class per edge suffices.  The matcher pins a pattern edge
onto the queried edge, one pinned plan per orbit of directed pattern edges,
and extends by intersecting neighborhood bitmasks, placing unpinned twin
pattern vertices on increasing host vertices.  The plans of a pattern are
compiled once, on first use, into a Python function of nested loops over
candidate masks (`_extend`), which the pattern keeps.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations, permutations
from typing import Iterable, Optional, Sequence

from .errors import InvalidInputError
from .graphs import SimpleGraph, edge_index, edge_pairs
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
            try:
                text = fh.read()
            except UnicodeDecodeError as exc:
                raise InvalidInputError("invalid-coloring", f"{path}: not ASCII text") from exc
        return cls.parse(text)

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
# Subgraph matcher on neighborhood bitmasks, compiled once per pattern.
# ---------------------------------------------------------------------------

# Loops nested in one generated function; CPython refuses more than 20
# nested blocks, so a deeper search goes on in a helper function.
_NEST = 16


def _extend(plans: Sequence[PinPlan], free: bool = False):
    """Compile `plans` into one search function that tries them in order.

    A pinned search, search(rows, u, v), puts positions 0 and 1 of every
    plan on u and v.  A free search, search(rows, allowed), runs its one
    plan's position 0 over the host and keeps every position's vertex in
    allowed[order[pos]].  Either returns the image of the first copy
    found (pattern vertex -> host vertex), or None.

    The search is depth first: each position takes, lowest first, the
    unused host vertices adjacent to the images of its preds and above
    the image of its twin, as nested `while` loops over candidate masks,
    and the last position returns at its lowest candidate.  A vertex's
    row is read once, when a later position needs it.  The source is
    built from the plans' integers only.
    """
    start = 0 if free else 2
    lead = "rows, al" if free else "rows"
    reads = [{p for ps in plan.preds[start:] for p in ps} for plan in plans]
    if free:
        code = ["def search(rows, al):", "    f0 = (1 << len(rows)) - 1"]
    else:
        code = ["def search(rows, u, v):", "    a0, a1 = u, v"]
        code += [f"    r{i} = rows[a{i}]" for i in (0, 1) if any(i in r for r in reads)]
        code.append("    f2 = ((1 << len(rows)) - 1) & ~(1 << u | 1 << v)")
    helpers: list[list[str]] = []

    for k, (plan, read) in enumerate(zip(plans, reads)):
        h = len(plan.order)
        at = {pv: i for i, pv in enumerate(plan.order)}
        image = "(" + "".join(f"a{at[pv]}, " for pv in range(h)) + ")"

        def place(out: list[str], pos: int, ind: int, loops: int) -> None:
            pad = "    " * ind
            if pos == h:  # every position is pinned
                out.append(f"{pad}return {image}")
                return
            if loops == _NEST:
                args = ", ".join([lead, f"f{pos}"] + [f"a{i}" for i in range(pos)])
                out += [f"{pad}x = _s{k}_{pos}({args})",
                        f"{pad}if x is not None:",
                        f"{pad}    return x"]
                body = [f"def _s{k}_{pos}({args}):"]
                body += [f"    r{i} = rows[a{i}]" for i in sorted(read) if i < pos]
                place(body, pos, 1, 0)
                helpers.append(body + ["    return None"])
                return
            terms = [f"f{pos}"] + [f"r{p}" for p in plan.preds[pos]]
            if free:
                terms.append(f"al[{plan.order[pos]}]")
            if plan.twins[pos] >= 0:
                terms.append(f"(-2 << a{plan.twins[pos]})")
            out.append(f"{pad}m{pos} = {' & '.join(terms)}")
            if pos == h - 1:
                out += [f"{pad}if m{pos}:",
                        f"{pad}    a{pos} = (m{pos} & -m{pos}).bit_length() - 1",
                        f"{pad}    return {image}"]
                return
            out += [f"{pad}while m{pos}:",
                    f"{pad}    b = m{pos} & -m{pos}",
                    f"{pad}    m{pos} ^= b",
                    f"{pad}    a{pos} = b.bit_length() - 1"]
            if pos in read:
                out.append(f"{pad}    r{pos} = rows[a{pos}]")
            out.append(f"{pad}    f{pos + 1} = f{pos} ^ b")
            place(out, pos + 1, ind + 1, loops + 1)

        place(code, start, 1, 0)
    code.append("    return None")
    source = "\n".join(line for body in [code, *helpers] for line in body) + "\n"
    namespace = {"__builtins__": {"len": len}}
    exec(compile(source, "<nimlab matcher>", "exec"), namespace)
    return namespace["search"]


def _copy_through(rows: list[int], pattern: BipartitePattern, u: int, v: int):
    """Copy of the pattern inside `rows` using edge (u, v), as the vertex
    image (pattern vertex -> host vertex); None if absent.  An image is
    never empty, so its truth says whether a copy exists."""
    return pattern.pin_search(rows, u, v)


def contains_copy(g: SimpleGraph, pattern: BipartitePattern,
                  allowed: Optional[list[int]] = None) -> bool:
    """Whether g contains the pattern as a subgraph (not induced).

    `allowed`, if given, maps each pattern vertex to a bitmask of host
    vertices it may occupy; used for side-constrained containment.  Twins
    (same neighborhood, same side) must get the same mask.
    """
    if pattern.h > g.n:
        return False
    if allowed is None:
        allowed = (-1,) * pattern.h
    return pattern.free_search(g.adj, allowed) is not None


def mono_copy_exists(coloring: EdgeColoring, pattern: BipartitePattern,
                     u: int, v: int) -> bool:
    """Whether some monochromatic pattern copy uses edge (u, v)."""
    c = coloring.color_of(u, v)
    return _copy_through(coloring.class_adj(c), pattern, u, v) is not None


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

    With a floor `need`, the scan returns None as soon as fewer than
    `need` of `edges` can still be NIM, that is, as soon as fewer than
    `need` of them are unwitnessed.  `edges` may be any of the graph's
    edges: a witnessed edge outside them does not count.  A scan that
    does not stop returns what it returns without a floor.
    """
    witness: dict[tuple[int, int], tuple[int, ...]] = {}
    pedges = pattern.edges
    nim = []
    unsettled = None  # with a floor, the edges that may still be NIM
    if need is not None and need > 0:
        edges = list(edges)
        unsettled = set(edges)
        if len(unsettled) < need:
            return None
    for u, v in edges:
        if (u, v) in witness:
            continue
        img = _copy_through(rows, pattern, u, v)
        if img is None:
            nim.append((u, v))
        else:
            for a, b in pedges:
                x, y = img[a], img[b]
                e = (x, y) if x < y else (y, x)
                witness[e] = img
                if unsettled is not None:
                    unsettled.discard(e)
            if unsettled is not None and len(unsettled) < need:
                return None
    return nim, witness


def _graph_nim(g: SimpleGraph, pattern: BipartitePattern):
    """NIM edges of g in edge order, and a witness copy for each other
    edge of g (see `_nim_scan`)."""
    return _nim_scan(g.adj, pattern, g.edges())


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
    pedges = pattern.edges
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
