"""Simple undirected graphs on vertex set {0..n-1} with bit-row adjacency.

Adjacency is a tuple of n ints; bit j of row i is set iff ij is an edge.
Edges are indexed row-major over the upper triangle:

    index(u, v) = u*n - u*(u+1)//2 + (v - u - 1)    for u < v,

so (0,1), (0,2), ..., (0,n-1), (1,2), ... get indices 0, 1, 2, ...
This ordering is shared by coloring files and NIM flag vectors.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

from .errors import InvalidInputError


def edge_index(n: int, u: int, v: int) -> int:
    """Index of edge uv in the row-major upper-triangle order."""
    if u > v:
        u, v = v, u
    if u == v or v >= n or u < 0:
        raise InvalidInputError("invalid-edge", f"({u},{v}) on {n} vertices")
    return u * n - u * (u + 1) // 2 + (v - u - 1)


@lru_cache(maxsize=None)
def edge_pairs(n: int) -> tuple[tuple[int, int], ...]:
    """All vertex pairs of K_n in edge-index order."""
    return tuple((u, v) for u in range(n) for v in range(u + 1, n))


class SimpleGraph:
    """Immutable simple graph; rows are plain ints used as bitsets."""

    __slots__ = ("n", "adj")

    def __init__(self, n: int, adj: tuple[int, ...]):
        self.n = n
        self.adj = adj

    @classmethod
    def empty(cls, n: int) -> "SimpleGraph":
        return cls(n, (0,) * n)

    @classmethod
    def from_edges(cls, n: int, edges) -> "SimpleGraph":
        rows = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n) or u == v:
                raise InvalidInputError("invalid-edge", f"({u},{v}) on {n} vertices")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        return cls(n, tuple(rows))

    @classmethod
    def complete(cls, n: int) -> "SimpleGraph":
        full = (1 << n) - 1
        return cls(n, tuple(full ^ (1 << i) for i in range(n)))

    @classmethod
    def cycle(cls, n: int) -> "SimpleGraph":
        return cls.from_edges(n, [(i, (i + 1) % n) for i in range(n)])

    @classmethod
    def path(cls, n: int) -> "SimpleGraph":
        return cls.from_edges(n, [(i, i + 1) for i in range(n - 1)])

    @classmethod
    def complete_bipartite(cls, s: int, t: int) -> "SimpleGraph":
        left = (1 << s) - 1
        right = ((1 << (s + t)) - 1) ^ left
        rows = [right] * s + [left] * t
        return cls(s + t, tuple(rows))

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def degrees(self) -> tuple[int, ...]:
        return tuple(row.bit_count() for row in self.adj)

    @property
    def num_edges(self) -> int:
        return sum(row.bit_count() for row in self.adj) // 2

    def edges(self):
        """Edges as (u, v) with u < v, in edge-index order."""
        for u in range(self.n):
            fwd = self.adj[u] >> (u + 1)
            v = u + 1
            while fwd:
                if fwd & 1:
                    yield (u, v)
                fwd >>= 1
                v += 1

    def component_count(self) -> int:
        """Number of connected components; 0 for the graph on no vertices."""
        unseen = (1 << self.n) - 1
        comps = 0
        while unseen:
            comps += 1
            seen = frontier = unseen & -unseen
            while frontier:
                nxt = 0
                m = frontier
                while m:
                    v = (m & -m).bit_length() - 1
                    m &= m - 1
                    nxt |= self.adj[v]
                frontier = nxt & ~seen
                seen |= nxt
            unseen &= ~seen
        return comps

    def add_vertex(self, nbr_mask: int) -> "SimpleGraph":
        """New graph with vertex n appended, adjacent to the mask's bits."""
        z = self.n
        rows = [row | (((nbr_mask >> i) & 1) << z) for i, row in enumerate(self.adj)]
        rows.append(nbr_mask)
        return SimpleGraph(z + 1, tuple(rows))

    def delete_vertex(self, v: int) -> "SimpleGraph":
        keep = [u for u in range(self.n) if u != v]
        return self.induced(keep)

    def induced(self, vertices) -> "SimpleGraph":
        """Induced subgraph; vertex i of the result is vertices[i]."""
        vs = list(vertices)
        rows = []
        for u in vs:
            row = 0
            for j, w in enumerate(vs):
                if u != w and (self.adj[u] >> w) & 1:
                    row |= 1 << j
            rows.append(row)
        return SimpleGraph(len(vs), tuple(rows))

    def complement(self) -> "SimpleGraph":
        full = (1 << self.n) - 1
        return SimpleGraph(
            self.n, tuple((row ^ full) & ~(1 << i) for i, row in enumerate(self.adj))
        )

    def relabel(self, perm) -> "SimpleGraph":
        """Relabeled copy; perm[i] is the new name of vertex i."""
        rows = [0] * self.n
        for u in range(self.n):
            row = self.adj[u]
            new = 0
            while row:
                v = (row & -row).bit_length() - 1
                new |= 1 << perm[v]
                row &= row - 1
            rows[perm[u]] = new
        return SimpleGraph(self.n, tuple(rows))

    def __eq__(self, other) -> bool:
        return isinstance(other, SimpleGraph) and self.n == other.n and self.adj == other.adj

    def __hash__(self) -> int:
        return hash((self.n, self.adj))

    def __repr__(self) -> str:
        return f"SimpleGraph(n={self.n}, m={self.num_edges})"


def bits_to_list(mask: int) -> list[int]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


# ---------------------------------------------------------------------------
# graph6 encoding (bit-level standard: column-wise upper triangle, 6-bit
# chunks offset by 63; sizes above 62 use the '~' extended length forms).
# ---------------------------------------------------------------------------

def _g6_size_bytes(n: int) -> list[int]:
    if n < 0:
        raise InvalidInputError("invalid-order", str(n))
    if n <= 62:
        return [n + 63]
    if n <= 258047:
        return [126, (n >> 12) + 63, ((n >> 6) & 63) + 63, (n & 63) + 63]
    raise InvalidInputError("invalid-order", f"{n} exceeds graph6 support here")


def encode_graph6(g: SimpleGraph) -> str:
    n = g.n
    out = _g6_size_bytes(n)
    bits = []
    for v in range(1, n):
        col = g.adj[v]
        for u in range(v):
            bits.append((col >> u) & 1)
    while len(bits) % 6:
        bits.append(0)
    for i in range(0, len(bits), 6):
        val = 0
        for b in bits[i : i + 6]:
            val = (val << 1) | b
        out.append(val + 63)
    return "".join(chr(c) for c in out)


def decode_graph6(text: str) -> SimpleGraph:
    s = text.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<") :]
    if not s:
        raise InvalidInputError("invalid-graph6", "empty string")
    data = [ord(c) - 63 for c in s]
    if any(d < 0 or d > 63 for d in data):
        raise InvalidInputError("invalid-graph6", repr(text))
    if data[0] == 63:
        if len(data) >= 4 and data[1] == 63:
            raise InvalidInputError("invalid-graph6", "order too large")
        if len(data) < 4:
            raise InvalidInputError("invalid-graph6", "truncated size")
        n = (data[1] << 12) | (data[2] << 6) | data[3]
        body = data[4:]
    else:
        n = data[0]
        body = data[1:]
    need = (n * (n - 1) // 2 + 5) // 6
    if len(body) != need:
        raise InvalidInputError(
            "invalid-graph6", f"expected {need} data chars for n={n}, got {len(body)}"
        )
    bits = []
    for d in body:
        for shift in range(5, -1, -1):
            bits.append((d >> shift) & 1)
    rows = [0] * n
    idx = 0
    for v in range(1, n):
        for u in range(v):
            if bits[idx]:
                rows[u] |= 1 << v
                rows[v] |= 1 << u
            idx += 1
    return SimpleGraph(n, tuple(rows))


# ---------------------------------------------------------------------------
# Brute-force isomorphism helpers. Deliberately naive: these are the oracles
# the clever code is validated against, so they stay independent of it.
# ---------------------------------------------------------------------------

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
