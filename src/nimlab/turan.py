"""Exact extremal edge counts for a forbidden pattern, with witnesses.

Values are routed by pattern shape and host size: closed forms where the
extremal structure is classical (cliques, stars), one exact search for
everything else small, and a deterministic greedy lower bound past the
exact ceilings.  The exact search (`_enum_ex`) descends over edge levels
with isomorph-free enumeration of complements, so each answer comes with
every extremal class.  The one-sided variant constrains copies to place a
chosen side of the pattern inside the first part of a bipartite host.

Both entry points find a record the same way (`_recall`): the in-process
memo, then a shared line-oriented cache file, then the routes, whose
record the cache stores if it is exact and has witnesses.  Cached
witnesses are verified once per distinct file content and key, and the
record is discarded if anything fails to check out.
"""

from __future__ import annotations

import fcntl
import json
import logging
import os
import random
from dataclasses import dataclass
from itertools import combinations
from math import comb
from typing import Callable, Iterator, Optional

from .canon import _children, canonical_form, canonical_graph
from .errors import InvalidInputError, ResourceLimitError
from .graphs import SimpleGraph, bits_to_list, decode_graph6, edge_pairs, encode_graph6
from .monoscan import _copy_through, contains_copy, is_h_free
from .patterns import (
    BipartitePattern,
    detect_biclique,
    detect_clique,
    detect_star,
)

log = logging.getLogger(__name__)

ENUM_CEILING = 10
BNB_CEILING = 12
EXSTAR_CELL_BUDGET = 30
WITNESS_CAP = 32
REALIZE_NODE_BUDGET = 2_000_000
WITNESS_NODE_BUDGET = 30_000_000

__all__ = [
    "TuranRecord",
    "TuranCache",
    "ex_exact",
    "ex_star_exact",
    "is_h_free",
    "ENUM_CEILING",
    "BNB_CEILING",
]


@dataclass(frozen=True)
class TuranRecord:
    """Result of an extremal computation.

    kind is "ex" or "exstar"; for "exstar" m is the size of the first part.
    exact=False marks a lower bound only.  witnesses_complete says whether
    `witnesses` lists every extremal graph up to isomorphism.
    """

    kind: str
    pattern_name: str
    fingerprint: str
    n: int
    value: int
    exact: bool
    method: str
    witnesses: tuple[str, ...] = ()
    witnesses_complete: bool = False
    m: Optional[int] = None

    def witness_graphs(self) -> list[SimpleGraph]:
        return [decode_graph6(w) for w in self.witnesses]

    def to_json(self) -> dict:
        out = {
            "kind": self.kind,
            "pattern": self.pattern_name,
            "fingerprint": self.fingerprint,
            "n": self.n,
            "value": self.value,
            "exact": self.exact,
            "method": self.method,
            "witnesses": list(self.witnesses),
            "witnesses_complete": self.witnesses_complete,
        }
        if self.m is not None:
            out["m"] = self.m
        return out


# ---------------------------------------------------------------------------
# Closed forms.
# ---------------------------------------------------------------------------

def _turan_graph(n: int, parts: int) -> SimpleGraph:
    """Balanced complete multipartite graph on n vertices."""
    sizes = [n // parts + (1 if i < n % parts else 0) for i in range(parts)]
    blocks = []
    start = 0
    for s in sizes:
        blocks.append(list(range(start, start + s)))
        start += s
    edges = []
    for i in range(len(blocks)):
        for j in range(i + 1, len(blocks)):
            for u in blocks[i]:
                for v in blocks[j]:
                    edges.append((u, v))
    return SimpleGraph.from_edges(n, edges)


def _capped_degree_witness(n: int, d: int) -> SimpleGraph:
    """A graph on n vertices with max degree <= d and floor(n*d/2) edges."""
    if d == 0:
        return SimpleGraph.empty(n)
    edges = []
    half = d // 2
    for j in range(1, half + 1):
        for i in range(n):
            edges.append((i, (i + j) % n))
    if d % 2:
        if n % 2 == 0:
            for i in range(n // 2):
                edges.append((i, i + n // 2))
        else:
            s = (n - 1) // 2
            cyc = [0]
            for _ in range(n - 1):
                cyc.append((cyc[-1] + s) % n)
            for i in range(0, n - 1, 2):
                edges.append((min(cyc[i], cyc[i + 1]), max(cyc[i], cyc[i + 1])))
    g = SimpleGraph.from_edges(n, edges)
    assert g.num_edges == n * d // 2 and max(g.degrees()) <= d
    return g


# ---------------------------------------------------------------------------
# Exhaustive enumeration over isomorphism classes.
# ---------------------------------------------------------------------------

def _pattern_free_predicate(pattern: BipartitePattern):
    """Canonical augmentation predicate: the child has no copy through
    the new vertex z.  A copy can use z without an edge at z only as an
    isolated pattern vertex, so patterns with one check the whole child."""
    if 0 in pattern.graph.degrees():
        return lambda child, z: not contains_copy(child, pattern)

    def pred(child: SimpleGraph, z: int) -> bool:
        for u in bits_to_list(child.adj[z]):
            if _copy_through(child.adj, pattern, z, u):
                return False
        return True

    return pred


def _floors(n: int, value: int) -> list[int]:
    """L(0..n) with L(n) = value and L(u - 1) = L(u) - floor(2L(u)/u):
    deleting a vertex of least degree from a graph on u vertices with
    N >= L(u) edges leaves at least L(u - 1), as N - floor(2N/u) does not
    decrease in N.  Edges may be NIM pairs, with NIM degrees."""
    floors = [value]
    for u in range(n, 0, -1):
        floors.append(floors[-1] - 2 * floors[-1] // u)
    return floors[::-1]


def _enum_ex(n: int, pattern: BipartitePattern, fp: str) -> TuranRecord:
    """ex(n, H) and its extremal classes by an edge-floored descent.

    ex(v) is found for v = 2..n in turn, trying levels m from the
    averaging bound v·ex(v-1)/(v-2) down; the first level with a graph of
    at least m edges gives ex(v), and its graphs are every extremal class.
    A level enumerates complements, whose canonical-last vertex has top
    degree there, so a minimum degree in the graph itself.  Deleting it
    keeps the floors L(u) of `_floors` from L(v) = m, so the complement of
    each ancestor on u vertices has at most cap(u) = C(u, 2) - L(u) edges,
    and complements over it are never built.

    The enumeration on u vertices depends only on the caps for 2..u, so
    each layer of canonical augmentation (`canon._children`) is built once
    per call from the layer one vertex shorter, with its graphs'
    generators, and shared by every level and every order whose caps
    agree up to u: levels at one order share their lower layers, and the
    level found at v is the parent layer of the levels at v + 1 whose
    caps extend it.
    """
    free = _pattern_free_predicate(pattern)

    def keep(child: SimpleGraph, z: int):
        return (None, None) if free(child.complement(), z) else None

    layers = {(): [(SimpleGraph.empty(1), ())]}

    def layer(caps: tuple[int, ...]) -> list:
        """The complements kept on len(caps) + 1 vertices under `caps`,
        with their automorphism generators."""
        if caps not in layers:
            layers[caps] = [(kid, kid_gens) for g, gens in layer(caps[:-1])
                            for kid, kid_gens, _ in _children(
                                g, gens, keep, caps[-1] - g.num_edges, False)]
        return layers[caps]

    value, wits = 0, [SimpleGraph.empty(n)]
    for v in range(2, n + 1):
        top = comb(v, 2) if v == 2 else min(comb(v, 2), v * value // (v - 2))
        for value in range(top, -1, -1):
            floors = _floors(v, value)
            caps = tuple(comb(u, 2) - floors[u] for u in range(2, v + 1))
            wits = [g.complement() for g, _ in layer(caps)]
            if wits:
                break
    codes = sorted(encode_graph6(canonical_graph(w)) for w in wits)
    return TuranRecord("ex", pattern.name, fp, n, value, True, "enumeration",
                       tuple(codes[:WITNESS_CAP]), len(codes) <= WITNESS_CAP)


# ---------------------------------------------------------------------------
# Degree-sequence branch and bound for K_{2,t}-free hosts.
#
# Off the route; kept as a test reference and for the benchmark tracer.
#
# A graph omits K_{2,t} exactly when every vertex pair has at most t-1
# common neighbors, so sum(C(d_v, 2)) <= (t-1) C(n, 2) and, for each v,
# sum over u ~ v of (d_u - 1) <= (t-1)(n-1).  Candidate degree sequences
# passing those filters are realized row by row: vertex i commits its
# forward neighborhood at step i, so its full neighborhood is final there
# and pair counters can be checked incrementally.
#
# The edge count descends from C(n, 2) in a single pass.  At each level
# every realization of every candidate sequence is canonicalized into the
# witness set, so the first level with a realization is ex(n, K_{2,t}) and
# its witness set is already collected.  A per-sequence node budget guards
# the search for the value (a blown one refuses rather than guess); a
# larger budget shared by the rest of the level only bounds the witness
# collection.
# ---------------------------------------------------------------------------

class _Budget(Exception):
    pass


def _graphical(ds: list[int]) -> bool:
    n = len(ds)
    if sum(ds) % 2:
        return False
    for k in range(1, n + 1):
        lhs = sum(ds[:k])
        rhs = k * (k - 1) + sum(min(d, k) for d in ds[k:])
        if lhs > rhs:
            return False
    return True


def _degree_sequences(n: int, m: int, t: int) -> Iterator[list[int]]:
    budget = (t - 1) * comb(n, 2)
    nbr_budget = (t - 1) * (n - 1)
    out: list[int] = []

    def place(i: int, prev: int, rem: int, cherries: int):
        if i == n:
            if rem == 0 and _graphical(out):
                small = sorted(x - 1 for x in out)
                if out and sum(small[: out[0]]) <= nbr_budget:
                    yield list(out)
            return
        hi = min(prev, n - 1, rem)
        for d in range(hi, -1, -1):
            c2 = cherries + comb(d, 2)
            if c2 > budget:
                continue
            if rem - d > (n - i - 1) * d:
                break
            out.append(d)
            yield from place(i + 1, d, rem - d, c2)
            out.pop()

    yield from place(0, n - 1, 2 * m, 0)


def _realizations(ds: list[int], t: int, budget: list[int]) -> Iterator[list[int]]:
    """Graphs with this sorted degree vector and pair counts < t.

    Complete up to isomorphism, not per labeling: vertex 0 picks one
    representative neighborhood per degree-class composition, equal-degree
    runs with identical back-neighborhoods keep non-increasing forward
    masks, and an exact codegree deficit cut closes branches that can no
    longer spend the cherry slack.  Swapping two equal-degree vertices with
    the same back mask never touches bit 0 asymmetrically, so the two
    breaks compose.
    """
    n = len(ds)
    adj = [0] * n
    rem = list(ds)
    cnt = [[0] * n for _ in range(n)]
    back = [0] * n
    fwd = [0] * n
    slack = (t - 1) * comb(n, 2) - sum(comb(d, 2) for d in ds)

    def root_selections():
        classes = []
        j = 1
        while j < n:
            k = j
            while k < n and ds[k] == ds[j]:
                k += 1
            classes.append(range(j, k))
            j = k
        tails = [0] * (len(classes) + 1)
        for ci in range(len(classes) - 1, -1, -1):
            tails[ci] = tails[ci + 1] + len(classes[ci])

        def go(ci: int, left: int, chosen: tuple):
            if ci == len(classes):
                if left == 0:
                    yield chosen
                return
            cls = classes[ci]
            lo = max(0, left - tails[ci + 1])
            for take in range(min(left, len(cls)), lo - 1, -1):
                yield from go(ci + 1, left - take, chosen + tuple(cls[:take]))

        yield from go(0, ds[0] if ds else 0, ())

    def place(i: int, deficit: int):
        budget[0] -= 1
        if budget[0] < 0:
            raise _Budget
        if i == n:
            yield list(adj)
            return
        need = rem[i]
        back[i] = adj[i]
        cands = [j for j in range(i + 1, n) if rem[j] > 0]
        if need > len(cands):
            return
        sels = root_selections() if i == 0 else combinations(cands, need)
        for sel in sels:
            smask = 0
            for j in sel:
                smask |= 1 << j
            if i > 0 and ds[i] == ds[i - 1] and back[i] == back[i - 1] and smask > fwd[i - 1]:
                continue
            full = adj[i] | smask
            nbrs = bits_to_list(full)
            ok = True
            for a, b in combinations(nbrs, 2):
                if cnt[a][b] >= t - 1:
                    ok = False
                    break
            if not ok:
                continue
            # Row i's neighborhood is final here, so its codegree with every
            # earlier vertex is exact; each shortfall against t-1 permanently
            # consumes slack.
            d2 = deficit
            for a in range(i):
                c = (adj[a] & full).bit_count()
                if c > t - 1:
                    ok = False
                    break
                d2 += t - 1 - c
            if not ok or d2 > slack:
                continue
            for a, b in combinations(nbrs, 2):
                cnt[a][b] += 1
            fwd[i] = smask
            adj[i] |= smask
            for j in sel:
                adj[j] |= 1 << i
                rem[j] -= 1
            yield from place(i + 1, d2)
            for j in sel:
                adj[j] &= ~(1 << i)
                rem[j] += 1
            adj[i] &= ~smask
            for a, b in combinations(nbrs, 2):
                cnt[a][b] -= 1

    yield from place(0, 0)


def _bnb_kst(n: int, t: int, pattern: BipartitePattern, fp: str) -> TuranRecord:
    """ex(n, K_{2,t}) and its extremal graphs in one descent over m.

    Every realization found at level m is canonicalized into the witness
    set, so the first level that realizes anything gives both the value
    and the witnesses.  Until that first witness each degree sequence gets
    REALIZE_NODE_BUDGET, and blowing it refuses: the level might hide a
    realization.  After it the rest of the level shares WITNESS_NODE_BUDGET;
    blowing that, or finding more than WITNESS_CAP classes, only marks the
    witness list incomplete.
    """
    for m in range(comb(n, 2), -1, -1):
        wits: dict[bytes, SimpleGraph] = {}
        complete = True
        budget = [0]
        try:
            for ds in _degree_sequences(n, m, t):
                if not wits:
                    budget[0] = REALIZE_NODE_BUDGET
                for adj in _realizations(ds, t, budget):
                    g = SimpleGraph(n, tuple(adj))
                    res = canonical_form(g)
                    if res.code.data in wits:
                        continue
                    if len(wits) >= WITNESS_CAP:
                        raise _Budget
                    if not wits:
                        budget[0] = WITNESS_NODE_BUDGET
                    wits[res.code.data] = g.relabel(list(res.labeling))
        except _Budget:
            if not wits:
                raise ResourceLimitError(
                    "realization-budget", f"degree-sequence search blew up at n={n}, m={m}"
                )
            complete = False
        if wits:
            break
    codes = tuple(sorted(encode_graph6(w) for w in wits.values()))
    return TuranRecord("ex", pattern.name, fp, n, m, True, "degree-bnb",
                       codes, complete)


# ---------------------------------------------------------------------------
# Greedy lower bound for hosts beyond the exact ceilings.
# ---------------------------------------------------------------------------

def _greedy_lower_bound(n: int, pattern: BipartitePattern, fp: str,
                        seed: int = 0) -> TuranRecord:
    rng = random.Random(seed)
    pairs = list(edge_pairs(n))
    best = None
    for p in range(4):
        order = pairs[:]
        if p:
            rng.shuffle(order)
        rows = [0] * n
        for u, v in order:
            rows[u] |= 1 << v
            rows[v] |= 1 << u
            if _copy_through(rows, pattern, u, v):
                rows[u] &= ~(1 << v)
                rows[v] &= ~(1 << u)
        g = SimpleGraph(n, tuple(rows))
        if best is None or g.num_edges > best.num_edges:
            best = g
    return TuranRecord("ex", pattern.name, fp, n, best.num_edges, False,
                       "greedy-lb", (encode_graph6(best),), False)


# ---------------------------------------------------------------------------
# Public entry points.
# ---------------------------------------------------------------------------

_MEMO: dict[tuple, TuranRecord] = {}


def _fingerprint(kind: str, pattern: BipartitePattern) -> str:
    """Key of the pattern in the memo and the cache: side-aware for exstar."""
    code = pattern.oriented_fingerprint if kind == "exstar" else pattern.graph_code
    return code.hex()


def _recall(kind: str, pattern: BipartitePattern, m: Optional[int], n: int,
            cache: Optional["TuranCache"],
            compute: Callable[[str], TuranRecord]) -> TuranRecord:
    """The one lookup for every record: the memo, then the cache, then
    compute(fingerprint), whose record is offered to the cache and, when
    exact, memoized."""
    fp = _fingerprint(kind, pattern)
    key = (kind, fp, m, n)
    if key in _MEMO:
        return _MEMO[key]
    rec = cache.get(kind, pattern, m, n) if cache is not None else None
    if rec is None:
        rec = compute(fp)
        if cache is not None:
            cache.put(rec)
    if rec.exact:
        _MEMO[key] = rec
    return rec


def _compute_ex(n: int, pattern: BipartitePattern, fp: str, seed: int) -> TuranRecord:
    """The first route that applies: the complete graph when it is already
    free, the clique and star closed forms, the descent (`_enum_ex`) up to
    BNB_CEILING for K_{2,t} and ENUM_CEILING otherwise, and past the
    ceilings the greedy lower bound."""
    g = pattern.graph
    if not contains_copy(SimpleGraph.complete(n), pattern):
        w = SimpleGraph.complete(n)
        return TuranRecord("ex", pattern.name, fp, n, w.num_edges, True,
                           "trivial-complete", (encode_graph6(w),), True)
    r = detect_clique(g)
    if r is not None:
        w = _turan_graph(n, r - 1)
        return TuranRecord("ex", pattern.name, fp, n, w.num_edges, True,
                           "formula-clique", (encode_graph6(w),), True)
    r = detect_star(g)
    if r is not None:
        d = r - 1
        w = _capped_degree_witness(n, d)
        return TuranRecord("ex", pattern.name, fp, n, n * d // 2, True,
                           "formula-star", (encode_graph6(w),), d == 0)
    bc = detect_biclique(g)
    if n <= (BNB_CEILING if bc is not None and bc[0] == 2 else ENUM_CEILING):
        return _enum_ex(n, pattern, fp)
    return _greedy_lower_bound(n, pattern, fp, seed=seed)


def ex_exact(n: int, pattern: BipartitePattern, *,
             cache: Optional["TuranCache"] = None,
             seed: int = 0) -> TuranRecord:
    """Max edges of an n-vertex graph with no copy of the pattern.

    Exact whenever a closed form applies or n is within the search
    ceilings; otherwise the record carries exact=False and a greedy
    lower bound.  Found through the shared memo and cache (`_recall`).
    """
    if n < 0:
        raise InvalidInputError("invalid-size", f"n={n}")
    if pattern.num_edges == 0:
        raise InvalidInputError("pattern-has-no-edges", pattern.name)
    return _recall("ex", pattern, None, n, cache,
                   lambda fp: _compute_ex(n, pattern, fp, seed))


# ---------------------------------------------------------------------------
# One-sided bipartite variant.
# ---------------------------------------------------------------------------

def _host_graph(m: int, n: int, rows: list[int]) -> SimpleGraph:
    """Assemble a bipartite host: part M = 0..m-1, part N = m..m+n-1."""
    adj = [0] * (m + n)
    for i in range(m):
        mask = rows[i]
        adj[i] = mask << m
        while mask:
            j = (mask & -mask).bit_length() - 1
            mask &= mask - 1
            adj[m + j] |= 1 << i
    return SimpleGraph(m + n, tuple(adj))


def _has_oriented_copy(g: SimpleGraph, m: int, rp: BipartitePattern) -> bool:
    """Whether the host g holds a copy of rp whose X side lies in its first
    part (vertices 0..m-1) and whose Y side lies in the rest."""
    mmask = (1 << m) - 1
    allowed = [0] * rp.h
    for v in rp.X:
        allowed[v] = mmask
    for v in rp.Y:
        allowed[v] = ((1 << g.n) - 1) & ~mmask
    return contains_copy(g, rp, allowed=allowed)


def _aligned_rows(cells: tuple[tuple[int, int], ...]) -> list[int]:
    """Every row top-aligned in the cells [lo, hi): in each cell its bits
    are the cell's highest.  Largest first under (popcount, value)."""
    rows = [0]
    for lo, hi in cells:
        rows = [r | ((1 << k) - 1) << (hi - k) for r in rows for k in range(hi - lo + 1)]
    return sorted(rows, key=lambda r: (r.bit_count(), r), reverse=True)


def _split(cells: tuple[tuple[int, int], ...], row: int) -> tuple[tuple[int, int], ...]:
    """The cells a top-aligned row cuts: each into its bits and the rest."""
    out = []
    for lo, hi in cells:
        top = hi - (row >> lo & ((1 << (hi - lo)) - 1)).bit_count()
        out += [c for c in ((lo, top), (top, hi)) if c[0] < c[1]]
    return tuple(out)


def _exstar_search(m: int, n: int, rp: BipartitePattern, fp: str) -> TuranRecord:
    """ex*(m, n) of the reduced pattern and every extremal host class, by a
    labeled DFS over the rows (neighborhoods of the m-part, as n-bit masks).

    Rows are placed non-increasing under (popcount, value), which quotients
    permutations of the m-part, and row i must be top-aligned in every cell
    that rows 0..i-1 cut out of [0, n), which quotients those of the
    n-part: row 0 splits [0, n) into its top |r0| bits and the rest, row 1
    splits each of those cells the same way, and so on, so the cells stay
    contiguous bit ranges.  A row whose host holds an oriented copy is
    dropped, and a branch stops once even rows as large as the current
    one cannot reach the best value.

    Every host has such a labeling.  Start from the cell {[0, n)} and
    repeatedly take the remaining row whose cell-top form, the row with its
    bits in each current cell moved to the cell's top, is largest in
    (popcount, value); then permute the n-part inside the cells to align
    it, and cut the cells by it.  The permutation only moves bits inside
    cells, and each earlier row is a union of cells, so earlier rows keep
    their place.  Top alignment in a cell gives the largest value among the
    placements of its bits there, so a row's cell-top form under finer
    cells is no larger: each row taken is at most the one before it.  So
    the value and every extremal class are found.

    The labeled extremal hosts are deduplicated by a canonical form
    respecting the parts; the WITNESS_CAP smallest codes are reported,
    complete when there are no more.
    """
    if m * n > EXSTAR_CELL_BUDGET:
        raise ResourceLimitError(
            "one-sided-budget", f"{m}x{n} host exceeds the {EXSTAR_CELL_BUDGET}-cell search budget"
        )
    aligned: dict[tuple, tuple[list[int], dict[int, int]]] = {}
    best = -1
    wits: list[list[int]] = []
    rows = [0] * m

    def place(i: int, cur: int, prev: int, cells: tuple):
        nonlocal best, wits
        if i == m:
            if cur > best:
                best, wits = cur, [rows[:]]
            elif cur == best:
                wits.append(rows[:])
            return
        if cells not in aligned:
            masks = _aligned_rows(cells)
            aligned[cells] = masks, {mask: idx for idx, mask in enumerate(masks)}
        masks, index = aligned[cells]
        # prev is a union of cells, so it is aligned, and rows after it in
        # the list are no larger than it
        for mask in masks[index[prev]:]:
            if cur + mask.bit_count() * (m - i) < best:
                break
            rows[i] = mask
            if not _has_oriented_copy(_host_graph(m, n, rows), m, rp):
                place(i + 1, cur + mask.bit_count(), mask, _split(cells, mask))
        rows[i] = 0

    place(0, 0, (1 << n) - 1, ((0, n),))
    parts = [list(range(m)), list(range(m, m + n))]
    codes = sorted({encode_graph6(g.relabel(list(canonical_form(g, cells=parts).labeling)))
                    for g in (_host_graph(m, n, w) for w in wits)})
    return TuranRecord("exstar", rp.name, fp, n, best, True, "bipartite-dfs",
                       tuple(codes[:WITNESS_CAP]), len(codes) <= WITNESS_CAP,
                       m=m)


def _compute_exstar(m: int, n: int, rp: BipartitePattern, fp: str) -> TuranRecord:
    """The first route that applies: the complete host when the pattern
    cannot fit, the star closed form, else the row search."""
    if len(rp.X) > m or len(rp.Y) > n:
        w = _host_graph(m, n, [(1 << n) - 1] * m)
        return TuranRecord("exstar", rp.name, fp, n, m * n, True, "formula-fit",
                           (encode_graph6(w),), True, m=m)
    r = detect_star(rp.graph)
    if r is None:
        return _exstar_search(m, n, rp, fp)
    center = max(range(rp.h), key=rp.graph.degree)
    d = r - 1
    if center in rp.X:
        value = m * d
        rows = [((1 << d) - 1) for _ in range(m)]
    else:
        value = n * d
        rows = [(1 << n) - 1 for _ in range(d)] + [0] * (m - d)
    w = _host_graph(m, n, rows)
    assert w.num_edges == value
    return TuranRecord("exstar", rp.name, fp, n, value, True, "formula-star",
                       (encode_graph6(w),), value == 0, m=m)


def ex_star_exact(m: int, n: int, rp: BipartitePattern, *,
                  cache: Optional["TuranCache"] = None) -> TuranRecord:
    """Max edges of a host between parts of sizes m and n avoiding copies
    of the reduced pattern whose X side sits inside the m-part.  Found
    through the shared memo and cache (`_recall`)."""
    if m < 0 or n < 0:
        raise InvalidInputError("invalid-size", f"m={m}, n={n}")
    if not rp.bipartite:
        raise InvalidInputError("pattern-not-bipartite", rp.name)
    if rp.num_edges == 0:
        raise InvalidInputError("pattern-has-no-edges", rp.name)
    if not rp.is_connected():
        raise InvalidInputError(
            "ambiguous bipartition", f"{rp.name} is disconnected; side placement is not unique"
        )
    return _recall("exstar", rp, m, n, cache,
                   lambda fp: _compute_exstar(m, n, rp, fp))


# ---------------------------------------------------------------------------
# Shared cache file: one JSON record per line, advisory-locked.
# ---------------------------------------------------------------------------

class _Index:
    """One cache file's bytes, its records grouped by (kind, fp, n, m) in
    file order, and the last-valid-record verdict of each key looked up.
    A plain class: a dataclass costs about 15 KB more per import."""

    __slots__ = ("data", "lines", "docs", "verdicts")

    def __init__(self, data: bytes, lines: int, docs: dict, verdicts: dict):
        self.data, self.lines, self.docs, self.verdicts = data, lines, docs, verdicts


# Cache path -> index of the content last read there.  An entry is replaced,
# never changed, except that verdicts are filled in, and a verdict is a pure
# function of the bytes and the key, so a stale entry is never wrong for the
# bytes it holds.
_INDEX: dict[str, _Index] = {}


def _is_saturated(g: SimpleGraph, pattern: BipartitePattern) -> bool:
    """Whether adding any non-edge to the pattern-free g makes a copy, as
    it must when g is extremal."""
    for u, v in g.complement().edges():
        rows = list(g.adj)
        rows[u] |= 1 << v
        rows[v] |= 1 << u
        if not _copy_through(rows, pattern, u, v):
            return False
    return True


class TuranCache:
    """Line-oriented record store keyed by pattern fingerprint and sizes.

    Only exact records with witnesses are stored; `put` alone decides
    that.  Every lookup re-reads the file, but each distinct content is
    parsed and verified once per process: a record's witnesses are checked
    (order, edge count, the parts of a one-sided host, freeness, and for ex
    that no edge can be added) on the first lookup of its key, and a record
    that fails is dropped with a logged warning, so a tampered or stale
    file degrades to recomputation.
    """

    def __init__(self, path):
        self.path = str(path)

    def _read(self) -> bytes:
        if not os.path.exists(self.path):
            return b""
        with open(self.path, "rb") as fh:
            fcntl.flock(fh, fcntl.LOCK_SH)
            try:
                return fh.read()
            finally:
                fcntl.flock(fh, fcntl.LOCK_UN)

    def _index(self) -> _Index:
        """The index of the file's current bytes.  `put` only appends, so
        bytes that extend the indexed ones after a line end add records:
        only that tail is parsed, and only the verdicts of its keys drop.
        Any other change rebuilds the index."""
        data = self._read()
        old = _INDEX.get(self.path)
        if old is not None and old.data == data:
            return old
        if old is None or not (old.data.endswith(b"\n") and data.startswith(old.data)):
            old = _Index(b"", 0, {}, {})
        tail = data[len(old.data):].splitlines()
        docs, verdicts = dict(old.docs), dict(old.verdicts)
        for ln, line in enumerate(tail, old.lines + 1):
            if not line.strip():
                continue
            try:
                doc = json.loads(line.decode("ascii"))
                if not isinstance(doc, dict):
                    raise ValueError("not an object")
            except ValueError as exc:
                log.warning("cache %s line %d unreadable: %s", self.path, ln, exc)
                continue
            key = (doc.get("kind"), doc.get("fp"), doc.get("n"), doc.get("m"))
            try:
                docs[key] = docs.get(key, ()) + (doc,)
            except TypeError:  # an unhashable field equals no lookup key
                continue
            verdicts.pop(key, None)
        new = _INDEX[self.path] = _Index(data, old.lines + len(tail), docs, verdicts)
        return new

    def _validate(self, doc: dict, pattern: BipartitePattern,
                  m: Optional[int], n: int) -> Optional[TuranRecord]:
        try:
            kind = doc["kind"]
            fp = doc["fp"]
            value = int(doc["value"])
            wits = list(doc["witnesses"])
            if not doc.get("exact") or not wits:
                return None
            graphs = [decode_graph6(w) for w in wits]
        except Exception as exc:
            log.warning("cache record malformed: %s", exc)
            return None
        order = n if kind == "ex" else m + n
        for g in graphs:
            if g.n != order or g.num_edges != value:
                log.warning("cache witness has the wrong order or edge count; recomputing")
                return None
            if kind == "ex":
                found = contains_copy(g, pattern)
            else:
                mm = (1 << m) - 1
                if any(g.adj[i] & mm for i in range(m)) or any(
                        g.adj[j] & ~mm for j in range(m, order)):
                    log.warning("cache witness is not bipartite on the stated parts")
                    return None
                found = _has_oriented_copy(g, m, pattern)
            if found:
                log.warning("cache witness failed verification; recomputing")
                return None
            if kind == "ex" and not _is_saturated(g, pattern):
                log.warning("cache witness is not edge-maximal; recomputing")
                return None
        method = doc.get("method", "cache")
        # `_bnb_kst` under-reports classes (8 of 10 at ex(9, C4)) while
        # saying its list is complete: its value stands, its list does not.
        complete = bool(doc.get("complete")) and method != "degree-bnb"
        return TuranRecord(kind, doc.get("pattern", pattern.name), fp, n,
                           value, True, method, tuple(wits), complete, m=m)

    def get(self, kind: str, pattern: BipartitePattern,
            m: Optional[int], n: int) -> Optional[TuranRecord]:
        """The last record for the key whose witnesses verify, or None."""
        key = (kind, _fingerprint(kind, pattern), n, m)
        index = self._index()
        if key not in index.verdicts:
            recs = (self._validate(doc, pattern, m, n)
                    for doc in reversed(index.docs.get(key, ())))
            index.verdicts[key] = next((rec for rec in recs if rec is not None), None)
        return index.verdicts[key]

    def put(self, rec: TuranRecord) -> None:
        if not rec.exact or not rec.witnesses:
            return
        doc = {
            "kind": rec.kind,
            "fp": rec.fingerprint,
            "m": rec.m,
            "n": rec.n,
            "value": rec.value,
            "exact": rec.exact,
            "complete": rec.witnesses_complete,
            "method": rec.method,
            "pattern": rec.pattern_name,
            "witnesses": list(rec.witnesses),
        }
        line = json.dumps(doc, sort_keys=True)
        with open(self.path, "a", encoding="ascii") as fh:
            fcntl.flock(fh, fcntl.LOCK_EX)
            try:
                fh.write(line + "\n")
            finally:
                fcntl.flock(fh, fcntl.LOCK_UN)


def default_cache() -> Optional[TuranCache]:
    path = os.environ.get("NIMLAB_CACHE")
    return TuranCache(path) if path else None


def clear_memo() -> None:
    _MEMO.clear()
