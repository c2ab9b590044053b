"""Exact and heuristic maximization of the count of edges outside
monochromatic pattern copies, over all k-colorings of K_n.

The exact search is exhaustive and only feasible for tiny instances.
It names the colors so that class sizes do not decrease and takes color
1 from a descent by canonical augmentation from K_1 (`canon._children`)
over graphs with at most m/k edges, one per isomorphism class.  For two
colors color 2 is the rest, and the descent keeps a coloring of K_v
only while it has enough NIM pairs for some extension to reach
ex(n, H): the vertex-averaging floors of the Turán search, applied to
NIM counts.  For three colors the remaining edges are split between
colors 2 and 3 once per orbit of color 1's automorphism group, whose
generators come with color 1 from the descent, and a split is finished
only while it can still reach the best score so far.  The heuristic is
steepest-ascent single-edge recoloring restarted from the explicit
constructions and then from random colorings.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from itertools import chain, combinations, permutations, product
from math import comb
from typing import Optional

from .canon import CanonicalCode, _children, _orbit_minima, canonical_code
from .errors import InvalidInputError, RefusalError, ResourceLimitError
from .graphs import SimpleGraph, edge_index, edge_pairs
from .monoscan import EdgeColoring, _graph_nim, _nim_scan
from .patterns import BipartitePattern
from .turan import TuranCache, _floors, ex_exact
from .constructions import (
    extremal_two_coloring,
    pentagon_three_coloring,
    permuted_overlay_coloring,
)

__all__ = [
    "SearchReport",
    "f_exact",
    "f_heuristic",
    "verify_extremal_characterization",
    "EXACT_CEILINGS",
]

# Largest n the exhaustive search accepts, per color count: two colors
# at n=9 scan 2,741 children for C4 and 15,268 for K_{2,3}, three colors
# at n=6 score 6,163.
EXACT_CEILINGS = {2: 9, 3: 6}


def _class_counts(coloring: EdgeColoring, pattern: BipartitePattern) -> list[int]:
    return [len(_graph_nim(coloring.class_graph(c), pattern)[0])
            for c in range(1, coloring.k + 1)]


@dataclass(frozen=True)
class SearchReport:
    """Outcome of a maximization run.

    `value` is the best count found and, in exact mode, the true maximum;
    `colorings` then lists every optimum up to vertex relabeling and color
    renaming.  `nodes` counts the colorings scored.  For two colors, in
    exact mode, these are the children the descent builds and scans on
    every level, before their floor and canonical tests, so one class can
    count more than once.  For three colors they are the colorings of K_n
    left after the pruning, including those dropped unfinished by the
    bound on the best score.  The heuristic counts the colorings scored.
    """

    n: int
    k: int
    pattern_name: str
    value: int
    colorings: tuple[EdgeColoring, ...]
    mode: str
    nodes: int
    optima_complete: bool
    seed: Optional[int] = None
    budget: Optional[int] = None

    def recount(self, pattern: BipartitePattern) -> list[int]:
        """Recompute the score of every retained coloring from scratch."""
        return [sum(_class_counts(c, pattern)) for c in self.colorings]

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "k": self.k,
            "pattern": self.pattern_name,
            "value": self.value,
            "mode": self.mode,
            "nodes": self.nodes,
            "optima_complete": self.optima_complete,
            "seed": self.seed,
            "budget": self.budget,
            "colorings": [list(c.colors) for c in self.colorings],
        }


def _coloring_key(coloring: EdgeColoring) -> CanonicalCode:
    """Isomorphism key of a coloring under vertex relabeling and color renaming.

    The colors are renamed 0..k-1 by increasing class size, in every order
    among classes of one size, and the key is the least canonical code of
    the layered graph of a renaming (the edge-color encoding of McKay and
    Piperno, "Practical graph isomorphism II", 2014): ceil(log2 k) copies of
    the vertex set, edge uv in copy l when bit l of its color is set, and
    each vertex's copies joined in a path.  Each copy is its own cell, so
    an isomorphism of layered graphs is one vertex map on every copy.
    """
    n, k = coloring.n, coloring.k
    layers = max(1, (k - 1).bit_length())
    adj = [[0] * n for _ in range(k + 1)]
    for (u, v), c in zip(edge_pairs(n), coloring.colors):
        adj[c][u] |= 1 << v
        adj[c][v] |= 1 << u
    sizes = Counter(coloring.colors)
    ties: dict[int, list[int]] = {}
    for c in range(1, k + 1):
        ties.setdefault(sizes[c], []).append(c)
    cells = [range(l * n, (l + 1) * n) for l in range(layers)]
    paths = [(1 << v + n if l < layers - 1 else 0) | (1 << v - n if l else 0)
             for l in range(layers) for v in range(l * n, (l + 1) * n)]

    def code(order) -> CanonicalCode:
        rows = list(paths)
        for i, c in enumerate(chain(*order)):
            for l in range(layers):
                if i >> l & 1:
                    for v in range(n):
                        rows[l * n + v] |= adj[c][v] << l * n
        return canonical_code(SimpleGraph(layers * n, tuple(rows)), cells=cells)

    # the order among empty classes changes no layer
    return min(code(order) for order in product(
        *(permutations(ties[s]) if s else [ties[s]] for s in sorted(ties))))


def _coloring(classes: tuple[SimpleGraph, ...]) -> EdgeColoring:
    """The coloring whose color c is the edge set of classes[c - 1]."""
    n = classes[0].n
    colors = [0] * (n * (n - 1) // 2)
    for c, g in enumerate(classes, 1):
        for u, v in g.edges():
            colors[edge_index(n, u, v)] = c
    return EdgeColoring(n, len(classes), colors)


def _distinct(ties: list[tuple[SimpleGraph, ...]]) -> list[EdgeColoring]:
    """The colorings whose class graphs are `ties`, one per isomorphism
    class, the first of each kept.

    Two ties are compared by `_coloring_key` only when each has two
    classes of one size.  A tie whose class sizes are distinct is
    isomorphic to no other tie: an isomorphism keeps class sizes, and
    with the sizes increasing with the color, it cannot rename colors, so
    it carries color 1 to color 1.  Color 1 comes from one graph per
    isomorphism class, so both ties have the same g, and with two colors
    that is the whole coloring; with three the vertex map is an
    automorphism of g carrying one split to the other, but the splits of
    g lie in different orbits of Aut(g).
    """
    optima, keys = [], set()
    for classes in ties:
        opt = _coloring(classes)
        if len({h.num_edges for h in classes}) < len(classes):
            key = _coloring_key(opt)
            if key in keys:
                continue
            keys.add(key)
        optima.append(opt)
    return optima


def _exact_two_color(n: int, pattern: BipartitePattern):
    """Every 2-coloring of K_n with at least s = ex(n, H) NIM pairs, by
    the averaging-floored descent that `turan._enum_ex` runs on edges.

    Color 1 is a graph g with at most m/2 edges, a cap that holds on the
    way to g, from canonical augmentation from K_1 (`canon._children`),
    and color 2 is its complement.  The extremal two-coloring makes every
    edge of an H-free witness NIM, so f >= s.  A copy inside K_{u-1} stays
    a copy in K_u, so deleting a vertex of least NIM degree keeps the
    floors L(u) of `turan._floors` from L(n) = s; that vertex is the
    canonical deletion, as the vertices are ranked by the invariant key
    (-NIM degree, degree), largest last, and z without the largest key is
    rejected before any canonical form.  A child on v vertices is kept
    only with at least L(v) NIM pairs; when L(v) = C(v, 2) the key orders
    by degree alone, so masks that cannot give z top degree are dropped.

    A child is scanned only on its parent's NIM pairs and the pairs at the
    new vertex z, since no other pair can be NIM, color 2 first; a kept
    child carries its NIM pairs down as its state.  A leaf that beats the
    target raises it and the floors, so the optima are the leaves that
    reach the final best, one kept per class.  Returns the value, the
    optima and the number of children scanned.
    """
    best = ex_exact(n, pattern).value
    floors = _floors(n, best)
    cap = n * (n - 1) // 4  # color 1 is the smaller class
    leaves, nodes = [], 0

    def descend(g: SimpleGraph, gens, one: list, two: list) -> None:
        nonlocal best, floors, leaves
        if g.n == n:
            score = len(one) + len(two)
            if score > best:
                best, floors, leaves = score, _floors(n, score), []
            leaves.append(g)
            return
        v = g.n + 1

        def hopeful(child: SimpleGraph, z: int):
            nonlocal nodes
            nodes += 1
            at_z = child.adj[z]
            ones = one + [(u, z) for u in range(z) if at_z >> u & 1]
            twos = two + [(u, z) for u in range(z) if not at_z >> u & 1]
            # color 2, the larger class, fails its floor sooner
            scan2 = _nim_scan(child.complement().adj, pattern, twos, floors[v] - len(ones))
            if scan2 is None:
                return None
            scan1 = _nim_scan(child.adj, pattern, ones, floors[v] - len(scan2[0]))
            if scan1 is None:
                return None
            nim = Counter(chain(*scan1[0], *scan2[0]))
            key = [(-nim[u], child.adj[u].bit_count()) for u in range(v)]
            cells = [[u for u in range(v) if key[u] == k] for k in sorted(set(key))]
            return cells, (scan1[0], scan2[0])

        all_nim = floors[v] == comb(v, 2)
        for child, child_gens, found in _children(g, gens, hopeful, cap - g.num_edges,
                                                  v == n, all_nim):
            descend(child, child_gens, *found)

    descend(SimpleGraph.empty(1), (), [], [])
    if not leaves:
        raise RuntimeError(f"no 2-coloring of K_{n} reaches ex({n}, {pattern.name}) = {best}")
    return best, _distinct([(g, g.complement()) for g in leaves]), nodes


def _exact_three_color(n: int, pattern: BipartitePattern):
    """Split the rest of each color-1 graph g into colors 2 and 3, color 2
    no smaller than g and no larger than color 3.

    g has at most m/3 edges and comes from canonical augmentation from K_1
    (`canon._children`) with the generators of Aut(g).  An automorphism of
    g carries a split to an isomorphic coloring, so only one split of each
    orbit of Aut(g) is scored, the first in `combinations` order: a mask
    over the rest of g in edge order, on which the generators act as
    permutations of those edges.  The masks are generated lazily, so
    memory grows with the number of orbits, not of splits.

    g is scanned once for all its splits.  Then the larger of colors 2 and
    3 is scanned first, with the floor best - score so far - edges still
    unscanned, so a split is dropped unfinished once it cannot reach the
    best score so far; the drop is strict, so every tie is finished.
    Returns the value, the optima and the number of splits scored.
    """
    cap = n * (n - 1) // 2 // 3
    best, ties, nodes = -1, [], 0

    def keep(child: SimpleGraph, z: int):
        return None, None

    def descend(g: SimpleGraph, gens) -> None:
        nonlocal best, ties, nodes
        if g.n < n:
            for child, child_gens, _ in _children(g, gens, keep, cap - g.num_edges, False):
                descend(child, child_gens)
            return
        rest_graph = g.complement()
        rest = list(rest_graph.edges())
        index = {e: i for i, e in enumerate(rest)}
        generators = [
            tuple(index[(a, b) if a < b else (b, a)]
                  for a, b in ((gamma[u], gamma[v]) for u, v in rest))
            for gamma in gens
        ]
        masks = (
            sum(1 << i for i in sub)
            for size in range(g.num_edges, len(rest) // 2 + 1)
            for sub in combinations(range(len(rest)), size)
        )
        base = len(_graph_nim(g, pattern)[0])
        for mask in _orbit_minima(generators, len(rest), masks):
            rows = [0] * n
            for i, (u, v) in enumerate(rest):
                if (mask >> i) & 1:
                    rows[u] |= 1 << v
                    rows[v] |= 1 << u
            two = SimpleGraph(n, tuple(rows))
            three = SimpleGraph(n, tuple(a ^ b for a, b in zip(rest_graph.adj, rows)))
            nodes += 1
            score, left = base, len(rest)
            for h in sorted((two, three), key=lambda c: -c.num_edges):
                left -= h.num_edges
                scan = _nim_scan(h.adj, pattern, h.edges(), best - score - left)
                if scan is None:
                    break
                score += len(scan[0])
            else:
                if score > best:
                    best, ties = score, []
                ties.append((g, two, three))

    descend(SimpleGraph.empty(1), ())
    return best, _distinct(ties), nodes


def _check_search_args(n: int, pattern: BipartitePattern, k: int) -> None:
    if n < 1:
        raise InvalidInputError("invalid-size", f"n={n}")
    if k < 2:
        raise InvalidInputError("invalid-color-count", f"k={k}, need k >= 2")
    if pattern.num_edges == 0:
        raise InvalidInputError("pattern-has-no-edges", pattern.name)


def f_exact(n: int, pattern: BipartitePattern, k: int = 2, *,
            ceiling: Optional[int] = None) -> SearchReport:
    """True maximum over all k-colorings, with every optimum retained.

    Only k=2 and k=3 have exhaustive drivers, and each has a hard size
    ceiling (see EXACT_CEILINGS; `ceiling` overrides it at the caller's
    risk, and gives no other k a driver).  Anything larger is refused
    rather than approximated.
    """
    _check_search_args(n, pattern, k)
    if k not in EXACT_CEILINGS:
        raise ResourceLimitError(
            "search-ceiling", f"no exhaustive driver for k={k}"
        )
    limit = EXACT_CEILINGS[k] if ceiling is None else ceiling
    if n > limit:
        raise ResourceLimitError(
            "search-ceiling", f"n={n} exceeds the k={k} ceiling {limit}"
        )
    if k == 2:
        value, optima, nodes = _exact_two_color(n, pattern)
    else:
        value, optima, nodes = _exact_three_color(n, pattern)
    return SearchReport(
        n=n, k=k, pattern_name=pattern.name, value=value,
        colorings=tuple(optima), mode="exact", nodes=nodes,
        optima_complete=True,
    )


def _seed_colorings(n: int, pattern: BipartitePattern, k: int, seed: int,
                    cache: Optional[TuranCache]):
    """Start states: explicit constructions first, then random colorings.

    Construction seeds need an exact extremal value; when it is out of
    reach the record's witness, a greedy pattern-free graph, stands in, so
    the stream never raises.
    """
    rec = ex_exact(n, pattern, cache=cache, seed=seed)
    if not rec.exact:
        yield EdgeColoring.from_graph(rec.witness_graphs()[0], k=k)
    elif k == 2:
        yield extremal_two_coloring(n, pattern, cache=cache, seed=seed)
    else:
        yield permuted_overlay_coloring(n, pattern, k, seed=seed, cache=cache)[0]
    if k == 3 and n >= 5:
        yield pentagon_three_coloring(n)

    rng = random.Random(seed)
    while True:
        yield EdgeColoring.random(n, k, seed=rng.randrange(2 ** 32))


class _ClassScan:
    """One color class of the heuristic's current coloring: its NIM edges
    and, for every covered edge g, the covered edges whose witness copy
    passes through g.  A recolor into or out of the class dates it."""

    __slots__ = ("pattern", "nim", "users")

    def __init__(self, g: SimpleGraph, pattern: BipartitePattern):
        self.pattern = pattern
        self.nim, witness = _graph_nim(g, pattern)
        pedges = self.pattern.edges
        users: dict[tuple[int, int], list[tuple[int, int]]] = {}
        for f, img in witness.items():
            for a, b in pedges:
                x, y = img[a], img[b]
                users.setdefault((x, y) if x < y else (y, x), []).append(f)
        self.users = users

    def count_without(self, rows: list[int], e: tuple[int, int]) -> int:
        """NIM count of the class (adjacency `rows`) once its edge e leaves.

        Every copy avoiding e survives, so a covered edge can turn NIM
        only when its witness used e; those are the edges rechecked.
        """
        users = self.users.get(e)
        if users is None:  # e is NIM, so no witness uses it
            return len(self.nim) - 1
        u, v = e
        rows = list(rows)
        rows[u] ^= 1 << v
        rows[v] ^= 1 << u
        rechecked = [f for f in users if f != e]
        return len(self.nim) + len(_nim_scan(rows, self.pattern, rechecked)[0])

    def count_with(self, rows: list[int], e: tuple[int, int]) -> int:
        """NIM count of the class (adjacency `rows`) once edge e joins it.

        Adding an edge frees none, and a new copy through a NIM edge uses
        e, so only e and the NIM edges are checked, and the NIM edges only
        when e lies in a copy.
        """
        u, v = e
        rows = list(rows)
        rows[u] |= 1 << v
        rows[v] |= 1 << u
        nim, witness = _nim_scan(rows, self.pattern, (e,))
        if nim:
            return len(self.nim) + 1
        rechecked = [f for f in self.nim if f not in witness]
        return len(_nim_scan(rows, self.pattern, rechecked)[0])


def f_heuristic(n: int, pattern: BipartitePattern, k: int = 2, *,
                budget: int = 2000, seed: int = 0,
                cache: Optional[TuranCache] = None) -> SearchReport:
    """Best count reachable by steepest-ascent edge recoloring.

    Each unit of `budget` pays for scoring one coloring (a seed or a
    single-edge recolor of the current state).  Within a sweep the move
    with the largest gain wins, earliest edge index and then smallest
    color breaking ties; a sweep with no gain triggers a restart from the
    next seed.  Runs with the same arguments produce the same report.

    A start is scanned class by class (`_ClassScan`).  A move of edge e
    from class a to class b is scored from the scans of a and b without
    rescanning them: a minus e rechecks only the covered edges whose
    witness copy used e (once per edge and sweep, whatever the target
    color), and b plus e checks e and, when e lies in a copy, the NIM
    edges of b.  The counts are exact, so `budget` still counts scored
    colorings; only the two classes of an applied move are rescanned.
    """
    _check_search_args(n, pattern, k)
    if budget < 1:
        raise InvalidInputError("invalid-budget", f"budget={budget}, need >= 1")

    pairs = edge_pairs(n)
    evals = 0
    best_score = -1
    best_coloring: Optional[EdgeColoring] = None
    seeds = _seed_colorings(n, pattern, k, seed, cache)

    while evals < budget:
        cur = next(seeds).copy()
        scans = [_ClassScan(cur.class_graph(c), pattern) for c in range(1, k + 1)]
        total = sum(len(s.nim) for s in scans)
        evals += 1
        if total > best_score:
            best_score, best_coloring = total, cur.copy()

        improving = True
        while improving and evals < budget:
            improving = False
            move = None  # (gain, edge index, color)
            for i, e in enumerate(pairs):
                old = cur.colors[i]
                a = None
                for c in range(1, k + 1):
                    if c == old:
                        continue
                    if evals >= budget:
                        break
                    if a is None:
                        a = scans[old - 1].count_without(cur.class_adj(old), e)
                    b = scans[c - 1].count_with(cur.class_adj(c), e)
                    evals += 1
                    gain = (a + b) - (len(scans[old - 1].nim) + len(scans[c - 1].nim))
                    if gain > 0 and (move is None or gain > move[0]):
                        move = (gain, i, c)
                else:
                    continue
                break
            if move is not None:
                gain, i, c = move
                u, v = pairs[i]
                old = cur.colors[i]
                cur.set_color(u, v, c)
                for col in (old, c):
                    scans[col - 1] = _ClassScan(cur.class_graph(col), pattern)
                total += gain
                if total > best_score:
                    best_score, best_coloring = total, cur.copy()
                improving = True

    return SearchReport(
        n=n, k=k, pattern_name=pattern.name, value=best_score,
        colorings=(best_coloring,), mode="heuristic", nodes=evals,
        optima_complete=False, seed=seed, budget=budget,
    )


def verify_extremal_characterization(coloring: EdgeColoring,
                                     pattern: BipartitePattern, *,
                                     cache: Optional[TuranCache] = None) -> bool:
    """Whether some color class is pattern-free with the extremal edge count.

    Colorings of this shape realize the two-color lower bound; the check
    needs the exact extremal value and refuses without it.
    """
    from .monoscan import is_h_free

    rec = ex_exact(coloring.n, pattern, cache=cache)
    if not rec.exact:
        raise RefusalError(
            "non-exact extremal record",
            f"ex({coloring.n}, {pattern.name}) is not known exactly",
        )
    for c in range(1, coloring.k + 1):
        g = coloring.class_graph(c)
        if g.num_edges == rec.value and is_h_free(g, pattern):
            return True
    return False
