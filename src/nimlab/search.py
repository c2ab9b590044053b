"""Exact and heuristic maximization of the count of edges outside
monochromatic pattern copies, over all k-colorings of K_n.

The exact search is exhaustive and only feasible for tiny instances.
It names the colors so that class sizes do not decrease, takes color 1
from an isomorph-free enumeration of graphs with at most m/k edges, and
splits the remaining edges among the other colors, once per orbit of
color 1's automorphism group.  The heuristic is
steepest-ascent single-edge recoloring restarted from the explicit
constructions and then from random colorings.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations
from typing import Optional

from .canon import (
    CanonicalCode,
    _orbit_minima,
    canonical_code,
    canonical_form,
    enumerate_graphs,
)
from .errors import InvalidInputError, RefusalError, ResourceLimitError
from .graphs import SimpleGraph, edge_index, edge_pairs
from .monoscan import EdgeColoring, _graph_nim, _nim_scan
from .patterns import BipartitePattern
from .turan import TuranCache, ex_exact
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
# at n=9 score 154,354 colorings, three colors at n=6 score 6,163.
EXACT_CEILINGS = {2: 9, 3: 6}


def _class_counts(coloring: EdgeColoring, pattern: BipartitePattern) -> list[int]:
    return [len(_graph_nim(coloring.class_graph(c), pattern)[0])
            for c in range(1, coloring.k + 1)]


@dataclass(frozen=True)
class SearchReport:
    """Outcome of a maximization run.

    `value` is the best count found and, in exact mode, the true maximum;
    `colorings` then lists every optimum up to vertex relabeling and color
    renaming.  `nodes` counts colorings whose score was evaluated.
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

    The canonical code of its incidence graph: one vertex per host vertex,
    per edge and per color, each edge vertex joined to its two ends and to
    its color.  The colors share one cell, so renaming them is free.
    """
    n, k = coloring.n, coloring.k
    m = len(coloring.colors)
    links = []
    for i, (u, v) in enumerate(edge_pairs(n)):
        links += [(n + i, u), (n + i, v), (n + i, n + m + coloring.colors[i] - 1)]
    g = SimpleGraph.from_edges(n + m + k, links)
    return canonical_code(g, cells=[range(n), range(n, n + m), range(n + m, n + m + k)])


def _smallest_classes(n: int, k: int):
    """One graph per isomorphism class with at most m // k edges.

    Every k-coloring class has a member whose class sizes do not decrease
    with the color and whose color 1 is one of these graphs.  The cap
    holds on every graph on the way to a capped one, so it is passed to
    the enumeration as `max_edges`, and children over it are never built.
    """
    cap = n * (n - 1) // 2 // k
    return enumerate_graphs(n, ceiling=max(n, 10), max_edges=lambda v: cap)


def _coloring(classes: tuple[SimpleGraph, ...]) -> EdgeColoring:
    """The coloring whose color c is the edge set of classes[c - 1]."""
    n = classes[0].n
    colors = [0] * (n * (n - 1) // 2)
    for c, g in enumerate(classes, 1):
        for u, v in g.edges():
            colors[edge_index(n, u, v)] = c
    return EdgeColoring(n, len(classes), colors)


def _optima(pattern: BipartitePattern, colorings):
    """Best score over `colorings`, one coloring per optimal class, and
    the number scored.

    A coloring comes as its tuple of class graphs, which are scored
    directly.  Ties are held as such tuples; only they become
    `EdgeColoring`s, deduplicated once at the end by `_coloring_key`.
    """
    best = -1
    ties: list[tuple[SimpleGraph, ...]] = []
    nodes = 0
    for classes in colorings:
        nodes += 1
        score = sum(len(_graph_nim(g, pattern)[0]) for g in classes)
        if score > best:
            best, ties = score, []
        if score == best:
            ties.append(classes)
    optima = {}
    for classes in ties:
        opt = _coloring(classes)
        optima.setdefault(_coloring_key(opt), opt)
    return best, list(optima.values()), nodes


def _exact_two_color(n: int, pattern: BipartitePattern):
    """Color 1 is each smallest class, color 2 the rest."""
    return _optima(pattern, ((g, g.complement()) for g in _smallest_classes(n, 2)))


def _exact_three_color(n: int, pattern: BipartitePattern):
    """Split the rest of each smallest class g into colors 2 and 3, color 2
    no smaller than g and no larger than color 3.

    An automorphism of g carries a split to an isomorphic coloring, so
    only one split of each orbit of Aut(g) is scored, the first in
    `combinations` order.  A split is a mask over the rest of g in edge
    order, and the generators of Aut(g) act on it as permutations of
    those edges.  The masks are generated lazily, so memory grows with
    the number of orbits, not of splits.
    """
    def colorings():
        for g in _smallest_classes(n, 3):
            rest_graph = g.complement()
            rest = list(rest_graph.edges())
            index = {e: i for i, e in enumerate(rest)}
            generators = [
                tuple(index[(a, b) if a < b else (b, a)]
                      for a, b in ((gamma[u], gamma[v]) for u, v in rest))
                for gamma in canonical_form(g).generators
            ]
            masks = (
                sum(1 << i for i in sub)
                for size in range(g.num_edges, len(rest) // 2 + 1)
                for sub in combinations(range(len(rest)), size)
            )
            for mask in _orbit_minima(generators, len(rest), masks):
                rows = [0] * n
                for i, (u, v) in enumerate(rest):
                    if (mask >> i) & 1:
                        rows[u] |= 1 << v
                        rows[v] |= 1 << u
                two = SimpleGraph(n, tuple(rows))
                three = SimpleGraph(n, tuple(a ^ b for a, b in zip(rest_graph.adj, rows)))
                yield g, two, three

    return _optima(pattern, colorings())


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
        pedges = list(pattern.graph.edges())
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
