"""Exact and heuristic maximization of the count of edges outside
monochromatic pattern copies, over all k-colorings of K_n.

The exact search is exhaustive and only feasible for tiny instances.
It names the colors so that class sizes do not decrease, takes color 1
from an isomorph-free enumeration of graphs with at most m/k edges, and
splits the remaining edges among the other colors.  The heuristic is
steepest-ascent single-edge recoloring restarted from the explicit
constructions and then from random colorings.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations
from typing import Optional

from .canon import CanonicalCode, canonical_code, enumerate_graphs
from .errors import InvalidInputError, RefusalError, ResourceLimitError
from .graphs import SimpleGraph, edge_pairs
from .monoscan import EdgeColoring, _graph_nim
from .patterns import BipartitePattern
from .turan import TuranCache, _greedy_lower_bound, ex_exact
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
# at n=9 score 154,354 colorings, three colors at n=6 would score 57,518.
EXACT_CEILINGS = {2: 9, 3: 5}


def _class_counts(coloring: EdgeColoring, pattern: BipartitePattern) -> list[int]:
    return [len(_graph_nim(coloring.class_graph(c), pattern))
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
    with the color and whose color 1 is one of these graphs.  The edge
    cap is hereditary and label-free, so the stream is the unfiltered
    one minus the graphs above the cap.
    """
    cap = n * (n - 1) // 2 // k
    return enumerate_graphs(n, ceiling=max(n, 10),
                            predicate=lambda child, z: child.num_edges <= cap)


def _optima(pattern: BipartitePattern, colorings):
    """Best score over `colorings`, one coloring per optimal class, and
    the number scored.

    Ties are held as color bytes and deduplicated once at the end by
    `_coloring_key`.
    """
    best = -1
    ties: list[bytes] = []
    nodes = 0
    for col in colorings:
        nodes += 1
        score = sum(_class_counts(col, pattern))
        if score > best:
            best, ties = score, []
        if score == best:
            ties.append(bytes(col.colors))
    optima = {}
    for colors in ties:
        opt = EdgeColoring(col.n, col.k, colors)
        optima.setdefault(_coloring_key(opt), opt)
    return best, list(optima.values()), nodes


def _exact_two_color(n: int, pattern: BipartitePattern):
    """Color 1 is each smallest class, color 2 the rest."""
    return _optima(pattern, (EdgeColoring.from_graph(g, k=2)
                             for g in _smallest_classes(n, 2)))


def _exact_three_color(n: int, pattern: BipartitePattern):
    """Split the rest of each smallest class into colors 2 and 3, color 2
    no larger than color 3."""
    def colorings():
        for g in _smallest_classes(n, 3):
            base = EdgeColoring.from_graph(g, k=3, outside=3).colors
            rest = [i for i, c in enumerate(base) if c == 3]
            for size in range(g.num_edges, len(rest) // 2 + 1):
                for sub in combinations(rest, size):
                    colors = base.copy()
                    for i in sub:
                        colors[i] = 2
                    yield EdgeColoring(n, 3, colors)

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

    Construction seeds that need an exact extremal value fall back to a
    greedy pattern-free graph when that value is out of reach, so the
    stream never raises.
    """
    def greedy_graph():
        rec = _greedy_lower_bound(n, pattern, pattern.graph_code.hex(), seed=seed)
        return rec.witness_graphs()[0]

    if k == 2:
        try:
            yield extremal_two_coloring(n, pattern, cache=cache)
        except RefusalError:
            yield EdgeColoring.from_graph(greedy_graph(), k=2)
    else:
        try:
            yield permuted_overlay_coloring(n, pattern, k, seed=seed,
                                            cache=cache)[0]
        except RefusalError:
            yield EdgeColoring.from_graph(greedy_graph(), k=k)
        if k == 3 and n >= 5:
            yield pentagon_three_coloring(n)

    rng = random.Random(seed)
    while True:
        yield EdgeColoring.random(n, k, seed=rng.randrange(2 ** 32))


def f_heuristic(n: int, pattern: BipartitePattern, k: int = 2, *,
                budget: int = 2000, seed: int = 0,
                cache: Optional[TuranCache] = None) -> SearchReport:
    """Best count reachable by steepest-ascent edge recoloring.

    Each unit of `budget` pays for scoring one coloring (a seed or a
    single-edge recolor of the current state).  Within a sweep the move
    with the largest gain wins, earliest edge index and then smallest
    color breaking ties; a sweep with no gain triggers a restart from the
    next seed.  Runs with the same arguments produce the same report.
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
        counts = _class_counts(cur, pattern)
        total = sum(counts)
        evals += 1
        if total > best_score:
            best_score, best_coloring = total, cur.copy()

        improving = True
        while improving and evals < budget:
            improving = False
            move = None  # (gain, edge index, color, new counts for the two classes)
            for i, (u, v) in enumerate(pairs):
                old = cur.color_of(u, v)
                for c in range(1, k + 1):
                    if c == old:
                        continue
                    if evals >= budget:
                        break
                    cur.set_color(u, v, c)
                    a = len(_graph_nim(cur.class_graph(old), pattern))
                    b = len(_graph_nim(cur.class_graph(c), pattern))
                    cur.set_color(u, v, old)
                    evals += 1
                    gain = (a + b) - (counts[old - 1] + counts[c - 1])
                    if gain > 0 and (move is None or gain > move[0]):
                        move = (gain, i, c, a, b)
                else:
                    continue
                break
            if move is not None:
                gain, i, c, a, b = move
                u, v = pairs[i]
                old = cur.color_of(u, v)
                cur.set_color(u, v, c)
                counts[old - 1] = a
                counts[c - 1] = b
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
