"""Explicit colorings of K_n with many edges outside monochromatic copies.

Three builders live here.  `extremal_two_coloring` paints a maximum
pattern-free graph red and its complement blue.  `permuted_overlay_coloring`
stacks k-1 randomly permuted copies of that extremal graph, one per color,
and charges the pairwise overlaps against the guarantee.  The pentagon
coloring is the five-block construction whose red and blue classes are
blow-ups of a 5-cycle.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache

from .canon import canonical_graph
from .errors import InvalidInputError, NonExactRecordError
from .graphs import SimpleGraph, decode_graph6, edge_index, encode_graph6
from .monoscan import EdgeColoring
from .patterns import BipartitePattern
from .turan import TuranCache, TuranRecord, ex_exact

__all__ = [
    "OverlayCertificate",
    "extremal_two_coloring",
    "permuted_overlay_coloring",
    "pentagon_three_coloring",
]


def _base_witness(n: int, pattern: BipartitePattern,
                  cache: TuranCache | None, seed: int) -> tuple[TuranRecord, SimpleGraph]:
    """Extremal record plus its lexicographically least canonical witness."""
    rec = ex_exact(n, pattern, cache=cache, seed=seed)
    if not rec.exact:
        raise NonExactRecordError(
            "non-exact extremal record",
            f"ex({n}, {pattern.name}) is only bounded below by {rec.value}",
        )
    best = _least_canonical(rec.witnesses)
    if best is None:
        raise NonExactRecordError(
            "non-exact extremal record", f"record for ex({n}, {pattern.name}) has no witness"
        )
    return rec, best


@lru_cache(maxsize=256)
def _least_canonical(witnesses: tuple[str, ...]) -> SimpleGraph | None:
    """The canonical form, least by graph6, of the graph6 witnesses, or None
    when there are none.  Each witness is canonicalized here: cached and
    greedy records may hold non-canonical ones."""
    best_code = None
    best = None
    for w in witnesses:
        cg = canonical_graph(decode_graph6(w))
        code = encode_graph6(cg)
        if best_code is None or code < best_code:
            best_code, best = code, cg
    return best


def extremal_two_coloring(n: int, pattern: BipartitePattern, *,
                          cache: TuranCache | None = None,
                          seed: int = 0) -> EdgeColoring:
    """Two-coloring whose red class is a maximum pattern-free graph.

    Red (color 1) is the lexicographically least canonical extremal witness,
    blue (color 2) is its complement.  Every red edge avoids monochromatic
    copies by maximality, so the construction certifies a lower bound of
    ex(n, pattern) for the two-color problem.  Refuses when the extremal
    value is not known exactly.
    """
    if n < 1:
        raise InvalidInputError("invalid-size", f"n={n}")
    _, red = _base_witness(n, pattern, cache, seed)
    return EdgeColoring.from_graph(red, k=2, inside=1, outside=2)


@dataclass(frozen=True)
class OverlayCertificate:
    """Accounting for one permuted-overlay run.

    Colors 1..k-1 each start from the extremal base graph pushed through
    their own random permutation; later colors drop edges already claimed.
    `overlap_sizes` lists (i, j, |E_i intersect E_j|) for i < j < k, and
    `nim_lower_bound` is (k-1)*ex - sum of those overlaps: each surviving
    edge sits in a subgraph of a pattern-free graph, hence in no
    monochromatic copy.  Sampling retries until the overlap total is at
    most `bound`, the ceiling of the expected total; `retries` is the
    index of the accepted attempt, or the retry cap when every attempt
    missed and the smallest-overlap one was kept (`bound_met` False).
    """

    n: int
    k: int
    pattern_name: str
    ex_value: int
    base_code: str
    permutations: tuple[tuple[int, ...], ...]
    overlap_sizes: tuple[tuple[int, int, int], ...]
    overlap_union: int
    bound: int
    bound_met: bool
    retries: int
    nim_lower_bound: int

    @property
    def overlap_total(self) -> int:
        return sum(s for _, _, s in self.overlap_sizes)

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "k": self.k,
            "pattern": self.pattern_name,
            "ex": self.ex_value,
            "base": self.base_code,
            "permutations": [list(p) for p in self.permutations],
            "overlaps": [[i, j, s] for i, j, s in self.overlap_sizes],
            "overlap_total": self.overlap_total,
            "overlap_union": self.overlap_union,
            "bound": self.bound,
            "bound_met": self.bound_met,
            "retries": self.retries,
            "nim_lower_bound": self.nim_lower_bound,
        }


def _permuted_edge_set(base: SimpleGraph, perm: list[int], n: int) -> frozenset[int]:
    out = set()
    for u, v in base.edges():
        a, b = perm[u], perm[v]
        if a > b:
            a, b = b, a
        out.add(edge_index(n, a, b))
    return frozenset(out)


def permuted_overlay_coloring(
    n: int,
    pattern: BipartitePattern,
    k: int,
    *,
    seed: int = 0,
    retry_cap: int = 64,
    cache: TuranCache | None = None,
) -> tuple[EdgeColoring, OverlayCertificate]:
    """Color K_n with k colors by overlaying k-1 permuted extremal graphs.

    Attempt t draws its permutations from a generator seeded by (seed, t),
    so runs are reproducible and attempts are independent.  An attempt is
    accepted as soon as its total pairwise overlap is at most the expected
    value ceil(C(k-1,2) * ex^2 / C(n,2)); otherwise the attempt with the
    smallest total wins after `retry_cap` tries.
    """
    if n < 1:
        raise InvalidInputError("invalid-size", f"n={n}")
    if k < 2:
        raise InvalidInputError("invalid-color-count", f"k={k}, need k >= 2")
    if retry_cap < 1:
        raise InvalidInputError("invalid-retry-cap", str(retry_cap))

    rec, base = _base_witness(n, pattern, cache, seed)
    ex = rec.value
    m = n * (n - 1) // 2
    copies = k - 1
    pair_count = copies * (copies - 1) // 2
    bound = 0 if m == 0 else -(-(pair_count * ex * ex) // m)

    best = None  # (overlap_total, attempt, perms, edge_sets)
    chosen = None
    for attempt in range(retry_cap):
        rng = random.Random(seed * 1_000_003 + attempt)
        perms = []
        for _ in range(copies):
            p = list(range(n))
            rng.shuffle(p)
            perms.append(p)
        sets = [_permuted_edge_set(base, p, n) for p in perms]
        total = 0
        for i in range(copies):
            for j in range(i + 1, copies):
                total += len(sets[i] & sets[j])
        if best is None or total < best[0]:
            best = (total, attempt, perms, sets)
        if total <= bound:
            chosen = (total, attempt, perms, sets)
            break

    bound_met = chosen is not None
    if chosen is None:
        chosen = best
    total, attempt, perms, sets = chosen
    retries = attempt if bound_met else retry_cap

    colors = [k] * m
    claimed = bytearray(m)
    for i, edges in enumerate(sets):
        for idx in edges:
            if not claimed[idx]:
                claimed[idx] = 1
                colors[idx] = i + 1
    coloring = EdgeColoring(n, k, colors)

    overlap_sizes = []
    union: set[int] = set()
    for i in range(copies):
        for j in range(i + 1, copies):
            inter = sets[i] & sets[j]
            overlap_sizes.append((i + 1, j + 1, len(inter)))
            union |= inter

    cert = OverlayCertificate(
        n=n,
        k=k,
        pattern_name=pattern.name,
        ex_value=ex,
        base_code=encode_graph6(base),
        permutations=tuple(tuple(p) for p in perms),
        overlap_sizes=tuple(overlap_sizes),
        overlap_union=len(union),
        bound=bound,
        bound_met=bound_met,
        retries=retries,
        nim_lower_bound=copies * ex - total,
    )
    return coloring, cert


def pentagon_three_coloring(n: int) -> EdgeColoring:
    """Five consecutive vertex blocks; block gaps 1 and 4 are red, gaps 2
    and 3 are blue, edges inside a block are green.

    Block sizes differ by at most one (the first n mod 5 blocks get the
    extra vertex).  Red and blue classes are blow-ups of a 5-cycle and
    therefore triangle-free, so for the triangle pattern only green edges
    can ever sit in a monochromatic copy.
    """
    if n < 5:
        raise InvalidInputError("invalid-size", f"n={n}, need n >= 5")
    q, r = divmod(n, 5)
    sizes = [q + 1] * r + [q] * (5 - r)
    block = []
    for b, s in enumerate(sizes):
        block.extend([b] * s)

    colors = []
    for u in range(n):
        for v in range(u + 1, n):
            d = (block[v] - block[u]) % 5
            if d == 0:
                colors.append(3)
            elif d in (1, 4):
                colors.append(1)
            else:
                colors.append(2)
    return EdgeColoring(n, 3, colors)
