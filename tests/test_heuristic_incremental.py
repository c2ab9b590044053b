"""The heuristic's incremental move scores against full rescans.

`f_heuristic` scores a single-edge recolor from per-class scans instead of
rescanning the two touched classes.  These tests check each such count
against a scan from scratch, and the whole report against a reference
loop that rescans both classes for every evaluated move.
"""

import json
import random

import pytest

import nimlab.turan as turan
from nimlab.constructions import (
    extremal_two_coloring,
    pentagon_three_coloring,
    permuted_overlay_coloring,
)
from nimlab.errors import RefusalError
from nimlab.graphs import edge_pairs
from nimlab.monoscan import EdgeColoring, _graph_nim
from nimlab.patterns import build_pattern
from nimlab.search import SearchReport, _ClassScan, f_heuristic
from nimlab.turan import clear_memo


def _reference_seeds(n, pattern, k, seed, cache):
    """The start states, built as construction-or-greedy fallbacks."""
    def greedy_graph():
        fp = pattern.graph_code.hex()
        return turan._greedy_lower_bound(n, pattern, fp, seed=seed).witness_graphs()[0]

    if k == 2:
        try:
            yield extremal_two_coloring(n, pattern, cache=cache)
        except RefusalError:
            yield EdgeColoring.from_graph(greedy_graph(), k=2)
    else:
        try:
            yield permuted_overlay_coloring(n, pattern, k, seed=seed, cache=cache)[0]
        except RefusalError:
            yield EdgeColoring.from_graph(greedy_graph(), k=k)
        if k == 3 and n >= 5:
            yield pentagon_three_coloring(n)
    rng = random.Random(seed)
    while True:
        yield EdgeColoring.random(n, k, seed=rng.randrange(2 ** 32))


def _class_nim_count(coloring, c, pattern):
    return len(_graph_nim(coloring.class_graph(c), pattern)[0])


def _reference_f_heuristic(n, pattern, k, budget, seed, cache=None):
    """Steepest-ascent recoloring that rescans both touched classes for
    every evaluated move."""
    pairs = edge_pairs(n)
    evals = 0
    best_score, best_coloring = -1, None
    seeds = _reference_seeds(n, pattern, k, seed, cache)
    while evals < budget:
        cur = next(seeds).copy()
        counts = [_class_nim_count(cur, c, pattern) for c in range(1, k + 1)]
        total = sum(counts)
        evals += 1
        if total > best_score:
            best_score, best_coloring = total, cur.copy()
        improving = True
        while improving and evals < budget:
            improving = False
            move = None
            for i, (u, v) in enumerate(pairs):
                old = cur.color_of(u, v)
                for c in range(1, k + 1):
                    if c == old:
                        continue
                    if evals >= budget:
                        break
                    cur.set_color(u, v, c)
                    a = _class_nim_count(cur, old, pattern)
                    b = _class_nim_count(cur, c, pattern)
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
                counts[old - 1], counts[c - 1] = a, b
                total += gain
                if total > best_score:
                    best_score, best_coloring = total, cur.copy()
                improving = True
    return SearchReport(
        n=n, k=k, pattern_name=pattern.name, value=best_score,
        colorings=(best_coloring,), mode="heuristic", nodes=evals,
        optima_complete=False, seed=seed, budget=budget,
    )


PATTERNS = ("c4", "k2,3", "c6", "theta2,3", "k3")


def _test_colorings(n, k, seed):
    """A uniform coloring and one whose color 1 is sparse, so that some
    classes keep NIM edges for a joining edge to cover."""
    rng = random.Random(seed)
    m = n * (n - 1) // 2
    uniform = [rng.randint(1, k) for _ in range(m)]
    sparse = [1 if rng.random() < 0.2 else rng.randint(2, k) for _ in range(m)]
    return [EdgeColoring(n, k, uniform), EdgeColoring(n, k, sparse)]


@pytest.mark.parametrize("name", PATTERNS)
@pytest.mark.parametrize("k", [2, 3])
def test_move_counts_match_full_rescans(name, k):
    pattern = build_pattern(name)
    for n in (5, 7, 10):
        for col in _test_colorings(n, k, seed=1000 * n + k):
            scans = [_ClassScan(col.class_graph(c), pattern) for c in range(1, k + 1)]
            for c in range(1, k + 1):
                assert scans[c - 1].nim == _graph_nim(col.class_graph(c), pattern)[0]
            for i, e in enumerate(edge_pairs(n)):
                old = col.colors[i]
                a = scans[old - 1].count_without(col.class_adj(old), e)
                for c in range(1, k + 1):
                    if c == old:
                        continue
                    b = scans[c - 1].count_with(col.class_adj(c), e)
                    moved = col.copy()
                    moved.set_color(*e, c)
                    assert a == _class_nim_count(moved, old, pattern), (n, e, old)
                    assert b == _class_nim_count(moved, c, pattern), (n, e, c)


@pytest.mark.parametrize("name", PATTERNS)
def test_witnesses_are_copies_through_their_edge(name):
    pattern = build_pattern(name)
    pedges = list(pattern.graph.edges())
    rng = random.Random(7)
    for n in (6, 8):
        for _ in range(3):
            g = EdgeColoring.random(n, 2, seed=rng.randrange(2 ** 32)).class_graph(1)
            nim, witness = _graph_nim(g, pattern)
            assert set(nim).isdisjoint(witness)
            assert sorted(nim + list(witness)) == list(g.edges())
            for f, img in witness.items():
                assert len(set(img)) == pattern.graph.n
                copy = {tuple(sorted((img[a], img[b]))) for a, b in pedges}
                assert f in copy
                assert all(g.has_edge(x, y) for x, y in copy)


GRID = [(name, n, k) for name in ("c4", "k2,3") for n in (4, 7, 9, 13) for k in (2, 3)]


@pytest.mark.parametrize("name,n,k", GRID)
def test_reports_match_the_full_rescan_reference(name, n, k):
    pattern = build_pattern(name)
    for budget in (1, 20, 300):
        for seed in (0, 3):
            clear_memo()
            got = f_heuristic(n, pattern, k, budget=budget, seed=seed).to_json()
            clear_memo()
            want = _reference_f_heuristic(n, pattern, k, budget, seed).to_json()
            assert json.dumps(got) == json.dumps(want), (name, n, k, budget, seed)


@pytest.mark.parametrize("k", [2, 3])
def test_one_greedy_run_per_heuristic_past_the_ceilings(monkeypatch, k):
    calls = []
    greedy = turan._greedy_lower_bound

    def counting(*args, **kwargs):
        calls.append(args[0])
        return greedy(*args, **kwargs)

    monkeypatch.setattr(turan, "_greedy_lower_bound", counting)
    clear_memo()
    rep = f_heuristic(13, build_pattern("c4"), k, budget=20, seed=5)
    assert calls == [13]
    assert rep.nodes == 20
