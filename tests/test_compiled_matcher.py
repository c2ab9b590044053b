"""The compiled matcher against the recursive reference search in conftest.

Every pattern's plans are compiled into one search function
(`monoscan._extend`); it must find the same copy as the reference, by
the same search, on every host.
"""

import json
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import (
    oracle_is_free,
    oracle_nim_flags,
    reference_contains_copy,
    reference_copy_through,
)
from nimlab import monoscan
from nimlab.graphs import SimpleGraph
from nimlab.monoscan import EdgeColoring, _copy_through, contains_copy, nim_edges
from nimlab.patterns import build_pattern, parse_pattern

FAMILIES = ("k2", "k3", "k4", "c4", "c6", "c8", "k1,2", "k1,3", "k2,2", "k2,3",
            "k2,4", "k3,3", "theta2,3", "theta3,3", "theta2,4")


def _patterns():
    out = []
    for name in FAMILIES:
        p = build_pattern(name)
        out.append(p)
        if p.weak is not None:
            out.append(p.reduced())
    # isolated vertices: one on the Y side, and two twins with no side
    out.append(parse_pattern(json.dumps(
        {"n": 5, "edges": [[0, 1], [1, 2], [2, 3]], "X": [0, 2, 4], "Y": [1, 3]})))
    out.append(parse_pattern(json.dumps({"n": 5, "edges": [[0, 1], [1, 2], [0, 2]]})))
    return out


PATTERNS = _patterns()


def _host(n: int, bits: int) -> SimpleGraph:
    rows = [0] * n
    for i, (u, v) in enumerate((u, v) for v in range(n) for u in range(v)):
        if bits >> i & 1:
            rows[u] |= 1 << v
            rows[v] |= 1 << u
    return SimpleGraph(n, tuple(rows))


def _twin_classes(pattern):
    """Pattern vertices with one neighborhood and one side; the matcher
    needs one allowed mask per class."""
    classes: dict[tuple[int, bool], list[int]] = {}
    for v in range(pattern.h):
        classes.setdefault((pattern.graph.adj[v], v in pattern.X), []).append(v)
    return list(classes.values())


hosts = st.integers(1, 10).flatmap(
    lambda n: st.tuples(st.just(n), st.integers(0, (1 << n * (n - 1) // 2) - 1)))


@settings(max_examples=300, deadline=None)
@given(pattern=st.sampled_from(PATTERNS), host=hosts)
@example(pattern=build_pattern("k3,3"), host=(4, 63))  # a host smaller than the pattern
@example(pattern=build_pattern("k2"), host=(3, 5))
def test_compiled_copy_through_matches_reference(pattern, host):
    g = _host(*host)
    for u, v in g.edges():
        for a, b in ((u, v), (v, u)):
            want = reference_copy_through(g.adj, pattern, a, b)
            assert _copy_through(g.adj, pattern, a, b) == want
            assert _copy_through(list(g.adj), pattern, a, b) == want


@settings(max_examples=300, deadline=None)
@given(pattern=st.sampled_from(PATTERNS), host=hosts,
       masks=st.lists(st.integers(0, 1023), min_size=8, max_size=8))
@example(pattern=build_pattern("k3,3"), host=(4, 63), masks=[15] * 8)
def test_compiled_contains_copy_matches_reference(pattern, host, masks):
    g = _host(*host)
    want = reference_contains_copy(g, pattern)
    assert pattern.free_search(g.adj, (-1,) * pattern.h) == want
    assert contains_copy(g, pattern) == (want is not None)
    allowed = [0] * pattern.h
    for cls, mask in zip(_twin_classes(pattern), masks):
        for v in cls:
            allowed[v] = mask & ((1 << g.n) - 1)
    want = reference_contains_copy(g, pattern, allowed)
    assert pattern.free_search(g.adj, allowed) == want
    assert contains_copy(g, pattern, allowed=allowed) == (want is not None)


class _CountingRows(list):
    """A host adjacency that counts the rows the search reads."""

    reads = 0

    def __getitem__(self, i):
        self.reads += 1
        return list.__getitem__(self, i)


def _rows_read(plan, placed, start):
    """Rows the compiled search reads for the placements in `placed`: one
    per vertex placed at a position that a later position needs."""
    needed = {p for ps in plan.preds[start:] for p in ps}
    return sum(placed[pos] for pos in needed if pos >= start)


@pytest.mark.parametrize("name", ["c4", "k2,3", "k2,4", "k3,3", "theta3,3", "c6"])
def test_compiled_search_places_what_the_reference_places(name):
    # the same depth-first search: each placement the reference makes at a
    # position whose row a later position needs is one row read, so a
    # search that drops the twin order or the lowest-first order reads more
    pattern = build_pattern(name)
    plans = pattern.pin_plans
    pinned_reads = sum(1 for i in (0, 1) if any(i in ps for pl in plans for ps in pl.preds[2:]))
    rng = random.Random(5)
    for _ in range(12):
        g = _host(9, rng.getrandbits(36))
        for u, v in g.edges():
            placed = [[0] * pattern.h for _ in plans]
            want = reference_copy_through(g.adj, pattern, u, v, placed)
            rows = _CountingRows(g.adj)
            assert _copy_through(rows, pattern, u, v) == want
            expect = pinned_reads + sum(
                _rows_read(plan, counts, 2) for plan, counts in zip(plans, placed))
            assert rows.reads == expect
        placed = [0] * pattern.h
        want = reference_contains_copy(g, pattern, placed=placed)
        rows = _CountingRows(g.adj)
        assert pattern.free_search(rows, (-1,) * pattern.h) == want
        assert rows.reads == _rows_read(pattern.free_plan, placed, 0)


@pytest.mark.parametrize("name,hosts", [
    ("c20", [SimpleGraph.cycle(20), SimpleGraph.cycle(21), SimpleGraph.path(22)]),
    ("k2,18", [SimpleGraph.complete_bipartite(2, 18), SimpleGraph.complete_bipartite(3, 19),
               SimpleGraph.complete_bipartite(1, 25)]),
    ("k1,40", [SimpleGraph.complete_bipartite(1, 40), SimpleGraph.complete_bipartite(1, 41)]),
])
def test_deep_patterns_continue_in_helper_functions(name, hosts):
    # more positions than one function may nest loops for; the hosts keep
    # failing searches short, as twins on too few vertices take
    # exponential time in both searches
    pattern = build_pattern(name)
    for g in hosts:
        assert contains_copy(g, pattern) == (reference_contains_copy(g, pattern) is not None)
        for u, v in g.edges():
            assert (_copy_through(g.adj, pattern, u, v)
                    == reference_copy_through(g.adj, pattern, u, v))


def test_descriptor_names_never_reach_the_compiled_source():
    name = 'a"b\'c\n"""\nraise SystemExit\n'
    desc = {"name": name, "n": 4, "edges": [[0, 1], [1, 2], [2, 3], [3, 0]],
            "X": [0, 2], "Y": [1, 3], "weak": 0}
    pattern = parse_pattern(json.dumps(desc))
    assert pattern.name == name
    col = EdgeColoring.random(6, 2, seed=3)
    assert list(nim_edges(col, pattern).flags) == oracle_nim_flags(col, pattern)
    for g in (SimpleGraph.cycle(4), SimpleGraph.path(5)):
        assert contains_copy(g, pattern) == (not oracle_is_free(g, pattern))


def test_searches_are_compiled_once_per_pattern(monkeypatch):
    calls = []
    extend = monoscan._extend

    def counting(*args, **kwargs):
        calls.append(args)
        return extend(*args, **kwargs)

    monkeypatch.setattr(monoscan, "_extend", counting)
    pattern = parse_pattern({"n": 3, "edges": [[0, 1], [1, 2]]})  # parsed afresh
    g = SimpleGraph.complete(4)
    for _ in range(3):
        assert _copy_through(g.adj, pattern, 0, 1)
        assert contains_copy(g, pattern)
    assert len(calls) == 2
