import io
import itertools
import random

import pytest

from conftest import oracle_is_free, oracle_nim_flags
from nimlab.errors import InvalidInputError
from nimlab.graphs import SimpleGraph, edge_pairs
from nimlab.monoscan import (
    EdgeColoring,
    enumerate_mono_copies,
    is_h_free,
    mono_copy_exists,
    nim_edges,
)
from nimlab.patterns import build_pattern


def test_coloring_validation():
    with pytest.raises(InvalidInputError):
        EdgeColoring(0, 2, [])
    with pytest.raises(InvalidInputError):
        EdgeColoring(3, 1, [1, 1, 1])
    with pytest.raises(InvalidInputError):
        EdgeColoring(3, 2, [1, 1])
    with pytest.raises(InvalidInputError):
        EdgeColoring(3, 2, [1, 1, 3])


def test_text_roundtrip(tmp_path):
    col = EdgeColoring.random(6, 3, seed=4)
    path = tmp_path / "c.col"
    col.write(path)
    back = EdgeColoring.read(path)
    assert back == col
    assert EdgeColoring.parse(col.to_text()) == col


def test_parse_rejects_malformed():
    with pytest.raises(InvalidInputError):
        EdgeColoring.parse("5")
    with pytest.raises(InvalidInputError):
        EdgeColoring.parse("3 2\n1 x 2\n")


def test_set_color_keeps_rows_consistent():
    col = EdgeColoring.random(7, 3, seed=1)
    rng = random.Random(2)
    for _ in range(50):
        u, v = rng.sample(range(7), 2)
        c = rng.randint(1, 3)
        col.set_color(u, v, c)
        assert col.color_of(u, v) == c
    rebuilt = EdgeColoring(7, 3, col.colors)
    for c in (1, 2, 3):
        assert rebuilt.class_graph(c) == col.class_graph(c)


def test_from_graph_classes():
    g = SimpleGraph.cycle(5)
    col = EdgeColoring.from_graph(g, k=2)
    assert col.class_graph(1) == g
    assert col.class_graph(2) == g.complement()
    assert col.class_sizes() == [5, 5]


def test_nim_matches_oracle_small_random():
    rng = random.Random(101)
    pats = [build_pattern(s) for s in ("k3", "c4", "k2,3", "k2,4", "k3,3")]
    for _ in range(120):
        n = rng.randrange(2, 8)
        k = rng.randint(2, 3)
        col = EdgeColoring.random(n, k, seed=rng.randrange(2**32))
        for pat in pats:
            rep = nim_edges(col, pat)
            assert list(rep.flags) == oracle_nim_flags(col, pat), (n, k, pat.name)


def test_mono_copy_exists_matches_oracle():
    rng = random.Random(103)
    pats = [build_pattern(s) for s in ("k3", "c4", "k2,3")]
    for _ in range(30):
        n = rng.randrange(2, 8)
        col = EdgeColoring.random(n, rng.randint(2, 3), seed=rng.randrange(2**32))
        for pat in pats:
            flags = oracle_nim_flags(col, pat)
            for (u, v), nim in zip(edge_pairs(n), flags):
                assert mono_copy_exists(col, pat, u, v) is (not nim)
                assert mono_copy_exists(col, pat, v, u) is (not nim)


def test_nim_count_and_edges_consistent(c4):
    col = EdgeColoring.random(9, 2, seed=8)
    rep = nim_edges(col, c4)
    assert rep.count == sum(rep.flags)
    assert len(rep.edges()) == rep.count
    assert sum(rep.by_color().values()) == rep.count
    for u, v in rep.edges():
        assert rep.flags[[*edge_pairs(col.n)].index((u, v))]


def test_nim_invariant_under_vertex_relabeling(c4):
    rng = random.Random(55)
    for _ in range(20):
        n = rng.randrange(4, 9)
        col = EdgeColoring.random(n, 2, seed=rng.randrange(2**32))
        perm = list(range(n))
        rng.shuffle(perm)
        from nimlab.graphs import edge_index

        colors = [1] * (n * (n - 1) // 2)
        for idx, (u, v) in enumerate(edge_pairs(n)):
            colors[edge_index(n, perm[u], perm[v])] = col.colors[idx]
        moved = EdgeColoring(n, 2, colors)
        assert nim_edges(col, c4).count == nim_edges(moved, c4).count


def test_nim_invariant_under_color_swap(c4):
    rng = random.Random(56)
    for _ in range(20):
        n = rng.randrange(4, 9)
        col = EdgeColoring.random(n, 2, seed=rng.randrange(2**32))
        swapped = EdgeColoring(n, 2, [3 - c for c in col.colors])
        assert nim_edges(col, c4).count == nim_edges(swapped, c4).count


def test_nim_class_graphs_are_pattern_free(k3, c4):
    # the per-color NIM edges always form a pattern-free graph
    rng = random.Random(77)
    for pat in (k3, c4):
        for _ in range(40):
            n = rng.randrange(3, 10)
            col = EdgeColoring.random(n, rng.randint(2, 3), seed=rng.randrange(2**32))
            rep = nim_edges(col, pat)
            by_class = []
            for c in range(1, col.k + 1):
                g = rep.color_class_nim_graph(c)
                assert is_h_free(g, pat)
                assert oracle_is_free(g, pat)
                by_class += [(e, c) for e in g.edges()]
            # the class graphs split the NIM edges by color
            assert sorted(by_class) == [(e, col.colors[i]) for i, e in enumerate(edge_pairs(n))
                                        if rep.flags[i]]


def test_pattern_larger_than_host_means_all_nim(c4):
    col = EdgeColoring.random(3, 2, seed=0)
    rep = nim_edges(col, c4)
    assert rep.count == 3


def test_is_h_free_matches_oracle():
    rng = random.Random(91)
    pats = [build_pattern(s) for s in ("k3", "c4", "k2,3", "c6", "k2,4", "k3,3")]
    for _ in range(60):
        n = rng.randrange(1, 8)
        rows = [0] * n
        for u, v in edge_pairs(n):
            if rng.random() < 0.6:
                rows[u] |= 1 << v
                rows[v] |= 1 << u
        g = SimpleGraph(n, tuple(rows))
        for pat in pats:
            assert is_h_free(g, pat) == oracle_is_free(g, pat)


def test_enumerate_mono_copies_counts(k3):
    # all-red K4 holds four triangles
    col = EdgeColoring(4, 2, [1] * 6)
    copies = list(enumerate_mono_copies(col, k3))
    assert len(copies) == 4
    col2 = EdgeColoring.from_graph(SimpleGraph.cycle(5), k=2)
    assert list(enumerate_mono_copies(col2, k3)) == []


def test_enumerate_mono_copies_respects_color_filter(k3):
    col = EdgeColoring(4, 2, [1, 1, 2, 1, 2, 2])
    # triangle 0-1-2? edges (0,1)=1 (0,2)=1 (1,2)=1 -> red triangle
    reds = list(enumerate_mono_copies(col, k3, color=1))
    blues = list(enumerate_mono_copies(col, k3, color=2))
    assert len(reds) + len(blues) == len(list(enumerate_mono_copies(col, k3)))


def test_nim_report_json(c4):
    col = EdgeColoring.random(6, 2, seed=5)
    doc = nim_edges(col, c4).to_json()
    assert doc["n"] == 6 and doc["k"] == 2 and doc["pattern"] == "c4"
    assert doc["nim_count"] == len(doc["nim_edges"])
    assert set(doc["by_color"]) <= {"1", "2"}
