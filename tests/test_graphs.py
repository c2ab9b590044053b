import itertools
import random

import networkx as nx
import pytest

from nimlab.errors import InvalidInputError
from nimlab.graphs import (
    SimpleGraph,
    bits_to_list,
    decode_graph6,
    edge_index,
    edge_pairs,
    encode_graph6,
)

from conftest import isomorphic_brute


def test_edge_index_order():
    n = 7
    for idx, (u, v) in enumerate(edge_pairs(n)):
        assert edge_index(n, u, v) == idx
        assert edge_index(n, v, u) == idx


def test_edge_index_rejects_loops_and_range():
    with pytest.raises(InvalidInputError):
        edge_index(5, 2, 2)
    with pytest.raises(InvalidInputError):
        edge_index(5, 0, 5)


def test_from_edges_and_edges_roundtrip():
    edges = [(0, 3), (1, 2), (2, 4)]
    g = SimpleGraph.from_edges(5, edges)
    assert sorted(g.edges()) == sorted(edges)
    assert g.num_edges == 3
    assert g.degrees() == (1, 1, 2, 1, 1)


def test_constructors():
    assert SimpleGraph.complete(4).num_edges == 6
    assert SimpleGraph.cycle(5).degrees() == (2,) * 5
    assert SimpleGraph.path(4).num_edges == 3
    kb = SimpleGraph.complete_bipartite(2, 3)
    assert kb.num_edges == 6
    assert sorted(kb.degrees()) == [2, 2, 2, 3, 3]
    assert not any(kb.has_edge(u, v) for u, v in itertools.combinations(range(2), 2))


def test_complement_involution():
    rng = random.Random(11)
    for _ in range(20):
        n = rng.randrange(1, 9)
        g = _random_graph(rng, n)
        assert g.complement().complement() == g
        assert g.num_edges + g.complement().num_edges == n * (n - 1) // 2


def test_relabel_preserves_structure():
    rng = random.Random(5)
    for _ in range(20):
        n = rng.randrange(2, 9)
        g = _random_graph(rng, n)
        perm = list(range(n))
        rng.shuffle(perm)
        h = g.relabel(perm)
        assert h.num_edges == g.num_edges
        for u, v in g.edges():
            assert h.has_edge(perm[u], perm[v])


def test_induced_and_delete_vertex():
    g = SimpleGraph.cycle(5)
    h = g.delete_vertex(2)
    assert h.n == 4
    assert h.num_edges == 3
    tri = SimpleGraph.complete(5).induced([1, 3, 4])
    assert tri == SimpleGraph.complete(3)


def test_add_vertex():
    g = SimpleGraph.path(3)
    h = g.add_vertex(0b101)
    assert h.n == 4
    assert h.has_edge(3, 0) and h.has_edge(3, 2) and not h.has_edge(3, 1)


def test_bits_to_list():
    assert bits_to_list(0) == []
    assert bits_to_list(0b10110) == [1, 2, 4]


def _random_graph(rng, n):
    rows = [0] * n
    for u, v in edge_pairs(n):
        if rng.random() < 0.5:
            rows[u] |= 1 << v
            rows[v] |= 1 << u
    return SimpleGraph(n, tuple(rows))


def test_graph6_roundtrip_random():
    rng = random.Random(3)
    for _ in range(60):
        n = rng.randrange(0, 14)
        g = _random_graph(rng, n)
        assert decode_graph6(encode_graph6(g)) == g


def test_graph6_against_networkx():
    rng = random.Random(9)
    for _ in range(40):
        n = rng.randrange(1, 12)
        g = _random_graph(rng, n)
        ours = encode_graph6(g)
        ng = nx.Graph()
        ng.add_nodes_from(range(n))
        ng.add_edges_from(g.edges())
        theirs = nx.to_graph6_bytes(ng, header=False).decode().strip()
        assert ours == theirs
        back = nx.from_graph6_bytes(ours.encode())
        assert set(back.edges()) == {tuple(e) for e in g.edges()}


def test_graph6_large_order_prefix():
    g = SimpleGraph.empty(63)
    text = encode_graph6(g)
    assert text.startswith("~")
    assert decode_graph6(text) == g


def test_graph6_rejects_garbage():
    with pytest.raises(InvalidInputError):
        decode_graph6("")
    with pytest.raises(InvalidInputError):
        decode_graph6("D\x05")
    with pytest.raises(InvalidInputError):
        decode_graph6("Dq")
    with pytest.raises(InvalidInputError):
        decode_graph6("Dqqq")


def test_isomorphic_brute_sanity():
    assert isomorphic_brute(SimpleGraph.cycle(4), SimpleGraph.complete_bipartite(2, 2))
    assert not isomorphic_brute(SimpleGraph.cycle(5), SimpleGraph.path(5))
