import json

import pytest

from nimlab.errors import InvalidInputError
from nimlab.graphs import SimpleGraph
from nimlab.monoscan import contains_copy
from nimlab.patterns import (
    BipartitePattern,
    build_pattern,
    detect_biclique,
    detect_star,
    parse_pattern,
)

from conftest import isomorphic_brute


def test_family_names():
    c4 = build_pattern("c4")
    assert c4.h == 4 and c4.num_edges == 4 and c4.bipartite
    k3 = build_pattern("k3")
    assert k3.h == 3 and not k3.bipartite
    k23 = build_pattern("k2,3")
    assert k23.h == 5 and k23.num_edges == 6
    th = build_pattern("theta2,2")
    assert isomorphic_brute(th.graph, SimpleGraph.cycle(4))
    assert build_pattern("K_2,3").name == build_pattern("k2,3").name


def test_unknown_name():
    with pytest.raises(InvalidInputError):
        build_pattern("w5")


def test_odd_cycle_rejected():
    with pytest.raises(InvalidInputError):
        build_pattern("c5")


def test_sides_must_partition_and_cross():
    g = SimpleGraph.cycle(4)
    with pytest.raises(InvalidInputError):
        BipartitePattern("bad", g, (0, 1), (2, 3), None, True)
    with pytest.raises(InvalidInputError):
        BipartitePattern("bad", g, (0, 2), (1,), None, True)


def test_weak_vertex_must_sit_in_x():
    g = SimpleGraph.cycle(4)
    with pytest.raises(InvalidInputError):
        BipartitePattern("bad", g, (0, 2), (1, 3), 1, True)


def test_reduced_c4_is_centered_path():
    rp = build_pattern("c4").reduced()
    assert rp.h == 3 and rp.num_edges == 2
    assert rp.X == (1,) and rp.Y == (0, 2)
    assert rp.graph.degree(1) == 2
    assert rp.weak is None


def test_reduced_biclique():
    rp = build_pattern("k2,3").reduced()
    assert detect_star(rp.graph) == 3
    assert len(rp.X) == 1 and len(rp.Y) == 3


def test_reduced_without_weak_vertex_raises():
    rp = build_pattern("c4").reduced()
    for _ in range(2):
        with pytest.raises(InvalidInputError) as exc:
            rp.reduced()
        assert exc.value.reason == "no-weak-vertex"


def test_reduced_is_built_once():
    p = build_pattern("k2,3")
    assert p.reduced() is p.reduced()


def test_reducible_flag():
    assert build_pattern("c4").reducible
    assert build_pattern("k2,3").reducible
    assert not build_pattern("k3").reducible


def test_fingerprints_separate_orientations():
    # K_{1,2} with the center in X vs the center in Y
    g = SimpleGraph.path(3)
    centered = BipartitePattern("a", g, (1,), (0, 2), None, True)
    leaves = BipartitePattern("b", g, (0, 2), (1,), None, True)
    assert centered.graph_code == leaves.graph_code
    assert centered.oriented_fingerprint != leaves.oriented_fingerprint


def test_descriptor_parsing():
    doc = {"n": 4, "edges": [[0, 1], [1, 2], [2, 3], [3, 0]], "X": [0, 2], "Y": [1, 3], "weak": 0}
    p = parse_pattern(json.dumps(doc))
    assert isomorphic_brute(p.graph, SimpleGraph.cycle(4))
    assert p.weak == 0
    assert parse_pattern(doc).h == 4
    assert parse_pattern(p) is p
    with pytest.raises(InvalidInputError):
        parse_pattern("{not json")
    with pytest.raises(InvalidInputError):
        parse_pattern(json.dumps({"n": 3}))


def test_descriptor_compact_edge_forms():
    # an edge may be two digits: the int 12, or a string with "-" or ","
    p = parse_pattern('{"n": 4, "edges": [12, "0-1", "2,3", "03"]}')
    assert sorted(p.graph.edges()) == [(0, 1), (0, 3), (1, 2), (2, 3)]
    assert p.name == "custom4"


def test_detectors():
    assert detect_star(SimpleGraph.from_edges(4, [(0, 1), (0, 2), (0, 3)])) == 3
    assert detect_star(SimpleGraph.cycle(4)) is None
    assert detect_biclique(SimpleGraph.cycle(4)) == (2, 2)
    assert detect_biclique(SimpleGraph.complete_bipartite(3, 5)) == (3, 5)
    assert detect_biclique(SimpleGraph.path(4)) is None
    assert detect_biclique(SimpleGraph.complete(3)) is None


def test_contains_copy_basic(k3, c4):
    assert contains_copy(SimpleGraph.complete(4), k3)
    assert not contains_copy(SimpleGraph.complete_bipartite(3, 3), k3)
    assert contains_copy(SimpleGraph.complete_bipartite(2, 2), c4)
    assert not contains_copy(SimpleGraph.path(5), c4)


def test_contains_copy_matches_oracle(c4, k23):
    import random

    from conftest import oracle_is_free

    rng = random.Random(77)
    for pat in (c4, k23, *map(build_pattern, ("k3", "c6", "k2,4", "k3,3"))):
        for _ in range(40):
            n = rng.randrange(1, 8)
            rows = [0] * n
            for u in range(n):
                for v in range(u + 1, n):
                    if rng.random() < 0.5:
                        rows[u] |= 1 << v
                        rows[v] |= 1 << u
            g = SimpleGraph(n, tuple(rows))
            assert contains_copy(g, pat) == (not oracle_is_free(g, pat))


def test_contains_copy_respects_allowed_cells():
    # an oriented path must put its center on the chosen side
    g = SimpleGraph.path(3)
    rp = BipartitePattern("r", g, (1,), (0, 2), None, True)
    host = SimpleGraph.from_edges(4, [(2, 0), (2, 1)])  # center is vertex 2
    allowed_center_low = [0b0011, 0b1100, 0b1100]
    # pattern vertex 1 (the center) restricted to host vertices {2,3}
    allowed = [0] * 3
    allowed[1] = 0b1100
    allowed[0] = 0b0011
    allowed[2] = 0b0011
    assert contains_copy(host, rp, allowed=allowed)
    flipped = [0] * 3
    flipped[1] = 0b0011
    flipped[0] = 0b1100
    flipped[2] = 0b1100
    assert not contains_copy(host, rp, allowed=flipped)


def test_theta_pattern_shape():
    th = build_pattern("theta3,2")
    # three length-2 paths between two hubs: that is K_{2,3}
    assert isomorphic_brute(th.graph, SimpleGraph.complete_bipartite(2, 3))
    th2 = build_pattern("theta2,3")
    assert isomorphic_brute(th2.graph, SimpleGraph.cycle(6))


def test_parse_pattern_memoizes_text():
    desc = json.dumps({"n": 4, "edges": [[0, 1], [1, 2], [2, 3], [3, 0]],
                       "X": [0, 2], "Y": [1, 3], "weak": 0})
    assert parse_pattern("c4") is parse_pattern("c4")
    assert parse_pattern(desc) is parse_pattern(desc)
    assert parse_pattern("c4") is not parse_pattern(" c4")
    assert parse_pattern("c4") is not parse_pattern("c6")
    # dict sources are parsed afresh, as before
    assert parse_pattern(json.loads(desc)) is not parse_pattern(json.loads(desc))


def test_parse_pattern_bad_text_raises_on_every_call():
    for bad in ("c5", "{not json", json.dumps({"n": 3})):
        for _ in range(2):
            with pytest.raises(InvalidInputError):
                parse_pattern(bad)


def test_graph_code_and_generators_share_one_canonical_form(monkeypatch):
    import nimlab.patterns as patterns

    calls = []
    canonical_form = patterns.canonical_form

    def counting(g, *args, **kwargs):
        calls.append(g)
        return canonical_form(g, *args, **kwargs)

    monkeypatch.setattr(patterns, "canonical_form", counting)
    p = build_pattern("k2,3")
    p.graph_code, p.aut_generators, p.pin_plans, p.free_plan
    assert len(calls) == 1
