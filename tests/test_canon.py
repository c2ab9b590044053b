import itertools
import random

import pytest

from nimlab.canon import (
    CanonicalCode,
    canonical_code,
    canonical_form,
    canonical_graph,
    enumerate_graphs,
    graph_from_code,
)
from nimlab.errors import InvalidInputError
from nimlab.patterns import build_pattern
from nimlab.turan import _pattern_free_predicate
from nimlab.graphs import SimpleGraph, edge_pairs

from conftest import (
    automorphisms_brute,
    isomorphic_brute,
    oracle_enumerate_graphs,
    orbits_brute,
)


def _random_graph(rng, n):
    rows = [0] * n
    for u, v in edge_pairs(n):
        if rng.random() < 0.5:
            rows[u] |= 1 << v
            rows[v] |= 1 << u
    return SimpleGraph(n, tuple(rows))


def test_code_equal_iff_isomorphic_exhaustive_n4():
    graphs = []
    for bits in range(1 << 6):
        rows = [0] * 4
        for idx, (u, v) in enumerate(edge_pairs(4)):
            if (bits >> idx) & 1:
                rows[u] |= 1 << v
                rows[v] |= 1 << u
        graphs.append(SimpleGraph(4, tuple(rows)))
    for g in graphs:
        for h in graphs:
            assert (canonical_code(g) == canonical_code(h)) == isomorphic_brute(g, h)


def test_code_invariant_under_relabeling():
    rng = random.Random(17)
    for _ in range(60):
        n = rng.randrange(1, 8)
        g = _random_graph(rng, n)
        perm = list(range(n))
        rng.shuffle(perm)
        assert canonical_code(g) == canonical_code(g.relabel(perm))


def test_code_separates_nonisomorphic():
    rng = random.Random(23)
    for _ in range(40):
        n = rng.randrange(2, 7)
        g, h = _random_graph(rng, n), _random_graph(rng, n)
        assert (canonical_code(g) == canonical_code(h)) == isomorphic_brute(g, h)


def test_canonical_graph_is_isomorphic_representative():
    rng = random.Random(31)
    for _ in range(30):
        g = _random_graph(rng, rng.randrange(1, 8))
        cg = canonical_graph(g)
        assert isomorphic_brute(g, cg)
        assert canonical_graph(cg) == cg


def test_labeling_maps_onto_representative():
    rng = random.Random(37)
    for _ in range(30):
        g = _random_graph(rng, rng.randrange(1, 8))
        res = canonical_form(g)
        assert g.relabel(res.labeling) == graph_from_code(res.code)


def test_orbits_match_brute_force():
    rng = random.Random(41)
    for _ in range(30):
        g = _random_graph(rng, rng.randrange(1, 7))
        assert list(canonical_form(g).orbits) == orbits_brute(g)


def test_generators_are_automorphisms_and_generate_group():
    rng = random.Random(43)
    for _ in range(20):
        g = _random_graph(rng, rng.randrange(1, 7))
        res = canonical_form(g)
        for p in res.generators:
            assert g.relabel(p).adj == g.adj
        # closure of the generators has the size of the full group
        full = set(automorphisms_brute(g))
        gen = {tuple(range(g.n))} | set(res.generators)
        frontier = list(gen)
        while frontier:
            p = frontier.pop()
            for q in list(gen):
                for comp in (tuple(p[q[i]] for i in range(g.n)), tuple(q[p[i]] for i in range(g.n))):
                    if comp not in gen:
                        gen.add(comp)
                        frontier.append(comp)
        assert gen == full


def test_cells_restrict_isomorphism():
    # a path colored by sides: the two ends are equivalent without cells,
    # inequivalent when pinned to different cells
    g = SimpleGraph.path(3)
    plain = canonical_form(g)
    assert plain.orbits[0] == plain.orbits[2]
    pinned = canonical_form(g, cells=[[0], [1, 2]])
    assert pinned.orbits[0] != pinned.orbits[2]
    with pytest.raises(InvalidInputError):
        canonical_form(g, cells=[[0, 0], [1, 2]])


def test_code_comparable_and_hashable():
    a = canonical_code(SimpleGraph.cycle(4))
    b = canonical_code(SimpleGraph.path(4))
    assert a != b
    assert (a < b) != (b < a)
    assert len({a, b, canonical_code(SimpleGraph.complete_bipartite(2, 2))}) == 2


def test_enumerate_counts():
    # classic counts of graphs up to isomorphism
    expected = {0: 1, 1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156, 7: 1044}
    for n, want in expected.items():
        assert sum(1 for _ in enumerate_graphs(n)) == want


def test_enumerate_yields_distinct_canonical_representatives():
    seen = set()
    for g in enumerate_graphs(5):
        code = canonical_code(g)
        assert code not in seen
        seen.add(code)


def _tri_free(g, v):
    row = g.adj[v]
    return all(
        not (g.adj[u] & row & ~(1 << u) & ~(1 << v))
        for u in range(v)
        if (row >> u) & 1
    )


def test_enumerate_with_predicate_prunes_hereditarily():
    # triangle-free count on 5 vertices is 14
    got = sum(1 for _ in enumerate_graphs(5, predicate=_tri_free))
    assert got == 14


@pytest.mark.parametrize("which", ["none", "triangle-free", "c4-free"])
def test_enumerate_matches_unpruned_augmentation(which):
    # skipping masks that a parent automorphism maps lower must not change
    # which labeled graphs come out, nor their order
    predicate = {
        "none": None,
        "triangle-free": _tri_free,
        "c4-free": _pattern_free_predicate(build_pattern("c4")),
    }[which]
    for n in range(1, 8):
        got = [(g.n, g.adj) for g in enumerate_graphs(n, predicate=predicate)]
        want = [(g.n, g.adj) for g in oracle_enumerate_graphs(n, predicate)]
        assert got == want


def test_enumerate_labeled_predicate_can_lose_classes():
    # a predicate must judge alike two children that an isomorphism fixing
    # z maps onto each other.  "z avoids vertex 0" does not: on the parent
    # 2K_1 it rejects mask {0}, and mask {1}, in the same orbit, is skipped,
    # so K_2 + K_1 is never built.  The unpruned augmentation tries mask {1}.
    def avoids_zero(g, z):
        return not g.adj[z] & 1

    got = [(g.n, g.adj) for g in enumerate_graphs(3, predicate=avoids_zero)]
    want = [(g.n, g.adj) for g in oracle_enumerate_graphs(3, avoids_zero)]
    assert got == [(3, (0, 0, 0))]
    assert want == [(3, (0, 0, 0)), (3, (0, 4, 2))]


def test_enumerate_rejects_bad_order():
    with pytest.raises(InvalidInputError):
        list(enumerate_graphs(-1))
    with pytest.raises(Exception):
        list(enumerate_graphs(99))
