import itertools
import random
from math import comb

import pytest

from nimlab import canon
from nimlab.canon import (
    CanonicalCode,
    _accept,
    _orbit_minima,
    canonical_code,
    canonical_form,
    canonical_graph,
    enumerate_graphs,
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


def _graph_from_code(code: CanonicalCode) -> SimpleGraph:
    """Rebuild the representative graph stored in a canonical code."""
    data = code.data
    n = data[0]
    ncells = data[1]
    bits = data[2 + ncells :]
    rows = [0] * n
    idx = 0
    for p in range(n):
        for q in range(p + 1, n):
            if bits[idx >> 3] & (0x80 >> (idx & 7)):
                rows[p] |= 1 << q
                rows[q] |= 1 << p
            idx += 1
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
        assert g.relabel(res.labeling) == _graph_from_code(res.code)


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


def test_enumerate_capped_n8_matches_oeis_a008406():
    # graphs on 8 vertices by edge count, OEIS A008406 row 8, m = 0..14;
    # the cap makes the last level accept most children without a
    # canonical form, so the codes are checked apart
    want = [1, 1, 2, 5, 11, 24, 56, 115, 221, 402, 663, 980, 1312, 1557, 1646]
    graphs = list(enumerate_graphs(8, max_edges=lambda v: 14))
    hist = [0] * 15
    for g in graphs:
        hist[g.num_edges] += 1
    assert hist == want
    assert len(graphs) == sum(want) == 6996
    assert len({canonical_code(g) for g in graphs}) == 6996


def test_edge_window_skips_building_children_over_the_cap(monkeypatch):
    # of the 19,690 children the predicate-capped n = 8 sweep builds,
    # 7,858 have more than 14 edges; the window never builds them
    built = [0]
    add_vertex = SimpleGraph.add_vertex

    def counting(self, mask):
        built[0] += 1
        return add_vertex(self, mask)

    monkeypatch.setattr(SimpleGraph, "add_vertex", counting)
    assert sum(1 for _ in enumerate_graphs(8, max_edges=lambda v: 14)) == 6996
    assert built[0] == 11832


# ex(v, C4) for v = 0..8, OEIS A006855
EX_C4 = (0, 0, 1, 3, 4, 6, 7, 9, 11)


def _c4_descent_floors(v):
    """The edge floors `turan._enum_ex` tries for C4 on v vertices, from
    the averaging bound down to two levels under ex(v, C4)."""
    top = comb(v, 2) if v == 2 else min(comb(v, 2), v * EX_C4[v - 1] // (v - 2))
    for value in range(top, max(EX_C4[v] - 2, 0) - 1, -1):
        floor = {v: value}
        for u in range(v, 1, -1):
            floor[u - 1] = floor[u] - 2 * floor[u] // u
        yield floor


@pytest.mark.parametrize("cap", ["k=2", "k=3", "c4 descent"])
def test_edge_window_matches_predicate_cap(cap):
    # max_edges yields the same labeled graphs in the same order as a
    # predicate that rejects the children over the cap
    if cap == "c4 descent":
        free = _pattern_free_predicate(build_pattern("c4"))
        cases = [
            (v, lambda child, z: free(child.complement(), z),
             lambda u, floor=floor: comb(u, 2) - floor[u])
            for v in range(2, 9)
            for floor in _c4_descent_floors(v)
        ]
    else:
        k = int(cap[-1])
        cases = [(n, None, lambda u, n=n: comb(n, 2) // k) for n in range(1, 9)]
    yielded = 0
    for n, predicate, max_edges in cases:
        def capped(child, z, predicate=predicate, max_edges=max_edges):
            return (child.num_edges <= max_edges(child.n)
                    and (predicate is None or predicate(child, z)))

        got = [(g.n, g.adj) for g in enumerate_graphs(
            n, ceiling=n, predicate=predicate, max_edges=max_edges)]
        want = [(g.n, g.adj) for g in enumerate_graphs(n, ceiling=n, predicate=capped)]
        assert got == want, (cap, n)
        yielded += len(got)
    assert yielded > len(cases)


def test_orbit_minima_match_brute_force():
    rng = random.Random(47)
    for _ in range(30):
        g = _random_graph(rng, rng.randrange(1, 7))
        masks = list(range(1 << g.n))
        want = [
            mask for mask in masks
            if all(
                sum(1 << p[u] for u in range(g.n) if (mask >> u) & 1) >= mask
                for p in automorphisms_brute(g)
            )
        ]
        assert _orbit_minima(canonical_form(g).generators, g.n, masks) == want


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
    # trying only the smallest mask of each orbit of the parent's
    # automorphism group, dropping masks whose vertex cannot have top
    # degree, accepting a last-level child without a canonical form, and
    # accepting one whose vertex has strictly the top degree without
    # refining it (the unique-top shortcut) must not change which labeled
    # graphs come out, nor their order
    predicate = {
        "none": None,
        "triangle-free": _tri_free,
        "c4-free": _pattern_free_predicate(build_pattern("c4")),
    }[which]
    for n in range(1, 8):
        got = [(g.n, g.adj) for g in enumerate_graphs(n, predicate=predicate)]
        want = [(g.n, g.adj) for g in oracle_enumerate_graphs(n, predicate)]
        assert got == want


@pytest.mark.parametrize("which", ["none", "c4-free", "edge cap", "c4-free, edge cap"])
def test_last_level_accept_matches_the_plain_rule(which):
    # every labeled child of the last level that the predicate keeps goes
    # to _accept, whose shortcuts must agree with the plain rule (z in the
    # orbit of the canonical-last vertex, no shortcut); the enumeration
    # yields exactly the accepted children, in order, and a rejected child
    # is isomorphic to an accepted one
    predicate = _pattern_free_predicate(build_pattern("c4")) if "c4" in which else None
    for n in range(2, 8):
        cap = n * (n - 1) // 4
        max_edges = (lambda v: cap) if "cap" in which else None
        children = []

        def recording(child, z):
            keep = predicate is None or predicate(child, z)
            if keep and child.n == n:
                children.append(child)
            return keep

        got = list(enumerate_graphs(n, predicate=recording, max_edges=max_edges))
        z = n - 1
        accepted = []
        for child in children:
            res = canonical_form(child)
            plain = res.orbits[z] == res.orbits[res.labeling.index(z)]
            degrees = child.degrees()
            strict_top = degrees[z] > max(degrees[:z])
            for strict in {strict_top, False}:
                assert _accept(child, strict, True) == (() if plain else None), (which, n)
            if plain:
                accepted.append(child)
        assert [(g.n, g.adj) for g in got] == [(g.n, g.adj) for g in accepted], (which, n)
        codes = {canonical_code(g) for g in got}
        assert len(codes) == len(got)
        assert all(canonical_code(g) in codes for g in children), (which, n)
        if n >= 5:
            assert len(children) > len(got), (which, n)


def test_last_level_predicate_runs_before_the_canonical_test(monkeypatch):
    # a predicate that rejects every child on n vertices gets nothing
    # yielded and costs no refinement or canonical form on that level;
    # a child the predicate keeps is yielded, if accepted, before the
    # next child is built, so each yielded graph is the predicate's last
    orders = []
    form, refine = canon.canonical_form, canon._refine

    def recording_form(g, *args, **kwargs):
        orders.append(g.n)
        return form(g, *args, **kwargs)

    def recording_refine(adj, *args, **kwargs):
        orders.append(len(adj))
        return refine(adj, *args, **kwargs)

    monkeypatch.setattr(canon, "canonical_form", recording_form)
    monkeypatch.setattr(canon, "_refine", recording_refine)
    for n in range(2, 8):
        orders.clear()
        assert list(enumerate_graphs(n, predicate=lambda child, z: child.n < n)) == []
        assert n not in orders and (n == 2 or orders), n

    for predicate in (None, _pattern_free_predicate(build_pattern("c4"))):
        for n in range(2, 8):
            seen = []

            def recording(child, z):
                seen.append(child)
                return predicate is None or predicate(child, z)

            got = []
            for g in enumerate_graphs(n, predicate=recording):
                assert g is seen[-1], n
                got.append(g.adj)
            assert got == [g.adj for g in enumerate_graphs(n, predicate=predicate)]


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
