import itertools
import json
import os
import random

import pytest

from conftest import oracle_coloring_key, oracle_nim_flags
from test_acceptance import GOLDEN_PATH
from nimlab import canon
from nimlab.canon import enumerate_graphs
from nimlab.errors import InvalidInputError, ResourceLimitError
from nimlab.graphs import SimpleGraph, edge_index, edge_pairs
from nimlab import monoscan
from nimlab.monoscan import EdgeColoring, _graph_nim, _nim_scan, is_h_free, nim_edges
from nimlab.patterns import build_pattern
from nimlab.search import (
    EXACT_CEILINGS,
    _candidates,
    _class_counts,
    _coloring_key,
    _smallest_classes,
    f_exact,
    f_heuristic,
    verify_extremal_characterization,
)
from nimlab.turan import clear_memo, ex_exact


def _brute_f(n, pattern, k):
    """Max NIM count over every labeled k-coloring of K_n, n >= 2; tiny n
    only.  Permuting the colors keeps the NIM count, so edge (0, 1) is
    fixed to color 1."""
    m = n * (n - 1) // 2
    first = edge_index(n, 0, 1)
    best = 0
    for rest in itertools.product(range(1, k + 1), repeat=m - 1):
        colors = list(rest)
        colors.insert(first, 1)
        score = sum(oracle_nim_flags(EdgeColoring(n, k, colors), pattern))
        best = max(best, score)
    return best


def test_exact_two_color_pentagon_value(k3):
    rep = f_exact(5, k3, 2)
    assert rep.value == 10
    assert rep.optima_complete
    # the optimum is a pair of five-cycles
    found_c5 = False
    for col in rep.colorings:
        red, blue = col.class_graph(1), col.class_graph(2)
        if sorted(red.degrees()) == [2] * 5 and sorted(blue.degrees()) == [2] * 5:
            assert is_h_free(red, k3) and is_h_free(blue, k3)
            found_c5 = True
    assert found_c5


def test_exact_matches_brute_small(k3, c4):
    for pattern in (k3, c4):
        for n in range(2, 5):
            assert f_exact(n, pattern, 2).value == _brute_f(n, pattern, 2), (pattern.name, n)


@pytest.mark.parametrize("name,n", [("k3", 5), ("k3", 6), ("c4", 5), ("c4", 6)])
def test_golden_rows_match_brute_force(name, n):
    # the golden table was written by f_exact; these rows are checked
    # against every 2-coloring instead
    golden = json.loads(GOLDEN_PATH.read_text())[name][str(n)]
    assert _brute_f(n, build_pattern(name), 2) == golden


def test_exact_three_color_matches_brute(k3):
    assert f_exact(4, k3, 3).value == _brute_f(4, k3, 3)
    # k1,2 stays below m = 10 at n = 5, so a lost coloring class can show
    k12 = build_pattern("k1,2")
    assert f_exact(5, k12, 3).value == _brute_f(5, k12, 3) == 4


def _reference_exact_three_color(n, pattern):
    """Every split of the rest of each smallest class g into colors 2 and
    3 over all `combinations`, color 2 no smaller than g and no larger
    than color 3: the value, the keys of the optimal colorings, and the
    number scored."""
    best, ties, nodes = -1, [], 0
    for g in _smallest_classes(n, 3):
        base = EdgeColoring.from_graph(g, k=3, outside=3).colors
        rest = [i for i, c in enumerate(base) if c == 3]
        for size in range(g.num_edges, len(rest) // 2 + 1):
            for sub in itertools.combinations(rest, size):
                colors = base.copy()
                for i in sub:
                    colors[i] = 2
                col = EdgeColoring(n, 3, colors)
                nodes += 1
                score = sum(_class_counts(col, pattern))
                if score > best:
                    best, ties = score, []
                if score == best:
                    ties.append(col)
    return best, {_coloring_key(col) for col in ties}, nodes


@pytest.mark.parametrize("name", ["c4", "k3", "k1,2", "k2,3", "c6"])
def test_three_color_orbit_splits_match_all_combinations(name):
    # one split per orbit of Aut(color 1) loses no optimal class
    pattern = build_pattern(name)
    for n in range(3, 6):
        value, keys, _ = _reference_exact_three_color(n, pattern)
        rep = f_exact(n, pattern, 3)
        assert rep.value == value, (name, n)
        got = [_coloring_key(col) for col in rep.colorings]
        assert len(got) == len(set(got)) and set(got) == keys, (name, n)


def test_three_color_scores_one_split_per_orbit(c4):
    assert _reference_exact_three_color(5, c4)[2] == 1341
    assert f_exact(5, c4, 3).nodes == 187


def test_three_color_at_the_n6_ceiling(c4):
    # the value and the 715 classes agree with the all-combinations split,
    # which scores 57,518 colorings here
    rep = f_exact(6, c4, 3)
    assert rep.value == 15
    assert len(rep.colorings) == 715
    assert rep.nodes == 6163
    assert rep.recount(c4) == [15] * 715


def _reference_exact_two_color(n, pattern):
    """Score (g, complement) for every smallest class g, unpruned: the
    value and one coloring per optimal class, in first-found order."""
    best, ties = -1, []
    for g in _smallest_classes(n, 2):
        col = EdgeColoring.from_graph(g, k=2)
        score = sum(_class_counts(col, pattern))
        if score > best:
            best, ties = score, []
        if score == best:
            ties.append(col)
    optima = {}
    for col in ties:
        optima.setdefault(_coloring_key(col), col)
    return best, list(optima.values())


@pytest.mark.parametrize("name", ["c4", "k3", "k2,3", "c6", "theta2,3", "k3,3"])
def test_two_color_bounds_keep_every_optimum_in_order(name):
    # the pruned search finishes only hopeful colorings and drops whole
    # subtrees of color 1; the optima and their order must not change
    pattern = build_pattern(name)
    for n in range(2, 9):
        value, optima = _reference_exact_two_color(n, pattern)
        rep = f_exact(n, pattern, 2)
        assert rep.value == value, (name, n)
        assert list(rep.colorings) == optima, (name, n)
        assert rep.optima_complete


def test_bounded_nim_scan_stops_only_below_the_floor():
    # on any list of the graph's edges, a floor `need` gives None exactly
    # when fewer than `need` of the listed edges are NIM, and otherwise
    # the unbounded scan of that list, witnesses included (a floor <= 0
    # scans as without one)
    rng = random.Random(13)
    pats = [build_pattern(s) for s in ("k1,2", "k3", "c4", "k2,3", "c6")]
    for _ in range(150):
        n = rng.randrange(2, 9)
        g = EdgeColoring.random(n, 2, seed=rng.randrange(2 ** 32)).class_graph(1)
        pattern = rng.choice(pats)
        full_nim, full_witness = _graph_nim(g, pattern)
        pedges = list(pattern.graph.edges())
        for (u, v), img in full_witness.items():
            copy = {tuple(sorted((img[a], img[b]))) for a, b in pedges}
            assert len(set(img)) == pattern.h and (u, v) in copy
            assert all(g.has_edge(x, y) for x, y in copy)
        edges = list(g.edges())
        lists = [edges]
        for _ in range(3):
            sub = [e for e in edges if rng.random() < 0.5]
            rng.shuffle(sub)
            lists.append(sub)
        # a copy inside g minus its last vertex z stays a copy in g, so the
        # NIM pairs of g lie among that graph's NIM pairs and the edges at z
        z = n - 1
        grown = _graph_nim(g.delete_vertex(z), pattern)[0]
        grown += [(u, z) for u in range(z) if g.has_edge(u, z)]
        assert set(full_nim) <= set(grown)
        lists.append(grown)
        for listed in lists:
            nim, witness = _nim_scan(g.adj, pattern, listed)
            assert nim == [e for e in listed if e in set(full_nim)]
            for need in range(-1, len(listed) + 2):
                got = _nim_scan(g.adj, pattern, iter(listed), need)
                if len(nim) < need:
                    assert got is None, (n, pattern.name, listed, need)
                else:
                    assert got == (nim, witness), (n, pattern.name, listed, need)


def test_two_color_node_count_after_pruning(c4):
    # colorings scored once the enumeration drops hopeless subtrees; all
    # 6,996 classes with at most 14 edges are scored without the bound.
    # The last level is scored before its canonical test, so these are
    # labeled colorings; with the test run first, 4,687 were scored
    assert f_exact(8, c4, 2).nodes == 6401


def test_two_color_candidates_cover_every_nim_pair():
    # a kept parent narrows the scan to its NIM pairs and the pairs at the
    # last vertex z; a kept coloring that is not the parent must not
    rng = random.Random(29)
    pats = [build_pattern(s) for s in ("k1,2", "k3", "c4", "k2,3")]
    for _ in range(200):
        n = rng.randrange(2, 9)
        pattern = rng.choice(pats)
        g = EdgeColoring.random(n, 2, seed=rng.randrange(2 ** 32)).class_graph(1)
        rest = g.complement()
        z = n - 1
        parent = g.delete_vertex(z)
        if rng.random() < 0.5:
            parent = EdgeColoring.random(z, 2, seed=rng.randrange(2 ** 32)).class_graph(1)
        is_parent = parent == g.delete_vertex(z)
        kept = [None] * n
        kept[z] = (parent.adj, _graph_nim(parent, pattern)[0],
                   _graph_nim(parent.complement(), pattern)[0])
        one, two = _candidates(kept, g, rest)
        for h, listed, kept_nim in ((g, one, kept[z][1]), (rest, two, kept[z][2])):
            edges = list(h.edges())
            assert set(_graph_nim(h, pattern)[0]) <= set(listed) <= set(edges)
            assert len(set(listed)) == len(listed)
            if is_parent:
                at_z = [(u, z) for u in range(z) if h.has_edge(u, z)]
                assert listed == kept_nim + at_z
            else:
                assert listed == edges


def test_two_color_scans_only_pairs_that_can_be_nim(c4, monkeypatch):
    # each coloring is scanned on its parent's NIM pairs and the pairs at
    # the new vertex, and color 1 of a coloring of K_n under a floor; the
    # search scanning every edge made 57,087 matcher calls here, and
    # 20,420 when it scored only the last level's canonical children
    calls = [0]
    copy_through = monoscan._copy_through

    def counting(*args, **kwargs):
        calls[0] += 1
        return copy_through(*args, **kwargs)

    monkeypatch.setattr(monoscan, "_copy_through", counting)
    assert f_exact(8, c4, 2).value == 11
    assert calls[0] == 25115


def test_two_color_runs_the_canonical_test_only_on_ties(c4, monkeypatch):
    # the last level's canonical test runs only on colorings that reach
    # the running best; run on every last-level child, the search made
    # 1,551 canonical forms here
    calls = [0]
    form = canon.canonical_form

    def counting(*args, **kwargs):
        calls[0] += 1
        return form(*args, **kwargs)

    monkeypatch.setattr(canon, "canonical_form", counting)
    assert f_exact(8, c4, 2).value == 11
    assert calls[0] == 696


@pytest.mark.parametrize("k", [2, 3])
def test_smallest_classes_are_the_capped_enumeration(k):
    for n in range(1, 8):
        cap = n * (n - 1) // 2 // k
        got = [(g.n, g.adj) for g in _smallest_classes(n, k)]
        want = [(g.n, g.adj) for g in enumerate_graphs(n) if g.num_edges <= cap]
        assert got == want, (n, k)


def test_small_hosts_are_all_nim(k3, c4, k23):
    # below the pattern order every edge is trivially NIM
    for pattern in (k3, c4, k23):
        h = pattern.graph.n
        for n in range(1, h):
            rep = f_exact(n, pattern, 2)
            assert rep.value == n * (n - 1) // 2


def test_value_sandwiched_by_turan(k3, c4):
    # one pattern-free class gives f >= ex; per-class freeness gives f <= k ex
    for pattern in (k3, c4):
        for n in range(3, 8):
            v = f_exact(n, pattern, 2).value
            e = ex_exact(n, pattern).value
            assert e <= v <= 2 * e


def test_exact_report_recount(k3):
    rep = f_exact(5, k3, 2)
    assert rep.recount(k3) == [rep.value] * len(rep.colorings)
    for col in rep.colorings:
        assert nim_edges(col, k3).count == rep.value


def test_optima_deduplicated(k3):
    rep = f_exact(5, k3, 2)
    # the five-cycle split is the unique optimum class at n=5
    assert len(rep.colorings) == 1
    rep3 = f_exact(4, k3, 3)
    texts = {tuple(c.colors) for c in rep3.colorings}
    assert len(texts) == len(rep3.colorings)


def _relabeled(coloring, perm, names):
    """Vertex u becomes perm[u] and color c becomes names[c - 1]."""
    n = coloring.n
    colors = [0] * len(coloring.colors)
    for i, (u, v) in enumerate(edge_pairs(n)):
        colors[edge_index(n, perm[u], perm[v])] = names[coloring.colors[i] - 1]
    return EdgeColoring(n, coloring.k, colors)


def test_coloring_key_matches_oracle():
    rng = random.Random(5)
    for n in (4, 5):
        cols = []
        for _ in range(12):
            col = EdgeColoring.random(n, 3, seed=rng.randrange(2 ** 32))
            perm = rng.sample(range(n), n)
            cols += [col, _relabeled(col, perm, [1, 2, 3]),
                     _relabeled(col, perm, rng.sample([1, 2, 3], 3))]
        keys = [_coloring_key(c) for c in cols]
        oracle = [oracle_coloring_key(c) for c in cols]
        for i in range(len(cols)):
            for j in range(i):
                assert (keys[i] == keys[j]) == (oracle[i] == oracle[j]), (n, i, j)
        assert len(set(oracle)) > 1


def _check_optima_are_the_optimal_classes(n, pattern, k):
    # score every labeled k-coloring of K_n by definition
    scored = []
    for colors in itertools.product(range(1, k + 1), repeat=n * (n - 1) // 2):
        col = EdgeColoring(n, k, list(colors))
        scored.append((sum(oracle_nim_flags(col, pattern)), col))
    best = max(score for score, _ in scored)
    optimal = {oracle_coloring_key(col) for score, col in scored if score == best}
    rep = f_exact(n, pattern, k)
    assert rep.value == best
    keys = [oracle_coloring_key(col) for col in rep.colorings]
    assert len(keys) == len(set(keys)) and set(keys) == optimal, pattern.name


def test_three_color_optima_are_the_optimal_classes(k3, c4):
    for pattern in (k3, c4):
        _check_optima_are_the_optimal_classes(4, pattern, 3)


def test_two_color_optima_are_the_optimal_classes(c4, k23):
    # n = 5 has classes of size m / 2, and k2,3 has 11 optimal classes
    for pattern in (c4, k23):
        _check_optima_are_the_optimal_classes(5, pattern, 2)


def test_exact_ceilings_enforced(k3):
    with pytest.raises(ResourceLimitError):
        f_exact(EXACT_CEILINGS[2] + 1, k3, 2)
    with pytest.raises(ResourceLimitError):
        f_exact(EXACT_CEILINGS[3] + 1, k3, 3)
    with pytest.raises(ResourceLimitError):
        f_exact(4, k3, 4)
    # an explicit ceiling replaces the default: lowered to 4, it refuses
    # n = 5 and still answers n = 4
    with pytest.raises(ResourceLimitError):
        f_exact(5, k3, 2, ceiling=4)
    assert f_exact(4, k3, 2, ceiling=4).value == _brute_f(4, k3, 2)
    # nor does a ceiling give k = 4 a driver: the three-color search
    # would report 4 for a true maximum of 7
    with pytest.raises(ResourceLimitError):
        f_exact(5, build_pattern("k1,2"), 4, ceiling=5)


def test_exact_rejects_bad_input(k3):
    with pytest.raises(InvalidInputError):
        f_exact(0, k3, 2)
    with pytest.raises(InvalidInputError):
        f_exact(5, k3, 1)


def test_heuristic_reaches_exact_at_n5(k3):
    rep = f_heuristic(5, k3, 2, budget=400, seed=0)
    assert rep.value == 10
    assert not rep.optima_complete
    assert rep.mode == "heuristic"


def test_heuristic_never_beats_exact(k3, c4):
    for pattern in (k3, c4):
        for n in range(3, 7):
            exact = f_exact(n, pattern, 2).value
            heur = f_heuristic(n, pattern, 2, budget=300, seed=2).value
            assert heur <= exact


def test_heuristic_budget_and_determinism(c4):
    a = f_heuristic(10, c4, 2, budget=600, seed=9)
    b = f_heuristic(10, c4, 2, budget=600, seed=9)
    assert a.value == b.value
    assert a.colorings[0] == b.colorings[0]
    assert a.nodes <= 600
    with pytest.raises(InvalidInputError):
        f_heuristic(6, c4, 2, budget=0)


def test_heuristic_report_is_consistent(c4):
    rep = f_heuristic(9, c4, 3, budget=500, seed=4)
    assert rep.recount(c4) == [rep.value] * len(rep.colorings)
    assert rep.k == 3 and rep.n == 9


def test_verify_extremal_characterization(k3, c4):
    from nimlab.constructions import extremal_two_coloring

    col = extremal_two_coloring(6, k3)
    assert verify_extremal_characterization(col, k3)
    # recolor one red edge: the red class is no longer extremal
    rep = f_exact(5, k3, 2)
    c5split = rep.colorings[0]
    assert not verify_extremal_characterization(c5split, k3)


def test_report_json_shape(k3):
    doc = f_exact(5, k3, 2).to_json()
    assert doc["value"] == 10 and doc["mode"] == "exact"
    assert doc["colorings"] and isinstance(doc["colorings"][0], list)


@pytest.fixture(autouse=True)
def _fresh_memo():
    clear_memo()
    yield
    clear_memo()
