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
    _class_counts,
    _coloring_key,
    _smallest_classes,
    f_exact,
    f_heuristic,
    verify_extremal_characterization,
)
from nimlab.turan import _floors, clear_memo, ex_exact


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
    """Score (g, complement) for every smallest class g, with no pruning
    of classes: the value and the keys of the optimal colorings.  Color 2
    is scanned with the floor best - (color 1's count), so a coloring
    that cannot tie stops early and every tie is scored in full."""
    best, ties = -1, []
    for g in _smallest_classes(n, 2):
        one = len(_graph_nim(g, pattern)[0])
        rest = g.complement()
        scan = _nim_scan(rest.adj, pattern, rest.edges(), best - one)
        if scan is None:
            continue
        score = one + len(scan[0])
        if score > best:
            best, ties = score, []
        ties.append(EdgeColoring.from_graph(g, k=2))
    return best, {_coloring_key(col) for col in ties}


def _check_two_color_against_reference(name, n):
    pattern = build_pattern(name)
    value, keys = _reference_exact_two_color(n, pattern)
    rep = f_exact(n, pattern, 2)
    assert rep.value == value, (name, n)
    got = [_coloring_key(col) for col in rep.colorings]
    assert len(got) == len(set(got)) and set(got) == keys, (name, n)
    assert rep.optima_complete


@pytest.mark.parametrize("name", ["c4", "k3", "k2,3", "c6", "theta2,3", "k3,3", "k1,2"])
def test_two_color_bounds_keep_every_optimum_in_order(name):
    # the descent keeps only colorings that its floors allow to reach
    # ex(n, H); it must lose no optimal class and keep one of each
    for n in range(2, 9):
        _check_two_color_against_reference(name, n)


def test_two_color_descent_matches_the_reference_at_n9():
    # the largest case inside EXACT_CEILINGS[2], with 10 optimal classes
    _check_two_color_against_reference("c4", 9)


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


def test_descent_floors_hold_and_are_tight():
    # K_8 loses exactly floor(2N/u) of its N edges with any vertex, so the
    # floors from C(8, 2) are the C(u, 2) and none of them can be raised
    assert _floors(8, 28) == [u * (u - 1) // 2 for u in range(9)]
    # deleting a vertex of least NIM degree from a 2-coloring of K_u with
    # N NIM pairs leaves at least L(u - 1) of _floors(u, N) NIM
    rng = random.Random(31)
    pats = [build_pattern(s) for s in ("k1,2", "k3", "c4", "k2,3")]
    for _ in range(60):
        u = rng.randrange(2, 8)
        pattern = rng.choice(pats)
        col = EdgeColoring.random(u, 2, seed=rng.randrange(2 ** 32))
        flags = oracle_nim_flags(col, pattern)
        degree = [0] * u
        for (a, b), nim in zip(edge_pairs(u), flags):
            degree[a] += nim
            degree[b] += nim
        x = degree.index(min(degree))
        kept = [v for v in range(u) if v != x]
        rest = EdgeColoring(u - 1, 2, [col.color_of(kept[a], kept[b])
                                       for a, b in edge_pairs(u - 1)])
        assert sum(oracle_nim_flags(rest, pattern)) >= _floors(u, sum(flags))[u - 1]


def _counted(monkeypatch, module, name):
    """Count the calls of module.name from here on."""
    calls = [0]
    fn = getattr(module, name)

    def counting(*args, **kwargs):
        calls[0] += 1
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    return calls


def test_two_color_node_count_after_pruning(c4):
    # children the descent builds and scans on every level, before their
    # floor and canonical tests
    assert f_exact(8, c4, 2).nodes == 1599


def test_two_color_scans_only_pairs_that_can_be_nim(c4, monkeypatch):
    # each child is scanned on its parent's NIM pairs and the pairs at the
    # new vertex, under its floor
    calls = _counted(monkeypatch, monoscan, "_copy_through")
    assert f_exact(8, c4, 2).value == 11
    assert calls[0] == 8381


def test_two_color_runs_the_canonical_test_only_on_ties(c4, monkeypatch):
    # canonical forms of the descent's children and of the ties compared
    # by key: a child whose z lacks the largest (-NIM degree, degree) key,
    # or holds it alone on the last level, needs none.  ex(8, C4) is
    # memoized first, so that only the coloring search is counted
    ex_exact(8, c4)
    calls = _counted(monkeypatch, canon, "canonical_form")
    assert f_exact(8, c4, 2).value == 11
    assert calls[0] == 65


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
