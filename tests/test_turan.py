import importlib.util
import itertools
import json
import os
from pathlib import Path

import pytest

import nimlab.turan
from conftest import oracle_ex, oracle_is_free
from nimlab.canon import canonical_code
from nimlab.errors import InvalidInputError, ResourceLimitError
from nimlab.graphs import SimpleGraph, decode_graph6, edge_pairs
from nimlab.monoscan import is_h_free
from nimlab.patterns import BipartitePattern, build_pattern, parse_pattern
from nimlab.turan import (
    TuranCache,
    _bnb_kst,
    _enum_ex,
    _exstar_search,
    clear_memo,
    default_cache,
    ex_exact,
    ex_star_exact,
)


def _brute_ex(n, pattern):
    """Max edges over every labeled graph on n vertices; tiny n only."""
    best = 0
    m = n * (n - 1) // 2
    pairs = list(edge_pairs(n))
    for bits in range(1 << m):
        if bits.bit_count() <= best:
            continue
        rows = [0] * n
        for idx in range(m):
            if (bits >> idx) & 1:
                u, v = pairs[idx]
                rows[u] |= 1 << v
                rows[v] |= 1 << u
        if oracle_is_free(SimpleGraph(n, tuple(rows)), pattern):
            best = bits.bit_count()
    return best


def _published_oracle():
    """perfbench/oracle.py, loaded read-only by path: its tables (OEIS
    A006855 for C4) share no code with nimlab."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "oracle.py"
    spec = importlib.util.spec_from_file_location("perfbench_oracle", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_known_c4_values(c4):
    oracle = _published_oracle()
    for n in range(2, 13):
        rec = ex_exact(n, c4)
        assert rec.value == oracle.ex_c4(n) and rec.exact, n


def test_k26_on_eleven_vertices():
    # out of reach of the degree branch and bound's node budgets
    rec = ex_exact(11, build_pattern("k2,6"))
    assert rec.value == 38 and rec.exact
    assert len(rec.witnesses) == 24 and rec.witnesses_complete


def test_mantel_values(k3):
    for n in range(2, 12):
        rec = ex_exact(n, k3)
        assert rec.value == n * n // 4
        assert rec.exact


def test_half_n_for_single_center_star():
    p3 = build_pattern("k1,2")
    for n in range(1, 12):
        assert ex_exact(n, p3).value == n // 2


def test_star_formula_matches_enumeration():
    # the closed form for r >= 3 needs the wrap-around edges of the
    # circulant witness; below n = r + 1 the complete graph is extremal
    for r in range(3, 6):
        star = build_pattern(f"k1,{r}")
        fp = star.graph_code.hex()
        for n in range(1, 9):
            rec = ex_exact(n, star)
            assert rec.value == min(n * (n - 1) // 2, n * (r - 1) // 2), (r, n)
            assert rec.value == _enum_ex(n, star, fp).value, (r, n)
            w = rec.witness_graphs()[0]
            assert w.num_edges == rec.value and is_h_free(w, star)


def test_brute_force_agreement_tiny(k3, c4, k23):
    # the last three have isolated vertices: a copy may use the new vertex
    # of an augmentation with no edge at it, and ex(n) can fall as n grows
    square = [[0, 1], [1, 2], [2, 3], [3, 0]]
    isolated = [parse_pattern(d) for d in (
        {"n": 3, "edges": [[0, 1]]},
        {"n": 4, "edges": [[0, 1], [1, 2]]},
        {"n": 5, "edges": square, "X": [0, 2, 4], "Y": [1, 3]})]
    for pattern in (k3, c4, k23, build_pattern("c6"), *isolated):
        for n in range(1, 6):
            assert ex_exact(n, pattern).value == _brute_ex(n, pattern), (pattern.name, n)


def _assert_same_record(bnb, enum):
    assert bnb.value == enum.value
    assert bnb.witnesses_complete == enum.witnesses_complete
    assert sorted(canonical_code(w).data for w in bnb.witness_graphs()) == sorted(
        canonical_code(w).data for w in enum.witness_graphs()
    )


def test_regime_cross_validation_c4(c4):
    # the degree branch and bound (kept off the route, as a reference) and
    # the edge-floored descent are independent exact searches; they must
    # agree on the value and on the extremal classes at small n
    fp = c4.graph_code.hex()
    for n in range(4, 9):
        _assert_same_record(_bnb_kst(n, 2, c4, fp), _enum_ex(n, c4, fp))


def test_regime_cross_validation_k23(k23):
    fp = k23.graph_code.hex()
    for n in range(5, 9):
        _assert_same_record(_bnb_kst(n, 3, k23, fp), _enum_ex(n, k23, fp))


def test_bnb_refuses_when_the_value_search_blows_its_budget(monkeypatch, c4):
    monkeypatch.setattr(nimlab.turan, "REALIZE_NODE_BUDGET", 3)
    with pytest.raises(ResourceLimitError) as err:
        _bnb_kst(8, 2, c4, c4.graph_code.hex())
    assert err.value.reason == "realization-budget"


def test_bnb_witness_cap_keeps_the_value(monkeypatch, c4):
    # ex(7, C4) = 9 has five extremal classes; a cap of one keeps the
    # value and the first class found, and says the list is incomplete
    monkeypatch.setattr(nimlab.turan, "WITNESS_CAP", 1)
    rec = _bnb_kst(7, 2, c4, c4.graph_code.hex())
    assert rec.value == 9 and rec.exact
    assert len(rec.witnesses) == 1 and not rec.witnesses_complete
    w = rec.witness_graphs()[0]
    assert w.num_edges == 9 and oracle_is_free(w, c4)


def test_mantel_formula_vs_enumeration(k3):
    fp = k3.graph_code.hex()
    for n in range(3, 9):
        assert ex_exact(n, k3).value == _enum_ex(n, k3, fp).value


def test_witnesses_verify(k3, c4, k23):
    for pattern in (k3, c4, k23):
        for n in range(2, 9):
            rec = ex_exact(n, pattern)
            assert rec.witnesses, (pattern.name, n)
            for w in rec.witness_graphs():
                assert w.n == n
                assert w.num_edges == rec.value
                assert is_h_free(w, pattern)


def test_complete_witness_lists_match_brute_classes(c4, k23):
    # when the record claims completeness, the witness list is exactly the
    # extremal isomorphism classes
    for n in range(4, 8):
        rec = ex_exact(n, c4)
        if not rec.witnesses_complete:
            continue
        wits = rec.witness_graphs()
        extremal = []
        from nimlab.canon import enumerate_graphs

        for g in enumerate_graphs(n):
            if g.num_edges == rec.value and oracle_is_free(g, c4):
                extremal.append(canonical_code(g))
        assert sorted(c.data for c in extremal) == sorted(
            canonical_code(w).data for w in wits
        )
    # larger n against every H-free class; ex(9, C4) has ten extremal
    # classes and ex(10, C4) two
    for pattern, ns in ((c4, range(8, 11)), (k23, range(5, 9))):
        for n in ns:
            rec = ex_exact(n, pattern)
            assert rec.witnesses_complete, (pattern.name, n)
            value, classes = oracle_ex(n, pattern)
            assert rec.value == value, (pattern.name, n)
            assert {canonical_code(w).data for w in rec.witness_graphs()} == classes, (pattern.name, n)
            assert len(rec.witnesses) == len(classes)


def test_monotone_in_n(c4, k23):
    for pattern in (c4, k23):
        vals = [ex_exact(n, pattern).value for n in range(2, 10)]
        assert all(a <= b for a, b in zip(vals, vals[1:]))


def test_greedy_fallback_above_ceiling():
    c6 = build_pattern("c6")
    rec = ex_exact(14, c6)
    assert not rec.exact
    w = rec.witness_graphs()[0]
    assert w.num_edges == rec.value
    assert is_h_free(w, c6)
    # deterministic for a fixed seed
    clear_memo()
    again = ex_exact(14, c6)
    assert again.value == rec.value and again.witnesses == rec.witnesses


def test_ex_invalid_inputs(c4):
    with pytest.raises(InvalidInputError):
        ex_exact(-1, c4)
    no_edges = BipartitePattern("e1", SimpleGraph.empty(1), (0,), (), None, True)
    with pytest.raises(InvalidInputError):
        ex_exact(5, no_edges)


# ---------------------------------------------------------------------------
# One-sided bipartite threshold.
# ---------------------------------------------------------------------------


def _brute_ex_star(m, n, rp):
    """Max edges over all bipartite hosts, forbidding side-respecting copies."""
    h = rp.graph.n
    pat_edges = list(rp.graph.edges())
    best = 0
    for bits in range(1 << (m * n)):
        if bits.bit_count() <= best:
            continue
        ok = True
        for img in itertools.permutations(range(m + n), h):
            if not all(v < m for i, v in enumerate(img) if i in rp.X):
                continue
            if not all(v >= m for i, v in enumerate(img) if i in rp.Y):
                continue
            def hit(u, v):
                a, b = (u, v - m) if u < m else (v, u - m)
                return (bits >> (a * n + b)) & 1
            if all(hit(img[a], img[b]) for a, b in pat_edges):
                ok = False
                break
        if ok:
            best = bits.bit_count()
    return best


def test_ex_star_path_center(c4):
    # a center-side path caps every m-part degree at one
    rp = c4.reduced()
    for m, n in [(2, 3), (3, 3), (4, 2), (5, 5), (2, 7)]:
        assert ex_star_exact(m, n, rp).value == m
    assert ex_star_exact(7, 2, rp).value == 7


def test_ex_star_matches_brute(c4, k23):
    cases = [
        (c4.reduced(), [(1, 2), (2, 2), (3, 3), (2, 4)]),
        (k23.reduced(), [(2, 3), (3, 3), (3, 4)]),
        (build_pattern("c6").reduced(), [(2, 3), (3, 3), (3, 4)]),
        # twin Y vertices under side masks
        (build_pattern("k3,3").reduced(), [(2, 3), (3, 3), (3, 4)]),
    ]
    for rp, sizes in cases:
        for m, n in sizes:
            want = _brute_ex_star(m, n, rp)
            assert ex_star_exact(m, n, rp).value == want, (rp.name, m, n)


def test_ex_star_formula_vs_search(c4, k23):
    # the star closed form and the row search must agree on shared ground
    for rp in (c4.reduced(), k23.reduced()):
        fp = rp.oriented_fingerprint.hex()
        for m, n in [(2, 3), (3, 3), (4, 4), (3, 5)]:
            if m * n > 30:
                continue
            assert ex_star_exact(m, n, rp).value == _exstar_search(m, n, rp, fp).value


def test_ex_star_fit_branch(c4):
    rp = c4.reduced()
    rec = ex_star_exact(0, 4, rp)
    assert rec.value == 0
    rec = ex_star_exact(3, 1, rp)  # Y needs two host vertices
    assert rec.value == 3 and rec.method == "formula-fit"


def test_ex_star_orientation_matters():
    g = SimpleGraph.path(3)
    centered = BipartitePattern("cen", g, (1,), (0, 2), None, True)
    leaves = BipartitePattern("lea", g, (0, 2), (1,), None, True)
    assert ex_star_exact(2, 5, centered).value == 2
    assert ex_star_exact(2, 5, leaves).value == 5


def test_ex_star_monotone(c4):
    rp = c4.reduced()
    vals = [ex_star_exact(m, 4, rp).value for m in range(1, 7)]
    assert all(a <= b for a, b in zip(vals, vals[1:]))
    vals = [ex_star_exact(4, n, rp).value for n in range(1, 7)]
    assert all(a <= b for a, b in zip(vals, vals[1:]))


def test_ex_star_witnesses_shaped(c4):
    rec = ex_star_exact(3, 3, c4.reduced())
    w = rec.witness_graphs()[0]
    assert w.n == 6 and w.num_edges == rec.value
    m = rec.m
    for i in range(m):
        assert not any(w.has_edge(i, j) for j in range(i + 1, m))


def test_ex_star_refusals_and_validation(c4, k3):
    rp = c4.reduced()
    with pytest.raises(ResourceLimitError):
        ex_star_exact(7, 7, build_pattern("c6").reduced())
    with pytest.raises(InvalidInputError):
        ex_star_exact(-1, 3, rp)
    with pytest.raises(InvalidInputError):
        ex_star_exact(3, 3, k3)
    two = SimpleGraph.from_edges(4, [(0, 1), (2, 3)])
    disc = BipartitePattern("d", two, (0, 2), (1, 3), None, True)
    with pytest.raises(InvalidInputError):
        ex_star_exact(3, 3, disc)


# ---------------------------------------------------------------------------
# Persistent cache.
# ---------------------------------------------------------------------------


def test_cache_roundtrip(tmp_path, c4):
    cache = TuranCache(tmp_path / "t.jsonl")
    clear_memo()
    rec = ex_exact(6, c4, cache=cache)
    clear_memo()
    again = ex_exact(6, c4, cache=cache)
    assert again == rec


def test_cache_ignores_other_keys(tmp_path, c4, k23):
    cache = TuranCache(tmp_path / "t.jsonl")
    clear_memo()
    ex_exact(6, c4, cache=cache)
    assert cache.get("ex", k23, None, 6) is None
    assert cache.get("ex", c4, None, 7) is None
    assert cache.get("exstar", c4, 6, 6) is None


def test_cache_drops_tampered_witness(tmp_path, c4):
    path = tmp_path / "t.jsonl"
    cache = TuranCache(path)
    clear_memo()
    rec = ex_exact(6, c4, cache=cache)
    doc = json.loads(path.read_text())
    # swap in a witness with one extra edge: a complete graph certainly
    # holds a copy, so validation must reject the record
    doc["witnesses"] = [__import__("nimlab.graphs", fromlist=["encode_graph6"]).encode_graph6(SimpleGraph.complete(6))]
    path.write_text(json.dumps(doc) + "\n")
    assert cache.get("ex", c4, None, 6) is None
    clear_memo()
    fresh = ex_exact(6, c4, cache=cache)
    assert fresh.value == rec.value


def test_cache_skips_corrupt_lines(tmp_path, c4):
    path = tmp_path / "t.jsonl"
    cache = TuranCache(path)
    clear_memo()
    rec = ex_exact(6, c4, cache=cache)
    good = path.read_text()
    path.write_text("{ not json }\n" + good)
    got = cache.get("ex", c4, None, 6)
    assert got is not None and got.value == rec.value


def test_cache_keeps_last_valid_record(tmp_path, c4):
    path = tmp_path / "t.jsonl"
    cache = TuranCache(path)
    clear_memo()
    rec = ex_exact(6, c4, cache=cache)
    cache.put(rec)  # duplicate line is fine
    got = cache.get("ex", c4, None, 6)
    assert got == rec


def test_cache_put_ignores_inexact_records(tmp_path):
    path = tmp_path / "t.jsonl"
    cache = TuranCache(path)
    c6 = build_pattern("c6")
    rec = ex_exact(14, c6)
    assert not rec.exact and rec.witnesses
    cache.put(rec)
    assert not path.exists()
    assert cache.get("ex", c6, None, 14) is None


def test_default_cache_env(tmp_path, monkeypatch, c4):
    target = tmp_path / "env.jsonl"
    monkeypatch.setenv("NIMLAB_CACHE", str(target))
    cache = default_cache()
    assert cache is not None and cache.path == str(target)
    monkeypatch.delenv("NIMLAB_CACHE")
    assert default_cache() is None


@pytest.fixture(autouse=True)
def _fresh_memo():
    clear_memo()
    yield
    clear_memo()
