import dataclasses
import importlib.util
import itertools
import json
import logging
import os
from pathlib import Path

import pytest

import nimlab.turan
from conftest import oracle_ex, oracle_is_free
from nimlab.canon import canonical_code, canonical_form
from nimlab.errors import InvalidInputError, ResourceLimitError
from nimlab.graphs import SimpleGraph, decode_graph6, edge_pairs, encode_graph6
from nimlab.monoscan import is_h_free
from nimlab.patterns import BipartitePattern, build_pattern, parse_pattern
from nimlab.turan import (
    TuranCache,
    TuranRecord,
    _bnb_kst,
    _enum_ex,
    _exstar_search,
    _fingerprint,
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


def test_descent_matches_full_enumeration_beyond_bicliques():
    # the descent against every H-free class, for patterns that are not
    # K_{2,t}: C6 (theta2,3 is the same graph), the path on four vertices
    # and C4 with a pendant edge, whose ex jumps from 9 to 12 (two K4) at
    # n = 8.  K_5 has no C6, so the route would not reach the descent at
    # n = 5; it is called directly
    square = [[0, 1], [1, 2], [2, 3], [3, 0]]
    for pattern in (build_pattern("c6"),
                    parse_pattern({"n": 4, "edges": square[:3]}),
                    parse_pattern({"n": 5, "edges": [*square, [0, 4]]})):
        fp = pattern.graph_code.hex()
        for n in range(5, 9):
            rec = _enum_ex(n, pattern, fp)
            value, classes = oracle_ex(n, pattern)
            assert rec.value == value, (pattern.name, n)
            assert rec.witnesses_complete, (pattern.name, n)
            assert {canonical_code(w).data for w in rec.witness_graphs()} == classes, (pattern.name, n)


def test_descent_builds_each_layer_once(monkeypatch, c4):
    # the levels of one order and the orders of the chain share their
    # enumeration layers: ex(10, C4) from an empty memo makes 55 calls to
    # `_children`, where rebuilding every level from K_1 makes 195
    calls = [0]
    children = nimlab.turan._children

    def counting(*args):
        calls[0] += 1
        return children(*args)

    monkeypatch.setattr(nimlab.turan, "_children", counting)
    monkeypatch.setattr(nimlab.turan, "_MEMO", {})
    assert ex_exact(10, c4).value == 16
    assert calls[0] <= 55


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


def _reference_exstar_search(m, n, rp):
    """The row search before its rows were top-aligned in cells, with no
    cap on labeled witnesses: rows non-increasing under (popcount, value),
    which quotients the m-part alone.  The value and the sorted codes of
    every extremal class, canonical under the two parts."""
    masks = sorted(range(1 << n), key=lambda x: (x.bit_count(), x), reverse=True)
    best, wits, rows = -1, [], [0] * m

    def place(i, cur, lo):
        nonlocal best, wits
        if i == m:
            if cur > best:
                best, wits = cur, []
            wits.append(rows[:])
            return
        for idx in range(lo, len(masks)):
            mask = masks[idx]
            if cur + mask.bit_count() * (m - i) < best:
                break
            rows[i] = mask
            if not nimlab.turan._has_oriented_copy(nimlab.turan._host_graph(m, n, rows), m, rp):
                place(i + 1, cur + mask.bit_count(), idx)
        rows[i] = 0

    place(0, 0, 0)
    parts = [list(range(m)), list(range(m, m + n))]
    codes = set()
    for w in wits:
        g = nimlab.turan._host_graph(m, n, w)
        codes.add(encode_graph6(g.relabel(list(canonical_form(g, cells=parts).labeling))))
    return best, sorted(codes)


@pytest.mark.parametrize("name", ["c6", "theta2,3", "k3,3", "c8"])
def test_exstar_search_matches_reference(name):
    # top-aligned rows lose no value and no extremal class
    rp = build_pattern(name).reduced()
    fp = rp.oriented_fingerprint.hex()
    for m in range(len(rp.X), 8):
        for n in range(len(rp.Y), 8):
            if m * n > 24:
                continue
            value, codes = _reference_exstar_search(m, n, rp)
            rec = _exstar_search(m, n, rp, fp)
            assert rec.value == value, (name, m, n)
            assert rec.witnesses == tuple(codes[:nimlab.turan.WITNESS_CAP]), (name, m, n)
            assert rec.witnesses_complete == (len(codes) <= nimlab.turan.WITNESS_CAP)


def test_exstar_k33_4x7_lists_every_class():
    # the search without alignment overflowed its 4,096 labeled hosts here
    # and listed 3 of these classes; with its cap lifted it finds these 6
    rp = build_pattern("k3,3").reduced()
    rec = _exstar_search(4, 7, rp, rp.oriented_fingerprint.hex())
    assert rec.value == 16 and rec.witnesses_complete
    assert rec.witnesses == ("J?FDBBOkB_?", "J?Z_a_osD_?", "J?Zca`OKD_?",
                             "J?qcb@OKF_?", "J?qcb@OkB_?", "J?zca`OK@_?")


def test_exstar_search_copy_checks(monkeypatch):
    # one copy check per row placed: 52 with aligned rows, 2,049 without
    calls = [0]
    contains_copy = nimlab.turan.contains_copy

    def counting(*args, **kwargs):
        calls[0] += 1
        return contains_copy(*args, **kwargs)

    monkeypatch.setattr(nimlab.turan, "contains_copy", counting)
    rp = build_pattern("c6").reduced()
    assert _exstar_search(5, 6, rp, "").value == 12
    assert calls[0] <= 64


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


def test_cache_rejects_witness_that_is_not_edge_maximal(tmp_path, c4, caplog):
    # a forged ex(8, C4) = 8 whose witness, C8, is C4-free but takes a chord
    # between opposite vertices without making a C4
    cache = TuranCache(tmp_path / "t.jsonl")
    c8 = SimpleGraph.from_edges(8, [(i, (i + 1) % 8) for i in range(8)])
    assert is_h_free(c8, c4)
    cache.put(TuranRecord("ex", c4.name, _fingerprint("ex", c4), 8, 8, True,
                          "forged", (encode_graph6(c8),), True))
    with caplog.at_level(logging.WARNING, logger="nimlab.turan"):
        assert cache.get("ex", c4, None, 8) is None
    assert "not edge-maximal" in caplog.text
    rec = ex_exact(8, c4, cache=cache)
    assert rec.exact and rec.value == 11
    assert cache.get("ex", c4, None, 8) == rec


# A 6-vertex graph with ex(6, C4) = 7 edges that holds a C4: K4 plus a pendant edge.
_K4_PLUS_EDGE = encode_graph6(SimpleGraph.from_edges(
    6, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (3, 4)]))


def test_cache_distrusts_completeness_of_degree_bnb_records(tmp_path, c4):
    # `_bnb_kst` listed 8 of the 10 classes of ex(9, C4) and called the list
    # complete; a cache line it wrote keeps its value but not that claim
    rec = ex_exact(9, c4)
    assert rec.value == 13 and len(rec.witnesses) == 10
    cache = TuranCache(tmp_path / "t.jsonl")
    cache.put(dataclasses.replace(rec, method="degree-bnb", witnesses=rec.witnesses[:8],
                                  witnesses_complete=True))
    got = cache.get("ex", c4, None, 9)
    assert got.value == 13 and got.exact and got.method == "degree-bnb"
    assert got.witnesses == rec.witnesses[:8]
    assert not got.witnesses_complete


def test_cache_index_sees_same_size_rewrite(tmp_path, c4):
    path = tmp_path / "t.jsonl"
    cache = TuranCache(path)
    rec = ex_exact(6, c4, cache=cache)
    assert cache.get("ex", c4, None, 6) == rec
    before = os.stat(path)
    doc = json.loads(path.read_text())
    doc["witnesses"] = [_K4_PLUS_EDGE] * len(doc["witnesses"])
    path.write_text(json.dumps(doc, sort_keys=True) + "\n")
    # same size and same mtime: only the content tells the rewrite apart
    os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))
    assert os.stat(path).st_size == before.st_size
    assert cache.get("ex", c4, None, 6) is None


def test_cache_index_appended_line_for_same_key_takes_over(tmp_path, c4):
    cache = TuranCache(tmp_path / "t.jsonl")
    rec = ex_exact(6, c4, cache=cache)
    assert cache.get("ex", c4, None, 6) == rec
    cache.put(dataclasses.replace(rec, method="appended"))
    assert cache.get("ex", c4, None, 6).method == "appended"
    # a later line that fails verification leaves the last valid one in charge
    cache.put(dataclasses.replace(rec, witnesses=(_K4_PLUS_EDGE,)))
    assert cache.get("ex", c4, None, 6).method == "appended"


def test_cache_index_keeps_verdicts_of_untouched_keys(tmp_path, c4, monkeypatch):
    cache = TuranCache(tmp_path / "t.jsonl")
    ex_exact(6, c4, cache=cache)
    first = cache.get("ex", c4, None, 6)
    validated = []
    validate = TuranCache._validate

    def counting(self, doc, *args):
        validated.append(doc["n"])
        return validate(self, doc, *args)

    monkeypatch.setattr(TuranCache, "_validate", counting)
    cache.put(ex_exact(5, c4))
    assert TuranCache(cache.path).get("ex", c4, None, 6) is first
    assert cache.get("ex", c4, None, 5).value == 6
    assert validated == [5]


def test_cache_rejection_warns_once_per_content(tmp_path, c4, caplog):
    path = tmp_path / "t.jsonl"
    cache = TuranCache(path)
    ex_exact(6, c4, cache=cache)
    doc = json.loads(path.read_text())
    doc["witnesses"] = [_K4_PLUS_EDGE]
    line = json.dumps(doc, sort_keys=True) + "\n"

    def warnings():
        return [r for r in caplog.records if "failed verification" in r.getMessage()]

    with caplog.at_level(logging.WARNING, logger="nimlab.turan"):
        path.write_text(line)
        for c in (cache, cache, TuranCache(path)):
            assert c.get("ex", c4, None, 6) is None
        assert len(warnings()) == 1
        path.write_text("\n" + line)
        for c in (cache, TuranCache(path)):
            assert c.get("ex", c4, None, 6) is None
        assert len(warnings()) == 2


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
