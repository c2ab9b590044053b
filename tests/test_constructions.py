"""Checks for the three explicit colorings.

Numbers asserted here (pentagon counts, overlap bounds) were recomputed
by hand from the defining arithmetic before being frozen.
"""

import dataclasses
import math

import pytest

import nimlab.canon

from nimlab.constructions import (
    extremal_two_coloring,
    pentagon_three_coloring,
    permuted_overlay_coloring,
)
from nimlab.errors import InvalidInputError, NonExactRecordError
from nimlab.graphs import decode_graph6, encode_graph6
from nimlab.monoscan import is_h_free, nim_edges
from nimlab.patterns import build_pattern
from nimlab.turan import TuranCache, clear_memo, ex_exact

from conftest import oracle_is_free, oracle_nim_flags

# extremal values memoize in-process; the n=12 quadrilateral record is
# expensive, so these tests deliberately share it instead of clearing


# ---------------------------------------------------------------------------
# pentagon coloring


def test_pentagon_rejects_small_n():
    for n in (0, 1, 4):
        with pytest.raises(InvalidInputError):
            pentagon_three_coloring(n)


def test_pentagon_triangle_nim_counts(k3):
    # 2 * (n/5)^2 * 5 when 5 divides n: the red and blue classes are
    # kept whole while every green edge lies in a green triangle
    # (or there are no green edges at all, as at n = 5).
    for n, want in [(5, 10), (10, 45), (15, 90)]:
        col = pentagon_three_coloring(n)
        rep = nim_edges(col, k3)
        assert rep.count == want


def test_pentagon_red_blue_triangle_free(k3):
    for n in range(5, 31):
        col = pentagon_three_coloring(n)
        assert is_h_free(col.class_graph(1), k3)
        assert is_h_free(col.class_graph(2), k3)


def test_pentagon_class_sizes():
    # with n = 5q the blocks are even: red and blue each take 5*q^2
    # edges, green gets 5*C(q,2)
    for q in (1, 2, 3, 4):
        n = 5 * q
        col = pentagon_three_coloring(n)
        red, blue, green = col.class_sizes()
        assert red == 5 * q * q
        assert blue == 5 * q * q
        assert green == 5 * q * (q - 1) // 2
        assert red + blue + green == n * (n - 1) // 2


def test_pentagon_green_is_union_of_cliques():
    col = pentagon_three_coloring(13)
    g = col.class_graph(3)
    # inside-block edges only: any two green neighbors are green-adjacent
    for u in range(g.n):
        nbrs = [v for v in range(g.n) if g.has_edge(u, v)]
        for a in nbrs:
            for b in nbrs:
                if a < b:
                    assert g.has_edge(a, b)


def test_pentagon_uneven_blocks_still_triangle_free(k3):
    # n = 7, 8, 9 exercise the first-blocks-get-the-extra-vertex path
    for n in (7, 8, 9):
        col = pentagon_three_coloring(n)
        flags = oracle_nim_flags(col, k3)
        rep = nim_edges(col, k3)
        assert rep.count == sum(flags)


# ---------------------------------------------------------------------------
# extremal two-coloring


def test_extremal_red_class_is_extremal(k3, c4):
    for pattern in (k3, c4):
        for n in range(4, 9):
            col = extremal_two_coloring(n, pattern)
            red = col.class_graph(1)
            assert red.num_edges == ex_exact(n, pattern).value
            assert oracle_is_free(red, pattern)


def test_extremal_blue_is_complement(k3):
    col = extremal_two_coloring(7, k3)
    red, blue = col.class_graph(1), col.class_graph(2)
    assert red.complement() == blue


def test_extremal_every_red_edge_is_nim(k3, c4):
    from nimlab.graphs import edge_pairs

    for pattern in (k3, c4):
        col = extremal_two_coloring(7, pattern)
        rep = nim_edges(col, pattern)
        red = col.class_graph(1)
        for (u, v), flag in zip(edge_pairs(7), rep.flags):
            if red.has_edge(u, v):
                assert flag


def test_extremal_deterministic(c4):
    assert extremal_two_coloring(8, c4) == extremal_two_coloring(8, c4)


def test_extremal_refuses_inexact_value():
    c6 = build_pattern("c6")
    with pytest.raises(NonExactRecordError):
        extremal_two_coloring(14, c6)


def test_extremal_rejects_bad_n(k3):
    with pytest.raises(InvalidInputError):
        extremal_two_coloring(0, k3)


def _relabelled_ex8_cache(tmp_path, c4):
    """A cache whose ex(8, C4) line lists the extremal witnesses relabelled
    and in reverse order, so that none of them is canonical."""
    rec = ex_exact(8, c4)
    perm = [3, 6, 0, 7, 1, 5, 2, 4]
    wits = tuple(encode_graph6(decode_graph6(w).relabel(perm)) for w in reversed(rec.witnesses))
    assert not set(wits) & set(rec.witnesses)
    cache = TuranCache(tmp_path / "t.jsonl")
    cache.put(dataclasses.replace(rec, witnesses=wits))
    clear_memo()
    assert ex_exact(8, c4, cache=cache).witnesses == wits
    clear_memo()
    return cache


def test_extremal_from_non_canonical_cached_witnesses(tmp_path, c4):
    fresh = extremal_two_coloring(8, c4)
    cache = _relabelled_ex8_cache(tmp_path, c4)
    assert extremal_two_coloring(8, c4, cache=cache) == fresh


def test_extremal_picks_the_witness_once_per_record(tmp_path, c4, monkeypatch):
    cache = _relabelled_ex8_cache(tmp_path, c4)
    first = extremal_two_coloring(8, c4, cache=cache)
    calls = []
    canonical_form = nimlab.canon.canonical_form

    def counting(*args, **kwargs):
        calls.append(args)
        return canonical_form(*args, **kwargs)

    monkeypatch.setattr(nimlab.canon, "canonical_form", counting)
    clear_memo()
    assert extremal_two_coloring(8, c4, cache=cache) == first
    assert calls == []


# ---------------------------------------------------------------------------
# permuted overlay


def test_overlay_certificate_arithmetic(c4):
    col, cert = permuted_overlay_coloring(12, c4, 3, seed=0)
    ex = ex_exact(12, c4).value
    assert cert.ex_value == ex
    assert cert.overlap_total == sum(s for _, _, s in cert.overlap_sizes)
    assert cert.nim_lower_bound == (cert.k - 1) * ex - cert.overlap_total
    m = 12 * 11 // 2
    assert cert.bound == math.ceil(ex * ex / m)
    if cert.bound_met:
        assert cert.overlap_total <= cert.bound
    assert cert.overlap_union <= cert.overlap_total


def test_overlay_first_classes_are_pattern_free(c4):
    col, cert = permuted_overlay_coloring(12, c4, 3, seed=1)
    for c in range(1, 3):
        assert is_h_free(col.class_graph(c), c4)


def test_overlay_nim_count_meets_certificate(c4):
    for seed in range(5):
        col, cert = permuted_overlay_coloring(12, c4, 3, seed=seed)
        assert nim_edges(col, c4).count >= cert.nim_lower_bound


def test_overlay_base_decodes_to_extremal_witness(c4):
    _, cert = permuted_overlay_coloring(10, c4, 3, seed=2)
    base = decode_graph6(cert.base_code)
    assert base.num_edges == cert.ex_value
    assert oracle_is_free(base, c4)


def test_overlay_permutations_are_permutations(c4):
    _, cert = permuted_overlay_coloring(11, c4, 4, seed=3)
    assert len(cert.permutations) == 3
    for p in cert.permutations:
        assert sorted(p) == list(range(11))


def test_overlay_deterministic(c4):
    a = permuted_overlay_coloring(12, c4, 3, seed=7)
    b = permuted_overlay_coloring(12, c4, 3, seed=7)
    assert a[0] == b[0]
    assert a[1] == b[1]


def test_overlay_two_colors_degenerates(k3):
    # single copy: no pairs to overlap, so the bound is zero and met
    col, cert = permuted_overlay_coloring(8, k3, 2, seed=0)
    assert cert.overlap_sizes == ()
    assert cert.overlap_total == 0
    assert cert.bound == 0
    assert cert.bound_met
    assert cert.nim_lower_bound == cert.ex_value
    assert nim_edges(col, k3).count >= cert.ex_value


def test_overlay_colors_partition_edges(c4):
    col, cert = permuted_overlay_coloring(12, c4, 3, seed=4)
    sizes = col.class_sizes()
    assert sum(sizes) == 66
    # colors 1..k-1 cover the union of the permuted copies; color k takes
    # the rest, so class 1 has the full base size and class 2 lost overlaps
    assert sizes[0] == cert.ex_value
    assert sizes[1] == cert.ex_value - cert.overlap_union


def test_overlay_certificate_json_roundtrips(c4):
    _, cert = permuted_overlay_coloring(12, c4, 3, seed=5)
    doc = cert.to_json()
    assert doc["bound"] == cert.bound
    assert doc["overlap_total"] == cert.overlap_total
    assert doc["nim_lower_bound"] == cert.nim_lower_bound
    assert len(doc["permutations"]) == 2


def test_overlay_rejects_bad_arguments(c4):
    with pytest.raises(InvalidInputError):
        permuted_overlay_coloring(0, c4, 3)
    with pytest.raises(InvalidInputError):
        permuted_overlay_coloring(10, c4, 1)
    with pytest.raises(InvalidInputError):
        permuted_overlay_coloring(10, c4, 3, retry_cap=0)
