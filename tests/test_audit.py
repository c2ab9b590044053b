"""Star decomposition and the counting audits.

The random-coloring tests filter for applicability (each color needs an
edge outside monochromatic copies) the same way a user of the audits
would, by catching the not-applicable signal.
"""

import json
import sys

import pytest

from nimlab import canon
from nimlab.audit import (
    audit_k_color,
    audit_two_color,
    build_star_decomposition,
    is_reducible,
    kst_reducibility,
)
from nimlab.constructions import (
    extremal_two_coloring,
    pentagon_three_coloring,
    permuted_overlay_coloring,
)
from nimlab.errors import InvalidInputError, NotApplicableError
from nimlab.graphs import SimpleGraph
from nimlab.monoscan import EdgeColoring, nim_edges
from nimlab.patterns import BipartitePattern, build_pattern


# ---------------------------------------------------------------------------
# biclique rule


def test_biclique_rule_table():
    cases = {
        (2, 2): "reducible-by-rule",   # threshold min(1, 1) = 1
        (3, 3): "reducible-by-rule",   # threshold min(3, 2) = 2
        (4, 7): "reducible-by-rule",   # threshold min(7, 6) = 6
        (5, 14): "reducible-by-rule",  # threshold min(13, 24) = 13
        (4, 5): "unknown",
        (4, 6): "unknown",
        (5, 13): "unknown",
    }
    for (s, t), want in cases.items():
        assert kst_reducibility(s, t).verdict == want


def test_biclique_rule_stars():
    # s = 1 collapses both expressions to 1, so every proper star passes
    assert kst_reducibility(1, 1).verdict == "unknown"
    assert kst_reducibility(1, 2).verdict == "reducible-by-rule"
    assert kst_reducibility(1, 9).verdict == "reducible-by-rule"


def test_biclique_rule_threshold_and_json():
    v = kst_reducibility(5, 14)
    assert v.threshold == 13
    doc = v.to_json()
    assert doc["s"] == 5 and doc["t"] == 14
    assert doc["verdict"] == "reducible-by-rule"


def test_biclique_rule_rejects_bad_pairs():
    for s, t in [(0, 1), (3, 2), (-1, 4)]:
        with pytest.raises(InvalidInputError):
            kst_reducibility(s, t)


def test_reducibility_verdicts():
    reducible = ["c4", "c6", "theta2,3", "k2,3", "k3,3", "k4,7"]
    for name in reducible:
        rep = is_reducible(build_pattern(name))
        assert rep.verdict == "reducible", name
    for name in ["k4,5", "k4,6"]:
        rep = is_reducible(build_pattern(name))
        assert rep.verdict == "unknown", name
        assert "sufficient" in rep.reason or "proven" in rep.reason


def test_reducibility_cycle_rule_reason():
    rep = is_reducible(build_pattern("c6"))
    assert "tree" in rep.reason


def test_reducibility_rejects_nonbipartite(k3):
    with pytest.raises(InvalidInputError):
        is_reducible(k3)


# ---------------------------------------------------------------------------
# star decomposition


def _first_decomposable(n, k, pattern, seeds):
    for seed in seeds:
        col = EdgeColoring.random(n, k, seed=seed)
        try:
            return col, build_star_decomposition(col, pattern)
        except NotApplicableError:
            continue
    pytest.fail("no decomposable coloring in the seed range")


def test_decomposition_shape(c4):
    col, dec = _first_decomposable(10, 3, c4, range(20))

    assert dec.t == len(dec.s_vertices)
    assert dec.t <= col.k * (c4.h + 1)
    assert list(dec.s_vertices) == sorted(set(dec.s_vertices))

    outside = []
    for vec, members in dec.classes:
        assert len(vec) == dec.t
        outside.extend(members)
        for z in members:
            got = tuple(
                col.color_of(min(z, s), max(z, s)) for s in dec.s_vertices
            )
            assert got == vec
    assert sorted(outside) == [
        v for v in range(col.n) if v not in set(dec.s_vertices)
    ]


def test_decomposition_stars_are_stars(c4):
    col, dec = _first_decomposable(10, 3, c4, range(5, 25))
    s_set = set(dec.s_vertices)
    for c, (center, leaves, branch) in enumerate(
        zip(dec.centers, dec.leaf_sets, dec.branches), start=1
    ):
        assert branch in ("big-star", "max-degree")
        assert center in s_set
        for leaf in leaves:
            assert leaf in s_set
            assert col.color_of(min(center, leaf), max(center, leaf)) == c
        if branch == "big-star":
            assert len(leaves) == c4.h


def test_decomposition_needs_every_color(c4):
    # paint everything color 1: color 2 owns no edge at all
    m = 6 * 5 // 2
    col = EdgeColoring(6, 2, [1] * m)
    with pytest.raises(NotApplicableError):
        build_star_decomposition(col, c4)


def test_decomposition_json(c4):
    col, dec = _first_decomposable(7, 2, c4, range(20))
    doc = dec.to_json()
    assert doc["t"] == dec.t
    assert len(doc["stars"]) == 2
    assert len(doc["classes"]) == len(dec.classes)


# ---------------------------------------------------------------------------
# two-color audit


def _first_applicable_two(n, pattern, seeds):
    for seed in seeds:
        col = EdgeColoring.random(n, 2, seed=seed)
        try:
            return col, audit_two_color(col, pattern)
        except NotApplicableError:
            continue
    pytest.fail("no applicable two-coloring in the seed range")


def test_two_color_random_colorings_pass(c4):
    # applicability needs both colors to keep an edge outside
    # monochromatic quadrilaterals, which favors sparse classes
    hits = 0
    for seed in range(20):
        col = EdgeColoring.random(7, 2, seed=seed)
        try:
            rep = audit_two_color(col, c4)
        except NotApplicableError:
            continue
        hits += 1
        assert rep.passed
        assert rep.failures() == []
        assert rep.counterexample is None
    assert hits >= 6


def test_two_color_row_structure(c4):
    col, rep = _first_applicable_two(7, c4, range(30))
    claims = [r.claim for r in rep.rows]
    assert "C1[color=1]" in claims
    assert "C1[color=2]" in claims
    assert claims[-1] == "TOTAL"
    total = rep.rows[-1]
    assert total.measured == rep.nim_count
    assert total.bound is not None and total.slack >= 0
    n, h, t = rep.n, rep.h, rep.decomposition.t
    from nimlab.turan import ex_exact

    ex_n = ex_exact(n, c4.reduced()).value
    cap = 2 ** (2 * h + 2)
    assert total.bound == (t + 2 * h) * n + cap * 2 * ex_n + cap * cap * 2 * ex_n


def test_two_color_c3_rows():
    # three single-vertex mixed classes; one NIM edge of color 1 joins the
    # first and the third, so the C3 graphs are built from real edges
    k23 = build_pattern("k2,3")
    col = EdgeColoring.random(10, 2, seed=6)
    rep = audit_two_color(col, k23)
    assert rep.passed
    a, b, c = "1,2,1,2,2,1,1", "1,2,2,1,2,1,1", "2,2,1,1,2,1,1"
    want = []
    for u, v, counts in [(a, b, (0, 0)), (a, c, (1, 0)), (b, c, (0, 0))]:
        key = f"u={u},v={v}"
        for color, cnt in zip((1, 2), counts):
            want.append((f"C3.free[{key},color={color}]", 0, 0))
            want.append((f"C3.count[{key},color={color}]", cnt, 1))
        want.append((f"C3.total[{key}]", sum(counts), 2))
        want.append((f"C3.literal[{key}]", sum(counts), 20))
    got = [(r.claim, r.measured, r.bound) for r in rep.rows if r.claim.startswith("C3")]
    assert got == want

    # the counts again, straight from the NIM report
    report = nim_edges(col, k23)
    classes = [set(members) for _, members in rep.decomposition.classes]
    between = [
        (col.color_of(x, y), i, j)
        for x, y in report.edges()
        for i in range(3) for j in range(i + 1, 3)
        if {x, y} & classes[i] and {x, y} & classes[j]
    ]
    assert between == [(1, 0, 2)]


def test_two_color_c3_rows_on_a_matching(c4):
    # two mixed classes {0, 2} and {4, 6}; the color-2 NIM edges 0-6 and
    # 2-4 run between them, so C3.free looks for the reduced pattern (a
    # path with two edges) in a two-edge graph, and C3.count meets its
    # bound ex(4, P3) = 2.  Found by local search over 9-vertex colorings.
    col = EdgeColoring.parse(
        "9 2\n1 1 1 1 2 2 2 1 1 2 1 1 1 1 2 1 2 2 1 2 1 1 2 1 2 2 2 1 2 2 2 1 1 2 2 1\n"
    )
    rep = audit_two_color(col, c4)
    assert rep.passed
    assert rep.decomposition.s_vertices == (1, 3, 5, 7, 8)
    assert rep.decomposition.classes == (
        ((1, 1, 2, 2, 1), (0, 2)),
        ((1, 1, 2, 2, 2), (4, 6)),
    )
    key = "u=1,1,2,2,1,v=1,1,2,2,2"
    got = [(r.claim, r.measured, r.bound, r.passed) for r in rep.rows
           if r.claim.startswith("C3")]
    assert got == [
        (f"C3.free[{key},color=1]", 0, 0, True),
        (f"C3.count[{key},color=1]", 0, 2, True),
        (f"C3.free[{key},color=2]", 0, 0, True),
        (f"C3.count[{key},color=2]", 2, 2, True),
        (f"C3.total[{key}]", 2, 4, True),
        (f"C3.literal[{key}]", 2, 8, True),
    ]

    report = nim_edges(col, c4)
    between = [(x, y, col.color_of(x, y)) for x, y in report.edges()
               if len({x, y} & {0, 2}) == 1 and len({x, y} & {4, 6}) == 1]
    assert between == [(0, 6, 2), (2, 4, 2)]


def test_two_color_report_json_is_stable(c4):
    col, rep = _first_applicable_two(6, c4, range(20))
    again = audit_two_color(col, c4)
    assert json.dumps(rep.to_json(), sort_keys=True) == json.dumps(
        again.to_json(), sort_keys=True
    )


def test_repeated_two_color_audit_makes_no_canonical_form(c4, monkeypatch):
    # the reduced pattern is built once per pattern, so a second audit on
    # the same pattern canonicalizes nothing
    col, rep = _first_applicable_two(6, c4, range(20))
    calls = []
    original = canon.canonical_form

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("nimlab") and getattr(module, "canonical_form", None) is original:
            monkeypatch.setattr(module, "canonical_form", counting)
    again = audit_two_color(col, c4)
    assert again.to_json() == rep.to_json()
    assert calls == []


def test_two_color_rejects_three_colorings(c4):
    col = EdgeColoring.random(8, 3, seed=0)
    with pytest.raises(InvalidInputError):
        audit_two_color(col, c4)


def test_two_color_requires_bipartite_pattern(k3):
    col = EdgeColoring.random(8, 2, seed=0)
    with pytest.raises(InvalidInputError) as exc:
        audit_two_color(col, k3)
    assert exc.value.reason == "pattern-not-bipartite"


def test_two_color_requires_weak_vertex(c4):
    col = EdgeColoring.random(8, 2, seed=0)
    with pytest.raises(InvalidInputError) as exc:
        audit_two_color(col, c4.reduced())
    assert exc.value.reason == "no-weak-vertex"


def test_two_color_requires_connected_reduction():
    # path on five vertices, weak at the middle: deletion disconnects
    g = SimpleGraph.path(5)
    pat = BipartitePattern("p5-mid", g, X=(0, 2, 4), Y=(1, 3), weak=2)
    col = EdgeColoring.random(8, 2, seed=0)
    with pytest.raises(InvalidInputError) as exc:
        audit_two_color(col, pat)
    assert exc.value.reason == "reduced-pattern-disconnected"


def test_two_color_empty_nim_not_applicable(c4):
    # a single color class equal to K_6: every edge lies in a
    # monochromatic quadrilateral and color 2 is empty
    m = 6 * 5 // 2
    col = EdgeColoring(6, 2, [1] * m)
    with pytest.raises(NotApplicableError) as exc:
        audit_two_color(col, c4)
    assert exc.value.reason == "empty NIM set"


def test_two_color_single_color_not_applicable(c4):
    col = extremal_two_coloring(8, c4)
    with pytest.raises(NotApplicableError) as exc:
        audit_two_color(col, c4)
    assert exc.value.reason == "single-color NIM set"


# ---------------------------------------------------------------------------
# k-color audit


def test_k_color_random_colorings_pass(c4):
    hits = 0
    for seed in range(12):
        col = EdgeColoring.random(10, 3, seed=seed)
        try:
            rep = audit_k_color(col, c4)
        except NotApplicableError:
            continue
        hits += 1
        assert rep.passed
        assert rep.kind == "k-color"
    assert hits >= 6


def _type_counts_by_definition(col, pattern, dec):
    """Type every NIM edge from its endpoints' class vectors: (i) touches S
    or a constant class; otherwise (2)/(3) inside one class or between two
    when its color shows in the vector(s), (ii)/(iii) when it does not."""
    vec_of = {z: vec for vec, members in dec.classes for z in members}
    counts = dict.fromkeys(("(i)", "(2)", "(ii)", "(3)", "(iii)"), 0)
    for u, v in nim_edges(col, pattern).edges():
        c = col.color_of(u, v)
        if u in dec.s_vertices or v in dec.s_vertices:
            counts["(i)"] += 1
        elif len(set(vec_of[u])) == 1 or len(set(vec_of[v])) == 1:
            counts["(i)"] += 1
        elif vec_of[u] == vec_of[v]:
            counts["(2)" if c in vec_of[u] else "(ii)"] += 1
        else:
            counts["(3)" if c in vec_of[u] + vec_of[v] else "(iii)"] += 1
    return counts


# Three-colorings with skewed color frequencies; under k2,3 the first has
# an edge of type (iii), the second one of type (2), the third one of
# type (ii).  Uniform random colorings rarely show any type but (i) and (3).
#
# Under c6 the fourth has S = {0..6, 9}, vertex 7 alone in the all-1 class
# and the NIM edge (7, 8), which is type (i) only because it touches that
# constant class.  Under c4 and k2,3 no vertex outside S can lie in a
# constant class: its vector joins it in one color c to all of S.  If the
# color-c star is of the max-degree kind, it keeps every color-c neighbour
# of its center, so the vertex would be in S.  If it is of the big-star
# kind, the vertex and the center are both joined in color c to the NIM
# partner and the other leaves, which closes a monochromatic C4, or a
# K_{2,t}, through the NIM edge.
_RARE_TYPE_COLORINGS = [
    ("k2,3", 11, "1131113311113133111111331123333131313123111311333333131"),
    ("k2,3", 9, "233121111212221221112212122221212122"),
    ("k2,3", 10, "222121121131222111213112122211221221321213311"),
    ("c6", 10, "111111113233321332323132232123221333133123213"),
]


def test_k_color_type_counts_partition(c4):
    cases = [(EdgeColoring.random(10, 3, seed=seed), c4) for seed in range(10)]
    cases += [(EdgeColoring(n, 3, [int(c) for c in text]), build_pattern(name))
              for name, n, text in _RARE_TYPE_COLORINGS]
    hits = 0
    seen = set()
    for col, pattern in cases:
        try:
            rep = audit_k_color(col, pattern)
        except NotApplicableError:
            continue
        hits += 1
        assert set(rep.type_counts) == {"(i)", "(2)", "(ii)", "(3)", "(iii)"}
        assert sum(rep.type_counts.values()) == rep.nim_count
        assert rep.type_counts == _type_counts_by_definition(col, pattern, rep.decomposition)
        assert rep.n_star == rep.type_counts["(ii)"] + rep.type_counts["(iii)"]
        assert len(rep.b_sizes) == col.k
        seen.update(t for t, cnt in rep.type_counts.items() if cnt)
    assert hits >= 8
    assert seen == {"(i)", "(2)", "(ii)", "(3)", "(iii)"}


def test_k_color_charge_rows(c4):
    col = None
    rep = None
    for seed in range(20):
        cand = EdgeColoring.random(12, 3, seed=seed)
        try:
            rep = audit_k_color(cand, c4)
            col = cand
            break
        except NotApplicableError:
            continue
    assert col is not None

    claims = {r.claim: r for r in rep.rows}
    for c in range(1, 4):
        assert f"A1[color={c}]" in claims
        assert f"B.contain[i={c}]" in claims
        assert f"B.free[i={c}]" in claims
        assert f"B.count[i={c}]" in claims
    nstar = claims["NSTAR"]
    assert nstar.measured == rep.n_star
    assert nstar.measured <= nstar.bound
    bsum = claims["BSUM"]
    assert bsum.measured == sum(rep.b_sizes)
    mixed = sum(
        len(members)
        for vec, members in rep.decomposition.classes
        if len(set(vec)) >= 2
    )
    assert bsum.bound == (col.k - 2) * mixed


def test_k_color_missing_color_not_applicable(c4):
    # colors drawn from {1, 2} only, declared as a 3-coloring
    m = 10 * 9 // 2
    colors = [1 + (i % 2) for i in range(m)]
    col = EdgeColoring(10, 3, colors)
    with pytest.raises(NotApplicableError) as exc:
        audit_k_color(col, c4)
    assert exc.value.reason == "missing color in NIM set"


def test_k_color_two_colors_is_allowed(c4):
    # k = 2 runs through the same machinery with B_i sums over 0 colors
    hits = 0
    for seed in range(20):
        col = EdgeColoring.random(7, 2, seed=seed)
        try:
            rep = audit_k_color(col, c4)
        except NotApplicableError:
            continue
        hits += 1
        assert rep.passed
        assert rep.n_star == 0
    assert hits >= 4


def test_k_color_literal_rows_use_one_sided_values(c4):
    col = None
    rep = None
    for seed in range(20):
        cand = EdgeColoring.random(5, 3, seed=seed)
        try:
            rep = audit_k_color(cand, c4)
            col = cand
            break
        except NotApplicableError:
            continue
    if col is None:
        pytest.skip("no applicable 3-coloring at n=5")
    from nimlab.turan import ex_star_exact

    want = ex_star_exact(5, 5, c4.reduced()).value
    lits = [r for r in rep.rows if r.claim.startswith("A3.literal")]
    for r in lits:
        assert r.bound == want


def test_k_color_on_biclique_with_star_reduction(c4):
    # K_{2,3} minus its weak vertex is the star K_{1,3}, so every class
    # bound comes from the star closed form
    col, _ = permuted_overlay_coloring(9, c4, 3, seed=0)
    rep = audit_k_color(col, build_pattern("k2,3"))
    assert rep.passed


def test_pentagon_is_k_color_applicable(k3):
    # the pentagon construction has all three colors on edges outside
    # monochromatic triangles at n = 10, but the triangle is not
    # bipartite, so the audit itself must refuse
    col = pentagon_three_coloring(10)
    with pytest.raises(InvalidInputError):
        audit_k_color(col, k3)
