"""Acceptance gate.

One test per shipped guarantee, each printing a single verdict line
(run with -s to see the lines as they happen).  Sample sizes, value
pins, and time budgets are stated inline; a FAIL line means the
guarantee is broken, not that the input was unlucky: every sampler
below filters for applicability before counting.

The final test replays the freeness lemma on every coloring the
earlier tests generated, so it must run after them (file order does
this under plain pytest).
"""

import json
import time
from pathlib import Path

from nimlab.audit import audit_k_color, audit_two_color, is_reducible, kst_reducibility
from nimlab.constructions import (
    extremal_two_coloring,
    pentagon_three_coloring,
    permuted_overlay_coloring,
)
from nimlab.errors import NotApplicableError
from nimlab.graphs import SimpleGraph, edge_pairs, isomorphic_brute
from nimlab.monoscan import EdgeColoring, is_h_free, nim_edges
from nimlab.patterns import build_pattern
from nimlab.turan import ex_exact

from conftest import oracle_nim_flags

K3 = build_pattern("k3")
C4 = build_pattern("c4")
K23 = build_pattern("k2,3")

GOLDEN_PATH = Path(__file__).parent / "goldens" / "f_two_color.json"

# every coloring any criterion generates lands here for the final
# freeness sweep: (coloring, pattern it was generated against)
GENERATED: list[tuple[EdgeColoring, object]] = []


def _register(coloring, pattern):
    GENERATED.append((coloring, pattern))


def _verdict(num, ok, elapsed, budget, detail):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num}: {status} ({detail}; {elapsed:.1f}s of {budget}s)")
    assert ok, f"criterion {num}: {detail}"
    assert elapsed < budget, f"criterion {num} exceeded {budget}s ({elapsed:.1f}s)"


def test_criterion_1_extremal_construction():
    t0 = time.time()
    ok = True
    detail = "extremal coloring n=4..9 for triangle and quadrilateral"
    for pattern in (K3, C4):
        for n in range(4, 10):
            col = extremal_two_coloring(n, pattern)
            _register(col, pattern)
            rep = nim_edges(col, pattern)
            ex = ex_exact(n, pattern).value
            if rep.count < ex:
                ok, detail = False, f"NIM {rep.count} < ex {ex} at n={n}, {pattern.name}"
                break
            red = col.class_graph(1)
            for (u, v), flag in zip(edge_pairs(n), rep.flags):
                if red.has_edge(u, v) and not flag:
                    ok, detail = False, f"red edge ({u},{v}) not NIM at n={n}, {pattern.name}"
                    break
            if not ok:
                break
        if not ok:
            break
    _verdict(1, ok, time.time() - t0, 60, detail)


def test_criterion_2_exact_values_and_goldens():
    from nimlab.search import f_exact

    t0 = time.time()
    ok = True
    detail_parts = []

    rep = f_exact(5, K3, 2)
    for col in rep.colorings:
        _register(col, K3)
    c5 = SimpleGraph.cycle(5)
    pentagon_pair = any(
        isomorphic_brute(col.class_graph(1), c5)
        and isomorphic_brute(col.class_graph(2), c5)
        for col in rep.colorings
    )
    if rep.value != 10 or not rep.optima_complete or not pentagon_pair:
        ok = False
        detail_parts.append("f(5,triangle)=10 with a double-pentagon optimum failed")

    if ok:
        for pattern, upto in ((K3, 2), (C4, 3)):
            for n in range(2, upto + 1):
                got = f_exact(n, pattern, 2).value
                if got != n * (n - 1) // 2:
                    ok = False
                    detail_parts.append(f"f({n},{pattern.name}) != all edges")

    table = {}
    if ok:
        for pattern in (K3, C4):
            row = {}
            for n in range(2, 9):
                r = f_exact(n, pattern, 2)
                for col in r.colorings:
                    _register(col, pattern)
                row[str(n)] = r.value
                ex = ex_exact(n, pattern).value
                if r.value < ex:
                    ok = False
                    detail_parts.append(f"f({n},{pattern.name}) < ex")
            table[pattern.name] = row

    if ok:
        # the golden file is tracked; writing it from the f_exact under
        # test would let that code vouch for itself
        if not GOLDEN_PATH.exists():
            ok = False
            detail_parts.append(f"golden file {GOLDEN_PATH.name} is missing")
        elif json.loads(GOLDEN_PATH.read_text()) != table:
            ok = False
            detail_parts.append("recomputed table deviates from the frozen golden")
        else:
            detail_parts.append("golden re-run consistent")

    detail = "; ".join(detail_parts) if detail_parts else "exact two-color table n<=8"
    _verdict(2, ok, time.time() - t0, 1800, detail)


def test_criterion_3_two_color_audits():
    t0 = time.time()
    ok = True
    detail = ""
    rp = C4.reduced()

    for n in range(2, 41):
        if ex_exact(n, rp).value != n // 2:
            ok, detail = False, f"one-leg-deleted quadrilateral threshold wrong at n={n}"
            break

    audited = 0
    h = C4.h
    cap = 2 ** (2 * h + 2)
    # small hosts carry nearly all bichromatic NIM sets; the tail keeps
    # the sweep honest across the full size range
    sizes = [5, 5, 6, 6, 7, 7, 9]
    tail = list(range(8, 41))
    seed = 0
    while ok and audited < 1000:
        block = sizes + [tail[seed % len(tail)]]
        for n in block:
            col = EdgeColoring.random(n, 2, seed=seed)
            _register(col, C4)
            try:
                rep = audit_two_color(col, C4)
            except NotApplicableError:
                continue
            audited += 1
            if not rep.passed:
                ok, detail = False, f"audit failed at n={n}, seed={seed}"
                break
            total = rep.rows[-1]
            t = rep.decomposition.t
            want = (t + 2 * h) * n + cap * 2 * (n // 2) + cap * cap * 2 * (n // 2)
            if total.claim != "TOTAL" or total.bound != want:
                ok, detail = False, f"closed-form bound mismatch at n={n}, seed={seed}"
                break
        seed += 1
        if seed > 40000:
            ok, detail = False, "sampler exhausted before 1000 audits"
            break
    if ok and not detail:
        detail = f"{audited} bichromatic colorings audited, all bounds hold"
    _verdict(3, ok, time.time() - t0, 600, detail)


def test_criterion_4_three_color_audits():
    t0 = time.time()
    ok = True
    detail = ""
    audited = 0
    sizes = [7, 8, 9, 10, 11, 12, 13, 15]
    tail = list(range(14, 26))
    seed = 0
    while ok and audited < 200:
        block = sizes + [tail[seed % len(tail)]]
        for n in block:
            col = EdgeColoring.random(n, 3, seed=seed)
            _register(col, C4)
            try:
                rep = audit_k_color(col, C4)
            except NotApplicableError:
                continue
            audited += 1
            claims = {r.claim: r for r in rep.rows}
            if not rep.passed:
                ok, detail = False, f"audit failed at n={n}, seed={seed}"
            elif sum(rep.type_counts.values()) != rep.nim_count:
                ok, detail = False, f"edge typing does not partition at n={n}"
            elif rep.n_star != rep.type_counts["(ii)"] + rep.type_counts["(iii)"]:
                ok, detail = False, f"leftover count mismatch at n={n}"
            elif "NSTAR" not in claims or "BSUM" not in claims:
                ok, detail = False, "charge rows missing"
            else:
                mixed = sum(
                    len(members)
                    for vec, members in rep.decomposition.classes
                    if len(set(vec)) >= 2
                )
                if claims["BSUM"].bound != (col.k - 2) * mixed:
                    ok, detail = False, f"B-set cap wrong at n={n}"
            if not ok:
                break
        seed += 1
        if seed > 20000:
            ok, detail = False, "sampler exhausted before 200 audits"
            break
    if ok and not detail:
        detail = f"{audited} trichromatic colorings audited, all charges hold"
    _verdict(4, ok, time.time() - t0, 900, detail)


def test_criterion_5_overlay_packing():
    t0 = time.time()
    ok = True
    detail = ""

    rec = ex_exact(12, C4)
    if rec.value != 21 or not rec.exact or rec.method != "degree-bnb":
        ok, detail = False, f"ex(12) came back {rec.value} via {rec.method}"

    if ok:
        for seed in range(20):
            col, cert = permuted_overlay_coloring(12, C4, 3, seed=seed)
            _register(col, C4)
            if cert.bound != 7:
                ok, detail = False, f"expected overlap ceiling 7, got {cert.bound}"
                break
            if not cert.bound_met or cert.overlap_total > 7:
                ok, detail = False, f"seed {seed} missed the overlap ceiling"
                break
            if not is_h_free(col.class_graph(1), C4) or not is_h_free(col.class_graph(2), C4):
                ok, detail = False, f"a packed class contains the pattern at seed {seed}"
                break
            nim = nim_edges(col, C4).count
            if nim < 2 * 21 - cert.overlap_total:
                ok, detail = False, f"NIM count {nim} below certificate at seed {seed}"
                break
    if ok:
        detail = "20 packings at n=12: overlaps within ceiling 7, certificates honored"
    _verdict(5, ok, time.time() - t0, 300, detail)


def test_criterion_6_pentagon_coloring():
    t0 = time.time()
    ok = True
    detail = "pentagon counts 10/45/90 and triangle-free halves to n=30"
    for n, want in [(5, 10), (10, 45), (15, 90)]:
        col = pentagon_three_coloring(n)
        _register(col, K3)
        got = nim_edges(col, K3).count
        if got != want:
            ok, detail = False, f"count at n={n} is {got}, not {want}"
            break
    if ok:
        for n in range(5, 31):
            col = pentagon_three_coloring(n)
            if not is_h_free(col.class_graph(1), K3) or not is_h_free(col.class_graph(2), K3):
                ok, detail = False, f"a cycle blow-up class has a triangle at n={n}"
                break
    _verdict(6, ok, time.time() - t0, 60, detail)


def test_criterion_7_reducibility_verdicts():
    t0 = time.time()
    ok = True
    detail = "verdict table over bicliques, hexagon, and theta"
    want_reducible = [
        kst_reducibility(3, 3).verdict == "reducible-by-rule",
        kst_reducibility(4, 7).verdict == "reducible-by-rule",
        kst_reducibility(2, 2).verdict == "reducible-by-rule",
        kst_reducibility(5, 14).verdict == "reducible-by-rule",
        is_reducible(build_pattern("c6")).verdict == "reducible",
        is_reducible(build_pattern("theta2,3")).verdict == "reducible",
    ]
    want_unknown = [
        kst_reducibility(4, 5).verdict == "unknown",
        kst_reducibility(4, 6).verdict == "unknown",
    ]
    if not all(want_reducible):
        ok, detail = False, "a reducible case was not recognized"
    elif not all(want_unknown):
        ok, detail = False, "an open case was overclaimed"
    _verdict(7, ok, time.time() - t0, 10, detail)


def test_criterion_8_scan_matches_naive_oracle():
    t0 = time.time()
    ok = True
    detail = ""
    patterns = [K3, C4, K23]
    mismatches = 0
    for seed in range(500):
        n = 4 + seed % 6
        k = 2 + seed % 2
        pattern = patterns[seed % 3]
        col = EdgeColoring.random(n, k, seed=seed)
        _register(col, pattern)
        fast = nim_edges(col, pattern).flags
        slow = tuple(bool(b) for b in oracle_nim_flags(col, pattern))
        if fast != slow:
            mismatches += 1
            if not detail:
                detail = f"first mismatch at seed={seed}, n={n}, {pattern.name}"
    if mismatches:
        ok = False
    else:
        detail = "500 colorings, scan agrees with injection-by-injection oracle"
    _verdict(8, ok, time.time() - t0, 600, detail)


def test_criterion_9_per_color_freeness_everywhere():
    t0 = time.time()
    ok = True
    detail = ""
    checked = 0
    for col, pattern in GENERATED:
        rep = nim_edges(col, pattern)
        for c in range(1, col.k + 1):
            if not is_h_free(rep.color_class_nim_graph(c), pattern):
                ok, detail = False, f"color {c} NIM graph holds a copy (n={col.n})"
                break
        checked += 1
        if not ok:
            break
    if ok:
        detail = f"per-color NIM graphs pattern-free on all {checked} generated colorings"
    _verdict(9, ok, time.time() - t0, 900, detail)
