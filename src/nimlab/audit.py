"""Machine checks of the star-decomposition counting argument.

Given a coloring and a pattern H with a designated weak vertex w, the
decomposition picks one star per color, merges their vertex sets into S,
and sorts every outside vertex into a class by the color vector of its
edges into S.  The audits then assert each finite counting bound that the
argument rests on: constant classes are smaller than h, edges wholly
inside or between classes are (H-w)-free in the relevant colors with
matching extremal bounds, and in the k-color setting the leftover edges
are charged to the sets B_i.  Every bound is a proven statement, so a
failed row is evidence of a bug, and the report keeps enough material to
replay it.

`kst_reducibility` and `is_reducible` classify which patterns the
reduction machinery is known to apply to; neither ever claims a negative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .errors import (
    InvalidInputError,
    NonExactRecordError,
    NotApplicableError,
    ResourceLimitError,
)
from .graphs import SimpleGraph, bits_to_list, edge_pairs
from .monoscan import EdgeColoring, NimReport, is_h_free, nim_edges
from .patterns import BipartitePattern, detect_biclique
from .turan import TuranCache, _has_oriented_copy, ex_exact, ex_star_exact

__all__ = [
    "StarDecomposition",
    "AuditRow",
    "AuditReport",
    "build_star_decomposition",
    "audit_two_color",
    "audit_k_color",
    "KstVerdict",
    "kst_reducibility",
    "ReducibilityReport",
    "is_reducible",
]


def _fmt_vec(vec: tuple[int, ...]) -> str:
    return ",".join(map(str, vec))


@dataclass(frozen=True)
class StarDecomposition:
    """One star per color plus the induced classification of V minus S.

    `s_vertices` lists S ascending, and the j-th coordinate of a class
    vector is the color every class member shows toward s_vertices[j].
    `classes` holds (vector, members) pairs sorted by vector.
    """

    n: int
    k: int
    h: int
    pattern_name: str
    centers: tuple[int, ...]
    leaf_sets: tuple[tuple[int, ...], ...]
    branches: tuple[str, ...]
    s_vertices: tuple[int, ...]
    classes: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]

    @property
    def t(self) -> int:
        return len(self.s_vertices)

    def class_size(self, vec: tuple[int, ...]) -> int:
        for v, members in self.classes:
            if v == vec:
                return len(members)
        return 0

    def feasible_colors(self, vec: tuple[int, ...]) -> tuple[int, ...]:
        return tuple(sorted(set(vec)))

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "k": self.k,
            "h": self.h,
            "pattern": self.pattern_name,
            "t": self.t,
            "stars": [
                {"color": i + 1, "center": c, "leaves": list(ls), "branch": b}
                for i, (c, ls, b) in enumerate(
                    zip(self.centers, self.leaf_sets, self.branches)
                )
            ],
            "s_vertices": list(self.s_vertices),
            "classes": [
                {
                    "vector": _fmt_vec(vec),
                    "members": list(members),
                    "feasible": list(self.feasible_colors(vec)),
                }
                for vec, members in self.classes
            ],
        }


def build_star_decomposition(
    coloring: EdgeColoring,
    pattern: BipartitePattern,
    report: Optional[NimReport] = None,
) -> StarDecomposition:
    """Pick the per-color stars and classify the remaining vertices.

    For color i, if some vertex on a color-i edge outside monochromatic
    copies has at least h neighbors in color i, the lowest such vertex
    becomes the center and keeps h color-i neighbors, its lowest such
    partner first, then lowest indices.  Otherwise the center is the
    vertex of maximum color-i degree among those candidates (lowest index
    on ties) and keeps all its color-i neighbors.  Either way the star
    contains an edge of color i that no monochromatic copy passes through.
    """
    if report is None:
        report = nim_edges(coloring, pattern)
    n, k, h = coloring.n, coloring.k, pattern.h

    centers = []
    leaf_sets = []
    branches = []
    for c in range(1, k + 1):
        nim = report.color_class_nim_graph(c).adj
        incident = [v for v in range(n) if nim[v]]
        if not incident:
            raise NotApplicableError(
                "no NIM edge of color i",
                f"color {c} has no edge outside monochromatic copies",
            )
        rows = coloring.class_adj(c)
        big = [v for v in incident if rows[v].bit_count() >= h]
        if big:
            x = min(big)
            partner = bits_to_list(nim[x])[0]
            leaves = [partner]
            for y in bits_to_list(rows[x]):
                if len(leaves) == h:
                    break
                if y != partner:
                    leaves.append(y)
            branch = "big-star"
        else:
            x = max(incident, key=lambda v: (rows[v].bit_count(), -v))
            leaves = bits_to_list(rows[x])
            branch = "max-degree"
        assert nim[x] & sum(1 << y for y in leaves)
        centers.append(x)
        leaf_sets.append(tuple(sorted(leaves)))
        branches.append(branch)

    merged = set()
    for x, ls in zip(centers, leaf_sets):
        merged.add(x)
        merged.update(ls)
    s_vertices = tuple(sorted(merged))
    assert len(s_vertices) <= k * (h + 1)

    grouped: dict[tuple[int, ...], list[int]] = {}
    in_s = set(s_vertices)
    for z in range(n):
        if z in in_s:
            continue
        vec = tuple(
            coloring.color_of(min(z, s), max(z, s)) for s in s_vertices
        )
        grouped.setdefault(vec, []).append(z)
    classes = tuple(
        (vec, tuple(sorted(members))) for vec, members in sorted(grouped.items())
    )

    return StarDecomposition(
        n=n, k=k, h=h, pattern_name=pattern.name,
        centers=tuple(centers), leaf_sets=tuple(leaf_sets),
        branches=tuple(branches), s_vertices=s_vertices, classes=classes,
    )


@dataclass(frozen=True)
class AuditRow:
    """One asserted inequality: measured quantity against its bound.

    A bound of None marks a statement that holds by monotonicity of an
    already-checked sharper bound and was not evaluated numerically.
    """

    claim: str
    measured: int
    bound: Optional[int]
    passed: bool
    note: str = ""

    @property
    def slack(self) -> Optional[int]:
        return None if self.bound is None else self.bound - self.measured

    def to_json(self) -> dict:
        return {
            "claim": self.claim,
            "measured": self.measured,
            "bound": self.bound,
            "slack": self.slack,
            "pass": self.passed,
            "note": self.note,
        }


@dataclass(frozen=True)
class AuditReport:
    kind: str
    n: int
    k: int
    pattern_name: str
    h: int
    nim_count: int
    rows: tuple[AuditRow, ...]
    decomposition: StarDecomposition
    passed: bool
    type_counts: Optional[dict] = None
    b_sizes: Optional[tuple[int, ...]] = None
    n_star: Optional[int] = None
    counterexample: Optional[dict] = None

    def failures(self) -> list[AuditRow]:
        return [r for r in self.rows if not r.passed]

    def to_json(self) -> dict:
        out = {
            "kind": self.kind,
            "n": self.n,
            "k": self.k,
            "pattern": self.pattern_name,
            "h": self.h,
            "nim_count": self.nim_count,
            "pass": self.passed,
            "rows": [r.to_json() for r in self.rows],
            "class_sizes": [
                [_fmt_vec(vec), len(members)]
                for vec, members in self.decomposition.classes
            ],
            "decomposition": self.decomposition.to_json(),
        }
        if self.type_counts is not None:
            out["type_counts"] = self.type_counts
            out["b_sizes"] = list(self.b_sizes)
            out["n_star"] = self.n_star
        if self.counterexample is not None:
            out["counterexample"] = self.counterexample
        return out


# ---------------------------------------------------------------------------
# Shared plumbing for both audits.
# ---------------------------------------------------------------------------


def _require_reducible_pattern(pattern: BipartitePattern) -> None:
    if not pattern.bipartite:
        raise InvalidInputError("pattern-not-bipartite", pattern.name)
    if pattern.weak is None:
        raise InvalidInputError("no-weak-vertex", pattern.name)
    if not pattern.reduced_connected:
        raise InvalidInputError(
            "reduced-pattern-disconnected",
            f"{pattern.name} minus its weak vertex is disconnected",
        )


def _exact_ex(n: int, pat: BipartitePattern, cache: Optional[TuranCache]) -> int:
    rec = ex_exact(n, pat, cache=cache)
    if not rec.exact:
        raise NonExactRecordError(
            "non-exact extremal record",
            f"ex({n}, {pat.name}) is only bounded; the audit needs the exact value",
        )
    return rec.value


def _bucket_nim_edges(dec: StarDecomposition, report: NimReport):
    """Sort NIM edges by where their endpoints fall.

    Returns (inside, cross): inside[class][color] and
    cross[(classA, classB)][color] hold vertex pairs (cross pairs ordered
    classA then classB with classA < classB); edges with an endpoint in S
    are left out.
    """
    n = dec.n
    pairs = edge_pairs(n)
    where: dict[int, int] = {}
    for ci, (_, members) in enumerate(dec.classes):
        for z in members:
            where[z] = ci
    in_s = set(dec.s_vertices)
    inside: dict[int, dict[int, list]] = {}
    cross: dict[tuple[int, int], dict[int, list]] = {}
    for idx, flagged in enumerate(report.flags):
        if not flagged:
            continue
        u, v = pairs[idx]
        c = report.colors[idx]
        if u in in_s or v in in_s:
            continue
        cu, cv = where[u], where[v]
        if cu == cv:
            inside.setdefault(cu, {}).setdefault(c, []).append((u, v))
        else:
            if cu > cv:
                cu, cv, u, v = cv, cu, v, u
            cross.setdefault((cu, cv), {}).setdefault(c, []).append((u, v))
    return inside, cross


def _graph_on(members: tuple[int, ...], edges: list) -> SimpleGraph:
    """The edges as a graph whose vertex i is members[i]."""
    pos = {z: i for i, z in enumerate(members)}
    return SimpleGraph.from_edges(len(members), [(pos[u], pos[v]) for u, v in edges])


def _two_color_rows(tag: str, key: str, where: str, members: tuple[int, ...],
                    by_color: dict, rp: BipartitePattern, ex_n: int,
                    cache: Optional[TuranCache]) -> list[AuditRow]:
    """C2/C3 rows for one vertex set: per color the NIM edges on `members`
    are (H-w)-free and at most ex(|members|, H-w); both colors together
    stay within twice that and within twice ex(n, H-w)."""
    ex_local = _exact_ex(len(members), rp, cache)
    rows = []
    total = 0
    for c in (1, 2):
        edges = by_color.get(c, [])
        free = is_h_free(_graph_on(members, edges), rp)
        rows.append(AuditRow(
            f"{tag}.free[{key},color={c}]", int(not free), 0,
            free, f"reduced pattern absent {where}",
        ))
        rows.append(AuditRow(
            f"{tag}.count[{key},color={c}]", len(edges), ex_local,
            len(edges) <= ex_local, "",
        ))
        total += len(edges)
    rows.append(AuditRow(
        f"{tag}.total[{key}]", total, 2 * ex_local, total <= 2 * ex_local, "",
    ))
    rows.append(AuditRow(
        f"{tag}.literal[{key}]", total, 2 * ex_n, total <= 2 * ex_n,
        "n-level bound",
    ))
    return rows


def _finish(kind, coloring, pattern, report, dec, rows, extras=None):
    passed = all(r.passed for r in rows)
    counterexample = None
    if not passed:
        first = next(r for r in rows if not r.passed)
        counterexample = {
            "claim": first.claim,
            "coloring": coloring.to_text(),
            "pattern": pattern.name,
            "s_vertices": list(dec.s_vertices),
        }
    extras = extras or {}
    return AuditReport(
        kind=kind, n=coloring.n, k=coloring.k, pattern_name=pattern.name,
        h=pattern.h, nim_count=report.count, rows=tuple(rows),
        decomposition=dec, passed=passed, counterexample=counterexample,
        **extras,
    )


# ---------------------------------------------------------------------------
# Two-color audit.
# ---------------------------------------------------------------------------


def audit_two_color(coloring: EdgeColoring, pattern: BipartitePattern, *,
                    cache: Optional[TuranCache] = None) -> AuditReport:
    """Check every counting bound behind the two-color reduction.

    Applies when both colors own an edge outside monochromatic copies;
    constant-vector classes must then stay below h vertices (C1), edges
    inside a mixed class are (H-w)-free per color with extremal bounds
    (C2), likewise between two mixed classes (C3), and the total count is
    dominated by the closed-form expression in t, h, and ex(n, H-w).
    Bounds are checked both at class-local sizes and at the literal
    n-level values.
    """
    if coloring.k != 2:
        raise InvalidInputError(
            "not-a-two-coloring", f"coloring has k={coloring.k}"
        )
    _require_reducible_pattern(pattern)
    report = nim_edges(coloring, pattern)
    present = sorted({report.colors[i] for i, f in enumerate(report.flags) if f})
    if not present:
        raise NotApplicableError(
            "empty NIM set", "no edge avoids monochromatic copies"
        )
    if len(present) == 1:
        raise NotApplicableError(
            "single-color NIM set",
            f"every edge outside monochromatic copies has color {present[0]}",
        )

    dec = build_star_decomposition(coloring, pattern, report)
    rp = pattern.reduced()
    n, h, t = coloring.n, pattern.h, dec.t
    ex_n = _exact_ex(n, rp, cache)
    rows: list[AuditRow] = []

    for c in (1, 2):
        size = dec.class_size((c,) * t)
        rows.append(AuditRow(
            f"C1[color={c}]", size, h - 1, size <= h - 1,
            "constant class stays below h",
        ))

    inside, cross = _bucket_nim_edges(dec, report)
    mixed = [ci for ci, (vec, _) in enumerate(dec.classes)
             if len(set(vec)) >= 2]

    for ci in mixed:
        vec, members = dec.classes[ci]
        rows += _two_color_rows(
            "C2", f"v={_fmt_vec(vec)}", "inside the class", members,
            inside.get(ci, {}), rp, ex_n, cache,
        )

    for a in range(len(mixed)):
        for b in range(a + 1, len(mixed)):
            cu, cv = mixed[a], mixed[b]
            uvec, mu = dec.classes[cu]
            vvec, mv = dec.classes[cv]
            rows += _two_color_rows(
                "C3", f"u={_fmt_vec(uvec)},v={_fmt_vec(vvec)}",
                "between the classes", mu + mv, cross.get((cu, cv), {}),
                rp, ex_n, cache,
            )

    classes_cap = 2 ** (2 * h + 2)
    total_bound = (t + 2 * h) * n + classes_cap * 2 * ex_n \
        + classes_cap * classes_cap * 2 * ex_n
    rows.append(AuditRow(
        "TOTAL", report.count, total_bound, report.count <= total_bound,
        "count of edges outside monochromatic copies against the closed form",
    ))

    return _finish("two-color", coloring, pattern, report, dec, rows)


# ---------------------------------------------------------------------------
# k-color audit.
# ---------------------------------------------------------------------------


def audit_k_color(coloring: EdgeColoring, pattern: BipartitePattern, *,
                  cache: Optional[TuranCache] = None) -> AuditReport:
    """Check the k-color generalization on a concrete coloring.

    Needs every color to own an edge outside monochromatic copies.  On
    top of the per-class and per-pair bounds (the pair bounds are
    one-sided: the orientation of the forbidden reduced copy depends on
    which class vector shows the color), every such edge is typed, the
    leftovers are verified to sit inside the sets B_i, and their count
    N* is charged to sum of ex(b_i, H).
    """
    _require_reducible_pattern(pattern)
    report = nim_edges(coloring, pattern)
    k, n, h = coloring.k, coloring.n, pattern.h
    present = {report.colors[i] for i, f in enumerate(report.flags) if f}
    missing = [c for c in range(1, k + 1) if c not in present]
    if missing:
        raise NotApplicableError(
            "missing color in NIM set",
            f"colors {missing} have no edge outside monochromatic copies",
        )

    dec = build_star_decomposition(coloring, pattern, report)
    rp = pattern.reduced()
    t = dec.t
    ex_n = _exact_ex(n, rp, cache)
    try:
        ex_star_n = ex_star_exact(n, n, rp, cache=cache).value
    except ResourceLimitError:
        ex_star_n = None
    rows: list[AuditRow] = []

    for c in range(1, k + 1):
        size = dec.class_size((c,) * t)
        rows.append(AuditRow(
            f"A1[color={c}]", size, h - 1, size <= h - 1,
            "constant class stays below h",
        ))

    inside, cross = _bucket_nim_edges(dec, report)
    feas = [set(vec) for vec, _ in dec.classes]

    for ci, (vec, members) in enumerate(dec.classes):
        vs = _fmt_vec(vec)
        ex_local = _exact_ex(len(members), rp, cache)
        for c in sorted(feas[ci]):
            edges = inside.get(ci, {}).get(c, [])
            g = _graph_on(members, edges)
            free = is_h_free(g, rp)
            rows.append(AuditRow(
                f"A2.free[v={vs},i={c}]", int(not free), 0, free,
                "reduced pattern absent inside the class",
            ))
            rows.append(AuditRow(
                f"A2.count[v={vs},i={c}]", len(edges), ex_local,
                len(edges) <= ex_local, "",
            ))
            rows.append(AuditRow(
                f"A2.literal[v={vs},i={c}]", len(edges), ex_n,
                len(edges) <= ex_n, "n-level bound",
            ))

    for cu in range(len(dec.classes)):
        for cv in range(cu + 1, len(dec.classes)):
            uvec, mu = dec.classes[cu]
            vvec, mv = dec.classes[cv]
            us, vs = _fmt_vec(uvec), _fmt_vec(vvec)
            for c in sorted(feas[cu] | feas[cv]):
                edges = cross.get((cu, cv), {}).get(c, [])
                cnt = len(edges)
                bounds = []
                # completion sits on the side whose vector shows color c:
                # forbid reduced copies with the deleted vertex's side
                # inside the other class
                for side, xs, ys, owner in (("u", mu, mv, cv), ("v", mv, mu, cu)):
                    if c not in feas[owner]:
                        continue
                    has = _has_oriented_copy(_graph_on(xs + ys, edges), len(xs), rp)
                    rows.append(AuditRow(
                        f"A3.free[u={us},v={vs},i={c},X-side={side}]",
                        int(has), 0, not has, "",
                    ))
                    bounds.append(
                        ex_star_exact(len(xs), len(ys), rp, cache=cache).value
                    )
                bound = min(bounds)
                rows.append(AuditRow(
                    f"A3.count[u={us},v={vs},i={c}]", cnt, bound,
                    cnt <= bound, "",
                ))
                if ex_star_n is not None:
                    rows.append(AuditRow(
                        f"A3.literal[u={us},v={vs},i={c}]", cnt, ex_star_n,
                        cnt <= ex_star_n, "n-level one-sided bound",
                    ))
                else:
                    rows.append(AuditRow(
                        f"A3.literal[u={us},v={vs},i={c}]", cnt, None, True,
                        "implied by monotonicity of the one-sided bound",
                    ))

    # -- edge typing and the B_i charge ------------------------------------
    # Type (i) is every NIM edge touching S (those the buckets leave out)
    # or a constant class; the rest are typed by whether their color is
    # feasible for the class, or for one of the two classes, they join.
    constant = {ci for ci, colors in enumerate(feas) if len(colors) == 1}
    type_counts = {"(i)": 0, "(2)": 0, "(ii)": 0, "(3)": 0, "(iii)": 0}
    leftover: dict[int, list] = {c: [] for c in range(1, k + 1)}
    bucketed = 0
    typed = [((ci,), "(2)", "(ii)", by_color) for ci, by_color in inside.items()]
    typed += [(pair, "(3)", "(iii)", by_color) for pair, by_color in cross.items()]
    for key, fits, misfits, by_color in typed:
        own = set().union(*(feas[ci] for ci in key))
        for c, edges in by_color.items():
            bucketed += len(edges)
            if constant.intersection(key):
                type_counts["(i)"] += len(edges)
            elif c in own:
                type_counts[fits] += len(edges)
            else:
                type_counts[misfits] += len(edges)
                leftover[c] += edges
    type_counts["(i)"] += report.count - bucketed

    b_sets = []
    for c in range(1, k + 1):
        members: set[int] = set()
        for ci, (vec, mem) in enumerate(dec.classes):
            if len(feas[ci]) >= 2 and c not in feas[ci]:
                members.update(mem)
        b_sets.append(members)
    b_sizes = tuple(len(s) for s in b_sets)

    n_star = sum(len(v) for v in leftover.values())
    nstar_bound = 0
    for c in range(1, k + 1):
        bi = b_sets[c - 1]
        out_of_place = sum(
            1 for u, v in leftover[c] if u not in bi or v not in bi
        )
        rows.append(AuditRow(
            f"B.contain[i={c}]", out_of_place, 0, out_of_place == 0,
            "typed leftover edges stay inside B_i",
        ))
        ordered = tuple(sorted(bi))
        free = is_h_free(report.color_class_nim_graph(c).induced(ordered), pattern)
        rows.append(AuditRow(
            f"B.free[i={c}]", int(not free), 0, free,
            "NIM edges of one color inside B_i avoid the full pattern",
        ))
        cap = _exact_ex(len(ordered), pattern, cache)
        nstar_bound += cap
        rows.append(AuditRow(
            f"B.count[i={c}]", len(leftover[c]), cap,
            len(leftover[c]) <= cap, "",
        ))
    rows.append(AuditRow(
        "NSTAR", n_star, nstar_bound, n_star <= nstar_bound,
        "all leftover edges against sum of ex(b_i, H)",
    ))

    mixed_total = sum(
        len(mem) for ci, (_, mem) in enumerate(dec.classes)
        if len(feas[ci]) >= 2
    )
    rows.append(AuditRow(
        "BSUM", sum(b_sizes), (k - 2) * mixed_total,
        sum(b_sizes) <= (k - 2) * mixed_total,
        "each mixed class misses at most k-2 colors",
    ))

    return _finish(
        "k-color", coloring, pattern, report, dec, rows,
        extras={
            "type_counts": type_counts,
            "b_sizes": b_sizes,
            "n_star": n_star,
        },
    )


# ---------------------------------------------------------------------------
# Reducibility classification.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class KstVerdict:
    s: int
    t: int
    verdict: str
    threshold: int
    rule: str

    def to_json(self) -> dict:
        return {
            "s": self.s, "t": self.t, "verdict": self.verdict,
            "threshold": self.threshold, "rule": self.rule,
        }


def kst_reducibility(s: int, t: int) -> KstVerdict:
    """Sufficient condition for complete bipartite patterns.

    K_{s,t} is reducible whenever t exceeds min(s^2-3s+3, (s-1)!); below
    that the verdict is unknown, never negative.  The paper's special
    pairs (3,3) and (4,7) need no verdict of their own: for s = 3 and
    s = 4 the smaller term is (s-1)! = 2 and 6, so both pairs pass the
    rule.
    """
    if s < 1 or t < s:
        raise InvalidInputError("invalid-pair", f"(s,t)=({s},{t}) needs 1 <= s <= t")
    threshold = min(s * s - 3 * s + 3, math.factorial(s - 1))
    if t > threshold:
        return KstVerdict(
            s, t, "reducible-by-rule", threshold,
            f"t={t} > min(s^2-3s+3, (s-1)!) = {threshold}",
        )
    return KstVerdict(
        s, t, "unknown", threshold,
        f"t={t} <= {threshold}; the rule is sufficient only",
    )


@dataclass(frozen=True)
class ReducibilityReport:
    pattern_name: str
    verdict: str
    reason: str

    def to_json(self) -> dict:
        return {
            "pattern": self.pattern_name,
            "verdict": self.verdict,
            "reason": self.reason,
        }


def is_reducible(pattern: BipartitePattern) -> ReducibilityReport:
    """Whether the pattern is known to admit the weak-vertex reduction.

    Fires on cyclic patterns where deleting one vertex leaves a tree, and
    on complete bipartite patterns passing the size rule.  Everything
    else is reported unknown: the known conditions are sufficient only.
    """
    if not pattern.bipartite:
        raise InvalidInputError("pattern-not-bipartite", pattern.name)
    g = pattern.graph
    if pattern.contains_cycle():
        for w in range(g.n):
            rest = g.delete_vertex(w)
            if rest.num_edges == rest.n - 1 and rest.component_count() == 1:
                return ReducibilityReport(
                    pattern.name, "reducible",
                    f"contains a cycle and deleting vertex {w} leaves a tree",
                )
    sides = detect_biclique(g)
    if sides is not None:
        s, t = sides
        kv = kst_reducibility(s, t)
        if kv.verdict != "unknown":
            return ReducibilityReport(
                pattern.name, "reducible",
                f"complete bipartite rule: {kv.rule}",
            )
    return ReducibilityReport(
        pattern.name, "unknown", "outside the families with a proven reduction"
    )
