"""Canonical augmentation and the exact coloring search, before and after:
wall time and work counts.

    python3 bench/canon_augmentation.py --parent PATH [--out FILE]

PATH is a checkout of the commit to compare against (`git archive` of it
unpacked somewhere will do); this checkout is the change.  Each case runs
in a fresh process per side and repeat (5 repeats, 1 for
`f_exact(9, c4, 2)`), importing nimlab from that side's `src/`, with the
two sides alternating.  Timed runs are unwrapped.  One more run per side
installs the benchmark tracer (`perfbench/tracer.py`) and counts work
that does not depend on the machine:

- children built: `SimpleGraph.add_vertex` calls (only `canon` makes them)
- `canonical_form`, `_refine` and `_leaf` calls, read from the tracer
- `_copy_through` calls, read from the tracer: the matcher's work; for
  the two-color cases also split into the calls made by the
  enumeration's predicate on children of fewer than n vertices (the
  scans of colorings of K_v, v < n) and the rest (the scoring of the
  colorings of K_n, wherever it runs)
- for the `f_exact` cases, `SearchReport.nodes`: colorings scored

Each side also hashes the case's output (the enumerated graphs in order,
the `f_exact` report, the `_enum_ex` record), so equal hashes show that
the outputs are byte-identical.  The hashed `f_exact` reports leave out
`nodes`, which is reported as a count instead.  For `f_exact(5, c4, 3)`
the output is the value and the sorted keys of the optima, by
`f_descent.coloring_key` on both sides, since the three-color search may
list optima in another order; the keys are computed inside the timed
run, alike on both sides.  The result goes to FILE, by default
`bench/BENCH_canon_augmentation.json`.

`enumerate_graphs(8, m <= 14)` is every class on 8 vertices with at most
14 edges, capped by a predicate, and `enumerate_graphs(8, max_edges=14)`
is the same sweep with the cap passed as `max_edges`, so that children
over it are never built.  Neither is the sweep of `f_exact(8, c4, 2)`,
whose descent keeps only colorings with enough NIM pairs.  The committed
results name the second case `search._smallest_classes(8, 2)`, the
helper it ran through when they were measured.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from typing import Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TRACER = os.path.join(ROOT, "perfbench", "tracer.py")
OUT = os.path.join(HERE, "BENCH_canon_augmentation.json")
REPEAT = 5

CASES = ("enumerate_graphs(8)", "enumerate_graphs(8, m <= 14)", "enumerate_graphs(8, max_edges=14)",
         "f_exact(8, c4, 2)", "f_exact(8, c6, 2)", "f_exact(8, k2,3, 2)", "f_exact(9, c4, 2)",
         "f_exact(5, c4, 3)", "_enum_ex(8, c6)")
SINGLE = ("f_exact(9, c4, 2)",)  # cases run once per side, too slow to repeat
TWO_COLOR = {  # case -> (n, pattern)
    "f_exact(8, c4, 2)": (8, "c4"),
    "f_exact(8, c6, 2)": (8, "c6"),
    "f_exact(8, k2,3, 2)": (8, "k2,3"),
    "f_exact(9, c4, 2)": (9, "c4"),
}
COUNTED = ("add_vertex", "canonical_form", "_refine", "_leaf")


def _run_case(case: str) -> tuple[str, Optional[int]]:
    """Run one case; return the JSON text of its output and, for a search,
    its `SearchReport.nodes`."""
    from nimlab.canon import enumerate_graphs
    from nimlab.patterns import build_pattern
    from f_descent import coloring_key
    from nimlab.search import f_exact
    from nimlab.turan import _enum_ex

    if case == "enumerate_graphs(8)":
        return json.dumps([[g.n, list(g.adj)] for g in enumerate_graphs(8)]), None
    if case == "enumerate_graphs(8, m <= 14)":
        capped = enumerate_graphs(8, predicate=lambda child, z: child.num_edges <= 14)
        return json.dumps([[g.n, list(g.adj)] for g in capped]), None
    if case == "enumerate_graphs(8, max_edges=14)":
        capped = enumerate_graphs(8, ceiling=8, max_edges=lambda v: 14)
        return json.dumps([[g.n, list(g.adj)] for g in capped]), None
    if case in TWO_COLOR:
        n, name = TWO_COLOR[case]
        rep = f_exact(n, build_pattern(name), 2)
        doc = rep.to_json()
        del doc["nodes"]
        return json.dumps(doc, sort_keys=True), rep.nodes
    if case == "f_exact(5, c4, 3)":
        rep = f_exact(5, build_pattern("c4"), 3)
        keys = sorted(coloring_key(c) for c in rep.colorings)
        return json.dumps({"value": rep.value, "keys": keys}), rep.nodes
    if case == "_enum_ex(8, c6)":
        return json.dumps(_enum_ex(8, build_pattern("c6"), "").to_json(), sort_keys=True), None
    raise SystemExit(f"unknown case {case!r}")


def _install_counters():
    """Install the benchmark tracer and count `add_vertex` calls beside it,
    and `_copy_through` calls made inside the test that the exact search
    passes to `canon._children` on a child of fewer than n vertices (one
    not on the last level)."""
    from nimlab import graphs, monoscan, search

    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    tracer = mod.Tracer()
    tracer.install()
    added = [0]
    add_vertex = graphs.SimpleGraph.add_vertex

    def counting(self, mask):
        added[0] += 1
        return add_vertex(self, mask)

    graphs.SimpleGraph.add_vertex = counting

    in_predicate = [False]
    predicate_calls = [0]
    copy_through = monoscan._copy_through
    children = search._children

    def counting_copy_through(*args, **kwargs):
        predicate_calls[0] += in_predicate[0]
        return copy_through(*args, **kwargs)

    def watched_children(parent, generators, test, room, final, *rest):
        def run(child, z):
            in_predicate[0] = not final
            try:
                return test(child, z)
            finally:
                in_predicate[0] = False
        return children(parent, generators, run, room, final, *rest)

    monoscan._copy_through = counting_copy_through
    search._children = watched_children
    return lambda: {
        "add_vertex": added[0],
        **{name: tracer.layer(f"canon.{name}")["calls"] for name in COUNTED[1:]},
        "_copy_through": tracer.layer("monoscan._copy_through")["calls"],
        "_copy_through_in_predicate": predicate_calls[0],
    }


def _child(case: str, counted: bool) -> None:
    import nimlab.cli  # noqa: F401  (loads every module the tracer wraps)

    counts = _install_counters() if counted else None
    t0 = time.perf_counter()
    text, nodes = _run_case(case)
    wall = time.perf_counter() - t0
    out = {"wall_s": wall, "output_sha256": hashlib.sha256(text.encode()).hexdigest()}
    if counts is not None:
        out["counts"] = {**counts(), "nodes": nodes}
    print(json.dumps(out))


def _spawn(src: str, case: str, counted: bool) -> dict:
    env = dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, os.path.abspath(__file__), "--child", case]
    if counted:
        cmd.append("--counted")
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", help="checkout of the commit to compare against")
    ap.add_argument("--out", default=OUT, help="result file (default: %(default)s)")
    ap.add_argument("--child", help=argparse.SUPPRESS)
    ap.add_argument("--counted", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.child:
        _child(args.child, args.counted)
        return
    if not args.parent:
        ap.error("--parent is required")

    sides = {"parent": os.path.join(os.path.abspath(args.parent), "src"),
             "change": os.path.join(ROOT, "src")}
    result = {
        "host": {"python": platform.python_version(), "machine": platform.machine(),
                 "cpus": os.cpu_count()},
        "repeat": REPEAT,
        "cases": {},
    }
    for case in CASES:
        entry = {}
        walls: dict[str, list[float]] = {side: [] for side in sides}
        digests: dict[str, set[str]] = {side: set() for side in sides}
        for r in range(1 if case in SINGLE else REPEAT):
            order = list(sides) if r % 2 == 0 else list(sides)[::-1]
            for side in order:
                run = _spawn(sides[side], case, counted=False)
                walls[side].append(round(run["wall_s"], 3))
                digests[side].add(run["output_sha256"])
        for side, src in sides.items():
            run = _spawn(src, case, counted=True)
            digests[side].add(run["output_sha256"])
            entry[side] = {
                "wall_s": walls[side],
                "wall_s_median": round(statistics.median(walls[side]), 3),
                "children_built": run["counts"]["add_vertex"],
                "canonical_form_calls": run["counts"]["canonical_form"],
                "refine_calls": run["counts"]["_refine"],
                "leaf_calls": run["counts"]["_leaf"],
                "copy_through_calls": run["counts"]["_copy_through"],
                "copy_through_in_predicate": run["counts"]["_copy_through_in_predicate"],
                "copy_through_in_scoring": (run["counts"]["_copy_through"]
                                            - run["counts"]["_copy_through_in_predicate"]),
                "search_nodes": run["counts"]["nodes"],
                "output_sha256": sorted(digests[side]),
            }
        entry["same_output"] = entry["parent"]["output_sha256"] == entry["change"]["output_sha256"]
        entry["wall_ratio"] = round(
            entry["change"]["wall_s_median"] / entry["parent"]["wall_s_median"], 3)
        result["cases"][case] = entry
        print(case, json.dumps(entry), flush=True)
    with open(args.out, "w") as fh:
        json.dump(result, fh, indent=2)
        fh.write("\n")


if __name__ == "__main__":
    main()
