"""The exact two-color search, before and after it became the
averaging-floored descent: wall time, work counts and optima.

    python3 bench/f_descent.py --parent PATH [--out FILE]

PATH is a checkout of the commit to compare against (`git archive` of it
unpacked somewhere will do); this checkout is the change.  A case is one
`f_exact(n, H, 2)` call from an empty memo, so the change's time includes
the `ex_exact(n, H)` it starts from.  Each case runs in a fresh process
per side and repeat (5 repeats, 3 at n = 9), importing nimlab from that
side's `src/`, with the two sides alternating.  Timed runs are unwrapped.
One more run per side installs the benchmark tracer
(`perfbench/tracer.py`) and counts work that does not depend on the
machine:

- `children`: calls to `SimpleGraph.add_vertex`, every child graph
  built, by the coloring search and by the Turán search it calls
- `canonical_form` and `_copy_through` calls, read from the tracer
- `nodes`: the report's `SearchReport.nodes`, whose meaning differs
  between the sides (colorings scored against children scanned)

Each side hashes the value and the sorted `coloring_key`s of the
optima, so equal hashes show that both find the same optimal classes;
the representatives and their order may differ.  `coloring_key` is
defined here, not taken from `nimlab.search`, so that both sides hash
with one key function whatever `search._coloring_key` computes there.
The result goes to FILE, by default `bench/BENCH_f_descent.json`.
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

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TRACER = os.path.join(ROOT, "perfbench", "tracer.py")
OUT = os.path.join(HERE, "BENCH_f_descent.json")
CASES = {  # case -> (n, pattern, repeats)
    **{f"f_exact(8, {p}, 2)": (8, p, 5)
       for p in ("c4", "k3", "k2,3", "c6", "theta2,3", "k3,3", "k1,2")},
    **{f"f_exact(9, {p}, 2)": (9, p, 3) for p in ("c4", "c6", "k2,3")},
}


def coloring_key(coloring) -> str:
    """Hex key of a coloring up to vertex relabeling and color renaming:
    the canonical code of its incidence graph, one vertex per host vertex,
    per edge and per color, each edge vertex joined to its two ends and to
    its color, with the colors in one cell."""
    from nimlab.canon import canonical_code
    from nimlab.graphs import SimpleGraph, edge_pairs

    n, k, m = coloring.n, coloring.k, len(coloring.colors)
    links = []
    for i, (u, v) in enumerate(edge_pairs(n)):
        links += [(n + i, u), (n + i, v), (n + i, n + m + coloring.colors[i] - 1)]
    g = SimpleGraph.from_edges(n + m + k, links)
    return canonical_code(g, cells=[range(n), range(n, n + m), range(n + m, n + m + k)]).hex()


def _child(case: str, counted: bool) -> None:
    import nimlab.cli  # noqa: F401  (loads every module the tracer wraps)
    from nimlab.graphs import SimpleGraph
    from nimlab.patterns import build_pattern
    from nimlab.search import f_exact

    tracer, children = None, [0]
    if counted:
        spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
        mod = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(mod)
        tracer = mod.Tracer()
        tracer.install()
        add_vertex = SimpleGraph.add_vertex

        def counting(self, mask):
            children[0] += 1
            return add_vertex(self, mask)

        SimpleGraph.add_vertex = counting
    n, name, _ = CASES[case]
    pattern = build_pattern(name)
    t0 = time.perf_counter()
    rep = f_exact(n, pattern, 2)
    wall = time.perf_counter() - t0
    out = {"wall_s": wall, "value": rep.value, "optima": len(rep.colorings),
           "nodes": rep.nodes}
    if tracer is not None:  # read before the keys below add canonical forms
        out["children"] = children[0]
        out["canonical_form_calls"] = tracer.layer("canon.canonical_form")["calls"]
        out["copy_through_calls"] = tracer.layer("monoscan._copy_through")["calls"]
    keys = sorted(coloring_key(c) for c in rep.colorings)
    text = json.dumps([rep.value, keys])
    out["optima_sha256"] = hashlib.sha256(text.encode()).hexdigest()
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
        "cases": {},
    }
    for case, (_, _, repeats) in CASES.items():
        walls: dict[str, list[float]] = {side: [] for side in sides}
        digests: dict[str, set[str]] = {side: set() for side in sides}
        for r in range(repeats):
            order = list(sides) if r % 2 == 0 else list(sides)[::-1]
            for side in order:
                run = _spawn(sides[side], case, counted=False)
                walls[side].append(round(run["wall_s"], 3))
                digests[side].add(run["optima_sha256"])
        entry = {}
        for side, src in sides.items():
            run = _spawn(src, case, counted=True)
            digests[side].add(run["optima_sha256"])
            entry[side] = {
                "wall_s": walls[side],
                "wall_s_median": round(statistics.median(walls[side]), 3),
                "value": run["value"],
                "optima": run["optima"],
                "nodes": run["nodes"],
                "children": run["children"],
                "canonical_form_calls": run["canonical_form_calls"],
                "copy_through_calls": run["copy_through_calls"],
                "optima_sha256": sorted(digests[side]),
            }
        entry["same_optima"] = entry["parent"]["optima_sha256"] == entry["change"]["optima_sha256"]
        entry["wall_ratio"] = round(
            entry["change"]["wall_s_median"] / entry["parent"]["wall_s_median"], 3)
        result["cases"][case] = entry
        print(case, json.dumps(entry), flush=True)
    result["total_wall_s_median"] = {
        side: round(sum(e[side]["wall_s_median"] for e in result["cases"].values()), 3)
        for side in sides}
    with open(args.out, "w") as fh:
        json.dump(result, fh, indent=2)
        fh.write("\n")


if __name__ == "__main__":
    main()
