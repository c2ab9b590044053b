"""The exact two-color search, before and after deferring the last level's
canonical test to ties: wall time, work counts and outputs.

    python3 bench/deferred_last_level.py --parent PATH [--out FILE]

PATH is a checkout of the commit to compare against (`git archive` of it
unpacked somewhere will do); this checkout is the change.  Each case runs
in a fresh process per side and repeat (5 repeats, 3 for
`f_exact(9, c4, 2)`), importing nimlab from that side's `src/`, with the
two sides alternating.  Timed runs are unwrapped.  One more run per side
installs the benchmark tracer (`perfbench/tracer.py`) and counts work
that does not depend on the machine:

- `nodes`: the report's `SearchReport.nodes`, colorings scored
- `canonical_form` and `_refine` calls, read from the tracer
- `_copy_through` calls, read from the tracer: the matcher's work

Each side hashes the report's `to_json()` without `nodes` (keys sorted),
so equal hashes show that value and optima, in order, are byte-identical.
The result goes to FILE, by default `bench/BENCH_deferred_last_level.json`.
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
OUT = os.path.join(HERE, "BENCH_deferred_last_level.json")
CASES = {  # case -> (n, pattern, repeats)
    "f_exact(8, c4, 2)": (8, "c4", 5),
    "f_exact(8, c6, 2)": (8, "c6", 5),
    "f_exact(8, k3, 2)": (8, "k3", 5),
    "f_exact(8, k2,3, 2)": (8, "k2,3", 5),
    "f_exact(9, c4, 2)": (9, "c4", 3),
}


def _child(case: str, counted: bool) -> None:
    import nimlab.cli  # noqa: F401  (loads every module the tracer wraps)
    from nimlab.patterns import build_pattern
    from nimlab.search import f_exact

    tracer = None
    if counted:
        spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
        mod = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(mod)
        tracer = mod.Tracer()
        tracer.install()
    n, name, _ = CASES[case]
    pattern = build_pattern(name)
    t0 = time.perf_counter()
    rep = f_exact(n, pattern, 2)
    wall = time.perf_counter() - t0
    doc = rep.to_json()
    del doc["nodes"]
    text = json.dumps(doc, sort_keys=True)
    out = {"wall_s": wall, "output_sha256": hashlib.sha256(text.encode()).hexdigest(),
           "nodes": rep.nodes}
    if tracer is not None:
        out["canonical_form_calls"] = tracer.layer("canon.canonical_form")["calls"]
        out["refine_calls"] = tracer.layer("canon._refine")["calls"]
        out["copy_through_calls"] = tracer.layer("monoscan._copy_through")["calls"]
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
                digests[side].add(run["output_sha256"])
        entry = {}
        for side, src in sides.items():
            run = _spawn(src, case, counted=True)
            digests[side].add(run["output_sha256"])
            entry[side] = {
                "wall_s": walls[side],
                "wall_s_median": round(statistics.median(walls[side]), 3),
                "nodes": run["nodes"],
                "canonical_form_calls": run["canonical_form_calls"],
                "refine_calls": run["refine_calls"],
                "copy_through_calls": run["copy_through_calls"],
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
