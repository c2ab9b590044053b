"""The exact Turán descent, before and after sharing its enumeration
layers across edge levels and orders: wall time, work counts, traced
memory and outputs.

    python3 bench/descent_layers.py --parent PATH [--out FILE]

PATH is a checkout of the commit to compare against (`git archive` of it
unpacked somewhere will do); this checkout is the change.  A case is a
list of `ex_exact` calls, made with no cache file, from an empty memo
before each call, or once before the first for a chain (`ex(2..12, c4)`
asks n = 2..12 in turn in one process, so later calls may read earlier
records from the memo).  Each case runs in a fresh process per side and
repeat (5 repeats, 3 for `ex(12, k2,7)`), importing nimlab from that
side's `src/`, with the two sides alternating.  Timed runs are unwrapped.
Two more runs per side are not timed:

- one installs the benchmark tracer (`perfbench/tracer.py`) and counts
  work that does not depend on the machine: calls to `canon._children`
  (one per parent graph augmented, counted by a wrapper of its own) and
  to `canonical_form` and `_copy_through` (read from the tracer);
- one reads the peak of memory traced by `tracemalloc`.

Each side hashes every record's `to_json()` and the output of the CLI's
`ex --n N --pattern P` for every call of the case, so equal hashes show
that values, extremal classes, methods and the CLI JSON are
byte-identical.  The result goes to FILE, by default
`bench/BENCH_descent_layers.json`.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.util
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import tracemalloc

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TRACER = os.path.join(ROOT, "perfbench", "tracer.py")
OUT = os.path.join(HERE, "BENCH_descent_layers.json")
FAMILIES = ("c4", "c6", "k2,3", "theta2,3")  # perfbench/oracle.py's FAMILIES
CASES = {  # case -> (calls as (pattern, n), chain, repeats)
    "ex(10, c4)": ([("c4", 10)], False, 5),
    "ex(10, k2,3)": ([("k2,3", 10)], False, 5),
    "ex(8, c6)": ([("c6", 8)], False, 5),
    "ex(2..12, c4)": ([("c4", n) for n in range(2, 13)], True, 5),
    "families, n <= 10": ([(p, n) for p in FAMILIES for n in range(1, 11)], False, 5),
    "ex(11, c4)": ([("c4", 11)], False, 5),
    "ex(12, c4)": ([("c4", 12)], False, 5),
    "ex(11, k2,3)": ([("k2,3", 11)], False, 5),
    "ex(12, k2,3)": ([("k2,3", 12)], False, 5),
    "ex(10, c6)": ([("c6", 10)], False, 5),
    "ex(10, theta2,3)": ([("theta2,3", 10)], False, 5),
    "ex(11, k2,4)": ([("k2,4", 11)], False, 5),
    "ex(12, k2,4)": ([("k2,4", 12)], False, 5),
    "ex(11, k2,5)": ([("k2,5", 11)], False, 5),
    "ex(11, k2,6)": ([("k2,6", 11)], False, 5),
    "ex(12, k2,7)": ([("k2,7", 12)], False, 3),
}


def _child(case: str, mode: str) -> None:
    import nimlab.canon as canon
    import nimlab.cli as cli
    import nimlab.turan as turan
    from nimlab.patterns import build_pattern

    calls, chain, _ = CASES[case]
    patterns = {name: build_pattern(name) for name, _ in calls}
    out = {}
    tracer = None
    if mode == "counted":
        spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
        mod = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(mod)
        tracer = mod.Tracer()
        tracer.install()
        children = canon._children
        out["children_calls"] = 0

        def counting(*args):
            out["children_calls"] += 1
            return children(*args)

        for module in (canon, turan):
            if getattr(module, "_children", None) is children:
                module._children = counting
    elif mode == "memory":
        tracemalloc.start()
    records = []
    turan.clear_memo()
    t0 = time.perf_counter()
    for name, n in calls:
        if not chain:
            turan.clear_memo()
        records.append(turan.ex_exact(n, patterns[name]))
    wall = time.perf_counter() - t0
    if mode == "memory":
        out["traced_peak_mb"] = round(tracemalloc.get_traced_memory()[1] / 2**20, 2)
        tracemalloc.stop()
    if tracer is not None:
        tracer.uninstall()
        out["canonical_form_calls"] = tracer.layer("canon.canonical_form")["calls"]
        out["copy_through_calls"] = tracer.layer("monoscan._copy_through")["calls"]
    digest = hashlib.sha256()
    for (name, n), rec in zip(calls, records):
        digest.update(json.dumps(rec.to_json(), sort_keys=True).encode())
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            cli.main(["ex", "--n", str(n), "--pattern", name])
        digest.update(buf.getvalue().encode())
    out["wall_s"] = wall
    out["output_sha256"] = digest.hexdigest()
    print(json.dumps(out))


def _spawn(src: str, case: str, mode: str) -> dict:
    env = dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1")
    env.pop("NIMLAB_CACHE", None)
    cmd = [sys.executable, os.path.abspath(__file__), "--child", case, "--mode", mode]
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", help="checkout of the commit to compare against")
    ap.add_argument("--out", default=OUT, help="result file (default: %(default)s)")
    ap.add_argument("--child", help=argparse.SUPPRESS)
    ap.add_argument("--mode", default="timed", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.child:
        _child(args.child, args.mode)
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
                run = _spawn(sides[side], case, "timed")
                walls[side].append(round(run["wall_s"], 3))
                digests[side].add(run["output_sha256"])
        entry = {}
        for side, src in sides.items():
            counted = _spawn(src, case, "counted")
            memory = _spawn(src, case, "memory")
            digests[side].update((counted["output_sha256"], memory["output_sha256"]))
            entry[side] = {
                "wall_s": walls[side],
                "wall_s_median": round(statistics.median(walls[side]), 3),
                "children_calls": counted["children_calls"],
                "canonical_form_calls": counted["canonical_form_calls"],
                "copy_through_calls": counted["copy_through_calls"],
                "traced_peak_mb": memory["traced_peak_mb"],
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
