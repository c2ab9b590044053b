"""The matcher before and after its plans were compiled into one search
function per pattern: wall time, matcher calls and outputs.

    python3 bench/compiled_matcher.py --parent PATH [--out FILE]

PATH is a checkout of the commit to compare against (`git archive` of it
unpacked somewhere will do); this checkout is the change.  A case is one
call from an empty memo and no cache file: `f_exact` at k = 2 for C4,
C6, theta2,3 and K_{2,3} at n = 8 and 9, `f_exact(6, c4, 3)`,
`ex_exact(10, k2,3)` and the `f` heuristic at n = 13.  Each case runs in
a fresh process per side and repeat (5 repeats), importing nimlab from
that side's `src/`, with the two sides alternating; the pattern is
parsed before the clock starts, so its plans are built inside the timed
call.  Timed runs are unwrapped.  One more run per side installs the
benchmark tracer (`perfbench/tracer.py`) and counts `_copy_through`
calls, the matcher's pinned searches, a count that does not depend on
the machine.

Each run hashes the call's whole output (the report's JSON, `nodes`
included, or the record's value, method and witnesses), so equal hashes
show byte-identical outputs.  The result goes to FILE, by default
`bench/BENCH_compiled_matcher.json`.
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
OUT = os.path.join(HERE, "BENCH_compiled_matcher.json")
REPEATS = 5
CASES = {  # case -> (function, n, pattern, k)
    **{f"f_exact({n}, {p}, 2)": ("f_exact", n, p, 2)
       for n in (8, 9) for p in ("c4", "c6", "theta2,3", "k2,3")},
    "f_exact(6, c4, 3)": ("f_exact", 6, "c4", 3),
    "ex_exact(10, k2,3)": ("ex_exact", 10, "k2,3", None),
    "f_heuristic(13, c4, 2)": ("f_heuristic", 13, "c4", 2),
}


def _child(case: str, counted: bool) -> None:
    import nimlab.cli  # noqa: F401  (loads every module the tracer wraps)
    from nimlab.patterns import build_pattern
    from nimlab.search import f_exact, f_heuristic
    from nimlab.turan import ex_exact

    tracer = None
    if counted:
        spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
        mod = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(mod)
        tracer = mod.Tracer()
        tracer.install()
    fn, n, name, k = CASES[case]
    pattern = build_pattern(name)
    t0 = time.perf_counter()
    if fn == "ex_exact":
        rec = ex_exact(n, pattern)
        doc = [rec.value, rec.method, list(rec.witnesses)]
    else:
        doc = (f_exact if fn == "f_exact" else f_heuristic)(n, pattern, k).to_json()
    wall = time.perf_counter() - t0
    out = {"wall_s": wall, "output_sha256": hashlib.sha256(
        json.dumps(doc, sort_keys=True).encode()).hexdigest()}
    if tracer is not None:
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
        "repeats": REPEATS,
        "cases": {},
    }
    for case in CASES:
        walls: dict[str, list[float]] = {side: [] for side in sides}
        digests: dict[str, set[str]] = {side: set() for side in sides}
        for r in range(REPEATS):
            order = list(sides) if r % 2 == 0 else list(sides)[::-1]
            for side in order:
                run = _spawn(sides[side], case, counted=False)
                walls[side].append(round(run["wall_s"], 4))
                digests[side].add(run["output_sha256"])
        entry = {}
        for side, src in sides.items():
            run = _spawn(src, case, counted=True)
            digests[side].add(run["output_sha256"])
            entry[side] = {
                "wall_s": walls[side],
                "wall_s_median": round(statistics.median(walls[side]), 4),
                "copy_through_calls": run["copy_through_calls"],
                "output_sha256": sorted(digests[side]),
            }
        entry["same_output"] = entry["parent"]["output_sha256"] == entry["change"]["output_sha256"]
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
