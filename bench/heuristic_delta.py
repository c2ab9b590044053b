"""The `f` heuristic, before and after: wall time, matcher work, outputs.

    python3 bench/heuristic_delta.py --parent PATH [--out FILE]

PATH is a checkout of the commit to compare against (`git archive` of it
unpacked somewhere will do); this checkout is the change.  Each case runs
in a fresh process per side and repeat, importing nimlab from that side's
`src/`, with the two sides alternating.  Timed runs are unwrapped.

- `f_heuristic`: `f_heuristic(n, c4, k, budget=B, seed=1)` for n in
  {8, 10, 13, 14}, k in {2, 3} and B in {20, 2000}, no cache.  Each
  process first runs every call once, so the in-process memo holds the
  exact extremal records (n = 8, 10) and the times measure the heuristic,
  its greedy seed past the ceilings (n = 13, 14) included.  Then it times
  each call `CALLS` times; the entry is the median over the calls and then
  over the repeats.
- `cli-warm-cache`: the benchmark workload of that name
  (`perfbench/workloads.py`, seed 1), set up once per process, then one
  warm-up pass and 3 timed passes.  `f_pass_s` is the time of the 111 `f`
  commands in a pass and `pass_s` that of all 999, each the median over
  the passes and then over the repeats.

One more run per side and case counts work that does not depend on the
machine: `_copy_through` calls (the matcher's pinned searches),
`_greedy_lower_bound` calls and the `nodes` of every heuristic report.
Each function is wrapped wherever nimlab holds a reference to it.  On
`f_heuristic` the counts are per call; on `cli-warm-cache` they cover the
first pass after set-up.

Each side hashes the case's outputs (every report's JSON; every command's
exit code and text), so equal hashes show that the outputs are
byte-identical.  The result goes to FILE, by default
`bench/BENCH_heuristic_delta.json`.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
import types

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PERFBENCH = os.path.join(ROOT, "perfbench")
OUT = os.path.join(HERE, "BENCH_heuristic_delta.json")
REPEAT = 3
CALLS = 3
PASSES = 3
SEED = 1
SIZES = (8, 10, 13, 14)
COLORS = (2, 3)
BUDGETS = (20, 2000)
MODULES = ("graphs", "canon", "patterns", "monoscan", "turan", "search",
           "constructions", "audit", "cli")
CASES = ("f_heuristic", "cli-warm-cache")


def _import_lib():
    return types.SimpleNamespace(**{m: importlib.import_module(f"nimlab.{m}") for m in MODULES})


class _Counters:
    """Call counters on `_copy_through` and `_greedy_lower_bound`, and the
    sum of `nodes` over the reports `f_heuristic` returns."""

    def __init__(self, lib):
        self.copy_through = self.greedy = self.nodes = 0

        def bump_copy(out):
            self.copy_through += 1

        def bump_greedy(out):
            self.greedy += 1

        def add_nodes(out):
            self.nodes += out.nodes

        self._wrap(lib.monoscan, "_copy_through", bump_copy)
        self._wrap(lib.turan, "_greedy_lower_bound", bump_greedy)
        self._wrap(lib.search, "f_heuristic", add_nodes)

    @staticmethod
    def _wrap(module, attr, on_return):
        orig = getattr(module, attr)

        def wrapper(*args, **kwargs):
            out = orig(*args, **kwargs)
            on_return(out)
            return out

        for name, mod in list(sys.modules.items()):
            if mod is not None and name.startswith("nimlab"):
                for a, v in list(vars(mod).items()):
                    if v is orig:
                        setattr(mod, a, wrapper)

    def snapshot(self) -> dict:
        return {"copy_through_calls": self.copy_through,
                "greedy_calls": self.greedy,
                "nodes": self.nodes}


def _heuristic_case(counted: bool) -> dict:
    lib = _import_lib()
    c4 = lib.patterns.build_pattern("c4")
    cases = [(n, k, b) for n in SIZES for k in COLORS for b in BUDGETS]

    def run(n, k, b):
        return lib.search.f_heuristic(n, c4, k, budget=b, seed=SEED)

    digest = hashlib.sha256()
    for case in cases:
        digest.update(json.dumps(run(*case).to_json(), sort_keys=True).encode())
    result: dict = {"output_sha256": digest.hexdigest()}
    counters = _Counters(lib) if counted else None
    for case in cases:
        key = "n={} k={} budget={}".format(*case)
        if counted:
            before = counters.snapshot()
            run(*case)
            after = counters.snapshot()
            result[key] = {k: after[k] - before[k] for k in after}
        else:
            times = []
            for _ in range(CALLS):
                t0 = time.perf_counter()
                run(*case)
                times.append(time.perf_counter() - t0)
            result[key] = statistics.median(times)
    return result


def _cli_case(counted: bool) -> dict:
    sys.path.insert(0, PERFBENCH)
    import workloads

    lib = _import_lib()
    with tempfile.TemporaryDirectory() as tmp:
        prep = workloads.setup_cli_warm_cache(lib, SEED, tmp)
        counters = _Counters(lib) if counted else None
        digest = hashlib.sha256()
        f_pass, whole_pass = [], []
        for p in range(2 if counted else PASSES + 1):
            prep.before_pass()
            f_s = all_s = 0.0
            for op in prep.ops:
                t0 = time.perf_counter()
                out = op.run()
                dt = time.perf_counter() - t0
                all_s += dt
                if op.label.endswith(":f"):
                    f_s += dt
                if p == 0:
                    digest.update(op.digest(out).encode())
            if p == 0:
                first = counters.snapshot() if counted else None
                continue
            f_pass.append(f_s)
            whole_pass.append(all_s)
        result = {"output_sha256": digest.hexdigest()}
        if counted:
            result["counts"] = first
        else:
            result["f_pass_s"] = statistics.median(f_pass)
            result["pass_s"] = statistics.median(whole_pass)
        return result


def _spawn(src: str, case: str, counted: bool) -> dict:
    env = dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1")
    env.pop("NIMLAB_CACHE", None)
    cmd = [sys.executable, os.path.abspath(__file__), "--child", case]
    if counted:
        cmd.append("--counted")
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _side_entry(case: str, runs: list[dict], counted: dict) -> dict:
    out = {"output_sha256": sorted({r["output_sha256"] for r in runs + [counted]})}
    if case == "cli-warm-cache":
        for key in ("f_pass_s", "pass_s"):
            out[key] = round(statistics.median(r[key] for r in runs), 4)
            out[key + "_runs"] = [round(r[key], 4) for r in runs]
        out["counts"] = counted["counts"]
    else:
        keys = [k for k in runs[0] if k != "output_sha256"]
        out["median_ms"] = {k: round(1000 * statistics.median(r[k] for r in runs), 3)
                            for k in keys}
        out["counts"] = {k: counted[k] for k in keys}
    return out


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", help="checkout of the commit to compare against")
    ap.add_argument("--out", default=OUT, help="result file (default: %(default)s)")
    ap.add_argument("--child", choices=CASES, help=argparse.SUPPRESS)
    ap.add_argument("--counted", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.child:
        run = _heuristic_case if args.child == "f_heuristic" else _cli_case
        print(json.dumps(run(args.counted)))
        return
    if not args.parent:
        ap.error("--parent is required")

    sides = {"parent": os.path.join(os.path.abspath(args.parent), "src"),
             "change": os.path.join(ROOT, "src")}
    result = {
        "host": {"python": platform.python_version(), "machine": platform.machine(),
                 "cpus": os.cpu_count()},
        "repeat": REPEAT, "calls": CALLS, "passes": PASSES, "seed": SEED,
        "cases": {},
    }
    for case in CASES:
        runs: dict[str, list[dict]] = {side: [] for side in sides}
        for r in range(REPEAT):
            for side in (list(sides) if r % 2 == 0 else list(sides)[::-1]):
                runs[side].append(_spawn(sides[side], case, counted=False))
        entry = {side: _side_entry(case, runs[side], _spawn(src, case, counted=True))
                 for side, src in sides.items()}
        entry["same_output"] = entry["parent"]["output_sha256"] == entry["change"]["output_sha256"]
        result["cases"][case] = entry
        print(case, json.dumps(entry), flush=True)
    with open(args.out, "w") as fh:
        json.dump(result, fh, indent=2)
        fh.write("\n")


if __name__ == "__main__":
    main()
