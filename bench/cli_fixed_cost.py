"""CLI fixed costs, before and after: per-command wall time and work counts.

    python3 bench/cli_fixed_cost.py --parent PATH [--out FILE]

PATH is a checkout of the commit to compare against (`git archive` of it
unpacked somewhere will do); this checkout is the change.  Each case runs
in a fresh process per side and repeat (5 repeats), importing nimlab from
that side's `src/`, with the two sides alternating.  Timed runs are
unwrapped.

- `cli-warm-cache`: the benchmark workload of that name
  (`perfbench/workloads.py`, seed 1), set up once per process, then one
  warm-up pass and 3 timed passes.  Each command's time is its median
  over the passes; the entry per command kind is the median over its 111
  commands, and the median of that over the repeats.
- `cache-800-lines`: a cache file holding the 8 C4 records for n = 2..9,
  repeated to 800 lines.  200 lookups of a key it lacks (K2,3 at n = 6),
  then 200 of one it holds (C4 at n = 9), each timed alone; the entry is
  the median lookup, and `first_ms` the first one.

One more run per side and case installs the benchmark tracer
(`perfbench/tracer.py`, read-only) and counts work that does not depend on
the machine: parsers built (`cli.build_parser` calls), cache lines
JSON-decoded (`json.loads` calls in `turan`), `canon.canonical_form`
calls, and `TuranCache._validate` and `TuranCache.get` calls.  On
`cli-warm-cache`, `counts` covers the first pass after set-up (set-up itself
filled the cache through `TuranCache`) and `counts_warm` the pass after it,
when everything a process keeps from one command to the next is in place.

Each side hashes the case's outputs (every command's exit code and text,
every lookup's record), so equal hashes show that the outputs are
byte-identical.  The result goes to FILE, by default
`bench/BENCH_cli_fixed_cost.json`.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import importlib.util
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
TRACER = os.path.join(PERFBENCH, "tracer.py")
OUT = os.path.join(HERE, "BENCH_cli_fixed_cost.json")
REPEAT = 5
PASSES = 3
LOOKUPS = 200
SEED = 1
MODULES = ("graphs", "canon", "patterns", "monoscan", "turan", "search",
           "constructions", "audit", "cli")
CASES = ("cli-warm-cache", "cache-800-lines")


def _import_lib():
    return types.SimpleNamespace(**{m: importlib.import_module(f"nimlab.{m}") for m in MODULES})


class _Counters:
    """The benchmark tracer plus counters on `cli.build_parser` and on
    `json.loads` as `turan` sees it."""

    def __init__(self, lib):
        spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
        mod = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(mod)
        self.tracer = mod.Tracer()
        self.tracer.install()
        self.parsers = self.loads = 0
        build_parser = lib.cli.build_parser

        def counting_build_parser():
            self.parsers += 1
            return build_parser()

        def counting_loads(*args, **kwargs):
            self.loads += 1
            return json.loads(*args, **kwargs)

        lib.cli.build_parser = counting_build_parser
        lib.turan.json = types.SimpleNamespace(loads=counting_loads, dumps=json.dumps)

    def snapshot(self) -> dict:
        return {
            "parsers_built": self.parsers,
            "lines_decoded": self.loads,
            "canonical_form_calls": self.tracer.layer("canon.canonical_form")["calls"],
            "validate_calls": self.tracer.layer("turan.TuranCache._validate")["calls"],
            "get_calls": self.tracer.layer("turan.TuranCache.get")["calls"],
        }


def _cli_case(counted: bool) -> dict:
    sys.path.insert(0, PERFBENCH)
    import workloads

    lib = _import_lib()
    with tempfile.TemporaryDirectory() as tmp:
        prep = workloads.setup_cli_warm_cache(lib, SEED, tmp)
        counters = _Counters(lib) if counted else None
        times: list[list[float]] = [[] for _ in prep.ops]
        digest = hashlib.sha256()
        snapshots = []
        for p in range(2 if counted else PASSES + 1):
            prep.before_pass()
            for i, op in enumerate(prep.ops):
                t0 = time.perf_counter()
                out = op.run()
                dt = time.perf_counter() - t0
                if p > 0:
                    times[i].append(dt)
                if p == 0:
                    digest.update(op.digest(out).encode())
            if counted:
                snapshots.append(counters.snapshot())
        result = {"output_sha256": digest.hexdigest()}
        if counted:
            first, both = snapshots
            result["counts"] = first
            result["counts_warm"] = {k: both[k] - first[k] for k in both}
            return result
    by_kind: dict[str, list[float]] = {}
    for op, ts in zip(prep.ops, times):
        by_kind.setdefault(op.label.split(":")[1], []).append(statistics.median(ts))
    result["cmd_median_ms"] = {k: 1000 * statistics.median(v) for k, v in sorted(by_kind.items())}
    result["pass_s"] = statistics.median(
        sum(ts[p] for ts in times) for p in range(PASSES))
    return result


def _lines_case(counted: bool) -> dict:
    lib = _import_lib()
    turan = lib.turan
    c4, k23 = lib.patterns.build_pattern("c4"), lib.patterns.build_pattern("k2,3")
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "c4.jsonl")
        cache = turan.TuranCache(path)
        for n in range(2, 10):
            turan.clear_memo()
            turan.ex_exact(n, c4, cache=cache)
        with open(path, "rb") as fh:
            block = fh.read()
        assert block.count(b"\n") == 8
        with open(path, "wb") as fh:
            fh.write(block * 100)
        counters = _Counters(lib) if counted else None
        digest = hashlib.sha256()
        result: dict = {}
        for label, pattern, n in (("miss", k23, 6), ("hit", c4, 9)):
            before = counters.snapshot() if counted else None
            times = []
            for _ in range(LOOKUPS):
                t0 = time.perf_counter()
                rec = cache.get("ex", pattern, None, n)
                times.append(time.perf_counter() - t0)
                digest.update(json.dumps(rec and rec.to_json(), sort_keys=True).encode())
            if counted:
                after = counters.snapshot()
                result[label] = {k: after[k] - before[k] for k in after}
            else:
                result[label] = {"median_ms": 1000 * statistics.median(times),
                                 "first_ms": 1000 * times[0]}
    return {"output_sha256": digest.hexdigest(),
            **({"counts": result} if counted else result)}


def _child(case: str, counted: bool) -> None:
    run = _cli_case if case == "cli-warm-cache" else _lines_case
    print(json.dumps(run(counted)))


def _spawn(src: str, case: str, counted: bool) -> dict:
    env = dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1")
    env.pop("NIMLAB_CACHE", None)
    cmd = [sys.executable, os.path.abspath(__file__), "--child", case]
    if counted:
        cmd.append("--counted")
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _median_of(runs: list[dict], *path) -> float:
    vals = []
    for r in runs:
        for p in path:
            r = r[p]
        vals.append(r)
    return round(statistics.median(vals), 4)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", help="checkout of the commit to compare against")
    ap.add_argument("--out", default=OUT, help="result file (default: %(default)s)")
    ap.add_argument("--child", choices=CASES, help=argparse.SUPPRESS)
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
        "repeat": REPEAT, "passes": PASSES, "lookups": LOOKUPS, "seed": SEED,
        "cases": {},
    }
    for case in CASES:
        runs: dict[str, list[dict]] = {side: [] for side in sides}
        for r in range(REPEAT):
            for side in (list(sides) if r % 2 == 0 else list(sides)[::-1]):
                runs[side].append(_spawn(sides[side], case, counted=False))
        entry = {}
        for side, src in sides.items():
            counted = _spawn(src, case, counted=True)
            side_runs = runs[side]
            out = {"output_sha256": sorted({r["output_sha256"] for r in side_runs + [counted]})}
            if case == "cli-warm-cache":
                kinds = side_runs[0]["cmd_median_ms"]
                out["cmd_median_ms"] = {k: _median_of(side_runs, "cmd_median_ms", k) for k in kinds}
                out["cmd_median_ms_runs"] = {
                    k: [round(r["cmd_median_ms"][k], 4) for r in side_runs] for k in kinds}
                out["pass_s"] = [round(r["pass_s"], 3) for r in side_runs]
                out["pass_s_median"] = _median_of(side_runs, "pass_s")
            else:
                for label in ("miss", "hit"):
                    out[label] = {
                        "median_ms": _median_of(side_runs, label, "median_ms"),
                        "median_ms_runs": [round(r[label]["median_ms"], 4) for r in side_runs],
                        "first_ms": _median_of(side_runs, label, "first_ms"),
                    }
            out["counts"] = counted["counts"]
            if "counts_warm" in counted:
                out["counts_warm"] = counted["counts_warm"]
            entry[side] = out
        entry["same_output"] = entry["parent"]["output_sha256"] == entry["change"]["output_sha256"]
        result["cases"][case] = entry
        print(case, json.dumps(entry), flush=True)
    with open(args.out, "w") as fh:
        json.dump(result, fh, indent=2)
        fh.write("\n")


if __name__ == "__main__":
    main()
