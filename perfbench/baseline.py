"""Repeat the benchmark over several seeds and summarise its spread.

    python3 perfbench/baseline.py --runs 10 [--workload NAME ...] [--out FILE]

Runs every workload `--runs` times untraced, with seeds 1 to `--runs`,
each in a fresh process, one run at a time, then once traced at seed 1.
For each end-to-end metric it prints the median, the quartiles and the
spread (interquartile distance over the median, as
`statistics.quantiles(values, n=4)` gives the quartiles) next to the
bound in BENCHMARK.json, and flags spreads above a third of the bound.  With `--out` it writes all of that,
the per-layer numbers of the traced run, the interpreter version and the
CPU count to a JSON file.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

from selfcheck import ROOT, invoke


def src_digest() -> str:
    """Digest of the library sources, naming the code that was measured."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workload", action="append",
                    help="workload to run (repeatable); default: all in BENCHMARK.json")
    ap.add_argument("--out")
    args = ap.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "src_sha256": src_digest(),
        "run_seconds": spec["run_seconds"],
        "runs": args.runs,
        "workloads": {},
    }
    wide = 0
    for w in args.workload or names:
        seeds = list(range(1, args.runs + 1))
        values: dict[str, list[float]] = {}
        failed = 0
        t0 = time.time()
        for s in seeds:
            out = invoke(w, s, spec["run_seconds"], 0)
            failed += out["failed"]
            for name, m in out["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        summary = {}
        print(f"{w}  ({args.runs} seeds, {time.time() - t0:.0f} s, {failed} failed)")
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            med = statistics.median(vals)
            spread = (q3 - q1) / med
            bound = bounds[name]
            flag = "" if spread < bound / 3 else "  <-- above bound/3"
            wide += bool(flag)
            print(f"  {name:12s} median {med:11.5g}  q1 {q1:11.5g}  q3 {q3:11.5g}  "
                  f"spread {spread:6.3f}  bound {bound}{flag}", flush=True)
            summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                             "values": vals}
        traced = invoke(w, seeds[0], spec["run_seconds"], 1)
        report["workloads"][w] = {
            "seeds": seeds,
            "failed": failed,
            "end_to_end": summary,
            "per_layer_seed": seeds[0],
            "per_layer": {k: m["value"] for k, m in traced["metrics"].items()},
        }
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return 1 if wide else 0


if __name__ == "__main__":
    sys.exit(main())
