"""Determinism self-check for the benchmark.

    python3 perfbench/selfcheck.py [--workload NAME ...] [--seeds 11 12]

For each workload (by default those listed in BENCHMARK.json), makes two
traced runs at the first seed and one at the second, each in its own
process, one after another.  It passes when
  - every run is correct,
  - every count metric (calls, yielded, nodes, and the hit ratios built
    from them) is identical across the two runs at the first seed,
  - the second seed changes the inputs (their digest differs), and
  - no exact value differs between the seeds.
Exits 0 on a pass, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
LISTED = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


def invoke(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """Run the benchmark once in a fresh process and parse what it prints."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    out = json.loads(lines[-1])
    for line in lines[:-1]:
        if line.startswith("# inputs_sha256 "):
            out["inputs_sha256"] = line.split()[-1]
        elif line.startswith("# exact_values "):
            out["exact_values"] = json.loads(line[len("# exact_values "):])
    return out


def deterministic(name: str, metric: dict) -> bool:
    return metric["unit"] == "count" or name.endswith("hit_ratio")


def check(workload: str, seed_a: int, seed_b: int) -> list[str]:
    a1, a2, b = (invoke(workload, s, 1, 1) for s in (seed_a, seed_a, seed_b))
    problems = []
    for tag, run in (("first", a1), ("second", a2), ("other-seed", b)):
        if not run["correct"] or run["failed"]:
            problems.append(f"{tag} run failed {run['failed']} of {run['attempted']} operations")
    for name, m in a1["metrics"].items():
        if deterministic(name, m) and m["value"] != a2["metrics"][name]["value"]:
            problems.append(f"{name}: {m['value']} then {a2['metrics'][name]['value']} "
                            f"at seed {seed_a}")
    if a1["inputs_sha256"] != a2["inputs_sha256"]:
        problems.append(f"inputs differ between two runs at seed {seed_a}")
    if a1["inputs_sha256"] == b["inputs_sha256"]:
        problems.append(f"seeds {seed_a} and {seed_b} give the same inputs")
    for run in (a1, b):
        for key, vals in run["exact_values"].items():
            if len(vals) != 1:
                problems.append(f"{key} took several values {vals} within one run")
    for key in set(a1["exact_values"]) & set(b["exact_values"]):
        if a1["exact_values"][key] != b["exact_values"][key]:
            problems.append(f"{key}: {a1['exact_values'][key]} at seed {seed_a}, "
                            f"{b['exact_values'][key]} at seed {seed_b}")
    counts = sum(1 for n, m in a1["metrics"].items() if deterministic(n, m))
    print(f"{workload}: {counts} count metrics compared, "
          f"{len(a1['exact_values'])} exact values, "
          f"{'OK' if not problems else f'{len(problems)} problem(s)'}", flush=True)
    return problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", action="append",
                    help="workload to check (repeatable); default: those in BENCHMARK.json")
    ap.add_argument("--seeds", type=int, nargs=2, default=(11, 12))
    args = ap.parse_args(argv)
    problems = []
    for w in args.workload or LISTED:
        problems += [f"{w}: {p}" for p in check(w, *args.seeds)]
    for p in problems:
        print(f"  {p}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
