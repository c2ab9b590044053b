"""The one-sided search (`turan._exstar_search`), before and after its rows
were placed top-aligned in the cells the rows above them cut: values,
records, work counts and wall time.

    python3 bench/exstar_orderly.py --parent PATH [--out FILE]

PATH is a checkout of the commit to compare against (`git archive` of it
unpacked somewhere will do); this checkout is the change.  The grid is
every host m x n with m, n <= 7 and m·n <= EXSTAR_CELL_BUDGET = 30, 43
sizes, for each of the reduced patterns c6-w, theta2,3-w, k3,3-w, c8-w
and k3,4-w: 215 cases, of which those where a side of the pattern does
not fit its part take the closed form.  Wider hosts are left out because
the parent's search takes minutes on them (c6-w at 2 x 12: 23 s).  Each
case is one `ex_star_exact(m, n, rp)` call from an empty memo with no
cache file.

Each side runs the whole grid in a fresh process per repeat (3 repeats),
importing nimlab from that side's `src/`, with the two sides alternating;
timed runs are unwrapped.  One more run per side counts work that does
not depend on the machine, with wrappers on two names in `nimlab.turan`:

- `contains_copy_calls`: calls to `contains_copy`, one per row placed
- `labeled_witnesses`: calls to `canonical_form`, one per labeled
  extremal host kept before deduplication (at most 4,096)

Per case the result holds the value, the sha256 of the record's
`to_json()`, both counts and the median wall time per side.  Where the
records differ, it also says whether the parent's witnesses are a subset
of the change's and whether each side marks its list complete.  The
result goes to FILE, by default `bench/BENCH_exstar_orderly.json`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "BENCH_exstar_orderly.json")
PATTERNS = ("c6", "theta2,3", "k3,3", "c8", "k3,4")
BUDGET, SIDE = 30, 7
REPEATS = 3


def _grid():
    from nimlab.patterns import build_pattern

    for name in PATTERNS:
        rp = build_pattern(name).reduced()
        for m in range(1, SIDE + 1):
            for n in range(1, min(SIDE, BUDGET // m) + 1):
                yield f"{rp.name} {m}x{n}", rp, m, n


def _child(counted: bool) -> None:
    import nimlab.turan as turan

    counts = {"contains_copy_calls": 0, "labeled_witnesses": 0}
    if counted:
        contains_copy, canonical_form = turan.contains_copy, turan.canonical_form

        def counting_copy(*args, **kwargs):
            counts["contains_copy_calls"] += 1
            return contains_copy(*args, **kwargs)

        def counting_form(*args, **kwargs):
            counts["labeled_witnesses"] += 1
            return canonical_form(*args, **kwargs)

        turan.contains_copy, turan.canonical_form = counting_copy, counting_form
    out = {}
    for case, rp, m, n in _grid():
        turan.clear_memo()
        for key in counts:
            counts[key] = 0
        t0 = time.perf_counter()
        rec = turan.ex_star_exact(m, n, rp)
        wall = time.perf_counter() - t0
        out[case] = {"wall_s": wall, "record": rec.to_json(), **counts}
    print(json.dumps(out))


def _spawn(src: str, counted: bool) -> dict:
    env = dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1")
    env.pop("NIMLAB_CACHE", None)
    cmd = [sys.executable, os.path.abspath(__file__), "--child"]
    if counted:
        cmd.append("--counted")
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _sha(record: dict) -> str:
    return hashlib.sha256(json.dumps(record, sort_keys=True).encode()).hexdigest()


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", help="checkout of the commit to compare against")
    ap.add_argument("--out", default=OUT, help="result file (default: %(default)s)")
    ap.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--counted", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.child:
        _child(args.counted)
        return
    if not args.parent:
        ap.error("--parent is required")

    sides = {"parent": os.path.join(os.path.abspath(args.parent), "src"),
             "change": os.path.join(ROOT, "src")}
    timed: dict[str, list[dict]] = {side: [] for side in sides}
    for r in range(REPEATS):
        for side in (list(sides) if r % 2 == 0 else list(sides)[::-1]):
            timed[side].append(_spawn(sides[side], False))
    counted = {side: _spawn(src, True) for side, src in sides.items()}

    cases, totals = {}, {side: 0.0 for side in sides}
    for case in counted["parent"]:
        entry = {}
        for side in sides:
            runs = [run[case] for run in timed[side]] + [counted[side][case]]
            shas = sorted({_sha(run["record"]) for run in runs})
            walls = [run[case]["wall_s"] for run in timed[side]]
            totals[side] += statistics.median(walls)
            rec = counted[side][case]
            entry[side] = {
                "value": rec["record"]["value"],
                "record_sha256": shas,
                "contains_copy_calls": rec["contains_copy_calls"],
                "labeled_witnesses": rec["labeled_witnesses"],
                "wall_s_median": round(statistics.median(walls), 4),
            }
        entry["same_record"] = entry["parent"]["record_sha256"] == entry["change"]["record_sha256"]
        if not entry["same_record"]:
            old, new = counted["parent"][case]["record"], counted["change"][case]["record"]
            entry["parent_witnesses_subset"] = set(old["witnesses"]) <= set(new["witnesses"])
            entry["witnesses"] = {"parent": len(old["witnesses"]), "change": len(new["witnesses"])}
            entry["witnesses_complete"] = {"parent": old["witnesses_complete"],
                                           "change": new["witnesses_complete"]}
        cases[case] = entry
    result = {
        "host": {"python": platform.python_version(), "machine": platform.machine(),
                 "cpus": os.cpu_count()},
        "cases_run": len(cases),
        "same_record": sum(e["same_record"] for e in cases.values()),
        "wall_s_median_total": {side: round(t, 3) for side, t in totals.items()},
        "contains_copy_calls_total": {
            side: sum(e[side]["contains_copy_calls"] for e in cases.values()) for side in sides},
        "cases": cases,
    }
    with open(args.out, "w") as fh:
        json.dump(result, fh, indent=2)
        fh.write("\n")
    summary = {k: v for k, v in result.items() if k != "cases"}
    print(json.dumps(summary, indent=2))
    for case, e in cases.items():
        if not e["same_record"]:
            print(case, json.dumps({k: e[k] for k in e if k not in sides}))


if __name__ == "__main__":
    main()
