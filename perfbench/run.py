"""nimlab benchmark: one workload per process, checked outputs, JSON result.

    python3 perfbench/run.py --workload turan-cold --seed 1 --seconds 40 --trace 0

Run from the root of a nimlab checkout; the library is imported from its
`src/` directory and nowhere else.  The run sets the workload up several
times (fresh import each time) and reports the median set-up time.  It
then makes one discarded warm-up pass over the workload's fixed operation
list, followed by timed passes for as long as the next one still fits in
`--seconds` (at least one), clearing the Turan memo before every
operation.  Each operation's output is checked against `oracle`; a failed
check or an exception counts in `failed`.

With `--trace 0` the last stdout line reports the end-to-end metrics:
wall_s (median pass time), cmd_p50_ms / cmd_p90_ms (quantiles over the
operations of the fixed set, each the median of its passes; on
cli-warm-cache an operation is one CLI command), setup_s and peak_rss_mb.
With `--trace 1` the warm-up is followed by three untraced and three
traced passes, alternating.  The run reports per-layer counts and self
times of the last traced pass, plus the tracing overhead (median traced
over median untraced pass time).  Spans of that pass are written to
`.perfbench_out/` at the checkout root.  Temporary files live in a
directory under `.perfbench_tmp/` that is removed on exit.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import resource
import shutil
import signal
import statistics
import sys
import tempfile
import time
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
MODULES = ("graphs", "canon", "patterns", "monoscan", "turan", "search",
           "constructions", "audit", "cli")
MIN_SETUPS, MAX_SETUPS, SETUP_SECONDS = 3, 25, 2.5
TRACE_PAIRS = 3

# per-layer metrics: name -> (layer, field, unit)
PER_LAYER = {}
for _layer, _fields in (
    ("canon.canonical_form", ("calls", "self_s")),
    ("canon.canonical_code", ("calls",)),
    ("canon._refine", ("calls", "self_s")),
    ("canon._leaf", ("calls",)),
    ("canon.enumerate_graphs", ("yielded", "self_s")),
    ("turan.ex_exact", ("calls", "self_s")),
    ("turan._bnb_kst", ("self_s",)),
    ("turan._degree_sequences", ("yielded",)),
    ("turan._realizations", ("calls", "yielded", "self_s")),
    ("graphs.bits_to_list", ("calls", "self_s")),
    ("turan._enum_ex", ("self_s",)),
    ("turan._exstar_search", ("self_s",)),
    ("turan._greedy_lower_bound", ("self_s",)),
    ("turan.TuranCache.get", ("calls", "self_s")),
    ("turan.TuranCache._validate", ("self_s",)),
    ("turan.TuranCache.put", ("calls", "self_s")),
    ("monoscan._copy_through", ("calls", "self_s", "hit_ratio")),
    ("monoscan._extend", ("calls",)),
    ("monoscan.contains_copy", ("calls", "self_s")),
    ("monoscan.nim_edges", ("calls", "self_s")),
    ("search._graph_nim", ("calls", "self_s")),
    ("search._exact_two_color", ("self_s",)),
    ("search._exact_three_color", ("self_s",)),
    ("search._coloring_key", ("calls", "self_s")),
    ("search.f_heuristic", ("self_s",)),
    ("patterns.parse_pattern", ("calls", "self_s")),
    ("constructions.extremal_two_coloring", ("self_s",)),
    ("constructions.permuted_overlay_coloring", ("self_s",)),
    ("audit.audit_two_color", ("calls", "self_s")),
    ("audit.audit_k_color", ("calls", "self_s")),
    ("cli.main", ("calls", "self_s")),
):
    for _f in _fields:
        PER_LAYER[f"{_layer}.{_f}"] = (_layer, _f, "s" if _f == "self_s" else
                                       "ratio" if _f == "hit_ratio" else "count")
PER_LAYER["turan.TuranCache.hit_ratio"] = ("turan.TuranCache.get", "hit_ratio", "ratio")


def layer_metrics(tracer) -> dict:
    def value(layer, field):
        rec = tracer.layer(layer)
        if field == "hit_ratio":
            return rec["hits"] / rec["calls"] if rec["calls"] else 0.0
        return rec[field]

    out = {name: {"value": value(layer, field), "unit": unit}
           for name, (layer, field, unit) in PER_LAYER.items()}
    nodes = value("search.f_exact", "nodes") + value("search.f_heuristic", "nodes")
    out["search.nodes"] = {"value": nodes, "unit": "count"}
    return out


def fail(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def import_fresh():
    """Import nimlab from the checkout's src/, dropping any earlier import."""
    for name in [m for m in sys.modules if m == "nimlab" or m.startswith("nimlab.")]:
        del sys.modules[name]
    lib = types.SimpleNamespace()
    for m in MODULES:
        setattr(lib, m, importlib.import_module(f"nimlab.{m}"))
    origin = Path(lib.turan.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        fail(f"nimlab was imported from {origin}, not from {SRC}")
    return lib


def run_pass(lib, prep, checked: dict, times: list, stats: dict) -> float:
    """One pass over the fixed operation list; returns its summed op time."""
    clock = time.perf_counter
    prep.before_pass()
    gc.collect()
    total = 0.0
    for i, op in enumerate(prep.ops):
        if op.prepare is not None:
            op.prepare()
        lib.turan.clear_memo()
        stats["attempted"] += 1
        t0 = clock()
        try:
            out = op.run()
            err = None
        except Exception as exc:  # a raising operation is a failed operation
            out, err = None, f"raised {type(exc).__name__}: {exc}"
        dt = clock() - t0
        total += dt
        times[i].append(dt)
        if err is None:
            key = (i, op.digest(out))
            if key not in checked:
                try:
                    checked[key] = op.check(out)
                except Exception as exc:  # malformed output fails its check
                    checked[key] = f"check raised {type(exc).__name__}: {exc}"
                if op.exact is not None and checked[key] is None:
                    k, v = op.exact(out)
                    stats["values"].setdefault(k, set()).add(v)
            err = checked[key]
        if err is not None:
            stats["failed"] += 1
            if len(stats["errors"]) < 20:
                stats["errors"].append(f"{op.label}: {err}")
    return total


def quantile(values, q: float) -> float:
    vals = sorted(values)
    if len(vals) == 1:
        return vals[0]
    return statistics.quantiles(vals, n=100, method="inclusive")[int(q * 100) - 1]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "nimlab" / "__init__.py").is_file():
        fail(f"no nimlab sources under {SRC}; run from a nimlab checkout")
    os.environ.pop("NIMLAB_CACHE", None)
    # a terminated run still removes its temporary directory
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    tmp_root = ROOT / ".perfbench_tmp"
    tmp_root.mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=tmp_root)
    # bytecode goes to the temp dir, so nothing is written next to the sources
    sys.pycache_prefix = os.path.join(tmp, "pycache")
    try:
        sys.path.insert(0, str(HERE))
        from workloads import WORKLOADS

        if args.workload not in WORKLOADS:
            fail(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
        sys.path.insert(0, str(SRC))
        return measure(args, WORKLOADS[args.workload], tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp_root.rmdir()
        except OSError:
            pass


def measure(args, setup, tmp: str) -> int:
    clock = time.perf_counter
    setup_times = []
    while True:
        sub = os.path.join(tmp, f"setup{len(setup_times)}")
        os.mkdir(sub)
        t0 = clock()
        lib = import_fresh()
        prep = setup(lib, args.seed, sub)
        setup_times.append(clock() - t0)
        if len(setup_times) >= MAX_SETUPS or (
                len(setup_times) >= MIN_SETUPS and sum(setup_times) >= SETUP_SECONDS):
            break

    checked: dict = {}
    stats = {"attempted": 0, "failed": 0, "errors": [], "values": {}}
    times = [[] for _ in prep.ops]
    walls = []
    start = clock()
    # a discarded warm-up pass, which also runs every output check, so that
    # each timed pass meets the same interpreter and allocator state
    run_pass(lib, prep, checked, [[] for _ in prep.ops], stats)
    if args.trace:
        from tracer import Tracer

        # untraced and traced passes alternate, and each pair swaps which goes
        # first, so that a slow spell of the host does not land on one side only
        traced = []
        for i in range(TRACE_PAIRS):
            for on in ((False, True) if i % 2 == 0 else (True, False)):
                if not on:
                    walls.append(run_pass(lib, prep, checked, times, stats))
                    continue
                # a fresh tracer per pass: the reported layers cover one pass
                tracer = Tracer()
                tracer.install()
                try:
                    traced.append(run_pass(lib, prep, checked, [[] for _ in prep.ops], stats))
                finally:
                    tracer.uninstall()
        untraced, traced = statistics.median(walls), statistics.median(traced)
        metrics = layer_metrics(tracer)
        metrics["trace_overhead"] = {"value": traced / untraced, "unit": "ratio"}
        out_dir = ROOT / ".perfbench_out"
        out_dir.mkdir(exist_ok=True)
        # one file per workload, replaced by each traced run
        span_file = out_dir / f"spans-{args.workload}.bin.gz"
        nspans = tracer.write(span_file)
        print(f"# median traced pass {traced:.3f} s vs untraced {untraced:.3f} s; "
              f"{nspans} spans written to {span_file.relative_to(ROOT)}")
    else:
        # timed passes until the next one would end past --seconds (at least one)
        while True:
            walls.append(run_pass(lib, prep, checked, times, stats))
            spent = clock() - start
            if spent + spent / (len(walls) + 1) > args.seconds:
                break
        per_op = [statistics.median(t) for t in times]
        metrics = {
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "cmd_p50_ms": {"value": 1000 * quantile(per_op, 0.50), "unit": "ms"},
            "cmd_p90_ms": {"value": 1000 * quantile(per_op, 0.90), "unit": "ms"},
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "unit": "MB"},
        }

    attempted, failed = stats["attempted"], stats["failed"]
    for e in stats["errors"]:
        print(f"# FAILED {e}")
    inputs = json.dumps(prep.inputs, sort_keys=True).encode()
    values = {k: sorted(v) for k, v in sorted(stats["values"].items())}
    print(f"# workload {args.workload} seed {args.seed}: warm-up and {len(walls)} timed "
          f"passes x {len(prep.ops)} operations, {len(setup_times)} set-ups")
    print(f"# inputs_sha256 {hashlib.sha256(inputs).hexdigest()}")
    print(f"# exact_values {json.dumps(values, sort_keys=True)}")
    print(f"# error_rate {failed / attempted:.6f} ({failed} of {attempted} operations)")
    for name, m in metrics.items():
        print(f"# {name} = {m['value']:.6g} {m['unit']}")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
