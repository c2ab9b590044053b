"""Benchmark workloads.

Each workload's `setup(lib, seed, tmp)` builds its inputs from the seed
with a freshly imported nimlab (`lib` holds the modules) and returns a
`Prepared`: the fixed list of timed operations, a hook run before every
pass, and a description of the inputs with no temp paths in it.  The seed
relabels pattern vertices (patterns reach nimlab as JSON descriptors),
and for `cli-warm-cache` also sets the overlay and heuristic seeds and
picks the coloring files and the command order.  No exact value depends on it.

Every operation has a check built on `oracle`, which shares no code with
nimlab.  A check returns None or a message saying what was wrong.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from dataclasses import dataclass
from typing import Callable, Optional

import oracle


@dataclass
class Op:
    label: str
    run: Callable[[], object]
    check: Callable[[object], Optional[str]]
    # stable text of an output; checks run once per distinct digest
    digest: Callable[[object], str]
    # (key, value) of an exact answer that must not depend on the seed
    exact: Optional[Callable[[object], tuple]] = None
    prepare: Optional[Callable[[], None]] = None


@dataclass
class Prepared:
    ops: list
    inputs: dict
    before_pass: Callable[[], None] = lambda: None


def _pattern(lib, desc: dict):
    return lib.patterns.parse_pattern(json.dumps(desc))


def _warm(p) -> None:
    """Fill the pattern's lazily computed matcher plans and identities."""
    p.graph_code, p.pin_plans, p.free_plan, p.oriented_fingerprint


def _first_error(*msgs) -> Optional[str]:
    return next((m for m in msgs if m), None)


# ---------------------------------------------------------------------------
# Shared checks.
# ---------------------------------------------------------------------------

def _check_ex_record(rec_json: dict, family: str, n: int) -> Optional[str]:
    want = oracle.expected_ex(family, n)
    if not rec_json.get("exact"):
        return f"ex({n}, {family}) not exact"
    if rec_json["value"] != want:
        return f"ex({n}, {family}) = {rec_json['value']}, expected {want}"
    if not rec_json["witnesses"]:
        return f"ex({n}, {family}) has no witness"
    base = oracle.FAMILIES[family]
    for w in rec_json["witnesses"]:
        err = oracle.check_ex_witness(w, n, want, base["n"], base["edges"])
        if err:
            return f"ex({n}, {family}): {err}"
    return None


def _check_exstar_record(rec_json: dict, family: str, m: int, n: int) -> Optional[str]:
    want = oracle.REFERENCE[("exstar", family, (m, n))]
    if not rec_json.get("exact") or rec_json["value"] != want:
        return f"exstar({m}x{n}, {family}-w) = {rec_json['value']}, expected exact {want}"
    if not rec_json["witnesses"]:
        return f"exstar({m}x{n}, {family}-w) has no witness"
    base = oracle.FAMILIES[family]
    h, pedges = oracle.reduced_edges(base)
    w = base["weak"]
    xside = {v - (v > w) for v in base["X"] if v != w}
    for wit in rec_json["witnesses"]:
        err = oracle.check_exstar_witness(wit, m, n, want, h, pedges, xside)
        if err:
            return f"exstar({m}x{n}, {family}-w): {err}"
    return None


def _check_coloring_count(text: str, claimed: int) -> Optional[str]:
    n, k, colors = oracle.parse_coloring(text)
    got = oracle.c4_nim_count(n, k, colors)
    if got != claimed:
        return f"claimed {claimed} NIM edges, recount gives {got}"
    return None


def _check_search_report(rep, pattern, want: Optional[int]) -> Optional[str]:
    if want is not None and rep.value != want:
        return f"f = {rep.value}, expected {want}"
    if not rep.colorings:
        return "no coloring retained"
    if any(r != rep.value for r in rep.recount(pattern)):
        return f"SearchReport.recount {rep.recount(pattern)} != value {rep.value}"
    for c in rep.colorings:
        got = oracle.c4_nim_count(c.n, c.k, c.colors)
        if got != rep.value:
            return f"retained coloring has {got} NIM edges, report says {rep.value}"
    return None


# ---------------------------------------------------------------------------
# turan-cold: exact Turan numbers computed cold; the cache is written, never read.
# ---------------------------------------------------------------------------

def setup_turan_cold(lib, seed: int, tmp: str) -> Prepared:
    rng = random.Random(seed)
    descs = {f: oracle.relabeled(f, rng) for f in ("c4", "k2,3", "c6", "theta2,3")}
    pats = {f: _pattern(lib, d) for f, d in descs.items()}
    for p in pats.values():
        _warm(p)
    reduced = {f: pats[f].reduced() for f in ("c6", "theta2,3")}
    for p in reduced.values():
        _warm(p)
        p.is_connected()
    cache_path = os.path.join(tmp, "cold.jsonl")
    turan = lib.turan

    def fresh_cache():
        if os.path.exists(cache_path):
            os.remove(cache_path)

    ops = []
    for family, n in (("c4", 10), ("k2,3", 10), ("c6", 8)):
        p = pats[family]
        ops.append(Op(
            label=f"ex({n},{family})",
            run=lambda p=p, n=n: turan.ex_exact(n, p, cache=turan.TuranCache(cache_path)),
            check=lambda r, f=family, n=n: _check_ex_record(r.to_json(), f, n),
            digest=lambda r: json.dumps(r.to_json(), sort_keys=True),
            exact=lambda r, f=family, n=n: (f"ex({n},{f})", r.value),
            prepare=fresh_cache,
        ))
    # the two one-sided searches are short, so they form one operation
    def run_exstar():
        return [turan.ex_star_exact(5, 6, reduced[f], cache=turan.TuranCache(cache_path))
                for f in ("c6", "theta2,3")]

    ops.append(Op(
        label="exstar(5x6,c6-w|theta2,3-w)",
        run=run_exstar,
        check=lambda rs: _first_error(*(_check_exstar_record(r.to_json(), f, 5, 6)
                                        for r, f in zip(rs, ("c6", "theta2,3")))),
        digest=lambda rs: json.dumps([r.to_json() for r in rs], sort_keys=True),
        exact=lambda rs: ("exstar(5x6,c6-w|theta2,3-w)", tuple(r.value for r in rs)),
        prepare=fresh_cache,
    ))
    return Prepared(ops, {"patterns": descs})


# ---------------------------------------------------------------------------
# coloring-exact: exhaustive f(n, C4, k).
# ---------------------------------------------------------------------------

def setup_coloring_exact(lib, seed: int, tmp: str) -> Prepared:
    rng = random.Random(seed)
    desc = oracle.relabeled("c4", rng)
    p = _pattern(lib, desc)
    _warm(p)
    search = lib.search
    ops = []
    for n, k in ((8, 2), (5, 3)):
        want = oracle.REFERENCE[("f", "c4", (n, k))]
        ops.append(Op(
            label=f"f_exact({n},c4,k={k})",
            run=lambda n=n, k=k: search.f_exact(n, p, k),
            check=lambda r, want=want: _first_error(
                None if r.mode == "exact" and r.optima_complete else "not an exact report",
                _check_search_report(r, p, want)),
            digest=lambda r: json.dumps(r.to_json(), sort_keys=True),
            exact=lambda r, n=n, k=k: (f"f({n},c4,k={k})", r.value),
        ))
    return Prepared(ops, {"pattern": desc})


# ---------------------------------------------------------------------------
# cli-warm-cache: in-process CLI calls against a warm cache file.
# ---------------------------------------------------------------------------

CACHE_RANGE = {"c4": range(2, 11), "k2,3": range(2, 10)}
# The command kinds of one pass, each repeated CLI_PER_KIND times.  The
# weights are equal because no record of real usage exists to weight them.
CLI_KINDS = ("ex", "extremal", "overlay", "pentagon", "nim", "audit2", "auditk", "reduce", "f")
CLI_PER_KIND = 111
F_BUDGET = 20
# n = 6..10 take their extremal seed from the warm cache; n = 13, 14 are past
# turan.BNB_CEILING and fall back to the greedy bound.  n = 11, 12 are left
# out: with no cache record they would compute ex(n, C4) from scratch.
F_SIZES = (6, 7, 8, 9, 10, 13, 14)


def _random_colorings(rng, n, k, count):
    """Seeded uniform colorings in which every color keeps a NIM edge."""
    out = []
    while len(out) < count:
        colors = [rng.randint(1, k) for _ in range(n * (n - 1) // 2)]
        if oracle.nim_colors_present(n, k, colors) == set(range(1, k + 1)):
            out.append(colors)
    return out


def setup_cli_warm_cache(lib, seed: int, tmp: str) -> Prepared:
    rng = random.Random(seed)
    turan, cli = lib.turan, lib.cli
    cache_path = os.path.join(tmp, "warm.jsonl")
    cache = turan.TuranCache(cache_path)
    for family, sizes in CACHE_RANGE.items():
        p = _pattern(lib, oracle.FAMILIES[family])
        for n in sizes:
            turan.clear_memo()
            turan.ex_exact(n, p, cache=cache)
    turan.clear_memo()
    with open(cache_path, "rb") as fh:
        pristine = fh.read()

    # coloring files: label -> (path, n, k, colors)
    files = {}

    def add_file(label, n, k, colors):
        path = os.path.join(tmp, label + ".txt")
        with open(path, "w", encoding="ascii") as fh:
            fh.write(oracle.coloring_text(n, k, colors))
        files[label] = (path, n, k, list(colors))

    c4 = _pattern(lib, oracle.FAMILIES["c4"])
    for n in (8, 10):
        col = lib.constructions.extremal_two_coloring(n, c4, cache=cache)
        add_file(f"extremal{n}", n, 2, col.colors)
    for i in range(2):
        col, _ = lib.constructions.permuted_overlay_coloring(
            10, c4, 3, seed=rng.randrange(2 ** 31), cache=cache)
        add_file(f"overlay10#{i}", 10, 3, col.colors)
    add_file("pentagon15", 15, 3, lib.constructions.pentagon_three_coloring(15).colors)
    for i, colors in enumerate(_random_colorings(rng, 7, 2, 4)):
        add_file(f"two7#{i}", 7, 2, colors)
    for i, colors in enumerate(_random_colorings(rng, 10, 3, 4)):
        add_file(f"three10#{i}", 10, 3, colors)
    turan.clear_memo()
    two = [f for f in files if f.startswith("two")]
    three = [f for f in files if f.startswith("three")]

    def pattern_arg(family, i):
        """Every other command names the family; the rest pass a relabelled descriptor."""
        if i % 2:
            return family
        return json.dumps(oracle.relabeled(family, rng), separators=(",", ":"))

    # The multiset of command shapes is the same for every seed, so the
    # work per pass does not depend on it; the seed picks relabellings,
    # construction and search seeds, file contents and the order.
    ex_keys = [(f, n) for f in sorted(CACHE_RANGE) for n in CACHE_RANGE[f]]
    labels = sorted(files)
    families = sorted(oracle.FAMILIES)
    commands = []  # (kind, argv with file labels, params)
    for kind in CLI_KINDS:
        for i in range(CLI_PER_KIND):
            if kind == "ex":
                family, n = ex_keys[i % len(ex_keys)]
                commands.append((kind, ["ex", "--n", str(n), "--pattern", pattern_arg(family, i)],
                                 {"family": family, "n": n}))
            elif kind == "extremal":
                n = 6 + i % 5
                commands.append((kind, ["construct", "extremal", "--n", str(n),
                                        "--pattern", pattern_arg("c4", i)], {"n": n}))
            elif kind == "overlay":
                n = 8 + i % 3
                commands.append((kind, ["construct", "overlay", "--n", str(n), "--pattern",
                                        pattern_arg("c4", i), "--k", "3",
                                        "--seed", str(rng.randrange(1000))], {"n": n}))
            elif kind == "pentagon":
                n = 10 + i % 21
                argv = ["construct", "pentagon", "--n", str(n)]
                if i % 2:
                    argv += ["--pattern", pattern_arg("c4", i // 2)]
                commands.append((kind, argv, {"n": n}))
            elif kind == "nim":
                label = labels[i % len(labels)]
                commands.append((kind, ["nim", "--coloring", "@" + label,
                                        "--pattern", pattern_arg("c4", i)], {"file": label}))
            elif kind in ("audit2", "auditk"):
                pool = two if kind == "audit2" else three
                label = pool[i % len(pool)]
                commands.append((kind, [kind, "--coloring", "@" + label,
                                        "--pattern", pattern_arg("c4", i)], {"file": label}))
            elif kind == "reduce":
                family = families[i % len(families)]
                commands.append((kind, ["reduce", "--pattern", pattern_arg(family, i // 4)],
                                 {"family": family}))
            else:
                n = F_SIZES[i % len(F_SIZES)]
                commands.append((kind, ["f", "--n", str(n), "--pattern", pattern_arg("c4", i),
                                        "--budget", str(F_BUDGET),
                                        "--seed", str(rng.randrange(1000))], {"n": n}))
    rng.shuffle(commands)

    def before_pass():
        with open(cache_path, "wb") as fh:
            fh.write(pristine)

    def run_cli(argv):
        turan.clear_memo()
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        return code, buf.getvalue()

    ops = []
    for i, (kind, argv, params) in enumerate(commands):
        real = ["--cache", cache_path] + [files[a[1:]][0] if a.startswith("@") else a
                                          for a in argv]
        ops.append(Op(
            label=f"cli#{i}:{kind}",
            run=lambda real=real: run_cli(real),
            check=lambda out, kind=kind, params=params: _check_cli(kind, params, out, files),
            digest=lambda out: f"{out[0]}:{out[1]}",
            exact=(lambda out, p=params: (f"ex({p['n']},{p['family']})",
                                          json.loads(out[1])["value"]))
            if kind == "ex" else None,
        ))
    inputs = {"commands": [argv for _, argv, _ in commands],
              "files": {k: v[3] for k, v in files.items()}}
    return Prepared(ops, inputs, before_pass)


def _check_cli(kind: str, params: dict, out, files) -> Optional[str]:
    code, text = out
    if code != 0:
        return f"exit code {code}: {text.strip()[:200]}"
    try:
        doc = json.loads(text)
    except ValueError:
        return f"output is not JSON: {text[:200]}"
    if kind == "ex":
        return _check_ex_record(doc, params["family"], params["n"])
    if kind == "extremal":
        n = params["n"]
        _, k, colors = oracle.parse_coloring(doc["coloring"])
        red = oracle.class_rows(n, k, colors)[0]
        base = oracle.FAMILIES["c4"]
        if oracle.edge_count(red) != oracle.ex_c4(n) or oracle.contains(red, 4, base["edges"]):
            return f"red class is not an extremal C4-free graph on {n} vertices"
        return _check_coloring_count(doc["coloring"], doc["nim_count"])
    if kind == "overlay":
        if doc["ex"] != oracle.ex_c4(params["n"]):
            return f"overlay base ex = {doc['ex']}"
        if doc["nim_count"] < doc["nim_lower_bound"]:
            return "overlay NIM count below its certificate"
        return _check_coloring_count(doc["coloring"], doc["nim_count"])
    if kind == "pentagon":
        n, k, _ = oracle.parse_coloring(doc["coloring"])
        if (n, k) != (params["n"], 3):
            return "pentagon coloring has the wrong shape"
        if "nim_count" in doc:
            return _check_coloring_count(doc["coloring"], doc["nim_count"])
        return None
    if kind == "nim":
        _, n, k, colors = files[params["file"]]
        flags = oracle.c4_nim_flags(n, k, colors)
        pairs = [[u, v] for u in range(n) for v in range(u + 1, n)]
        if doc["nim_edges"] != [e for e, f in zip(pairs, flags) if f]:
            return f"NIM edge list differs from the definition on {params['file']}"
        return None
    if kind in ("audit2", "auditk"):
        if doc.get("pass") is not True:
            return f"{kind} failed on {params['file']}"
        _, n, k, colors = files[params["file"]]
        if doc["nim_count"] != oracle.c4_nim_count(n, k, colors):
            return f"{kind} NIM count differs from the definition"
        return None
    if kind == "reduce":
        if doc.get("verdict") != "reducible":
            return f"{params['family']} reported {doc.get('verdict')}"
        if params["family"] in ("c4", "k2,3") and \
                doc.get("biclique_rule", {}).get("verdict") != "reducible-by-rule":
            return f"{params['family']} biclique rule gave {doc.get('biclique_rule')}"
        return None
    # f heuristic
    if doc["nodes"] != F_BUDGET or doc["mode"] != "heuristic":
        return f"f report header mode={doc['mode']} nodes={doc['nodes']}"
    return _check_coloring_count(doc["witness"], doc["value"])


WORKLOADS = {
    "turan-cold": setup_turan_cold,
    "coloring-exact": setup_coloring_exact,
    "cli-warm-cache": setup_cli_warm_cache,
}
