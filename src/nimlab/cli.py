"""Command line front end.

Every subcommand prints exactly one JSON document (or a small table with
--format tabular) and exits 0 on success, 1 when the requested analysis
does not apply to the input, 2 when the tool refuses to answer rather
than report something unverified, and 3 on invalid input.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional

from .audit import audit_k_color, audit_two_color, is_reducible, kst_reducibility
from .constructions import (
    extremal_two_coloring,
    pentagon_three_coloring,
    permuted_overlay_coloring,
)
from .errors import (
    InvalidInputError,
    NimlabError,
    NotApplicableError,
)
from .monoscan import EdgeColoring, nim_edges
from .patterns import BipartitePattern, detect_biclique, parse_pattern
from .search import f_exact, f_heuristic
from .turan import TuranCache, default_cache, ex_exact, ex_star_exact


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on bad flags; we reserve 2 for refusals."""

    def error(self, message):
        raise InvalidInputError("invalid-arguments", message)


def load_pattern(spec: str) -> BipartitePattern:
    """Accept either a pattern expression or a path to a file holding one."""
    if os.path.exists(spec):
        with open(spec, "r", encoding="utf-8") as fh:
            spec = fh.read().strip()
    return parse_pattern(spec)


def _load_coloring(path: str) -> EdgeColoring:
    if not os.path.exists(path):
        raise InvalidInputError("no-such-file", path)
    return EdgeColoring.read(path)


def _open_cache(args) -> Optional[TuranCache]:
    if getattr(args, "cache", None):
        return TuranCache(args.cache)
    return default_cache()


def _emit(doc: dict, args) -> None:
    if getattr(args, "format", "structured") == "tabular":
        text = _tabulate(doc)
    else:
        text = json.dumps(doc, sort_keys=True)
    out = getattr(args, "out", None)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _tabulate(doc: dict) -> str:
    """Flatten a report into aligned key/value rows; lists render as counts."""
    rows = []
    for key in sorted(doc):
        value = doc[key]
        if isinstance(value, list):
            if key == "rows":
                continue
            value = f"[{len(value)} items]"
        elif isinstance(value, dict):
            value = json.dumps(value, sort_keys=True)
        rows.append((key, str(value)))
    width = max((len(k) for k, _ in rows), default=0)
    lines = [f"{k.ljust(width)}  {v}" for k, v in rows]
    audit_rows = doc.get("rows")
    if isinstance(audit_rows, list) and audit_rows and isinstance(audit_rows[0], dict):
        lines.append("")
        lines.append(f"{'claim'.ljust(28)}  {'measured':>9}  {'bound':>9}  pass")
        for row in audit_rows:
            bound = "-" if row.get("bound") is None else str(row["bound"])
            lines.append(
                f"{str(row['claim'])[:28].ljust(28)}  {row['measured']:>9}  {bound:>9}  "
                f"{'yes' if row['pass'] else 'NO'}"
            )
    return "\n".join(lines)


def _cmd_ex(args) -> dict:
    pattern = load_pattern(args.pattern)
    cache = _open_cache(args)
    rec = ex_exact(args.n, pattern, cache=cache)
    return rec.to_json()


def _cmd_exstar(args) -> dict:
    pattern = load_pattern(args.pattern)
    reduced = pattern.reduced() if args.reduce else pattern
    cache = _open_cache(args)
    rec = ex_star_exact(args.m, args.n, reduced, cache=cache)
    return rec.to_json()


def _cmd_f(args) -> dict:
    pattern = load_pattern(args.pattern)
    cache = _open_cache(args)
    if args.exact:
        report = f_exact(args.n, pattern, args.k, ceiling=args.ceiling)
    else:
        report = f_heuristic(args.n, pattern, args.k, budget=args.budget, seed=args.seed, cache=cache)
    doc = report.to_json()
    if report.colorings:
        doc["witness"] = report.colorings[0].to_text()
    return doc


def _cmd_nim(args) -> dict:
    pattern = load_pattern(args.pattern)
    coloring = _load_coloring(args.coloring)
    return nim_edges(coloring, pattern).to_json()


def _cmd_construct_extremal(args) -> dict:
    pattern = load_pattern(args.pattern)
    cache = _open_cache(args)
    coloring = extremal_two_coloring(args.n, pattern, cache=cache, seed=args.seed)
    report = nim_edges(coloring, pattern)
    return {
        "construction": "extremal",
        "n": args.n,
        "pattern": pattern.name,
        "coloring": coloring.to_text(),
        "nim_count": report.count,
    }


def _cmd_construct_overlay(args) -> dict:
    pattern = load_pattern(args.pattern)
    cache = _open_cache(args)
    coloring, cert = permuted_overlay_coloring(
        args.n, pattern, args.k, seed=args.seed, retry_cap=args.retry_cap, cache=cache
    )
    report = nim_edges(coloring, pattern)
    doc = cert.to_json()
    doc["construction"] = "overlay"
    doc["coloring"] = coloring.to_text()
    doc["nim_count"] = report.count
    return doc


def _cmd_construct_pentagon(args) -> dict:
    coloring = pentagon_three_coloring(args.n)
    doc = {
        "construction": "pentagon",
        "n": args.n,
        "k": 3,
        "coloring": coloring.to_text(),
    }
    if args.pattern:
        pattern = load_pattern(args.pattern)
        doc["pattern"] = pattern.name
        doc["nim_count"] = nim_edges(coloring, pattern).count
    return doc


def _cmd_audit2(args) -> dict:
    pattern = load_pattern(args.pattern)
    coloring = _load_coloring(args.coloring)
    cache = _open_cache(args)
    return audit_two_color(coloring, pattern, cache=cache).to_json()


def _cmd_auditk(args) -> dict:
    pattern = load_pattern(args.pattern)
    coloring = _load_coloring(args.coloring)
    cache = _open_cache(args)
    return audit_k_color(coloring, pattern, cache=cache).to_json()


def _cmd_reduce(args) -> dict:
    pattern = load_pattern(args.pattern)
    report = is_reducible(pattern)
    doc = report.to_json()
    st = detect_biclique(pattern.graph)
    if st is not None:
        doc["biclique_rule"] = kst_reducibility(*st).to_json()
    return doc


def build_parser() -> _Parser:
    parser = _Parser(prog="nimlab", description=__doc__)
    parser.add_argument("--format", choices=("structured", "tabular"), default="structured")
    parser.add_argument("--out", help="write the report to this file instead of stdout")
    parser.add_argument("--cache", help="path to the persistent result cache")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ex", help="largest pattern-free edge count on n vertices")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--pattern", required=True)
    p.set_defaults(handler=_cmd_ex)

    p = sub.add_parser("exstar", help="one-sided bipartite threshold for a reduced pattern")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--pattern", required=True)
    p.add_argument(
        "--reduce",
        action="store_true",
        help="delete the designated weak vertex first (otherwise the pattern is used as given)",
    )
    p.set_defaults(handler=_cmd_exstar)

    p = sub.add_parser("f", help="maximum NIM edge count over k-colorings")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--pattern", required=True)
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--exact", action="store_true")
    p.add_argument("--budget", type=int, default=2000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--ceiling", type=int, default=None, help="override the exhaustive search ceiling")
    p.set_defaults(handler=_cmd_f)

    p = sub.add_parser("nim", help="count and list edges outside monochromatic pattern copies")
    p.add_argument("--coloring", required=True, help="coloring file")
    p.add_argument("--pattern", required=True)
    p.set_defaults(handler=_cmd_nim)

    construct = sub.add_parser("construct", help="build the library colorings")
    csub = construct.add_subparsers(dest="construction", required=True)

    p = csub.add_parser("extremal", help="extremal graph in red, complement in blue")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--pattern", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(handler=_cmd_construct_extremal)

    p = csub.add_parser("overlay", help="permuted extremal copies packed into k classes")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--pattern", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--retry-cap", type=int, default=64, dest="retry_cap")
    p.set_defaults(handler=_cmd_construct_overlay)

    p = csub.add_parser("pentagon", help="five-block three-coloring with no rainbow triangle")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--pattern", help="also report the NIM count for this pattern")
    p.set_defaults(handler=_cmd_construct_pentagon)

    p = sub.add_parser("audit2", help="check the two-color NIM structure bounds")
    p.add_argument("--coloring", required=True)
    p.add_argument("--pattern", required=True)
    p.set_defaults(handler=_cmd_audit2)

    p = sub.add_parser("auditk", help="check the k-color NIM structure bounds")
    p.add_argument("--coloring", required=True)
    p.add_argument("--pattern", required=True)
    p.set_defaults(handler=_cmd_auditk)

    p = sub.add_parser("reduce", help="decide whether the pattern has a proven reduction")
    p.add_argument("--pattern", required=True)
    p.set_defaults(handler=_cmd_reduce)

    return parser


# Built on the first `main` call and reused: `parse_args` leaves the parser
# unchanged and returns a fresh namespace, so no state carries between calls.
_PARSER: Optional[_Parser] = None


def main(argv: Optional[list[str]] = None) -> int:
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    try:
        args = _PARSER.parse_args(argv)
        doc = args.handler(args)
    except NimlabError as exc:
        print(json.dumps({"error": exc.reason, "detail": exc.detail}, sort_keys=True))
        if isinstance(exc, InvalidInputError):
            return 3
        return 1 if isinstance(exc, NotApplicableError) else 2
    _emit(doc, args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
