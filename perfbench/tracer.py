"""Span tracer installed around nimlab functions for the traced run.

Each layer function is replaced by a wrapper, in its own module and in
every nimlab module that imported it by name.  Timed wrappers record a
span (name, start, end, parent) in flat arrays kept in memory and written
out once at the end; count wrappers only bump a counter, for functions so
hot or so small that a span would mostly measure the wrapper.  Generator
functions get one span per resumption, so their time is what their frames
ran, not how long the consumer held them open.

Self time is a span's duration minus the durations of its direct child
spans; it is accumulated as spans close.
"""

from __future__ import annotations

import gzip
import json
import sys
import time
from array import array
from functools import wraps

# (module, attribute) -> kind.  "span" and "gen" are timed; "count" only
# counts calls.  Hooks add result-derived counters (see _HOOKS).
LAYERS = {
    ("canon", "canonical_form"): "span",
    ("canon", "canonical_code"): "count",
    ("canon", "_refine"): "span",
    ("canon", "_leaf"): "count",
    ("canon", "enumerate_graphs"): "gen",
    ("graphs", "bits_to_list"): "span",
    ("turan", "ex_exact"): "span",
    ("turan", "_bnb_kst"): "span",
    ("turan", "_degree_sequences"): "gen",
    ("turan", "_realizations"): "gen",
    ("turan", "_enum_ex"): "span",
    ("turan", "_exstar_search"): "span",
    ("turan", "_greedy_lower_bound"): "span",
    ("turan", "TuranCache.get"): "span",
    ("turan", "TuranCache._validate"): "span",
    ("turan", "TuranCache.put"): "span",
    ("monoscan", "_copy_through"): "span",
    ("monoscan", "_extend"): "count",
    ("monoscan", "contains_copy"): "span",
    ("monoscan", "nim_edges"): "span",
    ("search", "_graph_nim"): "span",
    ("search", "_exact_two_color"): "span",
    ("search", "_exact_three_color"): "span",
    ("search", "_coloring_key"): "span",
    ("search", "f_exact"): "span",
    ("search", "f_heuristic"): "span",
    ("patterns", "parse_pattern"): "span",
    ("constructions", "extremal_two_coloring"): "span",
    ("constructions", "permuted_overlay_coloring"): "span",
    ("audit", "audit_two_color"): "span",
    ("audit", "audit_k_color"): "span",
    ("cli", "main"): "span",
}

# name -> (counter, predicate on the result); the counter grows by the
# predicate's value on every return.
_HOOKS = {
    "monoscan._copy_through": ("hits", lambda r: r is not None and r is not False),
    "turan.TuranCache.get": ("hits", lambda r: r is not None),
    "search.f_exact": ("nodes", lambda r: r.nodes),
    "search.f_heuristic": ("nodes", lambda r: r.nodes),
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.yielded: list[int] = []
        self.extra: dict[str, dict[str, int]] = {}
        self.span_name = array("H")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[int] = []
        self._child: list[float] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- bookkeeping --------------------------------------------------------

    def _nid(self, name: str) -> int:
        self.names.append(name)
        self.calls.append(0)
        self.self_s.append(0.0)
        self.yielded.append(0)
        return len(self.names) - 1

    def _timed(self, nid: int, fn, hook):
        starts, ends = self.span_start, self.span_end
        names, parents = self.span_name, self.span_parent
        stack, child = self._stack, self._child
        calls, self_s = self.calls, self.self_s
        clock = time.perf_counter
        extra = None
        if hook is not None:
            extra = self.extra.setdefault(self.names[nid], {})
            key, pred = hook
            extra[key] = 0

        @wraps(fn)
        def wrapper(*args, **kwargs):
            calls[nid] += 1
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            stack.append(idx)
            child.append(0.0)
            t0 = clock()
            starts.append(t0)
            ends.append(t0)
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                ends[idx] = t1
                stack.pop()
                d = t1 - t0
                self_s[nid] += d - child.pop()
                if child:
                    child[-1] += d
            if extra is not None:
                extra[key] += pred(out)
            return out

        return wrapper

    def _gen(self, nid: int, fn):
        starts, ends = self.span_start, self.span_end
        names, parents = self.span_name, self.span_parent
        stack, child = self._stack, self._child
        calls, self_s, yielded = self.calls, self.self_s, self.yielded
        clock = time.perf_counter

        @wraps(fn)
        def wrapper(*args, **kwargs):
            calls[nid] += 1
            it = fn(*args, **kwargs)
            try:
                while True:
                    idx = len(starts)
                    names.append(nid)
                    parents.append(stack[-1] if stack else -1)
                    stack.append(idx)
                    child.append(0.0)
                    t0 = clock()
                    starts.append(t0)
                    ends.append(t0)
                    done = False
                    try:
                        item = next(it)
                    except StopIteration:
                        done = True
                    finally:
                        t1 = clock()
                        ends[idx] = t1
                        stack.pop()
                        d = t1 - t0
                        self_s[nid] += d - child.pop()
                        if child:
                            child[-1] += d
                    if done:
                        return
                    yielded[nid] += 1
                    yield item
            finally:
                it.close()

        return wrapper

    def _counted(self, nid: int, fn):
        calls = self.calls

        @wraps(fn)
        def wrapper(*args, **kwargs):
            calls[nid] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Wrap every layer function wherever nimlab holds a reference to it."""
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "nimlab" or name.startswith("nimlab."))]
        for (modname, attr), kind in LAYERS.items():
            mod = sys.modules[f"nimlab.{modname}"]
            name = f"{modname}.{attr}"
            nid = self._nid(name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner = getattr(mod, cls_name)
                orig = owner.__dict__[meth]
                targets = [(owner, meth)]
            else:
                orig = getattr(mod, attr)
                targets = [(m, a) for m in modules for a, v in vars(m).items() if v is orig]
            if kind == "span":
                wrapper = self._timed(nid, orig, _HOOKS.get(name))
            elif kind == "gen":
                wrapper = self._gen(nid, orig)
            else:
                wrapper = self._counted(nid, orig)
            for owner, a in targets:
                self._restore.append((owner, a, orig))
                setattr(owner, a, wrapper)

    def uninstall(self) -> None:
        for owner, a, orig in reversed(self._restore):
            setattr(owner, a, orig)
        self._restore.clear()

    # -- results ------------------------------------------------------------

    def layer(self, name: str) -> dict:
        i = self.names.index(name)
        out = {"calls": self.calls[i], "self_s": self.self_s[i], "yielded": self.yielded[i]}
        out.update(self.extra.get(name, {}))
        return out

    def write(self, path) -> int:
        """Write every span, gzip-compressed: a JSON header line, then the
        name, parent, start and end arrays back to back."""
        header = {
            "names": self.names,
            "count": len(self.span_start),
            "arrays": [["name", "H"], ["parent", "i"], ["start", "d"], ["end", "d"]],
            "byteorder": sys.byteorder,
        }
        with gzip.open(path, "wb", compresslevel=1) as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.span_name, self.span_parent, self.span_start, self.span_end):
                fh.write(arr.tobytes())
        return len(self.span_start)
