"""Per-layer spans recorded from outside the program.

The tracer wraps every public function of each schubertk module, plus the
arithmetic operators of ``LaurentPoly``, and patches each wrapper into every
namespace that binds the function, so that ``restriction.enumerate_eyd`` is
traced as well as ``diagrams.enumerate_eyd``.  Spans are kept in memory as
flat arrays (name, start, end, parent, query id) and written out at the end.
``uninstall`` puts every original back.

Layers are the modules.  A span's self time is its duration minus the time
its child spans cover.  Self time is summed per layer and per group: a group
is started by one of the functions in ``GROUP_ROOTS`` and takes in the
same-layer functions it calls.  The program has no queues and no threads,
so no layer ever waits and no waiting time is reported.
"""

from __future__ import annotations

import json
import sys
import time
from array import array

LAYERS = ("cli", "weyl", "shapes", "diagrams", "tableaux", "hecke", "ring", "restriction")

OPERATORS = ("__mul__", "__rmul__", "__add__", "__radd__")

GROUP_ROOTS = {
    "ring.__mul__": "ring.mul",
    "ring.__rmul__": "ring.mul",
    "ring.__add__": "ring.add",
    "ring.__radd__": "ring.add",
    "ring.geometric_expand": "ring.expand",
    "ring.format_poly": "ring.format",
    "ring.poly_to_json": "ring.format",
    "diagrams.enumerate_eyd": "diagrams.enum",
    "diagrams.reflection_tableau": "diagrams.tableau",
    "diagrams.reading_word": "diagrams.tableau",
    "tableaux.enumerate_svt": "tableaux.enum",
    "hecke.subsequence_stats": "hecke.stats",
    "hecke.hecke_subsequences": "hecke.subseq",
}

QUERY_SPAN = "bench.query"


def _terms(x):
    return len(x.terms) if hasattr(x, "terms") else 1


class Tracer:
    def __init__(self, lib):
        self.lib = lib
        self.names = [QUERY_SPAN]
        self.sid = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.qid = array("q")
        self.stack = [-1]
        self.query = -1
        self.counts = {
            "ring.mul.pairs": 0,
            "ring.add.terms": 0,
            "ring.peak_terms": 0,
            "ring.result_terms": 0,
            "restriction.pre_merge_terms": 0,
            "diagrams.enum.count": 0,
            "tableaux.enum.count": 0,
            "hecke.subseq.count": 0,
        }
        self.patches = []  # (namespace dict owner, attribute, original)

    # -- recording ----------------------------------------------------------

    def _open(self, sid):
        idx = len(self.sid)
        self.sid.append(sid)
        self.parent.append(self.stack[-1])
        self.qid.append(self.query)
        self.end.append(0)
        self.stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def _close(self, idx):
        self.end[idx] = time.perf_counter_ns()
        self.stack.pop()

    def run_query(self, query_index, fn):
        """Run one query under a root span."""
        self.query = query_index
        idx = self._open(0)
        try:
            return fn()
        finally:
            self._close(idx)

    def _wrap(self, name, fn, hook):
        sid = len(self.names)
        self.names.append(name)
        opened, closed = self._open, self._close

        def wrapper(*args, **kwargs):
            idx = opened(sid)
            try:
                result = fn(*args, **kwargs)
            finally:
                closed(idx)
            if hook is not None:
                hook(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _hooks(self):
        c = self.counts

        def mul(args, result):
            c["ring.mul.pairs"] += _terms(args[0]) * _terms(args[1])
            c["ring.peak_terms"] = max(c["ring.peak_terms"], len(result.terms))

        def add(args, result):
            c["ring.add.terms"] += _terms(args[0]) + _terms(args[1])
            c["ring.peak_terms"] = max(c["ring.peak_terms"], len(result.terms))

        def counter(key, of):
            def hook(args, result):
                c[key] += of(result)
            return hook

        return {
            "ring.__mul__": mul,
            "ring.__rmul__": mul,
            "ring.__add__": add,
            "ring.__radd__": add,
            "restriction.pullback": counter("ring.result_terms", lambda r: len(r.value.terms)),
            "restriction.pullback_terms": counter(
                "restriction.pre_merge_terms", lambda r: sum(2 ** len(t) for t in r)
            ),
            "diagrams.enumerate_eyd": counter("diagrams.enum.count", len),
            "tableaux.enumerate_svt": counter("tableaux.enum.count", len),
            "hecke.hecke_subsequences": counter("hecke.subseq.count", len),
        }

    # -- patching -----------------------------------------------------------

    def install(self):
        hooks = self._hooks()
        wrappers = {}  # id(original) -> wrapper; the originals stay alive, so ids are unique
        for layer in LAYERS:
            module = getattr(self.lib, layer)
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or isinstance(obj, type) or not callable(obj):
                    continue
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                name = f"{layer}.{attr}"
                wrappers[id(obj)] = self._wrap(name, obj, hooks.get(name))
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "schubertk" or name.startswith("schubertk.")):
                continue
            for attr, obj in list(vars(module).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    self.patches.append((module, attr, obj))
                    setattr(module, attr, wrapper)
        poly = self.lib.ring.LaurentPoly
        for attr in OPERATORS:
            original = poly.__dict__[attr]
            self.patches.append((poly, attr, original))
            setattr(poly, attr, self._wrap(f"ring.{attr}", original, hooks[f"ring.{attr}"]))

    def uninstall(self):
        """Put every original back; returns the bindings that did not revert."""
        for owner, attr, original in reversed(self.patches):
            setattr(owner, attr, original)
        left = [f"{getattr(o, '__name__', o)}.{a}" for o, a, orig in self.patches
                if vars(o).get(a) is not orig]
        self.patches = []
        return left

    # -- results ------------------------------------------------------------

    def metrics(self):
        """Per-layer self times, call counts and work counts."""
        n = len(self.sid)
        layer_of = [name.split(".")[0] for name in self.names]
        child = [0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        group = [""] * n
        self_ns, calls = {}, {}
        for i in range(n):
            name = self.names[self.sid[i]]
            layer = layer_of[self.sid[i]]
            p = self.parent[i]
            if name in GROUP_ROOTS:
                group[i] = GROUP_ROOTS[name]
            elif p >= 0 and layer_of[self.sid[p]] == layer:
                group[i] = group[p]
            else:
                group[i] = layer + ".other"
            own = self.end[i] - self.start[i] - child[i]
            for key in (group[i], layer):
                self_ns[key] = self_ns.get(key, 0) + own
            calls[name] = calls.get(name, 0) + 1
            calls[layer] = calls.get(layer, 0) + 1

        def s(key):
            return self_ns.get(key, 0) / 1e9

        def ncalls(*names):
            return sum(calls.get(x, 0) for x in names)

        c = self.counts
        mul_s = s("ring.mul")
        return {
            "ring.mul.calls": (ncalls("ring.__mul__", "ring.__rmul__"), "count"),
            "ring.mul.self_s": (mul_s, "s"),
            "ring.mul.pairs": (c["ring.mul.pairs"], "count"),
            "ring.mul.pairs_per_s": (c["ring.mul.pairs"] / mul_s if mul_s else 0.0, "1/s"),
            "ring.add.calls": (ncalls("ring.__add__", "ring.__radd__"), "count"),
            "ring.add.self_s": (s("ring.add"), "s"),
            "ring.add.terms": (c["ring.add.terms"], "count"),
            "ring.expand.self_s": (s("ring.expand"), "s"),
            "ring.format.self_s": (s("ring.format"), "s"),
            "ring.peak_terms": (c["ring.peak_terms"], "count"),
            "ring.result_terms": (c["ring.result_terms"], "count"),
            "ring.self_s": (s("ring"), "s"),
            "restriction.self_s": (s("restriction"), "s"),
            "restriction.pre_merge_terms": (c["restriction.pre_merge_terms"], "count"),
            "restriction.merge_ratio": (
                c["ring.result_terms"] / c["restriction.pre_merge_terms"]
                if c["restriction.pre_merge_terms"] else 0.0,
                "ratio",
            ),
            "diagrams.enum.calls": (ncalls("diagrams.enumerate_eyd"), "count"),
            "diagrams.enum.self_s": (s("diagrams.enum"), "s"),
            "diagrams.enum.count": (c["diagrams.enum.count"], "count"),
            "diagrams.tableau.self_s": (s("diagrams.tableau"), "s"),
            "diagrams.self_s": (s("diagrams"), "s"),
            "tableaux.enum.calls": (ncalls("tableaux.enumerate_svt"), "count"),
            "tableaux.enum.self_s": (s("tableaux.enum"), "s"),
            "tableaux.enum.count": (c["tableaux.enum.count"], "count"),
            "tableaux.self_s": (s("tableaux"), "s"),
            "hecke.stats.calls": (ncalls("hecke.subsequence_stats"), "count"),
            "hecke.stats.self_s": (s("hecke.stats"), "s"),
            "hecke.subseq.self_s": (s("hecke.subseq"), "s"),
            "hecke.subseq.count": (c["hecke.subseq.count"], "count"),
            "hecke.self_s": (s("hecke"), "s"),
            "weyl.self_s": (s("weyl"), "s"),
            "weyl.calls": (calls.get("weyl", 0), "count"),
            "shapes.self_s": (s("shapes"), "s"),
            "cli.self_s": (s("cli"), "s"),
            "trace.spans": (n, "count"),
        }

    def write(self, path):
        """Spans as JSON lines: a header with the span names, then one
        [name id, start ns, end ns, parent index, query index] per span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            fh.write(json.dumps({"names": self.names, "fields": ["name", "start", "end", "parent", "query"]}) + "\n")
            for row in zip(self.sid, self.start, self.end, self.parent, self.qid):
                fh.write(json.dumps(row) + "\n")
