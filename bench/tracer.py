"""Span tracing around calls into the cyclecover layers, from outside the package.

While a Tracer is installed, every traced function is replaced by a wrapper
under every name that refers to it in a loaded ``cyclecover`` module, so
calls made between modules through names imported with ``from .x import f``
are caught too. Each call records one span (name, start, end, parent span).
Spans nest by the call stack, so self time is a span's duration minus the
durations of its direct children, and a function that calls another traced
function is never double-counted.

The seeding helpers that build a ``random.Random`` run tens of thousands of
times per solve; they are counted, not spanned, to keep the overhead small.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict

# module -> public functions whose calls become spans. A name the module no
# longer defines is skipped, so the benchmark outlives refactors of the
# package; its metrics then read 0.
SPANNED = {
    "cover": ("spanning_cycle_blowup", "simple_blowup_cover", "almost_blowup_cover",
              "absorb_singleton", "verify_cover", "subdivide_and_wind",
              "dirac_hamilton_cycle"),
    "tiling": ("almost_perfect_tiling", "tiling_increment", "find_lower_regular_tuple",
               "check_lower_regular", "tuple_density", "hypergraph_perfect_matching"),
    "blowup_search": ("find_blowup", "rooted_blowup", "connect_clusters",
                      "find_biclique", "count_copies"),
    "core": ("verify_cycle_blowup", "verify_blowup_hosted", "graph_from_text",
             "graph_to_text", "canonical_cycle", "min_degree", "is_complete_bipartite",
             "CycleBlowupCertificate.from_json"),
    "generators": ("generate",),
}
# module -> functions that build a random.Random; their calls are counted only
COUNTED = {"seeding": ("spawn", "trial_rng")}

PACKAGE = "cyclecover"


class Tracer:
    """Records spans and counts while installed as a context manager.

    Entering patches the package, leaving restores every replaced name.
    """

    def __init__(self):
        self._restore: list = []
        self._stack: list[int] = []
        self.spans: list[list] = []     # [name, start, end, parent index]
        self.hits: Counter = Counter()  # spans whose call returned non-None
        self.counts: Counter = Counter()

    def _spanned(self, name, fn):
        stack = self._stack

        def traced(*args, **kwargs):
            spans = self.spans
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(idx)
            span[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if out is not None:
                self.hits[name] += 1
            return out

        return traced

    def _counted(self, name, fn):
        def counted(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _targets(self):
        for table, wrap in ((SPANNED, self._spanned), (COUNTED, self._counted)):
            for mod_name, names in table.items():
                mod = sys.modules.get(f"{PACKAGE}.{mod_name}")
                for name in names:
                    owner, _, attr = name.rpartition(".")
                    holder = getattr(mod, owner, None) if owner else mod
                    if holder is not None and hasattr(holder, attr):
                        yield wrap, f"{mod_name}.{name}", holder, attr

    def __enter__(self):
        namespaces = [vars(m) for k, m in list(sys.modules.items())
                      if m is not None and (k == PACKAGE or k.startswith(PACKAGE + "."))]
        for wrap, label, holder, attr in self._targets():
            if isinstance(holder, type):
                # a classmethod: wrap the bound method, restore the descriptor
                self._restore.append((vars(holder), attr, vars(holder)[attr], holder))
                setattr(holder, attr, staticmethod(wrap(label, getattr(holder, attr))))
                continue
            orig = getattr(holder, attr)
            wrapped = wrap(label, orig)
            for ns in namespaces:
                for key, val in list(ns.items()):
                    if val is orig:
                        ns[key] = wrapped
                        self._restore.append((ns, key, orig, None))
        return self

    def __exit__(self, *exc):
        for ns, key, orig, cls in reversed(self._restore):
            if cls is not None:
                setattr(cls, key, orig)
            else:
                ns[key] = orig
        self._restore = []
        return False


def summarize(spans, hits, counts) -> dict:
    """name -> {calls, s, self_s, hits} for one instance.

    ``s`` sums only the outermost span of a name, so a recursive call is not
    counted twice; ``self_s`` subtracts the direct children of each span.
    """
    child = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0, "hits": 0})
    for i, (name, start, end, parent) in enumerate(spans):
        rec = out[name]
        rec["calls"] += 1
        rec["self_s"] += (end - start) - child[i]
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            rec["s"] += end - start
    for name, h in hits.items():
        out[name]["hits"] = h
    for name, c in counts.items():
        out[name]["calls"] = c
    return dict(out)
