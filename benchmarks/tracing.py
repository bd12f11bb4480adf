"""Spans and work counters around the public functions of each rqgeo layer.

``install`` runs inside a worker: it replaces each target function, in
every rqgeo module namespace that holds it, by a wrapper that records a
span (id, name, start, end, parent id, job id) and feeds the counters.
Spans stay in memory until ``Recorder.write``.  ``layer_metrics`` runs in
the parent and turns a span file into per-layer seconds.
"""

from __future__ import annotations

import gc
import json
import sys
import time
from collections import defaultdict

# (module, function, span name).  The pipeline calls each of these
# through a module attribute looked up at call time, so patching the
# attribute is enough; constant_term is imported lazily by
# diagonal_restriction for the same reason.
TARGETS = (
    ("rqgeo.field", "build_field", "field.build"),
    ("rqgeo.field", "narrow_class_group", "field.classgroup"),
    ("rqgeo.field", "odd_characters", "field.characters"),
    ("rqgeo.lvalue", "constant_term", "lvalue.constant_term"),
    ("rqgeo.geodesic", "twisted_cycle", "geodesic.twisted_cycle"),
    ("rqgeo.geodesic", "intersect_winding_cycle", "geodesic.intersect_cycle"),
    ("rqgeo.geodesic", "intersect_winding_enum", "geodesic.intersect_enum"),
    ("rqgeo.hecke", "right_cosets", "hecke.right_cosets"),
    ("rqgeo.hecke", "double_cosets", "hecke.double_cosets"),
    ("rqgeo.hecke", "hecke_translate", "hecke.translate"),
    ("rqgeo.hecke", "pair_with_twisted_cycle", "series.pair"),
    ("rqgeo.series", "diagonal_restriction", "series.diagonal_restriction"),
    ("rqgeo.series", "modularity_check", "series.modularity"),
    ("rqgeo.cli", "run", "cli.run"),
)

# Counters that must repeat exactly across two runs of one seed.
DETERMINISTIC = (
    "field.h_plus",
    "field.pell_plus.hits",
    "field.pell_plus.misses",
    "geodesic.intersect_cycle.calls",
    "geodesic.intersect_enum.calls",
    "geodesic.nonzero_frac",
    "geodesic.disc_distinct",
    "geodesic.disc_max",
    "hecke.right_cosets",
    "hecke.translates",
    "hecke.right_cosets.hit_frac",
)


class Recorder:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.next_id = 0
        self.job = None
        self.calls = defaultdict(int)
        self.h_plus = 0
        self.translates = 0
        self.intersected = 0
        self.nonzero = 0
        self.discs = set()
        self.gc_s = 0.0
        self.gc_collections = 0
        self._gc_start = None
        self._originals = {}

    def _gc(self, phase, info):
        if phase == "start":
            self._gc_start = time.perf_counter()
        elif self._gc_start is not None:
            self.gc_s += time.perf_counter() - self._gc_start
            self.gc_collections += 1
            self._gc_start = None

    def _observe(self, name, args, result):
        self.calls[name] += 1
        if name == "geodesic.intersect_cycle":
            self.discs.add(args[0].form.disc())
        if name.startswith("geodesic.intersect_"):
            self.intersected += 1
            self.nonzero += result != 0
        elif name == "hecke.translate":
            self.translates += len(result)
        elif name == "field.classgroup":
            self.h_plus += result.h

    def wrap(self, fn, name):
        def traced(*args, **kwargs):
            sid = self.next_id
            self.next_id += 1
            parent = self.stack[-1] if self.stack else None
            self.stack.append(sid)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                self.stack.pop()
                self.spans.append((sid, name, t0, t1, parent, self.job))
            self._observe(name, args, result)
            return result
        return traced

    def install(self):
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "rqgeo" or n.startswith("rqgeo."))]
        for modname, attr, name in TARGETS:
            fn = getattr(sys.modules[modname], attr)
            self._originals[name] = fn
            traced = self.wrap(fn, name)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, key, traced)
        gc.callbacks.append(self._gc)

    def counters(self):
        pell = sys.modules["rqgeo.field"].pell_plus.cache_info()
        cosets = self._originals["hecke.right_cosets"].cache_info()
        lookups = cosets.hits + cosets.misses
        return {
            "field.h_plus": self.h_plus,
            "field.pell_plus.hits": pell.hits,
            "field.pell_plus.misses": pell.misses,
            "geodesic.intersect_cycle.calls": self.calls["geodesic.intersect_cycle"],
            "geodesic.intersect_enum.calls": self.calls["geodesic.intersect_enum"],
            "geodesic.nonzero_frac": (self.nonzero / self.intersected
                                      if self.intersected else 0.0),
            "geodesic.disc_distinct": len(self.discs),
            "geodesic.disc_max": max(self.discs, default=0),
            "hecke.right_cosets": self.calls["hecke.right_cosets"],
            "hecke.translates": self.translates,
            "hecke.right_cosets.hit_frac": (cosets.hits / lookups
                                            if lookups else 0.0),
            "gc.collections": self.gc_collections,
            "gc_s": self.gc_s,
        }

    def write(self, path):
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def read_spans(path):
    with open(path) as fh:
        return [tuple(json.loads(line)) for line in fh]


def layer_metrics(spans):
    """Per-layer seconds from spans: totals, and self times (duration
    minus the time covered by child spans) where a layer's own work is
    the question."""
    total = defaultdict(float)
    covered = defaultdict(float)
    for sid, name, t0, t1, parent, job in spans:
        total[name] += t1 - t0
        if parent is not None:
            covered[parent] += t1 - t0
    self_time = defaultdict(float)
    for sid, name, t0, t1, parent, job in spans:
        self_time[name] += (t1 - t0) - covered[sid]
    return {
        "field.build_s": total["field.build"],
        "field.classgroup_s": total["field.classgroup"],
        "field.characters_s": total["field.characters"],
        "lvalue.constant_term_s": total["lvalue.constant_term"],
        "geodesic.twisted_cycle_s": total["geodesic.twisted_cycle"],
        "geodesic.intersect_cycle_s": total["geodesic.intersect_cycle"],
        "geodesic.intersect_enum_s": total["geodesic.intersect_enum"],
        "hecke.right_cosets_s": total["hecke.right_cosets"],
        "hecke.double_cosets_s": self_time["hecke.double_cosets"],
        "hecke.translate_s": self_time["hecke.translate"],
        "series.pair_s": total["series.pair"],
        "series.self_s": self_time["series.diagonal_restriction"],
        "series.modularity_s": total["series.modularity"],
        "cli.self_s": self_time["cli.run"],
    }
