"""Per-layer tracing from outside the package.

The knotforge modules import each other's functions by name
(``from .algebra import det``), so a function is wrapped in every knotforge
module namespace that binds it: ``knotforge.twisted.det``,
``knotforge._fastdet.det``, ``knotforge.cli.enumerate_sl2`` and so on.  A
wrapped call records a span (name, start, end, parent span, op id, phase);
``reps.evaluate_word`` runs ~10^5 times per pass and is only counted.
Spans stay in memory and are written out when the run ends.  Spans recorded
while the inputs are generated have phase ``setup`` and are kept apart from
the ``timed`` spans of the measured passes.

Everything runs in one thread with no queue or lock, so no layer waits:
there is no wait-time metric.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

# span name -> (defining module, function, what the span's value records)
SPANS = {
    "reps.enumerate_sl2": ("reps", "enumerate_sl2", "found"),
    "reps.verify_representation": ("reps", "verify_representation", None),
    "fastdet.pencil_det": ("_fastdet", "pencil_det", "dim"),
    "twisted.fox_matrix": ("twisted", "fox_matrix", "rows"),
    "twisted.twisted_alexander": ("twisted", "twisted_alexander", None),
    "twisted.verify_theorem": ("twisted", "verify_theorem", None),
    "twisted.classical_alexander": ("twisted", "classical_alexander", None),
    "twisted.knot_determinant": ("twisted", "knot_determinant", None),
    "algebra.det": ("algebra", "det", "dim"),
    "algebra.gcd_polys": ("algebra", "gcd_polys", None),
    "algebra.reduce_fraction": ("algebra", "reduce_fraction", None),
    "presentation.wirtinger": ("presentation", "wirtinger", "generators"),
    "presentation.build_symun_presentation":
        ("presentation", "build_symun_presentation", "generators"),
    "presentation.lamm_pullback": ("presentation", "lamm_pullback", None),
    "diagram.parse_pd": ("diagram", "parse_pd", None),
    "diagram.symmetric_union_pd": ("diagram", "symmetric_union_pd", None),
    "cli.run": ("cli", "run", None),
}
COUNTED = {"reps.evaluate_word": ("reps", "evaluate_word")}
# a det call made from the pencil path is its fallback to Bareiss
FALLBACK_SITE = ("knotforge._fastdet", "det")


def _value(kind, args, result):
    if kind == "dim":
        return args[0].rows
    if kind == "rows":
        return result.rows
    if kind == "found":
        return len(result)
    if kind == "generators":
        pres = result[0] if isinstance(result, tuple) else result
        return pres.num_generators
    return None


class Tracer:
    def __init__(self):
        # (name, start, end, parent index, op id, phase, value)
        self.spans = []
        self.counts = defaultdict(int)  # (phase, name) -> calls
        self.phase = "setup"
        self.op = None
        self._stack = []
        self._sites = None  # (module, attribute, original, wrapper)

    def _find_sites(self):
        mods = {n: m for n, m in sys.modules.items()
                if n == "knotforge" or n.startswith("knotforge.")}
        targets = [(name, mod, fn, kind, True)
                   for name, (mod, fn, kind) in SPANS.items()]
        targets += [(name, mod, fn, None, False)
                    for name, (mod, fn) in COUNTED.items()]
        sites = []
        for name, mod, fn, kind, span in targets:
            orig = getattr(mods["knotforge." + mod], fn)
            for mname, m in mods.items():
                for attr, val in list(vars(m).items()):
                    if val is not orig:
                        continue
                    if not span:
                        wrapper = self._counter(name, orig)
                    else:
                        extra = ("fastdet.pencil_det.fallbacks"
                                 if (mname, attr) == FALLBACK_SITE else None)
                        wrapper = self._spanner(name, orig, kind, extra)
                    sites.append((m, attr, orig, wrapper))
        return sites

    def install(self):
        """Wrap every traced function in each knotforge module that binds
        it; ``uninstall`` puts the originals back."""
        if self._sites is None:
            self._sites = self._find_sites()
        for m, attr, _, wrapper in self._sites:
            setattr(m, attr, wrapper)

    def uninstall(self):
        for m, attr, orig, _ in self._sites or ():
            setattr(m, attr, orig)

    def _counter(self, name, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[self.phase, name] += 1
            return fn(*args, **kwargs)
        return counted

    def _spanner(self, name, fn, kind, extra):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        def spanned(*args, **kwargs):
            if extra:
                counts[self.phase, extra] += 1
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (name, t0, t1, parent, self.op, self.phase, None)
            if kind:
                spans[idx] = spans[idx][:6] + (_value(kind, args, result),)
            return result
        return spanned

    def summary(self, phase):
        """Per-name totals over one phase: calls, total s, self s (the span
        minus the time its child spans cover), value sum and value max."""
        child = defaultdict(float)
        for name, t0, t1, parent, _, ph, _ in self.spans:
            if parent >= 0 and ph == phase:
                child[parent] += t1 - t0
        out = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0,
                                   "sum": 0, "max": 0})
        for i, (name, t0, t1, _, _, ph, value) in enumerate(self.spans):
            if ph != phase:
                continue
            row = out[name]
            row["calls"] += 1
            row["s"] += t1 - t0
            row["self_s"] += t1 - t0 - child[i]
            if value is not None:
                row["sum"] += value
                row["max"] = max(row["max"], value)
        for (ph, name), n in self.counts.items():
            if ph == phase:
                out[name]["calls"] += n
        return out

    def write(self, path, meta):
        """One JSON line of run metadata, then one line per span."""
        with open(path, "w") as fh:
            fh.write(json.dumps(meta, sort_keys=True) + "\n")
            for name, t0, t1, parent, op, phase, value in self.spans:
                fh.write(json.dumps({"name": name, "start": t0, "end": t1,
                                     "parent": parent, "op": op,
                                     "phase": phase, "value": value}) + "\n")


# The per-layer metrics, per traced pass: name -> (unit, span or counter
# names, field of Tracer.summary, the end-to-end metrics it should move).
# A "max" field is the largest value over the named spans; the other fields
# are summed over them.  trace.overhead_s is the traced pass time minus the
# untraced one (run.py).
_ENUM = "obstruct.wall_s, symun-grid.wall_s"
_PENCIL = "symun-grid.wall_s, symun-grid.op_tail_ms"
_SYMUN = "symun-grid.wall_s"
_CLASSICAL = "classical-grid.wall_s"
_DIAGRAM = "classical-grid.wall_s, setup_s"
_PRESENTATIONS = ("presentation.wirtinger",
                  "presentation.build_symun_presentation")


def _layer(span, fields, moves):
    unit = {"calls": "count", "sum": "count", "max": "count"}
    return {"%s.%s" % (span, name): (unit.get(field, "s"), (span,), field,
                                      moves)
            for name, field in fields}


LAYER_METRICS = {
    **_layer("reps.enumerate_sl2", [("calls", "calls"), ("s", "s")], _ENUM),
    "reps.reps_found": ("count", ("reps.enumerate_sl2",), "sum", _ENUM),
    **_layer("reps.evaluate_word", [("calls", "calls")], _ENUM),
    **_layer("reps.verify_representation", [("calls", "calls"), ("s", "s")],
             _SYMUN),
    **_layer("fastdet.pencil_det", [("calls", "calls"), ("self_s", "self_s"),
                                    ("dim_sum", "sum")], _PENCIL),
    "fastdet.pencil_det.fallbacks": ("count",
                                     ("fastdet.pencil_det.fallbacks",),
                                     "calls", _PENCIL),
    **_layer("twisted.fox_matrix", [("calls", "calls"), ("s", "s"),
                                    ("dim_max", "max")], _SYMUN),
    **_layer("twisted.twisted_alexander", [("self_s", "self_s")], _SYMUN),
    **_layer("twisted.verify_theorem", [("self_s", "self_s")],
             "symun-grid.op_p50_ms"),
    **_layer("algebra.det", [("calls", "calls"), ("s", "s"),
                             ("dim_sum", "sum")], _CLASSICAL),
    **_layer("algebra.gcd_polys", [("calls", "calls"), ("s", "s")],
             _CLASSICAL),
    **_layer("twisted.classical_alexander", [("self_s", "self_s")],
             _CLASSICAL),
    **_layer("twisted.knot_determinant", [("self_s", "self_s")], _CLASSICAL),
    **_layer("algebra.reduce_fraction", [("calls", "calls"), ("s", "s")],
             _SYMUN),
    **_layer("presentation.wirtinger", [("calls", "calls"), ("s", "s")],
             _SYMUN),
    **_layer("presentation.build_symun_presentation",
             [("calls", "calls"), ("s", "s")], _SYMUN),
    **_layer("presentation.lamm_pullback", [("calls", "calls"), ("s", "s")],
             _SYMUN),
    "presentation.generators_max": ("count", _PRESENTATIONS, "max", _SYMUN),
    **_layer("diagram.parse_pd", [("calls", "calls"), ("s", "s")], _DIAGRAM),
    **_layer("diagram.symmetric_union_pd", [("calls", "calls"), ("s", "s")],
             _DIAGRAM),
    **_layer("cli.run", [("self_s", "self_s")], "obstruct.op_p50_ms"),
    "trace.overhead_s": ("s", (), None,
                         "traced minus untraced wall_s of a pass"),
}
