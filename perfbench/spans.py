"""In-memory spans around the public calls into each chartab layer.

The benchmark records spans from its own code; chartab is not modified.
A wrapper has to replace a function under every name a chartab module has
bound it to, because callers look names up in their own module globals
(``chartable`` calls ``mat_mul`` and ``class_matrix`` that way, ``harness``
calls ``compute_table`` and ``average_degree`` that way).

Each span is ``[name, start, end, parent, item]``: ``parent`` is the index of
the innermost span open when it started (-1 for none) and ``item`` is the id
of the group being worked on, shared by all spans of that group.  A layer's
self time is its span's duration minus the part covered by its child spans.
"""

from __future__ import annotations

import functools
import statistics
import sys
import weakref
from collections import Counter
from time import perf_counter

# (span name, module, attribute) for module-level functions.
FUNCTIONS = [
    ("cli.main", "chartab.cli", "main"),
    ("harness.verify_corpus", "chartab.harness", "verify_corpus"),
    ("harness.check_group", "chartab.harness", "check_group"),
    ("groupspec.construct", "chartab.groupspec", "construct"),
    ("chartable.table", "chartab.chartable", "compute_table"),
    ("chartable.class_matrix", "chartab.chartable", "class_matrix"),
    ("chartable.orthogonality", "chartab.chartable", "verify_orthogonality"),
    ("chartable.document", "chartab.chartable", "table_document"),
    ("fplinalg.mat_mul", "chartab.fplinalg", "mat_mul"),
    ("fplinalg.rref", "chartab.fplinalg", "rref"),
    ("fplinalg.eig_split", "chartab.fplinalg", "eig_split_rows"),
    ("invariants.average_degree", "chartab.invariants", "average_degree"),
]

# (span name, attribute) for PermGroup methods.
METHODS = [
    ("permgroup.contains", "__contains__"),
    ("permgroup.elements", "elements"),
    ("permgroup.classes", "conjugacy_classes"),
    ("permgroup.solvable", "is_solvable"),
    ("permgroup.p_complement", "has_normal_p_complement"),
]

# Every per-layer metric, in the order they are reported.
LAYER_METRICS = {
    "groupspec.construct_s": "s",
    "permgroup.chain_build_s": "s",
    "permgroup.chain_orbit_points": "count",
    "permgroup.contains_s": "s",
    "permgroup.contains_calls": "count",
    "permgroup.elements_s": "s",
    "permgroup.elements_n": "count",
    "permgroup.classes_s": "s",
    "permgroup.classes_n": "count",
    "permgroup.solvable_s": "s",
    "permgroup.p_complement_s": "s",
    "chartable.class_matrix_s": "s",
    "chartable.class_matrix_calls": "count",
    "fplinalg.eig_split_s": "s",
    "fplinalg.eig_split_calls": "count",
    "fplinalg.rref_s": "s",
    "fplinalg.rref_calls": "count",
    "fplinalg.mat_mul_s": "s",
    "fplinalg.mat_mul_calls": "count",
    "fplinalg.mat_mul_macs": "count",
    "chartable.table_self_s": "s",
    "chartable.orthogonality_s": "s",
    "chartable.document_s": "s",
    "invariants.average_degree_s": "s",
    "invariants.average_degree_calls": "count",
    "harness.check_group_s": "s",
    "harness.group_p50_s": "s",
    "harness.group_p90_s": "s",
    "bench.trace_overhead_s": "s",
}

# Per-layer metrics that are counts kept by the wrappers, not span sums.
COUNTERS = {"permgroup.chain_orbit_points", "permgroup.elements_n",
            "permgroup.classes_n", "fplinalg.mat_mul_macs"}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self.item: str | None = None
        self._open: list[int] = []

    def wrap(self, name: str, fn, after=None, item_of=None):
        """fn with a span around each call; after(result, args) runs on return."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            outer_item = self.item
            if item_of is not None:
                self.item = item_of(args, kwargs)
            rec = [name, 0.0, 0.0, self._open[-1] if self._open else -1, self.item]
            self._open.append(len(self.spans))
            self.spans.append(rec)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                self._open.pop()
                self.item = outer_item
            if after is not None:
                after(result, args)
            return result
        return traced

    def instrument(self) -> None:
        """Wrap every layer boundary of the imported chartab package."""
        from chartab.permgroup import PermGroup, StabilizerChain

        after = {
            "fplinalg.mat_mul": lambda r, a: self.counters.update(
                {"fplinalg.mat_mul_macs": _macs(a[0], a[1])}),
        }
        item_of = {"harness.check_group": lambda a, kw: kw.get("name") or str(a[0])}
        for name, module, attr in FUNCTIONS:
            orig = getattr(sys.modules[module], attr)
            _rebind(orig, self.wrap(name, orig, after.get(name), item_of.get(name)))

        # count each group's elements and classes once, however often asked
        seen = {"permgroup.elements": weakref.WeakSet(),
                "permgroup.classes": weakref.WeakSet()}

        def count_once(name):
            def after_call(result, args):
                if args[0] not in seen[name]:
                    seen[name].add(args[0])
                    self.counters[name + "_n"] += len(result)
            return after_call

        for name, attr in METHODS:
            hook = count_once(name) if name in seen else None
            setattr(PermGroup, attr, self.wrap(name, getattr(PermGroup, attr), hook))

        # every stabilizer chain is built by its constructor, on first need
        def orbit_points(_result, args):
            self.counters["permgroup.chain_orbit_points"] += sum(
                len(lvl.transversal) for lvl in args[0].levels)

        StabilizerChain.__init__ = self.wrap(
            "permgroup.chain_build", StabilizerChain.__init__, orbit_points)

    # -- analysis -------------------------------------------------------------

    def self_times(self) -> list[float]:
        """Duration of each span minus the union of its children's intervals."""
        children: dict[int, list[tuple[float, float]]] = {}
        for rec in self.spans:
            if rec[3] >= 0:
                children.setdefault(rec[3], []).append((rec[1], rec[2]))
        out = []
        for i, (_, start, end, _, _) in enumerate(self.spans):
            covered, reach = 0.0, start
            for c_start, c_end in sorted(children.get(i, ())):
                c_start = max(c_start, reach)
                if c_end > c_start:
                    covered += c_end - c_start
                    reach = c_end
            out.append(end - start - covered)
        return out

    def layer_metrics(self) -> dict[str, float]:
        """Every per-layer metric except the tracing overhead."""
        self_s: Counter = Counter()
        calls: Counter = Counter()
        for rec, own in zip(self.spans, self.self_times()):
            self_s[rec[0]] += own
            calls[rec[0]] += 1
        groups = [rec[2] - rec[1] for rec in self.spans
                  if rec[0] == "harness.check_group"]
        out: dict[str, float] = {}
        for metric in LAYER_METRICS:
            base, _, kind = metric.rpartition("_")
            if metric in COUNTERS:
                out[metric] = self.counters[metric]
            elif kind == "calls":
                out[metric] = calls[base]
            elif metric == "chartable.table_self_s":
                out[metric] = self_s["chartable.table"]
            elif metric == "harness.group_p50_s":
                out[metric] = _percentile(groups, 50)
            elif metric == "harness.group_p90_s":
                out[metric] = _percentile(groups, 90)
            elif metric != "bench.trace_overhead_s":
                out[metric] = self_s[base]
        return out

    def items(self) -> dict[str, dict]:
        """Per item: the duration of its outermost spans and self time by layer."""
        out: dict[str, dict] = {}
        for rec, own in zip(self.spans, self.self_times()):
            if rec[4] is None:
                continue
            entry = out.setdefault(rec[4], {"span_s": 0.0, "self_s": Counter()})
            entry["self_s"][rec[0]] += own
            parent = rec[3]
            if parent < 0 or self.spans[parent][4] != rec[4]:
                entry["span_s"] += rec[2] - rec[1]
        return out


def _rebind(orig, wrapper) -> None:
    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "chartab" or mod_name.startswith("chartab."):
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, attr, wrapper)


def _macs(a, b) -> int:
    rows = a.shape[0] if a.ndim > 1 else 1
    cols = b.shape[1] if b.ndim > 1 else 1
    return rows * a.shape[-1] * cols


def _percentile(values: list[float], pct: int) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]
