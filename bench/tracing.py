"""Spans and counts at the boundaries between levelpers modules.

The tracer wraps, from outside the package, the public functions that one
module calls in another (``from .gf2 import kernel_basis`` binds a name
in the caller's namespace, so that name is the one wrapped) plus the
methods every caller shares.  A span records name, start, end, parent
span and job; counts are taken at the same boundaries.  A wrap target a
later version of the package no longer has is listed as absent, and the
metrics that would come from it read 0; so are counts whose arguments or
results no longer have the expected shape.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict

# (module, attribute, span name).  The span name's first part is the layer.
TARGETS = [
    ("levelpers.cli", "main", "cli.main"),
    ("levelpers.cli", "parse_input", "report.parse"),
    ("levelpers.cli", "analyze", "report.analyze"),
    ("levelpers.cli", "render_svg", "report.serialize"),
    ("levelpers.cli", "svg_text", "report.serialize"),
    ("levelpers.cli", "result_to_csv", "report.serialize"),
    ("levelpers.cli", "numbers_to_csv", "report.serialize"),
    ("levelpers.report", "ResultDocument.to_json", "report.serialize"),
    ("levelpers.report", "parse_input", "report.parse"),
    ("levelpers.report", "input_to_map", "report.input_to_map"),
    ("levelpers.report", "run_checks", "report.checks"),
    ("levelpers.report", "build_complex", "complexes.build"),
    ("levelpers.report", "telescope", "complexes.telescope"),
    ("levelpers.report", "critical_values", "complexes.grid"),
    ("levelpers.report", "compute_relevant_numbers", "level.numbers"),
    ("levelpers.report", "barcode_from_overlaps", "level.to_bars"),
    ("levelpers.report", "barcode_from_kernels", "level.to_bars"),
    ("levelpers.report", "numbers_from_barcode", "level.from_bars"),
    ("levelpers.report", "sublevel_from_level", "level.bridge"),
    ("levelpers.report", "betti_numbers", "slabs.betti"),
    ("levelpers.report", "homology_of", "slabs.homology"),
    ("levelpers.report", "include_level", "slabs.include"),
    ("levelpers.report", "validate", "slabs.validate"),
    ("levelpers.report", "induced_map", "gf2.induced"),
    ("levelpers.report", "rank", "gf2.subspace"),
    ("levelpers.report", "sublevel_barcode", "sublevel.barcode"),
    ("levelpers.report", "bars_from_betti", "sublevel.betti"),
    ("levelpers.sublevel", "sublevel_barcode", "sublevel.barcode"),
    ("levelpers.sublevel", "BettiTable.from_barcode", "sublevel.betti"),
    ("levelpers.sublevel", "lower_star_filtration", "complexes.lower_star"),
    ("levelpers.sublevel", "critical_values", "complexes.grid"),
    ("levelpers.sublevel", "column_reduce", "gf2.reduce"),
    ("levelpers.level", "critical_values", "complexes.grid"),
    ("levelpers.level", "homology_of", "slabs.homology"),
    ("levelpers.level", "include_level", "slabs.include"),
    ("levelpers.level", "induced_map", "gf2.induced"),
    ("levelpers.level", "image_basis", "gf2.subspace"),
    ("levelpers.level", "kernel_basis", "gf2.subspace"),
    ("levelpers.level", "intersection_dim", "gf2.subspace"),
    ("levelpers.slabs", "SlabBuilder.level", "slabs.build"),
    ("levelpers.slabs", "SlabBuilder.interlevel", "slabs.build"),
    ("levelpers.slabs", "InclusionMap.chain_matrix", "slabs.include"),
    ("levelpers.slabs", "homology_presentation", "gf2.homology"),
]

LAYERS = ("cli", "report", "complexes", "slabs", "gf2", "sublevel", "level")

# Per-layer time metrics: metric -> span names whose self time it sums.
# Each layer's total self time is reported as well, as "<layer>.self_s".
TIME_METRICS = {
    "report.parse_s": ("report.parse",),
    "report.analyze_self_s": ("report.analyze", "report.input_to_map"),
    "report.serialize_s": ("report.serialize",),
    "report.checks_self_s": ("report.checks",),
    "complexes.build_s": ("complexes.build",),
    "complexes.telescope_s": ("complexes.telescope",),
    "complexes.lower_star_s": ("complexes.lower_star",),
    "complexes.grid_s": ("complexes.grid",),
    "slabs.build_s": ("slabs.build",),
    "slabs.include_s": ("slabs.include",),
    "gf2.homology_s": ("gf2.homology",),
    "gf2.induced_s": ("gf2.induced",),
    "gf2.subspace_s": ("gf2.subspace",),
    "gf2.reduce_s": ("gf2.reduce",),
    "level.numbers_self_s": ("level.numbers",),
    "level.to_bars_s": ("level.to_bars",),
    "level.from_bars_s": ("level.from_bars",),
    "level.bridge_s": ("level.bridge",),
    "sublevel.barcode_self_s": ("sublevel.barcode",),
}

COUNT_METRICS = (
    "complexes.simplices",
    "slabs.complexes",
    "slabs.cells",
    "slabs.homology_calls",
    "gf2.calls",
    "gf2.matrix_entries",
    "gf2.reduce_columns",
    "level.grid_points",
    "level.bands",
    "sublevel.matrix_bytes",
)


def unit(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_frac"):
        return "ratio"
    return "bytes" if metric.endswith("_bytes") else "count"


def _shape_entries(arg) -> tuple[int, int] | None:
    """(entries, empty) of a BitMatrix or Subspace argument, else None."""
    if hasattr(arg, "rows") and hasattr(arg, "cols"):
        return arg.rows * arg.cols, int(arg.rows == 0 or arg.cols == 0)
    if hasattr(arg, "ambient_dim") and hasattr(arg, "dim"):
        return arg.ambient_dim * arg.dim, int(arg.ambient_dim == 0 or arg.dim == 0)
    return None


class Tracer:
    """In-memory spans and counts; install() wraps, uninstall() restores."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int, int]] = []
        self.counts: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.job = -1
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self._complexes: dict[int, object] = {}

    # -- installing ---------------------------------------------------
    def install(self, targets=TARGETS) -> None:
        for module_name, attr, span in targets:
            try:
                owner = importlib.import_module(module_name)
                *path, name = attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                raw = vars(owner)[name] if isinstance(owner, type) else getattr(owner, name)
            except (ImportError, AttributeError, KeyError):
                self.absent.append(f"{module_name}.{attr}")
                continue
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(raw.__func__, span))
            else:
                wrapped = self._wrap(raw, span)
            self._restore.append((owner, name, raw))
            setattr(owner, name, wrapped)

    def uninstall(self) -> None:
        for owner, name, raw in reversed(self._restore):
            setattr(owner, name, raw)
        self._restore.clear()

    def start_job(self, job: int) -> None:
        self.job = job
        self._complexes.clear()

    # -- recording ----------------------------------------------------
    def _wrap(self, fn, span: str):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = tracer._stack[-1] if tracer._stack else -1
            index = len(tracer.spans)
            tracer.spans.append((span, 0.0, 0.0, parent, tracer.job))
            tracer._stack.append(index)
            before = tracer.counts[tracer.job]["gf2.homology_new"]
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer.spans[index] = (span, start, end, parent, tracer.job)
            try:
                tracer._count(span, args, kwargs, result, parent, before)
            except (AttributeError, IndexError, TypeError):  # a later signature
                if f"counts of {span}" not in tracer.absent:
                    tracer.absent.append(f"counts of {span}")
            return result

        return wrapper

    def _count(self, span, args, kwargs, result, parent, homology_before) -> None:
        c = self.counts[self.job]
        layer = span.split(".", 1)[0]
        if layer == "gf2":
            c["gf2.calls"] += 1
            shapes = [s for s in map(_shape_entries, list(args) + list(kwargs.values())) if s]
            c["gf2.matrix_entries"] += sum(e for e, _ in shapes)
            c["gf2.empty"] += int(bool(shapes) and all(empty for _, empty in shapes))
            if span == "gf2.homology":
                c["gf2.homology_new"] += 1
            elif span == "gf2.reduce":
                c["gf2.reduce_columns"] += args[0].cols
        elif span == "slabs.build":
            if id(result) not in self._complexes:
                self._complexes[id(result)] = result  # held so the id stays unique in this job
                c["slabs.complexes"] += 1
                c["slabs.cells"] += len(result)
            if parent >= 0 and self.spans[parent][0] == "level.numbers":
                c["level.bands"] += 1
        elif span == "slabs.homology":
            c["slabs.homology_calls"] += 1
            c["slabs.homology_hits"] += int(c["gf2.homology_new"] == homology_before)
        elif span == "level.numbers":
            c["level.grid_points"] += 2 * len(result.grid.criticals) - 1
        elif span == "sublevel.barcode":
            c["sublevel.matrix_bytes"] += len(args[0].complex.simplices) ** 2
        elif span == "report.input_to_map":
            c["complexes.simplices"] += len(result.complex.simplices)


def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    Spans nest (one thread), so the children of a span cover disjoint
    parts of it and their durations can simply be subtracted.
    """
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def per_job(spans, counts) -> dict[int, dict[str, float]]:
    """Per-job layer metrics from spans and raw counts."""
    out: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    span_metric = {name: metric for metric, names in TIME_METRICS.items() for name in names}
    for (name, _, _, _, job), own in zip(spans, self_times(spans)):
        row = out[job]
        row[f"{name.split('.', 1)[0]}.self_s"] += own
        if name in span_metric:
            row[span_metric[name]] += own
        row["trace.spans"] += 1
    for job, c in counts.items():
        row = out[job]
        for metric in COUNT_METRICS:
            row[metric] += c.get(metric, 0.0)
        row["gf2.empty_calls"] += c.get("gf2.empty", 0.0)
        row["slabs.homology_hits"] += c.get("slabs.homology_hits", 0.0)
    return out


def layer_metrics(spans, counts, job_names: dict[int, str]) -> dict[str, float]:
    """Per-layer metrics for one pass over the job list.

    Each job's value is averaged over its traced runs, then the averages
    are summed over the list, so a partly repeated list still counts
    every job once.  Ratios are formed from the summed numerators and
    denominators.
    """
    rows = per_job(spans, counts)
    by_name: dict[str, list[dict[str, float]]] = defaultdict(list)
    for job, name in job_names.items():
        by_name[name].append(rows.get(job, {}))
    totals: dict[str, float] = defaultdict(float)
    for runs in by_name.values():
        keys = {k for r in runs for k in r}
        for k in keys:
            totals[k] += sum(r.get(k, 0.0) for r in runs) / len(runs)
    out = {metric: totals.get(metric, 0.0) for metric in list(TIME_METRICS) + list(COUNT_METRICS)}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = totals.get(f"{layer}.self_s", 0.0)
    calls = totals.get("slabs.homology_calls", 0.0)
    out["slabs.homology_cache_hit_frac"] = totals.get("slabs.homology_hits", 0.0) / calls if calls else 0.0
    gcalls = totals.get("gf2.calls", 0.0)
    out["gf2.empty_frac"] = totals.get("gf2.empty_calls", 0.0) / gcalls if gcalls else 0.0
    out["trace.spans"] = totals.get("trace.spans", 0.0)
    return out
