"""Input documents, result documents, invariant checks, and SVG rendering.

Input is a single JSON object: either a vertex-valued map
``{"vertices": [{"id": 0, "value": 0.5}, ...], "maximal_simplices": [[0, 1], ...]}``
or a filtration ``{"filtration": {"times": [...], "stages": [[...], ...]}}``
whose stages are lists of maximal simplices.  Filtrations are turned
into maps by the telescope construction.  Values are serialized back as
shortest round-tripping decimal strings, so document -> JSON -> document
is the identity.
"""

from __future__ import annotations

import csv
import io
import json
import logging
import time
from dataclasses import asdict, dataclass

import numpy as np

from .complexes import Filtration, VertexValuedMap, build_complex, critical_values, telescope
from .gf2 import induced_map, rank
from .level import (
    LevelBarcode,
    barcode_from_kernels,
    barcode_from_overlaps,
    compute_relevant_numbers,
    first_difference,
    level_barcode,
    numbers_from_barcode,
    sublevel_from_level,
)
from .slabs import SlabBuilder, betti_numbers, homology_of, include_level, validate
from .sublevel import INF, BettiTable, bars_from_betti, sublevel_barcode

__all__ = [
    "InputError",
    "ResultDocument",
    "parse_input",
    "input_to_map",
    "analyze",
    "run_checks",
    "render_svg",
    "svg_text",
    "result_to_csv",
    "numbers_to_csv",
]


_log = logging.getLogger("levelpers")


class InputError(ValueError):
    """A malformed or inconsistent input document."""


def fmt_value(x: float) -> str:
    """Shortest decimal string that parses back to the same float."""
    return repr(float(x))


def _reject_constant(token: str):
    raise InputError(f"non-finite number {token!r} in input")


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise InputError(message)


def _parse_value(raw, where: str) -> float:
    _require(isinstance(raw, (int, float)) and not isinstance(raw, bool),
             f"{where}: expected a number, got {raw!r}")
    try:
        return float(raw)
    except OverflowError:
        raise InputError(f"{where}: number too large for a float") from None


def _parse_simplex_list(raw, known_ids, where: str):
    _require(isinstance(raw, list), f"{where}: expected a list of simplices")
    out = []
    for k, simplex in enumerate(raw):
        _require(isinstance(simplex, list) and simplex,
                 f"{where}[{k}]: expected a non-empty list of vertex ids")
        seen = set()
        for v in simplex:
            _require(isinstance(v, int) and not isinstance(v, bool),
                     f"{where}[{k}]: vertex ids must be integers")
            _require(v in known_ids, f"{where}[{k}]: unknown vertex id {v}")
            _require(v not in seen, f"{where}[{k}]: duplicate vertex id {v}")
            seen.add(v)
        out.append(tuple(simplex))
    return out


def parse_input(text: str):
    """Parse an input document into a VertexValuedMap or a Filtration."""
    try:
        data = json.loads(text, parse_constant=_reject_constant)
    except InputError:
        raise
    except ValueError as exc:  # malformed JSON, or an integer literal past the digit limit
        raise InputError(f"invalid JSON: {exc}") from None
    _require(isinstance(data, dict), "top-level value must be a JSON object")

    if "filtration" in data:
        filt = data["filtration"]
        _require(isinstance(filt, dict), "filtration: expected an object")
        _require("times" in filt and "stages" in filt, "filtration: needs 'times' and 'stages'")
        times = filt["times"]
        stages_raw = filt["stages"]
        _require(isinstance(times, list) and isinstance(stages_raw, list),
                 "filtration: 'times' and 'stages' must be lists")
        _require(len(times) == len(stages_raw),
                 f"filtration: {len(stages_raw)} stages but {len(times)} times")
        times = [_parse_value(t, f"filtration.times[{i}]") for i, t in enumerate(times)]
        stages = []
        for i, stage in enumerate(stages_raw):
            _require(isinstance(stage, list), f"filtration.stages[{i}]: expected a list")
            try:
                stages.append(build_complex(stage))
            except (ValueError, TypeError) as exc:
                raise InputError(f"filtration.stages[{i}]: {exc}") from None
        try:
            return Filtration(stages, times)
        except ValueError as exc:
            raise InputError(str(exc)) from None

    _require("vertices" in data, "expected 'vertices' or 'filtration'")
    _require("maximal_simplices" in data, "missing 'maximal_simplices'")
    verts_raw = data["vertices"]
    _require(isinstance(verts_raw, list), "vertices: expected a list")
    values: dict[int, float] = {}
    for k, entry in enumerate(verts_raw):
        _require(isinstance(entry, dict) and "id" in entry and "value" in entry,
                 f"vertices[{k}]: expected an object with 'id' and 'value'")
        vid = entry["id"]
        _require(isinstance(vid, int) and not isinstance(vid, bool),
                 f"vertices[{k}].id: expected an integer")
        _require(vid not in values, f"vertices[{k}]: duplicate id {vid}")
        values[vid] = _parse_value(entry["value"], f"vertices[{k}].value")
    simplices = _parse_simplex_list(data["maximal_simplices"], set(values), "maximal_simplices")
    simplices.extend((v,) for v in values)
    cx = build_complex(simplices)
    return VertexValuedMap(cx, values)


def input_to_map(parsed) -> VertexValuedMap:
    """Telescope a filtration; pass a map through unchanged."""
    if isinstance(parsed, Filtration):
        return telescope(parsed)
    return parsed


@dataclass
class ResultDocument:
    """Serializable analysis output; values are decimal strings."""

    criticals: list[str]
    max_degree: int
    sublevel_bars: list[dict]
    level_bars: list[dict]
    numbers: dict[str, list[dict]]
    checks: list[dict] | None = None

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2)

    @classmethod
    def from_json(cls, text: str) -> "ResultDocument":
        data = json.loads(text)
        return cls(
            criticals=data["criticals"],
            max_degree=data["max_degree"],
            sublevel_bars=data["sublevel_bars"],
            level_bars=data["level_bars"],
            numbers=data["numbers"],
            checks=data.get("checks"),
        )


def _sublevel_rows(sb) -> list[dict]:
    rows = []
    for r, birth, death, mult in sb.rows():
        rows.append({
            "degree": r,
            "birth": fmt_value(birth),
            "death": None if death == INF else fmt_value(death),
            "multiplicity": mult,
        })
    return rows


def _level_rows(bc: LevelBarcode) -> list[dict]:
    rows = []
    for bar, mult in bc.bars():
        rows.append({
            "degree": bar.degree,
            "left": "closed" if bar.left_closed else "open",
            "birth": fmt_value(bar.left),
            "death": fmt_value(bar.right),
            "right": "closed" if bar.right_closed else "open",
            "multiplicity": mult,
        })
    rows.sort(key=lambda d: (d["degree"], float(d["birth"]), float(d["death"]), d["left"], d["right"]))
    return rows


def _number_rows(nums, grid) -> dict[str, list[dict]]:
    T = grid.criticals
    out: dict[str, list[dict]] = {
        "level_rank": [], "image_overlap": [], "up_kernel": [], "down_kernel": [], "kernel_overlap": [],
    }
    for r in range(nums.max_degree + 1):
        for i, t in enumerate(T):
            c = nums.level_rank(r, t)
            if c:
                out["level_rank"].append({"degree": r, "t": fmt_value(t), "count": c})
            for u in T[i:]:
                c = nums.image_overlap(r, t, u)
                if c:
                    out["image_overlap"].append({"degree": r, "t": fmt_value(t), "u": fmt_value(u), "count": c})
                c = nums.up_kernel(r, t, u)
                if c:
                    out["up_kernel"].append({"degree": r, "t": fmt_value(t), "u": fmt_value(u), "count": c})
            for d in T[: i + 1]:
                c = nums.down_kernel(r, t, d)
                if c:
                    out["down_kernel"].append({"degree": r, "t": fmt_value(t), "d": fmt_value(d), "count": c})
            for u in T[i:]:
                for d in T[: i + 1]:
                    c = nums.kernel_overlap(r, t, u, d)
                    if c:
                        out["kernel_overlap"].append({
                            "degree": r, "t": fmt_value(t), "u": fmt_value(u), "d": fmt_value(d), "count": c})
    return out


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


def run_checks(f: VertexValuedMap, *, max_degree: int | None = None, seed: int = 0) -> list[CheckResult]:
    """Run the named executable invariants on one map.

    Randomized probes (extra regular values, refinement slices) are
    drawn from the given seed.
    """
    rng = np.random.default_rng(seed)
    results: list[CheckResult] = []

    def check(name: str, fn) -> None:
        try:
            detail = fn() or ""
            results.append(CheckResult(name, True, detail))
        except Exception as exc:
            results.append(CheckResult(name, False, str(exc)))

    grid = critical_values(f)
    top = f.complex.dim if max_degree is None else max_degree
    top = max(top, 0)
    builder = SlabBuilder(f)
    pts = [x for x in grid.points if grid.in_range(x)]
    complexes = [builder.level(x) for x in pts]
    spans = [(a, b) for i, a in enumerate(pts) for b in pts[i + 1:]]
    sampled = [spans[i] for i in sorted(rng.choice(len(spans), size=min(6, len(spans)), replace=False))] if spans else []
    complexes += [builder.interlevel(a, b) for a, b in sampled]

    def boundary_square_zero():
        for c in complexes:
            validate(c)
        return f"{len(complexes)} complexes"

    def euler_characteristic():
        for c in complexes:
            betti = betti_numbers(c)
            alt = sum((-1) ** r * b for r, b in enumerate(betti))
            if alt != c.euler_characteristic():
                raise AssertionError(f"Euler characteristic mismatch on {c}")
        return f"{len(complexes)} complexes"

    def gap_invariance():
        T = grid.criticals
        for k in range(len(T) - 1):
            lo, hi = T[k], T[k + 1]
            probe = lo + (hi - lo) * float(rng.uniform(0.1, 0.9))
            a = betti_numbers(builder.level(grid.regular_above(k)), top)
            b = betti_numbers(builder.level(probe), top)
            if a != b:
                raise AssertionError(f"level Betti numbers differ inside gap ({lo}, {hi}): {a} vs {b}")
        return f"{max(len(T) - 1, 0)} gaps"

    def refinement_independence():
        for a, b in sampled:
            extra = a + (b - a) * float(rng.uniform(0.3, 0.7))
            while extra in f.values.values():
                extra = a + (b - a) * float(rng.uniform(0.3, 0.7))
            plain = builder.interlevel(a, b)
            refined = builder.interlevel(a, b, extra_slices=(extra,))
            if betti_numbers(plain, top) != betti_numbers(refined, top):
                raise AssertionError(f"refining [{a}, {b}] at {extra} changed Betti numbers")
            for t in (a, b):
                for r in range(top + 1):
                    m_plain = _induced_rank(f, t, a, b, plain, builder, r)
                    m_ref = _induced_rank(f, t, a, b, refined, builder, r)
                    if m_plain != m_ref:
                        raise AssertionError(f"refining [{a}, {b}] changed an induced rank at level {t}")
        return f"{len(sampled)} spans"

    nums = compute_relevant_numbers(f, top, grid=grid)
    bc = barcode_from_overlaps(nums)

    def conversion_agreement():
        other = barcode_from_kernels(nums)
        if bc != other:
            raise AssertionError(f"conversion routes disagree at {first_difference(bc, other)}")
        cone = level_barcode(f, grid, top)
        if bc != cone:
            raise AssertionError(f"band route and cone reduction disagree at {first_difference(bc, cone)}")

    def numbers_round_trip():
        back = numbers_from_barcode(bc, grid, nums.max_degree)
        if back != nums:
            raise AssertionError("numbers -> bars -> numbers is not the identity")

    sb = sublevel_barcode(f, grid)

    def bridge_identity():
        derived = sublevel_from_level(bc, nums.max_degree)
        if derived != sb:
            raise AssertionError("level-derived and reduction sub-level bars differ at "
                                 f"{first_difference(derived, sb)}")

    def betti_multiplicity_round_trip():
        back = bars_from_betti(BettiTable.from_barcode(sb))
        if back != sb:
            raise AssertionError("bars -> Betti -> bars is not the identity")

    def nonnegative_counts():
        # conversion routes validate all intermediate counts; recheck outputs
        bad = [b for b, m in bc.counts.items() if m < 0]
        bad += [key for key, m in sb.bars.items() if m < 0]
        if bad:
            raise AssertionError(f"negative counts: {bad}")

    def redundant_critical_invariance():
        if len(grid.criticals) < 2:
            return "single critical value: nothing to add"
        k = int(rng.integers(0, len(grid.criticals) - 1))
        extra = grid.regular_above(k)
        wide = critical_values(f, extra_criticals=(extra,))
        nums2 = compute_relevant_numbers(f, top, grid=wide)
        bc2 = barcode_from_overlaps(nums2)
        if bc2.counts != bc.counts:
            raise AssertionError(f"adding redundant critical {extra} changed the barcode")
        return f"probe at {extra}"

    check("boundary_square_zero", boundary_square_zero)
    check("euler_characteristic", euler_characteristic)
    check("gap_invariance", gap_invariance)
    check("refinement_independence", refinement_independence)
    check("conversion_agreement", conversion_agreement)
    check("numbers_round_trip", numbers_round_trip)
    check("bridge_identity", bridge_identity)
    check("betti_multiplicity_round_trip", betti_multiplicity_round_trip)
    check("nonnegative_counts", nonnegative_counts)
    check("redundant_critical_invariance", redundant_critical_invariance)
    return results


def _induced_rank(f, t, a, b, band, builder, r):
    src = builder.level(t)
    inc = include_level(f, t, a, b, src=src, dst=band)
    return rank(induced_map(homology_of(src, r), homology_of(band, r), inc.chain_matrix(r)))


def analyze(parsed, *, max_degree: int | None = None, include_checks: bool = False,
            seed: int = 0) -> ResultDocument:
    """Full pipeline: level bars from the extended-persistence reduction
    of the cone, relevant-number tables counted from them, both
    conversion routes back to bars (which must reproduce them), sub-level
    bars, and optionally the named invariant checks, which recompute
    everything through the independent band route.

    Stage boundaries are logged at DEBUG level on the "levelpers" logger.
    """
    f = input_to_map(parsed)
    if not f.complex.simplices:
        return ResultDocument([], 0, [], [], {
            "level_rank": [], "image_overlap": [], "up_kernel": [], "down_kernel": [], "kernel_overlap": []},
            checks=[] if include_checks else None)
    start = time.perf_counter()

    def stage(message: str, *args) -> None:
        _log.debug(message + " (%.3f s)", *args, time.perf_counter() - start)

    grid = critical_values(f)
    top = f.complex.dim if max_degree is None else max_degree
    top = max(top, 0)
    stage("grid: %d simplices, %d critical values", len(f.complex.simplices), len(grid.criticals))
    bc = level_barcode(f, grid, top)
    stage("level route: %d bars", sum(bc.counts.values()))
    nums = numbers_from_barcode(bc, grid, top)
    stage("numbers: degrees 0..%d over %d critical values", top, len(grid.criticals))
    for route in (barcode_from_overlaps, barcode_from_kernels):
        other = route(nums)
        if other != bc:
            raise RuntimeError(f"{route.__name__} does not reproduce the level barcode: "
                               f"{first_difference(bc, other)}")
    stage("conversions: both routes reproduce %d bars", sum(bc.counts.values()))
    sb = sublevel_barcode(f, grid)
    stage("sub-level: %d bars", sum(sb.bars.values()))
    checks = None
    if include_checks:
        checks = [asdict(c) for c in run_checks(f, max_degree=top, seed=seed)]
        stage("checks: %d run", len(checks))
    return ResultDocument(
        criticals=[fmt_value(t) for t in grid.criticals],
        max_degree=top,
        sublevel_bars=_sublevel_rows(sb),
        level_bars=_level_rows(bc),
        numbers=_number_rows(nums, grid),
        checks=checks,
    )


def result_to_csv(doc: ResultDocument) -> str:
    """Flat CSV of the bar multisets: one row per bar."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["degree", "left_flag", "birth", "death", "right_flag", "multiplicity", "kind"])
    for row in doc.level_bars:
        writer.writerow([row["degree"], row["left"], row["birth"], row["death"],
                         row["right"], row["multiplicity"], "level"])
    for row in doc.sublevel_bars:
        death = "inf" if row["death"] is None else row["death"]
        writer.writerow([row["degree"], "closed", row["birth"], death, "open",
                         row["multiplicity"], "sublevel"])
    return buf.getvalue()


def numbers_to_csv(doc: ResultDocument) -> str:
    """Flat CSV of the relevant-number tables."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["degree", "table", "t", "u", "d", "count"])
    for table, rows in doc.numbers.items():
        for row in rows:
            writer.writerow([row["degree"], table, row.get("t", ""), row.get("u", ""),
                             row.get("d", ""), row["count"]])
    return buf.getvalue()


# --- SVG rendering ---------------------------------------------------------

_TRACK_H = 16
_MARGIN_L = 70
_MARGIN_R = 40
_MARGIN_T = 24
_PLOT_W = 520


def _tracks(doc: ResultDocument):
    tracks = []
    for row in doc.level_bars:
        for _ in range(row["multiplicity"]):
            tracks.append(("level", row["degree"], row["left"] == "closed",
                           float(row["birth"]), float(row["death"]), row["right"] == "closed", False))
    for row in doc.sublevel_bars:
        infinite = row["death"] is None
        death = float(row["birth"]) if infinite else float(row["death"])
        for _ in range(row["multiplicity"]):
            tracks.append(("sublevel", row["degree"], True, float(row["birth"]), death, False, infinite))
    tracks.sort(key=lambda t: (t[0], t[1], t[3], t[4], not t[2], t[5]))
    return tracks


def svg_text(doc: ResultDocument) -> str:
    """Deterministic SVG: one track per bar, gridlines at criticals."""
    criticals = [float(s) for s in doc.criticals]
    tracks = _tracks(doc)
    lo = min(criticals, default=0.0)
    hi = max(criticals, default=1.0)
    if hi == lo:
        hi = lo + 1.0
    span = hi - lo

    def px(x: float) -> float:
        return _MARGIN_L + (x - lo) / span * _PLOT_W

    height = _MARGIN_T + max(len(tracks), 1) * _TRACK_H + 40
    width = _MARGIN_L + _PLOT_W + _MARGIN_R
    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>',
    ]
    axis_bottom = _MARGIN_T + max(len(tracks), 1) * _TRACK_H + 8
    for label, value in zip(doc.criticals, criticals):
        x = px(value)
        out.append(f'<line x1="{x:.2f}" y1="{_MARGIN_T - 8}" x2="{x:.2f}" y2="{axis_bottom}" '
                   'stroke="#bbbbbb" stroke-dasharray="3,3"/>')
        out.append(f'<text x="{x:.2f}" y="{axis_bottom + 14}" font-size="11" '
                   f'text-anchor="middle" font-family="monospace">{label}</text>')

    for i, (kind, degree, left_closed, birth, death, right_closed, infinite) in enumerate(tracks):
        y = _MARGIN_T + i * _TRACK_H + _TRACK_H // 2
        x0 = px(birth)
        x1 = _MARGIN_L + _PLOT_W + 18 if infinite else px(death)
        out.append(f'<text x="6" y="{y + 4}" font-size="10" font-family="monospace">{kind} r={degree}</text>')
        out.append(f'<line x1="{x0:.2f}" y1="{y}" x2="{x1:.2f}" y2="{y}" stroke="black" stroke-width="2"/>')
        if left_closed:
            out.append(f'<circle cx="{x0:.2f}" cy="{y}" r="3.5" fill="black"/>')
        else:
            out.append(f'<circle cx="{x0:.2f}" cy="{y}" r="3.5" fill="white" stroke="black"/>')
        if infinite:
            out.append(f'<path d="M {x1:.2f} {y - 4} L {x1 + 8:.2f} {y} L {x1:.2f} {y + 4} Z" fill="black"/>')
        elif right_closed:
            out.append(f'<circle cx="{x1:.2f}" cy="{y}" r="3.5" fill="black"/>')
        else:
            out.append(f'<circle cx="{x1:.2f}" cy="{y}" r="3.5" fill="white" stroke="black"/>')

    out.append("</svg>")
    return "\n".join(out) + "\n"


def render_svg(doc: ResultDocument, path) -> None:
    """Write the barcode drawing; identical input gives identical bytes."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(svg_text(doc))
