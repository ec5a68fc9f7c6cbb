"""Input documents, result documents, invariant checks, and SVG rendering.

Input is a single JSON object: either a vertex-valued map
``{"vertices": [{"id": 0, "value": 0.5}, ...], "maximal_simplices": [[0, 1], ...]}``
or a filtration ``{"filtration": {"times": [...], "stages": [[...], ...]}}``
whose stages are lists of maximal simplices.  Every route reads a
filtration directly, as its own sub-level bars; only run_checks turns it
into a map by the telescope construction, since the band route needs a
PL map.  Values are serialized back as
shortest round-tripping decimal strings, so document -> JSON -> document
is the identity.
"""

from __future__ import annotations

import csv
import io
import json
import logging
import math
import time
from dataclasses import dataclass
from itertools import chain

from .complexes import (CriticalGrid, Filtration, SimplicialComplex, VertexValuedMap, build_complex,
                        critical_values, telescope)
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
from .sublevel import INF, BettiTable, SublevelBarcode, bars_from_betti, sublevel_barcode

__all__ = [
    "InputError",
    "ResultDocument",
    "json_text",
    "parse_input",
    "input_to_map",
    "analyze",
    "analyze_level",
    "analyze_sublevel",
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
    if not (isinstance(raw, (int, float)) and not isinstance(raw, bool)):
        raise InputError(f"{where}: expected a number, got {raw!r}")
    try:
        value = float(raw)
    except OverflowError:
        value = INF
    if not math.isfinite(value):  # an integer past the float range, or a literal such as 1e400
        raise InputError(f"{where}: number too large for a float")
    return value


def _name_fault(raw, known_ids, where: str) -> None:
    """Raise an InputError for the first faulty simplex of raw, in
    document order, walking it vertex by vertex."""
    for k, simplex in enumerate(raw):
        if not (isinstance(simplex, list) and simplex):
            raise InputError(f"{where}[{k}]: expected a non-empty list of vertex ids")
        seen = set()
        for v in simplex:
            if not (isinstance(v, int) and not isinstance(v, bool)):
                raise InputError(f"{where}[{k}]: vertex ids must be integers")
            if known_ids is not None and v not in known_ids:
                raise InputError(f"{where}[{k}]: unknown vertex id {v}")
            if v in seen:
                raise InputError(f"{where}[{k}]: duplicate vertex id {v}")
            seen.add(v)


def _parse_complex(raw, known_ids, where: str) -> SimplicialComplex:
    """The closure of the simplices of raw; with known_ids, the ids of a
    map's vertices, each of them is a vertex even if no simplex holds it.

    Each simplex must be a non-empty list of distinct integer ids, all
    in known_ids unless that is None.  The checks run over the whole
    list at once, and the closure itself finds a repeated id
    (build_complex, which sorts each simplex once); only a list that
    fails one is walked vertex by vertex, to name the first fault in
    document order.
    """
    _require(isinstance(raw, list), f"{where}: expected a list of simplices")
    if not (all(simplex.__class__ is list and simplex for simplex in raw)
            and set(map(type, chain.from_iterable(raw))) <= {int}
            and (known_ids is None or known_ids.issuperset(chain.from_iterable(raw)))):
        _name_fault(raw, known_ids, where)
    isolated = () if known_ids is None else zip(known_ids.difference(chain.from_iterable(raw)))  # as (v,)
    try:
        return build_complex(chain(raw, isolated))
    except ValueError:  # a simplex repeats a vertex
        _name_fault(raw, known_ids, where)
        raise


def parse_input(text: str):
    """Parse an input document into a VertexValuedMap or a Filtration."""
    try:
        data = json.loads(text, parse_constant=_reject_constant)
    except InputError:
        raise
    except (ValueError, RecursionError) as exc:  # malformed, nested too deep, or an integer past the digit limit
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
        stages = [_parse_complex(stage, None, f"filtration.stages[{i}]") for i, stage in enumerate(stages_raw)]
        try:
            return Filtration(stages, times)
        except ValueError as exc:
            raise InputError(str(exc)) from None

    _require("vertices" in data, "expected 'vertices' or 'filtration'")
    _require("maximal_simplices" in data, "missing 'maximal_simplices'")
    values = _parse_vertices(data["vertices"])
    return VertexValuedMap(_parse_complex(data["maximal_simplices"], set(values), "maximal_simplices"), values)


def _parse_vertices(raw) -> dict[int, float]:
    """The vertex values of raw, by id.

    Each entry must be an object with an integer 'id', given once, and a
    finite 'value'.  As for simplices, the checks run over the whole
    list at once, and only a list that fails one is walked entry by
    entry, to name the first fault.
    """
    _require(isinstance(raw, list), "vertices: expected a list")
    if all(entry.__class__ is dict and "id" in entry and "value" in entry for entry in raw):
        ids = [entry["id"] for entry in raw]
        numbers = [entry["value"] for entry in raw]
        if set(map(type, ids)) <= {int} and set(map(type, numbers)) <= {int, float}:
            try:
                values = dict(zip(ids, map(float, numbers)))
            except OverflowError:  # an integer past the float range
                values = {}
            if len(values) == len(raw) and all(map(math.isfinite, values.values())):
                return values
    values = {}
    for k, entry in enumerate(raw):
        if not (isinstance(entry, dict) and "id" in entry and "value" in entry):
            raise InputError(f"vertices[{k}]: expected an object with 'id' and 'value'")
        vid = entry["id"]
        if not (isinstance(vid, int) and not isinstance(vid, bool)):
            raise InputError(f"vertices[{k}].id: expected an integer")
        if vid in values:
            raise InputError(f"vertices[{k}]: duplicate id {vid}")
        values[vid] = _parse_value(entry["value"], f"vertices[{k}].value")
    return values


def input_to_map(parsed) -> VertexValuedMap | Filtration:
    """The input the routes take: a map or a filtration, unchanged.

    No route needs a filtration's telescope, which is 8-76 times its
    size: the sub-level and level bars read the filtration directly
    (sublevel_barcode, level_barcode), and only run_checks telescopes.
    """
    return parsed


def _dim(f: VertexValuedMap | Filtration) -> int:
    """The dimension of f's complex; for a filtration, that of its
    telescope, whose prisms over the d-simplices of every stage but the
    last are (d + 1)-dimensional."""
    if isinstance(f, Filtration) and len(f.stages) > 1:
        return max(f.complex.dim, f.stages[-2].dim + 1)
    return f.complex.dim


_encode_str = json.encoder.encode_basestring_ascii
# JSON text of a scalar, by exact type; anything else goes through _write_json
_SCALAR_TEXT = {str: _encode_str, int: int.__repr__, bool: {True: "true", False: "false"}.__getitem__,
                type(None): lambda _: "null"}


def _write_json(obj, pad: str, out: list) -> None:
    scalar = _SCALAR_TEXT.get(obj.__class__)
    if scalar is not None:
        out.append(scalar(obj))
        return
    inner = pad + "  "
    if obj.__class__ is dict and obj and all(key.__class__ is str for key in obj):
        sep = "{\n" + inner
        for key, value in obj.items():
            out += (sep, _encode_str(key), ": ")
            _write_json(value, inner, out)
            sep = ",\n" + inner
        out.append("\n" + pad + "}")
    elif obj.__class__ is list and obj:
        templates: dict[tuple, str] = {}
        sep = "[\n" + inner
        for item in obj:
            out.append(sep)
            sep = ",\n" + inner
            if item.__class__ is dict and item:
                try:  # a flat row: its scalars fill one template per key sequence
                    values = tuple([_SCALAR_TEXT[value.__class__](value) for value in item.values()])
                    keys = tuple(item)
                    template = templates.get(keys)
                    if template is None:
                        template = templates[keys] = "{" + ",".join(
                            f"\n{inner}  " + _encode_str(key).replace("%", "%%") + ": %s" for key in keys
                        ) + f"\n{inner}}}"
                    out.append(template % values)
                    continue
                except (KeyError, TypeError):  # a nested value or a key that is not a str
                    pass
            _write_json(item, inner, out)
        out.append("\n" + pad + "]")
    else:  # empty containers, floats, non-str keys: the standard encoder, indented to this depth
        out.append(json.dumps(obj, indent=2).replace("\n", "\n" + pad))


def json_text(obj) -> str:
    """The text of json.dumps(obj, indent=2), written faster for documents
    made of dicts, lists and flat rows (dicts of strings, ints, booleans
    and None): each row is filled into one template per key sequence."""
    out: list[str] = []
    _write_json(obj, "", out)
    return "".join(out)


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
        return json_text(vars(self))  # asdict would deep-copy every row first

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
    order = sorted(bc.counts.items(), key=lambda e: (e[0].degree, e[0].left, e[0].right,
                                                     not e[0].left_closed, not e[0].right_closed))
    return [{
        "degree": bar.degree,
        "left": "closed" if bar.left_closed else "open",
        "birth": fmt_value(bar.left),
        "death": fmt_value(bar.right),
        "right": "closed" if bar.right_closed else "open",
        "multiplicity": mult,
    } for bar, mult in order]


_NUMBER_ARGS = {"level_rank": ("t",), "image_overlap": ("t", "u"), "up_kernel": ("t", "u"),
                "down_kernel": ("t", "d"), "kernel_overlap": ("t", "u", "d")}


def _number_rows(nums, grid) -> dict[str, list[dict]]:
    """Nonzero entries of each family whose arguments are all critical values."""
    label = [fmt_value(t) for t in grid.criticals]
    rows = {}
    for name, args in _NUMBER_ARGS.items():
        entries = nums.critical_entries(name)
        if len(args) == 1:
            rows[name] = [{"degree": r, "t": label[i], "count": c} for r, i, c in entries]
        elif len(args) == 2:
            a = args[1]
            rows[name] = [{"degree": r, "t": label[i], a: label[j], "count": c} for r, i, j, c in entries]
        else:
            rows[name] = [{"degree": r, "t": label[i], "u": label[u], "d": label[d], "count": c}
                          for r, i, u, d, c in entries]
    return rows


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


def run_checks(f: VertexValuedMap | Filtration, *, max_degree: int | None = None,
               seed: int = 0) -> list[CheckResult]:
    """Run the named executable invariants on one map, independently of
    analyze.  A filtration is checked on its telescope, since the band
    route needs a PL map, and bridge_identity also compares the bars
    that sublevel_barcode and level_barcode read off the filtration
    directly with those of the telescope.  Degrees stop at
    min(max_degree, dim), as in analyze, and an empty complex has nothing
    to check.  Randomized probes (extra regular
    values, refinement slices) are drawn from the given seed.  A gap
    probe that rounds onto an end of its gap or onto the gap's slice
    value moves to a float next to the slice value; a gap that holds no
    other float, or a span too narrow for its cut, is skipped, and the
    check's detail counts the probes made ("P of N gaps probed; K hold
    no other float", "R of N spans refined; K too narrow to cut").  A
    check that raises fails with the message as its detail, except for
    MemoryError, which propagates: running out is not a failed check.
    """
    filt = f if isinstance(f, Filtration) else None
    if filt is not None:
        f = telescope(filt)
    if not f.complex.simplices:
        return []
    import numpy as np  # here, not at module level, so importing levelpers does not load numpy

    rng = np.random.default_rng(seed)
    results: list[CheckResult] = []

    def check(name: str, fn) -> None:
        try:
            detail = fn() or ""
            results.append(CheckResult(name, True, detail))
        except MemoryError:
            raise
        except Exception as exc:
            results.append(CheckResult(name, False, str(exc)))

    grid = critical_values(f)
    top = min(max(f.complex.dim if max_degree is None else max_degree, 0), f.complex.dim)
    builder = SlabBuilder(f)
    pts = [grid.value(i) for i in range(2 * len(grid.criticals) - 1)]
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
        probed = 0
        for k in range(len(T) - 1):
            lo, hi = T[k], T[k + 1]
            probe = _between(lo, hi, float(rng.uniform(0.1, 0.9)))
            mid = grid.regular_above(k)
            if not lo < probe < hi or probe == mid:  # the draw rounded onto an end or onto the slice value
                probe = next((x for x in (math.nextafter(mid, lo), math.nextafter(mid, hi)) if lo < x < hi), None)
                if probe is None:  # a gap a few floats wide may hold no other float
                    continue
            probed += 1
            a = betti_numbers(builder.level(mid), top)
            b = betti_numbers(builder.level(probe), top)
            if a != b:
                raise AssertionError(f"level Betti numbers differ inside gap ({lo}, {hi}): {a} vs {b}")
        gaps = len(T) - 1
        return f"{gaps} gaps" if probed == gaps else f"{probed} of {gaps} gaps probed; {gaps - probed} hold no other float"

    def refinement_independence():
        cut = 0
        for a, b in sampled:
            extra = _between(a, b, float(rng.uniform(0.3, 0.7)))
            while extra in f.values.values():
                extra = _between(a, b, float(rng.uniform(0.3, 0.7)))
            if not a < extra < b:  # the draw rounded onto an end of a span a few floats wide
                continue
            cut += 1
            plain = builder.interlevel(a, b)
            refined = builder.interlevel(a, extra, b)
            if betti_numbers(plain, top) != betti_numbers(refined, top):
                raise AssertionError(f"refining [{a}, {b}] at {extra} changed Betti numbers")
            for t in (a, b):
                src = builder.level(t)
                for r in range(top + 1):
                    if _induced_rank(src, plain, r) != _induced_rank(src, refined, r):
                        raise AssertionError(f"refining [{a}, {b}] changed an induced rank at level {t}")
        n = len(sampled)
        return f"{n} spans" if cut == n else f"{cut} of {n} spans refined; {n - cut} too narrow to cut"

    nums = compute_relevant_numbers(f, top, builder=builder)
    bc = barcode_from_overlaps(nums)

    def conversion_agreement():
        other = barcode_from_kernels(nums)
        if bc != other:
            raise AssertionError(f"conversion routes disagree at {first_difference(bc, other)}")
        cone = _up_to(level_barcode(f), top)
        if bc != cone:
            raise AssertionError(f"band route and cone reduction disagree at {first_difference(bc, cone)}")

    def numbers_round_trip():
        back = numbers_from_barcode(bc)
        if back != nums:
            raise AssertionError(f"numbers -> bars -> numbers is not the identity at {first_difference(back, nums)}")

    sb = sublevel_barcode(f)

    def bridge_identity():
        # sub-level degree d needs the level bars of degrees d - 1 and d
        m = min(top + 1, f.complex.dim)
        level = bc if top >= m else barcode_from_overlaps(compute_relevant_numbers(f, m, builder=builder))
        derived, reference = (SublevelBarcode(b.grid, {key: mult for key, mult in b.bars.items() if key[0] <= m})
                              for b in (sublevel_from_level(level), sb))
        if derived != reference:
            raise AssertionError("level-derived and reduction sub-level bars differ at "
                                 f"{first_difference(derived, reference)}")
        if filt is not None:  # the filtration read directly, against its telescope
            for what, route, tele in (("sub-level", sublevel_barcode, sb), ("level", level_barcode, level_barcode(f))):
                direct = route(filt)
                if direct != tele:
                    raise AssertionError(f"direct and telescope {what} bars differ at {first_difference(direct, tele)}")
        if m < f.complex.dim:
            return f"sub-level degrees 0..{m}"

    def betti_multiplicity_round_trip():
        back = bars_from_betti(BettiTable.from_barcode(sb))
        if back != sb:
            raise AssertionError(f"bars -> Betti -> bars is not the identity at {first_difference(back, sb)}")

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
        lo, hi = grid.criticals[k], grid.criticals[k + 1]
        if math.nextafter(lo, hi) == extra or math.nextafter(extra, hi) == hi:
            return f"no float lies strictly inside ({lo}, {extra}) or ({extra}, {hi}): nothing to add"
        wide = CriticalGrid((*grid.criticals, extra))
        nums2 = compute_relevant_numbers(f, top, grid=wide, builder=builder)
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


def _half_scale(lo: float, hi: float) -> float:
    """1.0, or 0.5 where hi - lo overflows: the factor that keeps a span
    between two finite floats finite, and leaves every finite one exact."""
    return 1.0 if math.isfinite(hi - lo) else 0.5


def _between(lo: float, hi: float, u: float) -> float:
    """lo + (hi - lo) * u, at half scale where hi - lo overflows."""
    h = _half_scale(lo, hi)
    return (lo * h + (hi * h - lo * h) * u) / h


def _induced_rank(src, band, r):
    inc = include_level(src, band)
    return rank(induced_map(homology_of(src, r), homology_of(band, r), inc.chain_matrix(r)))


def _up_to(bc: LevelBarcode, top: int) -> LevelBarcode:
    """The bars of bc in degrees 0..top."""
    return LevelBarcode(bc.grid, {bar: m for bar, m in bc.counts.items() if bar.degree <= top})


def analyze(parsed, *, max_degree: int | None = None) -> ResultDocument:
    """Full pipeline: level bars from the extended-persistence reduction
    of the cone, relevant-number tables counted from them, both
    conversion routes back to bars (which must reproduce them), and
    sub-level bars read off the same bars.  The cone is reduced once at
    every degree, since sub-level degree d needs level degrees d - 1 and
    d; the level bars and the numbers stop at min(max_degree, dim).  A
    filtration has no cone: its level bars are read off its own sub-level
    bars (level_barcode), and dim is that of its telescope.  The
    document's checks stay None: run_checks runs them on its own.

    Stage boundaries are logged at DEBUG level on the "levelpers" logger.
    """
    f = input_to_map(parsed)
    requested = max(_dim(f) if max_degree is None else max_degree, 0)
    if not f.complex.simplices:
        return ResultDocument([], requested, [], [], {name: [] for name in _NUMBER_ARGS})
    start = time.perf_counter()

    def stage(message: str, *args) -> None:
        _log.debug(message + " (%.3f s)", *args, time.perf_counter() - start)

    full = level_barcode(f)
    grid, top = full.grid, min(requested, _dim(f))  # no bar and no nonzero number lies above the dimension
    bc = _up_to(full, top)
    stage("level route: %d bars over %d critical values", sum(bc.counts.values()), len(grid.criticals))
    nums = numbers_from_barcode(bc)
    stage("numbers: degrees 0..%d over %d critical values", nums.max_degree, len(grid.criticals))
    for route in (barcode_from_overlaps, barcode_from_kernels):
        other = route(nums)
        if other != bc:
            raise RuntimeError(f"{route.__name__} does not reproduce the level barcode: "
                               f"{first_difference(bc, other)}")
    stage("conversions: both routes reproduce %d bars", sum(bc.counts.values()))
    sb = sublevel_from_level(full)
    stage("sub-level: %d bars", sum(sb.bars.values()))
    return ResultDocument(
        criticals=[fmt_value(t) for t in grid.criticals],
        max_degree=requested,
        sublevel_bars=_sublevel_rows(sb),
        level_bars=_level_rows(bc),
        numbers=_number_rows(nums, grid),
    )


def analyze_level(parsed, *, max_degree: int | None = None) -> ResultDocument:
    """The bars alone, as analyze gives them: the level bars of the one
    reduction of the cone in degrees up to min(max_degree, dim), and
    every sub-level bar read off the uncut level bars
    (sublevel_from_level).  No numbers and no conversions are computed,
    so the document's numbers are empty."""
    f = input_to_map(parsed)
    requested = max(_dim(f) if max_degree is None else max_degree, 0)
    if not f.complex.simplices:
        return ResultDocument([], requested, [], [], {})
    full = level_barcode(f)
    bc = _up_to(full, min(requested, _dim(f)))
    return ResultDocument([fmt_value(t) for t in full.grid.criticals], requested,
                          _sublevel_rows(sublevel_from_level(full)), _level_rows(bc), {})


def analyze_sublevel(parsed) -> ResultDocument:
    """The sub-level bars alone, from the one column reduction of the
    lower-star filtration, or of a filtration's own entry order
    (sublevel_barcode); the document has no level bars, no numbers and
    max_degree 0.  analyze reads the same bars off
    the cone."""
    f = input_to_map(parsed)
    if not f.complex.simplices:
        return ResultDocument([], 0, [], [], {})
    sb = sublevel_barcode(f)
    return ResultDocument([fmt_value(t) for t in sb.grid.criticals], 0, _sublevel_rows(sb), [], {})


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
    h = _half_scale(lo, hi)
    span = hi * h - lo * h or 1.0  # one critical value: every x is lo, at the left margin

    def px(x: float) -> float:
        return _MARGIN_L + (x * h - lo * h) / span * _PLOT_W

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
