"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with ``pytest -s tests/test_acceptance.py`` to see the PASS/FAIL
lines as they happen.  The shared corpus (the six named fixtures, a few
degenerate specials, and 100 random complexes with <= 12 vertices and
maximal simplices of dimension <= 3) is analyzed once and reused.
"""

import json
import time

import numpy as np

from levelpers import (
    BettiTable,
    SlabBuilder,
    VertexValuedMap,
    bars_from_betti,
    barcode_from_kernels,
    barcode_from_overlaps,
    betti_numbers,
    build_complex,
    compute_relevant_numbers,
    critical_values,
    homology_of,
    include_level,
    induced_map,
    numbers_from_barcode,
    rank,
    sublevel_barcode,
    sublevel_from_level,
    validate,
)
from levelpers.cli import main
from levelpers.sublevel import INF
from conftest import FIXTURE_MAKERS, NUMBER_FAMILIES, grid_values, random_vertex_map

RANDOM_COUNT = 100
_CACHE: dict = {}


def _specials():
    sphere = build_complex([[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]])
    return {
        "constant_sphere": VertexValuedMap(sphere, {v: 1.5 for v in sphere.vertices}),
        "point": VertexValuedMap(build_complex([[7]]), {7: 5.0}),
        "edge_plus_far_point": VertexValuedMap(
            build_complex([[0, 1], [2]]), {0: 0.0, 1: 1.0, 2: 5.0}),
        "solid_tetra": VertexValuedMap(
            build_complex([[0, 1, 2, 3]]), {0: 0.0, 1: 1.0, 2: 2.0, 3: 3.0}),
    }


def corpus():
    if "maps" not in _CACHE:
        maps = [(name, maker()) for name, maker in FIXTURE_MAKERS.items()]
        maps += list(_specials().items())
        rng = np.random.default_rng(2024)
        maps += [(f"random_{k}", random_vertex_map(rng)) for k in range(RANDOM_COUNT)]
        _CACHE["maps"] = maps
    return _CACHE["maps"]


def pipelines():
    """Level pipeline + reduction pipeline for every corpus map, timed."""
    if "pipelines" not in _CACHE:
        start = time.perf_counter()
        results = {}
        for name, f in corpus():
            nums = compute_relevant_numbers(f)
            bc = barcode_from_overlaps(nums)
            bc_k = barcode_from_kernels(nums)
            sb = sublevel_barcode(f)
            bridged = sublevel_from_level(bc)
            results[name] = (f, nums, bc, bc_k, sb, bridged)
        _CACHE["pipelines"] = results
        _CACHE["elapsed"] = time.perf_counter() - start
    return _CACHE["pipelines"]


def report(criterion: str, ok: bool, detail: str = ""):
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}{suffix}")
    assert ok, f"{criterion} failed{suffix}"


def bars_of(bc):
    return {(b.degree, b.left, b.right, b.left_closed, b.right_closed): m
            for b, m in bc.counts.items()}


EXPECTED_LEVEL = {
    "edge": {(0, 0.0, 1.0, True, True): 1},
    "circle": {(0, 0.0, 2.0, True, True): 1, (0, 0.0, 2.0, False, False): 1},
    "lambda": {(0, 0.0, 2.0, True, True): 1, (0, 1.0, 2.0, True, False): 1},
    "vee": {(0, 0.0, 2.0, True, True): 1, (0, 0.0, 1.0, False, True): 1},
    "octahedron": {(0, -1.0, 1.0, True, True): 1, (1, -1.0, 1.0, False, False): 1},
    "telescope_u": {(0, 0.0, 1.0, True, True): 1, (0, 0.0, 1.0, True, False): 1},
}

EXPECTED_SUBLEVEL = {
    "edge": {(0, 0.0, INF): 1},
    "circle": {(0, 0.0, INF): 1, (1, 2.0, INF): 1},
    "lambda": {(0, 0.0, INF): 1, (0, 1.0, 2.0): 1},
    "vee": {(0, 0.0, INF): 1},
    "octahedron": {(0, -1.0, INF): 1, (2, 1.0, INF): 1},
    "telescope_u": {(0, 0.0, INF): 1, (0, 0.0, 1.0): 1},
}


def test_criterion_1_fixture_tables():
    ok = True
    detail = []
    for name, maker in FIXTURE_MAKERS.items():
        f = maker()
        start = time.perf_counter()
        nums = compute_relevant_numbers(f)
        bc = barcode_from_overlaps(nums)
        sb = sublevel_barcode(f)
        elapsed = time.perf_counter() - start
        if bars_of(bc) != EXPECTED_LEVEL[name]:
            ok = False
            detail.append(f"{name}: level bars {bars_of(bc)}")
        if sb.bars != EXPECTED_SUBLEVEL[name]:
            ok = False
            detail.append(f"{name}: sublevel bars {sb.bars}")
        if elapsed >= 1.0:
            ok = False
            detail.append(f"{name}: took {elapsed:.2f}s")
    report("criterion 1 (fixture tables, exact)", ok, "; ".join(detail))


def test_criterion_2_bridge_identity():
    results = pipelines()
    elapsed = _CACHE["elapsed"]
    bad = [name for name, (_, _, _, _, sb, bridged) in results.items() if bridged != sb]
    ok = not bad and elapsed <= 60.0
    report("criterion 2 (bridge identity on fixtures + "
           f"{RANDOM_COUNT} random complexes)", ok,
           f"{len(results)} maps in {elapsed:.1f}s" + (f"; mismatches: {bad}" if bad else ""))


def test_criterion_3_conversion_consistency():
    results = pipelines()
    bad = []
    for name, (f, nums, bc, bc_k, _, _) in results.items():
        if bc != bc_k:
            bad.append(f"{name}: routes disagree")
        if numbers_from_barcode(bc) != nums:
            bad.append(f"{name}: numbers round trip")
    report("criterion 3 (conversion consistency)", not bad, "; ".join(bad))


def test_criterion_4_betti_multiplicity_round_trip():
    results = pipelines()
    bad = [name for name, (_, _, _, _, sb, _) in results.items()
           if bars_from_betti(BettiTable.from_barcode(sb)) != sb]
    report("criterion 4 (Betti/multiplicity round trip)", not bad, "; ".join(bad))


def test_criterion_5_structural_invariants():
    rng = np.random.default_rng(99)
    failures = []
    checked = 0
    for name, f in corpus():
        try:
            grid = critical_values(f)
            builder = SlabBuilder(f)
            pts = grid_values(grid)
            complexes = [builder.level(x) for x in pts]
            spans = [(a, b) for i, a in enumerate(pts) for b in pts[i + 1:]]
            if spans:
                picks = rng.choice(len(spans), size=min(3, len(spans)), replace=False)
                complexes += [builder.interlevel(*spans[i]) for i in sorted(picks)]
            for c in complexes:
                validate(c)
                betti = betti_numbers(c)
                assert sum((-1) ** r * b for r, b in enumerate(betti)) == c.euler_characteristic(), \
                    f"Euler mismatch on {c}"
                checked += 1
            T = grid.criticals
            for k in range(len(T) - 1):
                probe = T[k] + (T[k + 1] - T[k]) * float(rng.uniform(0.2, 0.8))
                assert betti_numbers(builder.level(grid.regular_above(k)), f.complex.dim) == \
                    betti_numbers(builder.level(probe), f.complex.dim), f"gap variance near {T[k]}"
            if spans:
                a, b = spans[int(rng.integers(0, len(spans)))]
                extra = a + (b - a) * float(rng.uniform(0.3, 0.7))
                while extra in f.values.values():
                    extra = a + (b - a) * float(rng.uniform(0.3, 0.7))
                plain = builder.interlevel(a, b)
                refined = builder.interlevel(a, extra, b)
                assert betti_numbers(plain, f.complex.dim) == betti_numbers(refined, f.complex.dim), \
                    "refinement changed Betti numbers"
                for t in (a, b):
                    src = builder.level(t)
                    for r in range(f.complex.dim + 1):
                        ranks = []
                        for band in (plain, refined):
                            inc = include_level(src, band)
                            ranks.append(rank(induced_map(
                                homology_of(src, r), homology_of(band, r), inc.chain_matrix(r))))
                        assert ranks[0] == ranks[1], "refinement changed an induced rank"
        except (AssertionError, ValueError) as exc:
            failures.append(f"{name}: {exc}")
    report("criterion 5 (structural invariants)", not failures,
           f"{checked} complexes" + ("; " + "; ".join(failures[:3]) if failures else ""))


def test_criterion_6_nonnegativity():
    results = pipelines()
    bad = []
    for name, (f, nums, bc, bc_k, sb, bridged) in results.items():
        if any(count < 0 for name in NUMBER_FAMILIES for *_, count in nums.entries(name)):
            bad.append(f"{name}: negative relevant number")
        if any(m < 0 for m in bc.counts.values()) or any(m < 0 for m in sb.bars.values()):
            bad.append(f"{name}: negative bar count")
        # barcode_from_kernels validates every auxiliary count internally;
        # reaching this point means none went negative
    report("criterion 6 (nonnegativity incl. auxiliary counts)", not bad, "; ".join(bad))


def test_criterion_7_cli_contract(tmp_path, capsys):
    circle = tmp_path / "circle.json"
    circle.write_text(json.dumps({
        "vertices": [{"id": 0, "value": 0}, {"id": 1, "value": 1},
                     {"id": 2, "value": 2}, {"id": 3, "value": 1}],
        "maximal_simplices": [[0, 1], [0, 3], [1, 2], [2, 3]],
    }))
    bad = tmp_path / "bad.json"
    bad.write_text("{malformed")

    ok = True
    detail = []

    code = main(["analyze", "--input", str(circle)])
    out = capsys.readouterr().out
    try:
        data = json.loads(out)
        schema_ok = {"criticals", "max_degree", "sublevel_bars", "level_bars", "numbers"} <= set(data)
    except json.JSONDecodeError:
        schema_ok = False
    if code != 0 or not schema_ok:
        ok = False
        detail.append(f"analyze: exit {code}")

    code = main(["check", "--input", str(circle)])
    out = capsys.readouterr().out
    if code != 0 or "10/10 checks passed" not in out:
        ok = False
        detail.append(f"check: exit {code}")

    code = main(["analyze", "--input", str(bad)])
    err = capsys.readouterr().err
    if code != 1 or "error" not in err:
        ok = False
        detail.append(f"malformed: exit {code}")

    svg_a = tmp_path / "a.svg"
    svg_b = tmp_path / "b.svg"
    main(["svg", "--input", str(circle), "--output", str(svg_a)])
    main(["svg", "--input", str(circle), "--output", str(svg_b)])
    capsys.readouterr()
    if svg_a.read_bytes() != svg_b.read_bytes():
        ok = False
        detail.append("svg not deterministic")

    report("criterion 7 (CLI contract + SVG determinism)", ok, "; ".join(detail))
