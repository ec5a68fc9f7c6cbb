"""Output checks of the levelpers benchmark.

Every job's output is checked; a job whose output fails any check counts
as failed.  For any seed the checks are structural identities computed
by the benchmark on its own:

* the alternating count of infinite sub-level bars equals the Euler
  characteristic of the input, counted from the input's faces;
* level bars mapped to sub-level bars by the bridge rule below equal the
  document's sub-level bars (analyze jobs);
* the SVG has one track per bar (analyze jobs);
* ``check`` exits 0 and every check reads PASS.

For the default seed every output file must also match the digest that
``run.py --record-digests`` took from the parent commit of the
benchmark, because outputs must stay byte-identical.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from pathlib import Path

DEFAULT_SEED = 0
REFERENCE = Path(__file__).with_name("reference_digests.json")


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def load_reference() -> dict:
    if not REFERENCE.is_file():
        return {}
    return json.loads(REFERENCE.read_text(encoding="utf-8"))


def euler_of_infinite_bars(sublevel_rows: list[dict]) -> int:
    return sum((-1) ** row["degree"] * row["multiplicity"]
               for row in sublevel_rows if row["death"] is None)


def _sublevel_multiset(rows) -> Counter:
    out: Counter = Counter()
    for row in rows:
        out[(row["degree"], row["birth"], row["death"])] += row["multiplicity"]
    return out


def bridge(level_rows: list[dict]) -> Counter:
    """Sub-level bars implied by level bars.

    [b, d) in degree r stays the finite bar [b, d); [b, d] in degree r
    is an infinite bar born at b in degree r; (b, d) in degree r is an
    infinite bar born at d in degree r + 1; (b, d] leaves nothing.
    """
    out: Counter = Counter()
    for row in level_rows:
        r, b, d, m = row["degree"], row["birth"], row["death"], row["multiplicity"]
        left, right = row["left"] == "closed", row["right"] == "closed"
        if left and not right:
            out[(r, b, d)] += m
        elif left and right:
            out[(r, b, None)] += m
        elif not left and not right:
            out[(r + 1, d, None)] += m
    return out


def check_sublevel_rows(rows: list[dict], euler: int) -> list[str]:
    got = euler_of_infinite_bars(rows)
    if got != euler:
        return [f"infinite sub-level bars count {got}, Euler characteristic is {euler}"]
    return []


def check_analyze(doc_text: str, svg: str, euler: int) -> list[str]:
    """Problems with one analyze document and its SVG; empty when correct."""
    try:
        doc = json.loads(doc_text)
        level_rows, sublevel_rows = doc["level_bars"], doc["sublevel_bars"]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable document: {exc!r}"]
    problems = check_sublevel_rows(sublevel_rows, euler)
    if bridge(level_rows) != _sublevel_multiset(sublevel_rows):
        problems.append("level bars do not bridge to the document's sub-level bars")
    bars = sum(row["multiplicity"] for row in level_rows + sublevel_rows)
    tracks = svg.count('stroke="black" stroke-width="2"')
    if tracks != bars or not svg.rstrip().endswith("</svg>"):
        problems.append(f"SVG has {tracks} tracks for {bars} bars")
    return problems


def check_sublevel(doc_text: str, euler: int) -> list[str]:
    try:
        rows = json.loads(doc_text)["sublevel_bars"]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable document: {exc!r}"]
    return check_sublevel_rows(rows, euler)


def check_check(exit_code, text: str) -> list[str]:
    lines = text.strip().splitlines()
    if exit_code != 0:
        return [f"check exited {exit_code}"]
    results = lines[:-1]
    if not results or not all(line.startswith("PASS ") for line in results):
        return ["not every check passed"]
    n = len(results)
    if lines[-1] != f"{n}/{n} checks passed":
        return [f"unexpected summary {lines[-1]!r}"]
    return []


def check_digests(files: dict[str, bytes], expected: dict[str, str] | None) -> list[str]:
    """Compare output files (by suffix) with the reference digests."""
    if expected is None:
        return ["no reference digest for this job"]
    return [f"{suffix} output differs from the reference"
            for suffix, data in files.items() if expected.get(suffix) != digest(data)]
