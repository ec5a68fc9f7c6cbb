"""Command line interface.

Subcommands: analyze, sublevel, level, numbers, check, svg.  Exit codes:
0 on success, 1 on any input or usage error and when memory runs out
(one line on stderr), 2 when a requested check fails.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import sys

from . import report
from .report import (
    InputError,
    analyze,
    json_text,
    numbers_to_csv,
    parse_input,
    render_svg,
    result_to_csv,
    svg_text,
)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _seed(text: str) -> int:
    """A --seed value: a non-negative integer, as numpy's generators take."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="levelpers",
                     description="Level and sub-level persistence of PL maps on simplicial complexes.")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    for name, help_text in [
        ("analyze", "full report: bars, numbers, optional SVG"),
        ("sublevel", "sub-level bars only"),
        ("level", "level bars only"),
        ("numbers", "relevant-number tables only"),
        ("check", "run the invariant checks"),
        ("svg", "render the barcode drawing"),
    ]:
        p = sub.add_parser(name, help=help_text)
        # each subcommand takes only the options it reads; main reads these defaults for the rest
        p.set_defaults(format="json", max_degree=None, seed=0, svg=None)
        p.add_argument("--input", required=True, help="input JSON document")
        p.add_argument("--output", default=None, help="output path (default stdout)")
        if name not in ("check", "svg"):
            p.add_argument("--format", choices=["json", "csv"])
        if name != "sublevel":  # the sub-level bars come from the uncut barcode
            p.add_argument("--max-degree", type=int)
        if name == "check":
            p.add_argument("--seed", type=_seed, help="seed for randomized checks")
        if name == "analyze":
            p.add_argument("--svg", help="also render an SVG to this path")
    return parser


_shared_parser = functools.cache(build_parser)  # built on the first main() call


def _emit(text: str, output: str | None) -> None:
    if output is None:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")
    else:
        with open(output, "w", encoding="utf-8") as handle:
            handle.write(text)


def main(argv=None) -> int:
    args = _shared_parser().parse_args(argv)
    try:
        return _run(args)
    except MemoryError:  # reading, computing or writing, e.g. under an address-space cap
        pass
    # printed once the handler has let go of the exception, and with it every frame of _run
    print(f"error: out of memory during {args.command}", file=sys.stderr)
    return 1


def _run(args) -> int:
    try:
        with open(args.input, "r", encoding="utf-8") as handle:
            parsed = parse_input(handle.read())
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: cannot read input: {exc}", file=sys.stderr)
        return 1
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    try:
        if args.command == "check":  # looked up on the module, so a wrapper set there is the one called
            results = report.run_checks(report.input_to_map(parsed), max_degree=args.max_degree,
                                        seed=args.seed)
        elif args.command == "sublevel":  # one lower-star reduction: no cone, numbers or conversions
            doc = report.analyze_sublevel(parsed)
        elif args.command in ("level", "svg"):  # the bars alone: no numbers or conversions
            doc = report.analyze_level(parsed, max_degree=args.max_degree)
        else:
            doc = analyze(parsed, max_degree=args.max_degree)
    except ValueError as exc:  # InputError included; a RuntimeError stays a traceback
        print(f"error: {exc}", file=sys.stderr)
        return 1

    try:
        if args.command == "check":
            lines = [f"{'PASS' if c.passed else 'FAIL'} {c.name}" + (f" ({c.detail})" if c.detail else "")
                     for c in results]
            failed = sum(not c.passed for c in results)
            lines.append(f"{len(results) - failed}/{len(results)} checks passed")
            _emit("\n".join(lines), args.output)
            return 2 if failed else 0
        if args.svg:  # analyze only
            render_svg(doc, args.svg)
        if args.command == "level":  # the level section alone, in either format
            doc = dataclasses.replace(doc, sublevel_bars=[])
        if args.command == "svg":
            _emit(svg_text(doc), args.output)
        elif args.format == "csv":
            _emit(numbers_to_csv(doc) if args.command == "numbers" else result_to_csv(doc), args.output)
        elif args.command == "analyze":
            _emit(doc.to_json(), args.output)
        else:  # sublevel, level or numbers: the criticals and one section
            section = {"sublevel": "sublevel_bars", "level": "level_bars", "numbers": "numbers"}[args.command]
            _emit(json_text({"criticals": doc.criticals, section: getattr(doc, section)}), args.output)
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
