"""Command line interface.

Subcommands: analyze, sublevel, level, numbers, check, svg.  Exit codes:
0 on success, 1 on any input or usage error, 2 when a requested check
fails.
"""

from __future__ import annotations

import argparse
import json
import sys

from .report import (
    InputError,
    ResultDocument,
    analyze,
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
        p.add_argument("--input", required=True, help="input JSON document")
        p.add_argument("--output", default=None, help="output path (default stdout)")
        p.add_argument("--format", choices=["json", "csv"], default="json")
        p.add_argument("--max-degree", type=int, default=None)
        p.add_argument("--seed", type=int, default=0, help="seed for randomized checks")
        if name == "analyze":
            p.add_argument("--svg", default=None, help="also render an SVG to this path")
    return parser


def _emit(text: str, output: str | None) -> None:
    if output is None:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")
    else:
        with open(output, "w", encoding="utf-8") as handle:
            handle.write(text)


def _bars_subset(doc: ResultDocument, keep: str) -> ResultDocument:
    return ResultDocument(
        criticals=doc.criticals,
        max_degree=doc.max_degree,
        sublevel_bars=doc.sublevel_bars if keep in ("sublevel", "both") else [],
        level_bars=doc.level_bars if keep in ("level", "both") else [],
        numbers=doc.numbers,
        checks=doc.checks,
    )


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        with open(args.input, "r", encoding="utf-8") as handle:
            parsed = parse_input(handle.read())
    except OSError as exc:
        print(f"error: cannot read input: {exc}", file=sys.stderr)
        return 1
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    try:
        doc = analyze(parsed, max_degree=args.max_degree,
                      include_checks=args.command == "check", seed=args.seed)
    except ValueError as exc:  # InputError included; a RuntimeError stays a traceback
        print(f"error: {exc}", file=sys.stderr)
        return 1

    try:
        if args.command == "analyze":
            if args.svg:
                render_svg(doc, args.svg)
            _emit(doc.to_json() if args.format == "json" else result_to_csv(doc), args.output)
        elif args.command == "sublevel":
            subset = _bars_subset(doc, "sublevel")
            if args.format == "json":
                _emit(json.dumps({"criticals": doc.criticals, "sublevel_bars": doc.sublevel_bars},
                                 indent=2), args.output)
            else:
                _emit(result_to_csv(subset), args.output)
        elif args.command == "level":
            subset = _bars_subset(doc, "level")
            if args.format == "json":
                _emit(json.dumps({"criticals": doc.criticals, "level_bars": doc.level_bars},
                                 indent=2), args.output)
            else:
                _emit(result_to_csv(subset), args.output)
        elif args.command == "numbers":
            if args.format == "json":
                _emit(json.dumps({"criticals": doc.criticals, "numbers": doc.numbers},
                                 indent=2), args.output)
            else:
                _emit(numbers_to_csv(doc), args.output)
        elif args.command == "svg":
            _emit(svg_text(doc), args.output)
        elif args.command == "check":
            lines = []
            failed = 0
            for check in doc.checks or []:
                status = "PASS" if check["passed"] else "FAIL"
                failed += 0 if check["passed"] else 1
                detail = f" ({check['detail']})" if check["detail"] else ""
                lines.append(f"{status} {check['name']}{detail}")
            lines.append(f"{len(doc.checks or []) - failed}/{len(doc.checks or [])} checks passed")
            _emit("\n".join(lines), args.output)
            if failed:
                return 2
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
