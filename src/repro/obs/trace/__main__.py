"""``python -m repro.obs.trace`` — offline trace tooling.

Subcommands::

    merge FILES...          join per-process traces into one timeline (JSON)
    critical-path FILES...  stage attribution + transmission-vs-train split
    export FILES... --format chrome
                            Perfetto-loadable Chrome-trace JSON
    validate TRACE.json     check an exported Chrome trace's invariants

``FILES`` are per-process trace files — JSONL written by
``Telemetry.export_trace`` or ``write_events`` (one file per pair of a
process session's ``WireRunReport.traces``) or binary flight-recorder
dumps (``flightrec/*.bin``).  Directories are expanded to
every ``*.jsonl`` / ``*.bin`` inside, so ``python -m repro.obs.trace merge
flightrec/`` post-mortems a whole crash at once.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import sys
from typing import Any, Dict, List, Optional, Tuple

from .chrome import to_chrome_trace, validate_chrome_trace
from .critical import analyze, format_report
from .events import load_trace_file
from .merge import MergedTrace, merge


def _expand_paths(paths: List[str]) -> List[str]:
    expanded: List[str] = []
    for path in paths:
        if os.path.isdir(path):
            expanded.extend(
                sorted(glob.glob(os.path.join(path, "*.jsonl")))
                + sorted(glob.glob(os.path.join(path, "*.bin")))
            )
        else:
            expanded.append(path)
    return expanded


def _load_merged(paths: List[str], align: bool) -> MergedTrace:
    files = _expand_paths(paths)
    if not files:
        raise SystemExit("no trace files found")
    traces: List[Tuple[str, Any]] = []
    for path in files:
        process, events = load_trace_file(path)
        traces.append((process, events))
    return merge(traces, align=align)


def _emit(payload: Dict[str, Any], output: Optional[str]) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True, default=str)
    if output:
        with open(output, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
        print(f"wrote {output}")
    else:
        print(text)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.trace",
        description="merge, analyze, and export distributed traces",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    merge_parser = sub.add_parser("merge", help="join per-process traces")
    merge_parser.add_argument("files", nargs="+")
    merge_parser.add_argument("-o", "--output")
    merge_parser.add_argument(
        "--no-align", action="store_true",
        help="skip clock alignment (trust raw timestamps)",
    )

    critical_parser = sub.add_parser(
        "critical-path", help="stage attribution + transmission-vs-train"
    )
    critical_parser.add_argument("files", nargs="+")
    critical_parser.add_argument("-o", "--output")
    critical_parser.add_argument(
        "--json", action="store_true", help="emit the full JSON report"
    )
    critical_parser.add_argument("--no-align", action="store_true")

    export_parser = sub.add_parser("export", help="timeline export")
    export_parser.add_argument("files", nargs="+")
    export_parser.add_argument(
        "--format", choices=("chrome",), default="chrome"
    )
    export_parser.add_argument("-o", "--output")
    export_parser.add_argument("--no-align", action="store_true")

    validate_parser = sub.add_parser(
        "validate", help="check an exported Chrome trace"
    )
    validate_parser.add_argument("trace")

    args = parser.parse_args(argv)

    if args.command == "merge":
        merged = _load_merged(args.files, align=not args.no_align)
        _emit(merged.to_dict(), args.output)
        return 0

    if args.command == "critical-path":
        merged = _load_merged(args.files, align=not args.no_align)
        report = analyze(merged)
        if args.json or args.output:
            _emit(report, args.output)
        if not args.json or args.output:
            print(format_report(report))
        return 0

    if args.command == "export":
        merged = _load_merged(args.files, align=not args.no_align)
        _emit(to_chrome_trace(merged), args.output)
        return 0

    if args.command == "validate":
        with open(args.trace, "r", encoding="utf-8") as handle:
            trace = json.load(handle)
        problems = validate_chrome_trace(trace)
        if problems:
            for problem in problems:
                print(f"INVALID: {problem}", file=sys.stderr)
            return 1
        events = trace.get("traceEvents", [])
        print(f"valid chrome trace ({len(events)} events)")
        return 0

    return 2  # pragma: no cover - argparse enforces the choices


if __name__ == "__main__":
    sys.exit(main())
