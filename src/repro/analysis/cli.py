"""``python -m repro.analysis`` — the analyzer's command-line front end.

Emits one ``file:line severity rule message`` line per finding (or JSON /
GitHub workflow annotations via ``--format``).  With a baseline file,
findings already recorded there are suppressed and the exit code reflects
only *new* findings — that is what the CI ``analysis`` job runs.
``--write-baseline`` regenerates the baseline after intentional changes.

Exit codes:

* ``0`` — clean (no new findings, no stale baseline entries)
* ``1`` — new findings
* ``2`` — usage error
* ``3`` — no new findings, but stale baseline entries remain (the baseline
  should be regenerated so reviewers see it shrink)
* ``4`` — ``--check-topology`` drift: the committed topology artifact does
  not match what the analyzer extracts from the sources
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

from .configcheck import validate_configs
from .engine import analyze_paths, load_sources
from .findings import Baseline, Finding, sort_findings
from .rules import RULES
from .topology import extract_topology, topology_to_dict, topology_to_dot, topology_to_json

DEFAULT_BASELINE = "analysis-baseline.txt"

EXIT_CLEAN = 0
EXIT_NEW_FINDINGS = 1
EXIT_USAGE = 2
EXIT_STALE_BASELINE = 3
EXIT_TOPOLOGY_DRIFT = 4


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description=(
            "Concurrency & message-protocol analyzer for the "
            "comms stack."
        ),
    )
    parser.add_argument("paths", nargs="+", help="files or directories to analyze")
    parser.add_argument(
        "--baseline",
        default=None,
        help=f"baseline file (default: {DEFAULT_BASELINE} when it exists)",
    )
    parser.add_argument(
        "--no-baseline",
        action="store_true",
        help="ignore any baseline; report and gate on every finding",
    )
    parser.add_argument(
        "--write-baseline",
        action="store_true",
        help="accept all current findings into the baseline file and exit 0",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json", "gha"),
        default="text",
        help="output format: human text, JSON, or GitHub workflow annotations",
    )
    parser.add_argument(
        "--exclude",
        action="append",
        default=[],
        metavar="PATTERN",
        help="skip files whose path contains PATTERN (or fnmatch-es it); "
        "repeatable — e.g. --exclude tests/analysis/fixtures",
    )
    parser.add_argument(
        "--emit-topology",
        metavar="FILE",
        default=None,
        help="write the extracted communication topology to FILE (JSON) and "
        "a sibling .dot, then exit",
    )
    parser.add_argument(
        "--check-topology",
        metavar="FILE",
        default=None,
        help="fail (exit 4) when FILE differs from the topology extracted "
        "from the analyzed sources",
    )
    parser.add_argument(
        "--validate-configs",
        action="store_true",
        help="validate configuration-constructing files (examples/) against "
        "the registry and config schema instead of running lint rules",
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="print the rule catalog and exit"
    )
    return parser


def _resolve_baseline_path(args: argparse.Namespace) -> Optional[Path]:
    if args.no_baseline:
        return None
    if args.baseline is not None:
        return Path(args.baseline)
    default = Path(DEFAULT_BASELINE)
    if default.exists() or args.write_baseline:
        return default
    return None


def _print_findings(findings: List[Finding], fmt: str) -> None:
    if fmt == "json":
        return  # JSON output is emitted once, in main()
    for finding in findings:
        if fmt == "gha":
            level = "error" if str(finding.severity) == "error" else "warning"
            print(
                f"::{level} file={finding.path},line={finding.line},"
                f"title={finding.rule}::{finding.message}"
            )
        else:
            print(finding.format())


def _json_payload(findings: List[Finding], summary: dict) -> str:
    return json.dumps(
        {
            "findings": [
                {
                    "path": f.path,
                    "line": f.line,
                    "severity": str(f.severity),
                    "rule": f.rule,
                    "message": f.message,
                    "scope": f.scope,
                    "fingerprint": f.fingerprint(),
                }
                for f in findings
            ],
            "summary": summary,
        },
        indent=2,
    )


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)

    if args.list_rules:
        for info in RULES.values():
            print(f"{info.name:<28} {info.severity:<8} {info.summary}")
        return EXIT_CLEAN

    for path in args.paths:
        if not Path(path).exists():
            print(f"error: no such path: {path}", file=sys.stderr)
            return EXIT_USAGE

    if args.validate_configs:
        findings: List[Finding] = []
        for path in args.paths:
            findings.extend(validate_configs(path))
        findings = sort_findings(findings)
        _print_findings(findings, args.format)
        if args.format == "json":
            print(_json_payload(findings, {"new": len(findings)}))
        print(f"{len(findings)} config finding(s)", file=sys.stderr)
        return EXIT_NEW_FINDINGS if findings else EXIT_CLEAN

    if args.emit_topology or args.check_topology:
        topology = extract_topology(load_sources(args.paths, args.exclude)[0])
        if args.emit_topology:
            out = Path(args.emit_topology)
            out.write_text(topology_to_json(topology), encoding="utf-8")
            out.with_suffix(".dot").write_text(
                topology_to_dot(topology), encoding="utf-8"
            )
            print(f"wrote {out} and {out.with_suffix('.dot')}", file=sys.stderr)
            return EXIT_CLEAN
        committed_path = Path(args.check_topology)
        if not committed_path.exists():
            print(f"error: no such file: {committed_path}", file=sys.stderr)
            return EXIT_USAGE
        committed = json.loads(committed_path.read_text(encoding="utf-8"))
        current = topology_to_dict(topology)
        if committed != current:
            print(
                f"topology drift: {committed_path} does not match the "
                "analyzed sources; regenerate with "
                f"--emit-topology {committed_path}",
                file=sys.stderr,
            )
            return EXIT_TOPOLOGY_DRIFT
        print(f"{committed_path} matches the analyzed sources", file=sys.stderr)
        return EXIT_CLEAN

    findings = analyze_paths(args.paths, excludes=args.exclude)

    baseline_path = _resolve_baseline_path(args)

    if args.write_baseline:
        if baseline_path is None:
            print(
                "error: --write-baseline conflicts with --no-baseline",
                file=sys.stderr,
            )
            return EXIT_USAGE
        Baseline.from_findings(findings).save(baseline_path)
        print(f"wrote {len(findings)} finding(s) to {baseline_path}")
        return EXIT_CLEAN

    if baseline_path is not None and baseline_path.exists():
        baseline = Baseline.load(baseline_path)
    else:
        baseline = Baseline()

    diff = baseline.diff(findings)
    _print_findings(diff.new, args.format)
    if args.format == "json":
        print(
            _json_payload(
                diff.new,
                {
                    "new": len(diff.new),
                    "baselined": len(diff.baselined),
                    "stale": len(diff.stale),
                },
            )
        )
    for fingerprint in diff.stale:
        print(f"stale-baseline-entry: {fingerprint}", file=sys.stderr)

    print(
        f"{len(findings)} finding(s): {len(diff.new)} new, "
        f"{len(diff.baselined)} baselined, {len(diff.stale)} stale baseline entr(ies)",
        file=sys.stderr,
    )
    if diff.new:
        return EXIT_NEW_FINDINGS
    if diff.stale:
        return EXIT_STALE_BASELINE
    return EXIT_CLEAN


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
