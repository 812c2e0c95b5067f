"""The analysis engine: parse a tree of Python files and run every rule."""

from __future__ import annotations

import ast
import fnmatch
from pathlib import Path
from typing import Iterable, List, Optional, Set, Tuple

from .findings import Finding, Severity, sort_findings
from .protocol import Protocol, extract_from_sources
from .rules import SYNTAX_ERROR, run_file_rules, run_protocol_rule
from .topology import build_topology, orphan_findings

_SKIP_DIR_NAMES = {"__pycache__", ".git", ".mypy_cache", ".ruff_cache"}


def _display_path(path: Path, root: Path) -> str:
    """Stable, forward-slash path for findings and baseline fingerprints.

    Paths under the current working directory are shown relative to it (so
    ``python -m repro.analysis src`` from the repo root yields ``src/...``
    fingerprints everywhere); anything else is shown relative to the
    analyzed root (temp dirs in tests).
    """
    resolved = path.resolve()
    for base in (Path.cwd(), root.resolve() if root.is_dir() else root.resolve().parent):
        try:
            return resolved.relative_to(base).as_posix()
        except ValueError:
            continue
    return resolved.as_posix()


def iter_python_files(root: Path) -> List[Path]:
    if root.is_file():
        return [root]
    files = []
    for path in sorted(root.rglob("*.py")):
        if any(part in _SKIP_DIR_NAMES or part.startswith(".") for part in path.parts):
            continue
        files.append(path)
    return files


def parse_tree_reporting_errors(
    root: str,
) -> Tuple[List[Tuple[str, ast.AST]], List[Finding]]:
    """Parse every ``.py`` under ``root`` into ``(display_path, ast)`` pairs,
    plus a ``syntax-error`` finding per unparsable file — a file no rule can
    inspect must fail the gate, not silently pass."""
    root_path = Path(root)
    sources: List[Tuple[str, ast.AST]] = []
    errors: List[Finding] = []
    for path in iter_python_files(root_path):
        display = _display_path(path, root_path)
        try:
            tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        except SyntaxError as exc:
            errors.append(
                Finding(
                    path=display,
                    line=exc.lineno or 1,
                    severity=Severity.ERROR,
                    rule=SYNTAX_ERROR,
                    message=exc.msg or "invalid syntax",
                    scope="<module>",
                )
            )
            continue
        sources.append((display, tree))
    return sources, errors


def load_sources(
    roots: Iterable[str], excludes: Iterable[str] = ()
) -> Tuple[List[Tuple[str, ast.AST]], List[Finding]]:
    """Parse several trees as one program, dropping every file whose display
    path contains an exclude pattern or ``fnmatch``-es it —
    ``tests/analysis/fixtures`` excludes the seeded-violation fixture files
    when the analyzer is pointed at ``tests/``."""
    patterns = list(excludes)

    def kept(path: str) -> bool:
        return not any(p in path or fnmatch.fnmatch(path, p) for p in patterns)

    sources: List[Tuple[str, ast.AST]] = []
    errors: List[Finding] = []
    for root in roots:
        root_sources, root_errors = parse_tree_reporting_errors(root)
        sources.extend(item for item in root_sources if kept(item[0]))
        errors.extend(finding for finding in root_errors if kept(finding.path))
    return sources, errors


def _run_protocol_rules(
    protocol: Protocol, ignored_msgtypes: Optional[Set[str]]
) -> List[Finding]:
    """The whole-program ``unrouted-msgtype`` rule, scoped per tree.

    Sends in framework code (paths under ``src/``) must find their handler
    in framework code: a handler that only exists in a test must not mask an
    unrouted production type.  Sends elsewhere (tests, benchmarks) may be
    handled anywhere in the analyzed set.
    """
    return run_protocol_rule(protocol.under("src/"), ignored_msgtypes) + [
        finding
        for finding in run_protocol_rule(protocol, ignored_msgtypes)
        if not finding.path.startswith("src/")
    ]


def analyze_sources(
    sources: List[Tuple[str, ast.AST]],
    *,
    ignored_msgtypes: Optional[Set[str]] = None,
) -> List[Finding]:
    findings: List[Finding] = []
    for path, tree in sources:
        findings.extend(run_file_rules(path, tree))
    protocol = extract_from_sources(sources)
    findings.extend(_run_protocol_rules(protocol, ignored_msgtypes))
    findings.extend(orphan_findings(build_topology(protocol)))
    return sort_findings(findings)


def analyze_paths(
    roots: Iterable[str],
    *,
    ignored_msgtypes: Optional[Set[str]] = None,
    excludes: Iterable[str] = (),
) -> List[Finding]:
    """Analyze several trees as one program; returns sorted findings."""
    sources, errors = load_sources(roots, excludes)
    return sort_findings(
        analyze_sources(sources, ignored_msgtypes=ignored_msgtypes) + errors
    )


def analyze_path(
    root: str, *, ignored_msgtypes: Optional[Set[str]] = None
) -> List[Finding]:
    """Analyze one file or directory tree; returns sorted findings."""
    return analyze_paths([root], ignored_msgtypes=ignored_msgtypes)


def analyze_source(source: str, path: str = "<memory>.py") -> List[Finding]:
    """Analyze an in-memory module (used by the rule unit tests)."""
    return analyze_sources([(path, ast.parse(source))])
