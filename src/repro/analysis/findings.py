"""Findings and the baseline machinery.

A :class:`Finding` is one analyzer diagnostic anchored to a file and line.
Baselines make the analyzer adoptable on a codebase with pre-existing
findings: accepted findings are committed to a text file and CI fails only
when a *new* finding appears.

Baseline entries are **fingerprints**, not ``file:line`` pairs — they name
the file, rule, enclosing scope, and message, so unrelated edits that shift
line numbers do not invalidate the baseline.  Duplicate fingerprints are
counted: two identical violations in one scope need two baseline entries.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Dict, Iterable, List


class Severity(str, Enum):
    """Finding severity; ``error`` findings are meant to gate CI."""

    ERROR = "error"
    WARNING = "warning"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True)
class Finding:
    """One diagnostic produced by a lint rule."""

    path: str  #: path as given to the engine (normalized to forward slashes)
    line: int
    severity: Severity
    rule: str  #: kebab-case rule name, e.g. ``lock-held-blocking-call``
    message: str
    scope: str = ""  #: dotted enclosing scope, e.g. ``Broker.stop``

    def __post_init__(self) -> None:
        # Every finding must be addressable as ``path:line`` — GitHub
        # workflow annotations silently drop the file link otherwise.
        # Rules that anchor to synthesized nodes (lineno fallbacks of 0)
        # or whole-tree facts (no single file) get pinned to line 1 /
        # ``<unknown>`` rather than emitting an unclickable annotation.
        if not self.path:
            object.__setattr__(self, "path", "<unknown>")
        else:
            object.__setattr__(self, "path", self.path.replace("\\", "/"))
        if self.line < 1:
            object.__setattr__(self, "line", 1)

    def format(self) -> str:
        """The canonical ``file:line severity rule message`` output line."""
        return f"{self.path}:{self.line} {self.severity} {self.rule} {self.message}"

    def fingerprint(self) -> str:
        """Line-number-independent identity used by the baseline."""
        return f"{self.path}::{self.rule}::{self.scope}::{self.message}"


def sort_findings(findings: Iterable[Finding]) -> List[Finding]:
    return sorted(findings, key=lambda f: (f.path, f.line, f.rule, f.message))


@dataclass
class BaselineDiff:
    """Result of comparing current findings against a baseline."""

    new: List[Finding] = field(default_factory=list)
    baselined: List[Finding] = field(default_factory=list)
    stale: List[str] = field(default_factory=list)  #: fingerprints no longer seen


class Baseline:
    """A committed multiset of accepted finding fingerprints."""

    HEADER = (
        "# repro.analysis baseline — accepted findings, one fingerprint per line.\n"
        "# Regenerate with: python -m repro.analysis src tests benchmarks"
        " --exclude tests/analysis/fixtures --write-baseline\n"
    )

    def __init__(self, fingerprints: Iterable[str] = ()):
        self._counts: Counter = Counter(fingerprints)

    @classmethod
    def load(cls, path: Path) -> "Baseline":
        fingerprints = []
        for raw in path.read_text(encoding="utf-8").splitlines():
            line = raw.strip()
            if line and not line.startswith("#"):
                fingerprints.append(line)
        return cls(fingerprints)

    @classmethod
    def from_findings(cls, findings: Iterable[Finding]) -> "Baseline":
        return cls(finding.fingerprint() for finding in findings)

    def save(self, path: Path) -> None:
        """Write the baseline: sorted fingerprints, grouped by source tree.

        Output is fully deterministic (sorted within sections, sections in
        sorted order) so regenerating the baseline yields a reviewable diff.
        """
        sections: Dict[str, List[str]] = {}
        for fingerprint in sorted(self._counts.elements()):
            tree = fingerprint.split("/", 1)[0] if "/" in fingerprint else fingerprint
            sections.setdefault(tree, []).append(fingerprint)
        lines = [self.HEADER]
        for tree in sorted(sections):
            lines.append(f"\n# -- {tree}/ --\n")
            for fingerprint in sections[tree]:
                lines.append(fingerprint + "\n")
        path.write_text("".join(lines), encoding="utf-8")

    def __len__(self) -> int:
        return sum(self._counts.values())

    def __contains__(self, fingerprint: str) -> bool:
        return self._counts[fingerprint] > 0

    def diff(self, findings: Iterable[Finding]) -> BaselineDiff:
        """Split ``findings`` into new vs baselined; report stale entries."""
        diff = BaselineDiff()
        remaining: Dict[str, int] = dict(self._counts)
        for finding in sort_findings(findings):
            fingerprint = finding.fingerprint()
            if remaining.get(fingerprint, 0) > 0:
                remaining[fingerprint] -= 1
                diff.baselined.append(finding)
            else:
                diff.new.append(finding)
        for fingerprint, count in sorted(remaining.items()):
            diff.stale.extend([fingerprint] * count)
        return diff

