"""``compare A.json B.json``: hold B to A within the benchmark's own bounds.

A and B are files written by ``--out``.  Every (end-to-end metric, workload)
pair gets its own row and one of four verdicts:

* **regressed** — B's median is worse than A's by more than the metric's
  bound (``BENCHMARK.json``), and the spread does not explain it;
* **unresolved** — either side's inter-quartile spread is wider than the
  bound, so the runs cannot tell; never reported as unchanged, unless every
  run of B reads better than every run of A;
* **improved** — over at least ten paired runs B wins nine tenths of them and
  the medians differ by more than A's own inter-quartile distance (three
  runs a side all win by chance one time in eight);
* **unchanged** — anything else.

Exit status is non-zero on any regression or on a higher ``failed_share``.
Per-layer metrics of traced runs are listed with their medians and never
gated.
"""

from __future__ import annotations

import json
import sys
from typing import Any, Dict, List, Sequence, Tuple

from .cli import load_manifest
from .stats import quartiles, spread

Runs = Dict[Tuple[str, bool, str], List[float]]
#: fewer paired runs than this cannot show an improvement
MIN_PAIRS_FOR_GAIN = 10


def _load(path: str) -> Tuple[Runs, Dict[str, Tuple[int, int]]]:
    with open(path) as handle:
        document = json.load(handle)
    values: Runs = {}
    failures: Dict[str, Tuple[int, int]] = {}
    for run in document["runs"]:
        for name, entry in run["metrics"].items():
            values.setdefault((run["workload"], run["traced"], name), []).append(
                entry["value"]
            )
        failed, attempted = failures.get(run["workload"], (0, 0))
        failures[run["workload"]] = (
            failed + run["failed"], attempted + max(run["attempted"], 1)
        )
    return values, failures


def verdict(
    before: Sequence[float], after: Sequence[float], better: str, bound: float
) -> str:
    """One row's verdict; see the module docstring."""
    sign = 1.0 if better == "lower" else -1.0
    q1, median_before, q3 = quartiles(before)
    median_after = quartiles(after)[1]
    if not median_before:
        return "unresolved"
    worse = sign * (median_after - median_before) / median_before
    wide = max(spread(before), spread(after)) > bound
    every_run_better = all(sign * (b - a) < 0 for a in before for b in after)
    every_run_worse = all(sign * (b - a) > 0 for a in before for b in after)
    if worse > bound and (not wide or every_run_worse):
        return "regressed"
    if wide and not every_run_better:
        return "unresolved"
    pairs = [(a, b) for a, b in zip(before, after) if a != b]
    wins = sum(1 for a, b in pairs if sign * (b - a) < 0)
    if (
        len(pairs) >= MIN_PAIRS_FOR_GAIN
        and wins >= 0.9 * len(pairs)
        and abs(median_after - median_before) > q3 - q1
    ):
        return "improved"
    return "unchanged"


def _cell(values: Sequence[float]) -> str:
    q1, q2, q3 = quartiles(values)
    return f"{q2:.4f} [{q1:.4f}, {q3:.4f}] n={len(values)}"


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print("usage: python -m benchmarks.spine compare A.json B.json", file=sys.stderr)
        return 2
    manifest: Dict[str, Any] = load_manifest()
    (before, failed_before), (after, failed_after) = _load(argv[0]), _load(argv[1])
    bad = 0
    print("end-to-end: workload metric verdict | A median [q1, q3] | B median [q1, q3]")
    for workload in (entry["name"] for entry in manifest["workloads"]):
        for spec in manifest["end_to_end"]:
            key = (workload, False, spec["name"])
            if key not in before or key not in after:
                continue
            row = verdict(before[key], after[key], spec["better"], spec["bound"])
            bad += row == "regressed"
            print(
                f"  {workload:<16} {spec['name']:<14} {row:<10} | "
                f"{_cell(before[key])} | {_cell(after[key])}  "
                f"(bound {spec['bound']:.0%}, {spec['better']} is better)"
            )
        if workload in failed_before and workload in failed_after:
            share_before = failed_before[workload][0] / failed_before[workload][1]
            share_after = failed_after[workload][0] / failed_after[workload][1]
            rose = share_after > share_before
            bad += rose
            print(
                f"  {workload:<16} {'failed_share':<14} "
                f"{'ROSE' if rose else 'not higher':<10} | {share_before:.6f} | "
                f"{share_after:.6f}"
            )
    layered = sorted(key for key in before if key[1] and key in after)
    if layered:
        print("per-layer (traced, not gated): workload metric | A median | B median")
    for key in layered:
        print(
            f"  {key[0]:<16} {key[2]:<34} | {quartiles(before[key])[1]:.4f} | "
            f"{quartiles(after[key])[1]:.4f}"
        )
    print("REGRESSION" if bad else "no regression")
    return 1 if bad else 0
