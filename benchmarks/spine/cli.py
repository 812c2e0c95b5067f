"""The runner: one fresh interpreter per workload, hygiene, and the report.

Two ways in, one code path:

* the driver's form, ``--workload W --seed N --seconds S --trace 0|1``: one
  run, and the last line of standard output is the contract's JSON object;
* the reader's form (any other combination of flags): every requested
  workload, ``--repeats`` times, every metric by name with its unit, the
  environment fingerprint, and with ``--out`` a file ``compare`` can read.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

from .stats import quartiles, spread

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
MANIFEST = ROOT / "BENCHMARK.json"
#: set-up is timed this many times per run (each in its own interpreter,
#: the measured one included) and the median reported
SETUP_REPEATS = 5
#: a worker that outlives its measuring time by this long is killed
HANG_ALLOWANCE_S = 60.0
#: ``--quick``: a smoke run for CI, not for reporting
QUICK_SECONDS = 2.0


def load_manifest() -> Dict[str, Any]:
    with open(MANIFEST) as handle:
        return json.load(handle)


def fingerprint(seed: int) -> Dict[str, Any]:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "loadavg_at_start": os.getloadavg()[0],
        "network": "loopback",
        "seed": seed,
        "commit": _commit(),
    }


def _commit() -> str:
    """HEAD's hash read from ``.git`` (no git process); the driver's
    checkout is not a repository, and says so."""
    head = ROOT / ".git" / "HEAD"
    try:
        text = head.read_text().strip()
        if text.startswith("ref: "):
            return (ROOT / ".git" / text[5:]).read_text().strip()
        return text
    except OSError:
        return "not a git checkout"


# -- workers -------------------------------------------------------------------
def _group_members(pgid: int) -> List[int]:
    """Live (not zombie) processes in process group ``pgid``.

    ``os.killpg(pgid, 0)`` cannot tell: it also succeeds on a process that
    has ended and waits for init to reap it, and init may take seconds.
    """
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                state, _, group = handle.read().rsplit(")", 1)[1].split()[:3]
        except (OSError, ValueError):
            continue  # ended while we looked
        if int(group) == pgid and state != "Z":
            members.append(int(entry))
    return members


def _wait_group_gone(pgid: int, grace_s: float = 5.0) -> None:
    """Every process the worker started (the shared-memory resource tracker
    is one) has ended before the runner moves on; stragglers are killed."""
    deadline = time.monotonic() + grace_s
    while _group_members(pgid):
        if time.monotonic() >= deadline:
            try:
                os.killpg(pgid, signal.SIGKILL)
            except ProcessLookupError:
                return
            deadline = time.monotonic() + grace_s
        time.sleep(0.01)


def spawn_worker(
    workload: str, seed: int, seconds: float, traced: bool, scratch: str,
    *, setup_only: bool = False, spans: Optional[str] = None,
) -> Dict[str, Any]:
    """Run one workload in a fresh interpreter under a hard timeout.

    A hang, a crash or unreadable output comes back as a report whose one
    attempted operation failed — never as a wedged or aborted run.
    """
    env = dict(os.environ)
    env["REPRO_FLIGHTREC_DIR"] = os.path.join(scratch, "flightrec")
    command = [
        sys.executable, str(HERE / "run.py"), "--worker",
        "--workload", workload, "--seed", str(seed), "--seconds", repr(seconds),
        "--trace", "1" if traced else "0",
        "--spawned-at", repr(time.monotonic()),
    ]
    if setup_only:
        command.append("--setup-only")
    if spans:
        command += ["--spans", spans]
    process = subprocess.Popen(
        command, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    problem = None
    try:
        out, err = process.communicate(timeout=seconds + HANG_ALLOWANCE_S)
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        out, err = process.communicate()
        problem = f"worker hung past {seconds + HANG_ALLOWANCE_S:.0f}s and was killed"
    _wait_group_gone(process.pid)
    sys.stderr.write(err)
    if problem is None and process.returncode != 0:
        problem = f"worker exited with code {process.returncode}"
    if problem is None:
        try:
            return json.loads(out.strip().splitlines()[-1])
        except (IndexError, ValueError):
            problem = "worker printed no result"
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "traced": traced,
        "attempted": 1, "failed": 1, "failures": {"worker": 1},
        "end_to_end": {}, "per_layer": {}, "samples": {}, "notes": [problem],
    }


def measure(
    workload: str, seed: int, seconds: float, traced: bool,
    manifest: Dict[str, Any], *, spans: Optional[str] = None,
) -> Dict[str, Any]:
    """One run of one workload: the worker report plus, untraced, the median
    of ``SETUP_REPEATS`` set-ups."""
    scratch_root = ROOT / ".bench_tmp"
    scratch_root.mkdir(exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="run-", dir=scratch_root)
    try:
        setups: List[float] = []
        if not traced:
            for _ in range(SETUP_REPEATS - 1):
                rehearsal = spawn_worker(
                    workload, seed, seconds, False, scratch, setup_only=True
                )
                if "setup_s" in rehearsal and not rehearsal["failed"]:
                    setups.append(rehearsal["setup_s"])
        report = spawn_worker(workload, seed, seconds, traced, scratch, spans=spans)
        if not traced and "setup_s" in report:
            setups.append(report["setup_s"])
            report["end_to_end"]["setup_s"] = statistics.median(setups)
            report["samples"]["setups"] = len(setups)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch_root.rmdir()
        except OSError:
            pass  # another run is using it
    kind = "per_layer" if traced else "end_to_end"
    measured = report[kind]
    metrics: Dict[str, Dict[str, Any]] = {}
    for spec in manifest[kind]:
        value = measured.get(spec["name"])
        if value is None:
            # Not on this workload's path, or its boundary is gone.
            value = 0.0
            if not traced:
                report["notes"].append(f"{spec['name']} was not measured")
                report["failed"] = max(report["failed"], 1)
        metrics[spec["name"]] = {"value": value, "unit": spec["unit"]}
    report["metrics"] = metrics
    report["correct"] = report["failed"] == 0
    return report


def contract_line(report: Dict[str, Any]) -> str:
    return json.dumps({
        "correct": report["correct"],
        "attempted": max(int(report["attempted"]), 1),
        "failed": int(report["failed"]),
        "metrics": report["metrics"],
    })


# -- the reader's report -------------------------------------------------------
def print_report(report: Dict[str, Any]) -> None:
    kind = "per-layer (traced)" if report["traced"] else "end-to-end (untraced)"
    share = report["failed"] / max(report["attempted"], 1)
    print(f"\n== {report['workload']}  seed {report['seed']}  {kind}")
    print(
        f"   attempted {report['attempted']}  failed {report['failed']}  "
        f"failed_share {share:.6f}  {report['failures'] or ''}"
    )
    for name, entry in report["metrics"].items():
        print(f"   {name:<34} {entry['value']:>16.4f} {entry['unit']}")
    for key, value in report["samples"].items():
        if isinstance(value, dict):  # a latency tail: printed, never gated
            value = "  ".join(
                f"{name}={number:.1f}" if name != "n" else f"n={number}"
                for name, number in value.items()
            )
        print(f"   samples {key}: {value}")
    for note in report["notes"]:
        print(f"   note: {note}")


def print_summary(reports: List[Dict[str, Any]]) -> None:
    """Median and quartiles per (workload, metric) over repeated runs."""
    print("\n== summary over repeats: median [q1, q3] spread")
    groups: Dict[Any, List[float]] = {}
    for report in reports:
        for name, entry in report["metrics"].items():
            key = (report["workload"], report["traced"], name)
            groups.setdefault(key, []).append(entry["value"])
    for (workload, _, name), values in groups.items():
        if len(values) < 2:
            continue
        q1, q2, q3 = quartiles(values)
        print(
            f"   {workload:<16} {name:<34} {q2:>14.4f} "
            f"[{q1:.4f}, {q3:.4f}] {spread(values):7.2%}  n={len(values)}"
        )


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["compare"]:
        from .compare import main as compare_main

        return compare_main(argv[1:])
    manifest = load_manifest()
    names = [workload["name"] for workload in manifest["workloads"]]
    parser = argparse.ArgumentParser(
        prog="benchmarks.spine", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--workload", action="append", choices=names,
                        help="repeatable; default: every workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=float(manifest["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="the driver's flag: print the contract's JSON line last")
    parser.add_argument("--traced", action="store_true",
                        help="after each untraced run, also the traced run")
    parser.add_argument("--repeats", type=int, default=1,
                        help="runs per workload, seeds seed, seed+1, ...")
    parser.add_argument("--quick", action="store_true",
                        help=f"{QUICK_SECONDS:g} s runs: a smoke test, not for reporting")
    parser.add_argument("--out", help="write every run to this JSON file (for compare)")
    parser.add_argument("--spans", help="traced runs write their spans to this .npz")
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--spawned-at", type=float, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    from repro.core.concurrency import runtime_checks_enabled

    if runtime_checks_enabled():
        parser.error("REPRO_RUNTIME_CHECKS is set: checked locks and the arena "
                     "sanitizer would be what gets measured")
    if args.worker:
        from . import worker

        report = worker.run(
            args.workload[0], args.seed, args.seconds, bool(args.trace),
            args.spawned_at, args.setup_only, args.spans,
        )
        print(json.dumps(report))
        return 0

    seconds = QUICK_SECONDS if args.quick else args.seconds
    modes = [bool(args.trace)] if args.trace is not None else (
        [False, True] if args.traced else [False]
    )
    environment = fingerprint(args.seed)
    print(f"fingerprint: {json.dumps(environment)}")
    reports: List[Dict[str, Any]] = []
    for workload in args.workload or names:
        for repeat in range(args.repeats):
            for traced in modes:
                report = measure(
                    workload, args.seed + repeat, seconds, traced, manifest,
                    spans=args.spans if traced else None,
                )
                print_report(report)
                reports.append(report)
    if args.repeats > 1:
        print_summary(reports)
    if args.out:
        with open(args.out, "w") as handle:
            json.dump({"fingerprint": environment, "seconds": seconds,
                       "runs": reports}, handle, indent=1)
    if args.trace is not None:
        print(contract_line(reports[-1]))
    return 0
