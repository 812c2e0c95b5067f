"""Distributed tracing end to end: process session -> merge -> Perfetto.

Runs a short session with one OS process per machine and tracing on,
writes each process's hop-log events as its own trace file, merges the
files on trace id, prints the critical-path report (the automated Table 1
split), exports a Chrome-trace JSON, and validates it against the format
invariants.  CI's observability-smoke job runs this script; the exported
file loads directly in https://ui.perfetto.dev or chrome://tracing.

Run:  python examples/distributed_tracing.py [output-dir]
"""

from __future__ import annotations

import json
import sys
import tempfile

from repro import StopCondition, XingTianConfig
from repro.cluster import run_process_session
from repro.core.config import MachineSpec
from repro.core.tracing import write_events
from repro.obs.trace.__main__ import main as trace_cli
from repro.obs.trace.chrome import validate_chrome_trace


def main() -> int:
    out_dir = sys.argv[1] if len(sys.argv) > 1 else tempfile.mkdtemp(
        prefix="repro-trace-"
    )
    trace_dir = f"{out_dir}/rings"
    config = XingTianConfig(
        algorithm="impala",
        environment="CartPole",
        model="actor_critic",
        model_config={"hidden_sizes": [16]},
        algorithm_config={"lr": 1e-3},
        machines=[
            MachineSpec("m0", explorers=0, has_learner=True),
            MachineSpec("m1", explorers=1),
            MachineSpec("m2", explorers=1),
        ],
        transport="wire",
        fragment_steps=128,
        # Stops on work done; max_seconds only fails a hung run.
        stop=StopCondition(total_trained_steps=40_000, max_seconds=120.0),
        seed=0,
    )
    print("Running a 3-process session (learner + 2 explorer machines), traced...")
    report = run_process_session(config, trace=True)
    print(f"  trained steps : {report.result.total_trained_steps}")
    print(f"  children left : {report.exit_codes}")
    for process, events in report.traces:
        path = write_events(f"{trace_dir}/{process}.jsonl", events, process=process)
        print(f"  {len(events):>6} events -> {path}")

    print("\nCritical-path report:")
    if trace_cli(["critical-path", trace_dir]) != 0:
        return 1

    chrome_path = f"{out_dir}/timeline.chrome.json"
    if trace_cli(["export", trace_dir, "--format", "chrome",
                  "-o", chrome_path]) != 0:
        return 1
    if trace_cli(["validate", chrome_path]) != 0:
        return 1
    # Belt and braces: revalidate through the library entry point too.
    with open(chrome_path, "r", encoding="utf-8") as handle:
        problems = validate_chrome_trace(json.load(handle))
    if problems:
        for problem in problems:
            print(f"invalid chrome trace: {problem}", file=sys.stderr)
        return 1
    print(f"\nTimeline exported and validated: {chrome_path}")
    print("Open it at https://ui.perfetto.dev (or chrome://tracing).")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
