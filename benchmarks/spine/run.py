"""The command ``BENCHMARK.json`` names: ``python3 benchmarks/spine/run.py``.

Runs from a bare checkout with no installation: it puts the checkout's
``src`` (the program under test) and root on ``sys.path`` itself.  Where
there is no program to measure it exits non-zero and prints no result.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def main() -> int:
    if not (ROOT / "src" / "repro").is_dir() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"spine: no src/repro or BENCHMARK.json under {ROOT}", file=sys.stderr)
        return 2
    # Not this directory: its module names are no business of other imports.
    sys.path[0:1] = [str(ROOT / "src"), str(ROOT)]
    from benchmarks.spine.cli import main as cli_main

    return cli_main()


if __name__ == "__main__":
    sys.exit(main())
