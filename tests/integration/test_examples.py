"""Smoke tests: the bundled examples must stay runnable.

Each example is executed as a subprocess (its own interpreter, like a user
would run it).  Only the quick ones run here; the longer ones are exercised
by the benchmark suite's equivalent paths.
"""

import pathlib
import subprocess
import sys

import pytest

EXAMPLES_DIR = pathlib.Path(__file__).resolve().parents[2] / "examples"


def _run(name: str, timeout: float = 120.0) -> str:
    result = subprocess.run(
        [sys.executable, str(EXAMPLES_DIR / name)],
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    return result.stdout


class TestExamples:
    def test_quickstart(self):
        out = _run("quickstart.py")
        assert "Finished:" in out
        assert "average episode return" in out

    def test_custom_algorithm(self):
        out = _run("custom_algorithm.py")
        assert "REINFORCE" in out
        assert "Finished:" in out

    def test_multiprocess_deployment(self):
        out = _run("multiprocess_deployment.py")
        assert "training sessions" in out
        assert "learner throughput" in out
        # One OS process per explorer machine, each out by itself.
        assert "{'m1': 0, 'm2': 0, 'm3': 0}" in out

    def test_all_examples_have_docstrings_and_main(self):
        for path in EXAMPLES_DIR.glob("*.py"):
            source = path.read_text()
            assert source.lstrip().startswith('"""'), path.name
            assert 'if __name__ == "__main__":' in source, path.name
