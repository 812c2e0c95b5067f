"""CLI + baseline workflow: write, gate, and stale-entry reporting."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

# Populate the registry before any fixture chdirs away from the repo root —
# --validate-configs imports these lazily and relies on the module cache.
import repro.algorithms  # noqa: F401
import repro.envs  # noqa: F401

from repro.analysis.cli import main
from repro.analysis.findings import Baseline, Finding, Severity

DIRTY = (
    "import time\n"
    "class C:\n"
    "    def run(self):\n"
    "        with self._lock:\n"
    "            time.sleep(1)\n"
)

CLEAN = "def run():\n    return 1\n"


@pytest.fixture
def project(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "dirty.py").write_text(DIRTY)
    return tmp_path


class TestGate:
    def test_new_finding_exits_nonzero(self, project, capsys):
        assert main(["dirty.py", "--no-baseline"]) == 1
        out = capsys.readouterr().out
        assert "dirty.py:5 error lock-held-blocking-call" in out

    def test_clean_tree_exits_zero(self, project, capsys):
        (project / "dirty.py").write_text(CLEAN)
        assert main(["dirty.py", "--no-baseline"]) == 0
        assert capsys.readouterr().out == ""

    def test_missing_path_is_an_error(self, project, capsys):
        assert main(["nope.py"]) == 2

    def test_syntax_error_reported_as_finding(self, project):
        (project / "dirty.py").write_text("def broken(:\n")
        assert main(["dirty.py", "--no-baseline"]) == 1


class TestBaselineWorkflow:
    def test_write_then_gate_passes(self, project, capsys):
        assert main(["dirty.py", "--write-baseline"]) == 0
        assert Path("analysis-baseline.txt").exists()
        capsys.readouterr()
        # Same findings, now baselined: the gate passes and prints nothing new.
        assert main(["dirty.py"]) == 0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "1 baselined" in captured.err

    def test_new_finding_on_top_of_baseline_fails(self, project, capsys):
        assert main(["dirty.py", "--write-baseline"]) == 0
        extra = (
            "import time\n"
            "with lock:\n"
            "    time.sleep(2)\n"
        )
        (project / "extra.py").write_text(extra)
        capsys.readouterr()
        assert main(["dirty.py", "extra.py"]) == 1
        captured = capsys.readouterr()
        assert "extra.py:3" in captured.out
        assert "dirty.py" not in captured.out

    def test_fixed_finding_exits_with_stale_code(self, project, capsys):
        assert main(["dirty.py", "--write-baseline"]) == 0
        (project / "dirty.py").write_text(CLEAN)
        capsys.readouterr()
        # Stale-only is its own exit code (3): not a gate failure, but the
        # baseline must be regenerated so reviewers see it shrink.
        assert main(["dirty.py"]) == 3
        captured = capsys.readouterr()
        assert "stale-baseline-entry" in captured.err

    def test_regenerating_clears_stale_exit(self, project, capsys):
        assert main(["dirty.py", "--write-baseline"]) == 0
        (project / "dirty.py").write_text(CLEAN)
        assert main(["dirty.py", "--write-baseline"]) == 0
        capsys.readouterr()
        assert main(["dirty.py"]) == 0

    def test_baseline_output_is_deterministic_and_sectioned(self, project):
        (project / "src").mkdir()
        (project / "tests").mkdir()
        (project / "src" / "a.py").write_text(DIRTY)
        (project / "tests" / "b.py").write_text(DIRTY)
        assert main(["src", "tests", "--write-baseline"]) == 0
        first = Path("analysis-baseline.txt").read_text()
        assert main(["src", "tests", "--write-baseline"]) == 0
        assert Path("analysis-baseline.txt").read_text() == first
        assert "# -- src/ --" in first
        assert "# -- tests/ --" in first
        # Sections group fingerprints by tree: src entries before tests.
        assert first.index("src/a.py::") < first.index("tests/b.py::")

    def test_explicit_baseline_path(self, project, capsys):
        assert main(["dirty.py", "--baseline", "custom.txt", "--write-baseline"]) == 0
        assert Path("custom.txt").exists()
        assert main(["dirty.py", "--baseline", "custom.txt"]) == 0

    def test_fingerprints_survive_line_moves(self, project):
        assert main(["dirty.py", "--write-baseline"]) == 0
        # Push the finding to a different line: same fingerprint, still clean.
        (project / "dirty.py").write_text("# a comment\n# another\n" + DIRTY)
        assert main(["dirty.py"]) == 0

    def test_list_rules(self, project, capsys):
        assert main(["--list-rules", "."]) == 0
        out = capsys.readouterr().out
        for rule in (
            "lock-held-blocking-call",
            "unguarded-shared-mutation",
            "raw-thread-creation",
            "raw-socket-creation",
            "unrouted-msgtype",
            "syntax-error",
            "orphan-destination",
            "unknown-config-key",
            "unregistered-name",
        ):
            assert rule in out
        assert "refcount-leak" not in out


class TestOutputFormats:
    def test_json_format(self, project, capsys):
        assert main(["dirty.py", "--no-baseline", "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"]["new"] == 1
        (finding,) = payload["findings"]
        assert finding["rule"] == "lock-held-blocking-call"
        assert finding["path"] == "dirty.py"
        assert finding["line"] == 5
        assert finding["fingerprint"].startswith("dirty.py::lock-held-blocking-call")

    def test_gha_format(self, project, capsys):
        assert main(["dirty.py", "--no-baseline", "--format", "gha"]) == 1
        out = capsys.readouterr().out
        assert out.startswith(
            "::error file=dirty.py,line=5,title=lock-held-blocking-call::"
        )

    def test_gha_annotations_always_carry_path_and_line(self, project, capsys):
        # Every finding kind must produce a clickable file=...,line=N
        # annotation — configcheck and topology findings included.
        (project / "example.py").write_text(
            "from repro.api.config import single_machine_config\n"
            "cfg = single_machine_config('ppo', 'CartPole', fragement_steps=3)\n"
        )
        assert main(["example.py", "--validate-configs", "--format", "gha"]) == 1
        out = capsys.readouterr().out
        for line in out.splitlines():
            assert ",line=" in line and "file=" in line, line
            path = line.split("file=")[1].split(",")[0]
            lineno = int(line.split("line=")[1].split(",")[0])
            assert path and lineno >= 1, line

    def test_exclude_skips_matching_files(self, project, capsys):
        (project / "dirty.py").write_text(CLEAN)
        vendored = project / "vendored"
        vendored.mkdir()
        (vendored / "third_party.py").write_text(DIRTY)
        assert main(["vendored", "--no-baseline"]) == 1
        capsys.readouterr()
        assert main(["vendored", "--no-baseline", "--exclude", "vendored"]) == 0


TOPOLOGY_SRC = (
    "from repro.core.message import MsgType, make_message\n"
    "class ExplorerProcess:\n"
    "    def push(self, body):\n"
    "        return make_message(MsgType.ROLLOUT, [self.learner_name], body)\n"
    "class LearnerProcess:\n"
    "    def handle(self, message):\n"
    "        if message.msg_type == MsgType.ROLLOUT:\n"
    "            return message\n"
)


class TestTopologyCli:
    def test_emit_writes_json_and_dot(self, project, capsys):
        (project / "topo.py").write_text(TOPOLOGY_SRC)
        assert main(["topo.py", "--emit-topology", "topology.json"]) == 0
        payload = json.loads(Path("topology.json").read_text())
        assert {"src": "explorer", "type": "ROLLOUT", "dst": "learner",
                "sites": ["topo.py"]} in payload["edges"]
        assert payload["handled"]["learner"] == ["ROLLOUT"]
        dot = Path("topology.dot").read_text()
        assert '"explorer" -> "learner" [label="ROLLOUT"];' in dot

    def test_check_matches(self, project, capsys):
        (project / "topo.py").write_text(TOPOLOGY_SRC)
        assert main(["topo.py", "--emit-topology", "topology.json"]) == 0
        assert main(["topo.py", "--check-topology", "topology.json"]) == 0

    def test_check_drift_exits_distinctly(self, project, capsys):
        (project / "topo.py").write_text(TOPOLOGY_SRC)
        assert main(["topo.py", "--emit-topology", "topology.json"]) == 0
        (project / "topo.py").write_text(
            TOPOLOGY_SRC
            + "def stats(dst):\n"
            + "    return make_message(MsgType.STATS, dst, {})\n"
        )
        capsys.readouterr()
        assert main(["topo.py", "--check-topology", "topology.json"]) == 4
        assert "topology drift" in capsys.readouterr().err


class TestValidateConfigs:
    def test_unknown_key_fails(self, project, capsys):
        (project / "example.py").write_text(
            "from repro.api.config import single_machine_config\n"
            "cfg = single_machine_config('ppo', 'CartPole', fragement_steps=3)\n"
        )
        assert main(["example.py", "--validate-configs"]) == 1
        out = capsys.readouterr().out
        assert "unknown-config-key" in out
        assert "fragement_steps" in out

    def test_unregistered_name_fails(self, project, capsys):
        (project / "example.py").write_text(
            "from repro.api.config import single_machine_config\n"
            "cfg = single_machine_config('alphago', 'CartPole')\n"
        )
        assert main(["example.py", "--validate-configs"]) == 1
        assert "unregistered-name" in capsys.readouterr().out

    def test_valid_example_passes(self, project):
        (project / "example.py").write_text(
            "from repro.api.config import single_machine_config\n"
            "cfg = single_machine_config('ppo', 'CartPole', explorers=2)\n"
        )
        assert main(["example.py", "--validate-configs"]) == 0


class TestFindingNormalization:
    def test_zero_line_pinned_to_one(self):
        finding = Finding("a.py", 0, Severity.ERROR, "r", "m")
        assert finding.line == 1
        assert finding.format().startswith("a.py:1 ")

    def test_empty_path_becomes_placeholder(self):
        finding = Finding("", 3, Severity.ERROR, "r", "m")
        assert finding.path == "<unknown>"

    def test_backslash_paths_normalized(self):
        finding = Finding("src\\repro\\x.py", 3, Severity.ERROR, "r", "m")
        assert finding.path == "src/repro/x.py"
        assert finding.fingerprint().startswith("src/repro/x.py::")


class TestBaselineRoundTrip:
    def test_counter_semantics(self, tmp_path):
        finding = Finding(
            path="a.py",
            line=3,
            severity=Severity.ERROR,
            rule="lock-held-blocking-call",
            message="m",
            scope="f",
        )
        twin = Finding(
            path="a.py",
            line=9,
            severity=Severity.ERROR,
            rule="lock-held-blocking-call",
            message="m",
            scope="f",
        )
        baseline = Baseline.from_findings([finding])
        path = tmp_path / "b.txt"
        baseline.save(path)
        loaded = Baseline.load(path)
        # One occurrence baselined, the second instance of the identical
        # fingerprint is NEW — multiset, not set, semantics.
        diff = loaded.diff([finding, twin])
        assert len(diff.new) == 1
        assert len(diff.baselined) == 1
