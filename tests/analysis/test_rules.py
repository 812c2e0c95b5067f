"""Lint-rule tests: every rule has a triggering fixture and a near-miss
fixture, plus a golden-output check over the whole fixture tree."""

from __future__ import annotations

import re
from collections import Counter
from pathlib import Path

from repro.analysis import analyze_path, analyze_source
from repro.analysis.findings import Severity
from repro.analysis.rules import (
    LOCK_HELD_BLOCKING_CALL,
    RAW_SOCKET_CREATION,
    RAW_THREAD_CREATION,
    RULES,
    UNGUARDED_SHARED_MUTATION,
    UNROUTED_MSGTYPE,
)

FIXTURES = Path(__file__).parent / "fixtures"
DOCS = Path(__file__).resolve().parents[2] / "docs" / "STATIC_ANALYSIS.md"


def fixture_findings():
    return analyze_path(str(FIXTURES))


def by_file(findings):
    grouped = {}
    for finding in findings:
        grouped.setdefault(Path(finding.path).name, []).append(finding)
    return grouped


class TestFixtures:
    def test_golden_findings(self):
        golden = (FIXTURES / "golden.txt").read_text().splitlines()
        got = [finding.format() for finding in fixture_findings()]
        assert got == golden

    def test_every_trigger_fires_and_every_nearmiss_is_clean(self):
        grouped = by_file(fixture_findings())
        expected_rules = {
            "trigger_lock_held_blocking.py": LOCK_HELD_BLOCKING_CALL,
            "trigger_unguarded_mutation.py": UNGUARDED_SHARED_MUTATION,
            "trigger_container_mutation.py": UNGUARDED_SHARED_MUTATION,
            "trigger_raw_thread.py": RAW_THREAD_CREATION,
            "trigger_raw_socket.py": RAW_SOCKET_CREATION,
            "trigger_unrouted_msgtype.py": UNROUTED_MSGTYPE,
        }
        for trigger_file, rule in expected_rules.items():
            findings = grouped.get(trigger_file, [])
            assert findings, f"{trigger_file} produced no findings"
            assert {finding.rule for finding in findings} == {rule}
        for fixture in FIXTURES.glob("nearmiss_*.py"):
            assert fixture.name not in grouped, grouped.get(fixture.name)

    def test_trigger_counts(self):
        counts = Counter(finding.rule for finding in fixture_findings())
        assert counts[LOCK_HELD_BLOCKING_CALL] == 5
        assert counts[UNGUARDED_SHARED_MUTATION] == 4
        assert counts[RAW_THREAD_CREATION] == 1
        assert counts[RAW_SOCKET_CREATION] == 1
        assert counts[UNROUTED_MSGTYPE] == 1


class TestCatalog:
    def test_doc_catalog_names_exactly_the_rules(self):
        """Every rule has a row in the doc's catalog table, and every row
        names a rule the analyzer has."""
        text = DOCS.read_text(encoding="utf-8")
        catalog = text.split("## Rule catalog", 1)[1].split("\n## ", 1)[0]
        documented = re.findall(r"^\| `([a-z-]+)` \|", catalog, flags=re.M)
        assert len(documented) == len(set(documented))
        assert set(documented) == set(RULES)


class TestContainerMutation:
    def test_augmented_container_store_flagged(self):
        findings = analyze_source(
            "class Broker:\n"
            "    def record(self, key, value):\n"
            "        self.routes[key] = value\n"
        )
        assert [finding.rule for finding in findings] == [UNGUARDED_SHARED_MUTATION]
        assert "container mutation" in findings[0].message

    def test_append_flagged(self):
        findings = analyze_source(
            "class Broker:\n"
            "    def record(self, item):\n"
            "        self.pending.append(item)\n"
        )
        assert [finding.rule for finding in findings] == [UNGUARDED_SHARED_MUTATION]

    def test_locked_container_mutation_clean(self):
        findings = analyze_source(
            "class Broker:\n"
            "    def record(self, item):\n"
            "        with self._lock:\n"
            "            self.pending.append(item)\n"
        )
        assert findings == []

    def test_local_container_clean(self):
        findings = analyze_source(
            "class Broker:\n"
            "    def snapshot(self):\n"
            "        rows = []\n"
            "        rows.append(1)\n"
            "        return rows\n"
        )
        assert findings == []


class TestLockHeldBlockingCall:
    def test_severity_is_error(self):
        findings = analyze_source(
            "import time\n"
            "class C:\n"
            "    def run(self):\n"
            "        with self._lock:\n"
            "            time.sleep(1)\n"
        )
        assert len(findings) == 1
        assert findings[0].severity is Severity.ERROR
        assert findings[0].line == 5
        assert findings[0].scope == "C.run"

    def test_nested_lock_still_counts(self):
        findings = analyze_source(
            "class C:\n"
            "    def run(self):\n"
            "        with self._lock:\n"
            "            with self._other_lock:\n"
            "                self.sock.recv()\n"
        )
        assert [finding.rule for finding in findings] == [LOCK_HELD_BLOCKING_CALL]

    def test_a_recv_that_cannot_block_is_clean_and_one_that_can_is_not(self):
        findings = analyze_source(
            "import socket\n"
            "class C:\n"
            "    def run(self):\n"
            "        with self._lock:\n"
            "            self.sock.recv(64, socket.MSG_DONTWAIT)\n"
            "            self.sock.recv(64)\n"
        )
        assert [(finding.rule, finding.line) for finding in findings] == [
            (LOCK_HELD_BLOCKING_CALL, 6)
        ]

    def test_module_level_with_lock(self):
        findings = analyze_source(
            "import time\nwith lock:\n    time.sleep(1)\n"
        )
        assert [finding.rule for finding in findings] == [LOCK_HELD_BLOCKING_CALL]

    def test_non_lock_context_manager_is_clean(self):
        findings = analyze_source(
            "import time\nwith open('x') as f:\n    time.sleep(1)\n"
        )
        assert findings == []


class TestUnguardedSharedMutation:
    def test_known_framework_class_names_are_threaded(self):
        findings = analyze_source(
            "class Broker:\n"
            "    def __init__(self):\n"
            "        self.count = 0\n"
            "    def bump(self):\n"
            "        self.count += 1\n"
        )
        assert [finding.rule for finding in findings] == [UNGUARDED_SHARED_MUTATION]

    def test_subclass_of_framework_class_is_threaded(self):
        findings = analyze_source(
            "class MyFabric(Fabric):\n"
            "    def bump(self):\n"
            "        self.count += 1\n"
        )
        assert [finding.rule for finding in findings] == [UNGUARDED_SHARED_MUTATION]

    def test_init_mutations_are_exempt(self):
        findings = analyze_source(
            "class Broker:\n"
            "    def __init__(self):\n"
            "        self.count = 0\n"
            "        self.count += 1\n"
        )
        assert findings == []


class TestRawThreadCreation:
    def test_flags_direct_and_module_qualified(self):
        findings = analyze_source(
            "import threading\n"
            "t1 = threading.Thread(target=print)\n"
            "t2 = Thread(target=print)\n"
        )
        assert [finding.rule for finding in findings] == [RAW_THREAD_CREATION] * 2

    def test_factory_module_is_exempt(self):
        findings = analyze_source(
            "import threading\nt = threading.Thread(target=print)\n",
            path="src/repro/core/concurrency.py",
        )
        assert findings == []
