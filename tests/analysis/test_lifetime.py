"""Zero-copy lifetime pass semantics, plus the gate that keeps ``src/``
free of view-lifetime violations."""

from __future__ import annotations

import ast
import textwrap
from pathlib import Path

from repro.analysis.engine import parse_tree_reporting_errors
from repro.analysis.lifetime import (
    RELEASE_WHILE_BORROWED,
    VIEW_ESCAPE,
    WRITE_THROUGH_READONLY_VIEW,
    run_lifetime_rules,
)

REPO_ROOT = Path(__file__).resolve().parents[2]


def findings_for(source: str):
    tree = ast.parse(textwrap.dedent(source))
    return run_lifetime_rules([("mod.py", tree)])


def rules_for(source: str):
    return [finding.rule for finding in findings_for(source)]


class TestViewEscape:
    def test_returned_view_escapes(self):
        assert (
            rules_for(
                """
                def f(blob):
                    view = deserialize(blob, copy=False)
                    return view
                """
            )
            == [VIEW_ESCAPE]
        )

    def test_stored_view_escapes(self):
        assert (
            rules_for(
                """
                def f(self, blob):
                    view = deserialize(blob, copy=False)
                    self.cache = view
                """
            )
            == [VIEW_ESCAPE]
        )

    def test_view_passed_to_unknown_call_escapes(self):
        assert (
            rules_for(
                """
                def f(sink, blob):
                    view = deserialize(blob, copy=False)
                    sink.submit(view)
                """
            )
            == [VIEW_ESCAPE]
        )

    def test_copying_call_is_safe(self):
        assert (
            rules_for(
                """
                def f(blob):
                    view = deserialize(blob, copy=False)
                    return bytes(view)
                """
            )
            == []
        )

    def test_borrowing_callee_is_safe(self):
        assert (
            rules_for(
                """
                @borrows_view
                def parse(view):
                    return bytes(view)

                def f(blob):
                    view = deserialize(blob, copy=False)
                    return parse(view)
                """
            )
            == []
        )

    def test_detaches_view_suppresses_escape(self):
        assert (
            rules_for(
                """
                @detaches_view
                def f(blob):
                    view = deserialize(blob, copy=False)
                    return view
                """
            )
            == []
        )

    def test_copied_deserialize_untracked(self):
        assert (
            rules_for(
                """
                def f(blob):
                    data = deserialize(blob)
                    return data
                """
            )
            == []
        )

    def test_alias_escape_tracked(self):
        assert (
            rules_for(
                """
                def f(blob):
                    view = deserialize(blob, copy=False)
                    alias = view
                    return alias
                """
            )
            == [VIEW_ESCAPE]
        )


class TestReleaseWhileBorrowed:
    def test_free_under_live_view(self):
        findings = findings_for(
            """
            def f(arena, handle):
                view = arena.view(handle)
                arena.free(handle)
            """
        )
        assert [f.rule for f in findings] == [RELEASE_WHILE_BORROWED]
        assert "still borrowed" in findings[0].message

    def test_use_after_release_reported(self):
        findings = findings_for(
            """
            def f(arena, handle):
                view = arena.view(handle)
                arena.free(handle)
                return len(view)
            """
        )
        rules = [f.rule for f in findings]
        assert rules.count(RELEASE_WHILE_BORROWED) == 2

    def test_block_buf_view_tracked_through_alloc(self):
        assert (
            rules_for(
                """
                def f(arena, nbytes):
                    block = arena.alloc(nbytes)
                    buf = block.buf
                    arena.free(block.handle)
                """
            )
            == [RELEASE_WHILE_BORROWED]
        )

    def test_released_view_clears_the_borrow(self):
        assert (
            rules_for(
                """
                def f(arena, handle):
                    view = arena.view(handle)
                    view.release()
                    arena.free(handle)
                """
            )
            == []
        )

    def test_branchy_release_merges(self):
        # The view is live on one path into the free: still a finding.
        assert RELEASE_WHILE_BORROWED in rules_for(
            """
            def f(arena, handle, flag):
                view = arena.view(handle)
                if flag:
                    view.release()
                arena.free(handle)
            """
        )

    def test_pytest_raises_block_suppressed(self):
        assert (
            rules_for(
                """
                def test_free_raises(arena, handle):
                    view = arena.view(handle)
                    with pytest.raises(ArenaError):
                        arena.free(handle)
                """
            )
            == []
        )


class TestReadonlyWrite:
    def test_element_write_flagged(self):
        assert (
            rules_for(
                """
                def f(blob):
                    view = deserialize(blob, copy=False)
                    view[0] = 1
                """
            )
            == [WRITE_THROUGH_READONLY_VIEW]
        )

    def test_augmented_write_flagged(self):
        assert (
            rules_for(
                """
                def f(blob):
                    view = deserialize(blob, copy=False)
                    view[:4] += b"x"
                """
            )
            == [WRITE_THROUGH_READONLY_VIEW]
        )

    def test_arena_view_is_writable(self):
        assert (
            rules_for(
                """
                def f(arena, handle):
                    view = arena.view(handle)
                    view[0] = 1
                    view.release()
                """
            )
            == []
        )

    def test_rebinding_is_not_a_write(self):
        assert (
            rules_for(
                """
                def f(blob):
                    view = deserialize(blob, copy=False)
                    view = None
                """
            )
            == []
        )


class TestSourceTreeGate:
    def test_src_is_free_of_lifetime_findings(self):
        sources, _ = parse_tree_reporting_errors(str(REPO_ROOT / "src"))
        findings = run_lifetime_rules(sources)
        assert findings == [], [f.format() for f in findings]
