"""Structural guard: the hop log is the only observer of the data plane.

A hop is observed by calling ``repro.core.tracing.emit``/``emit_many`` —
never through a tracer or recorder attribute that something has to attach,
and never by packing ring records anywhere but in the log module.  What a
process counts about itself it counts once, in its own meters; telemetry
reads those, so nothing below ``repro.obs`` imports it or offers a hook to
attach registry instruments through.  And the log only records: an emitter
packs its record whoever reads the ring — there is no push path for it to
feed, and nothing on it builds an event object.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"
DATA_PLANE = ("core", "transport", "cluster")
LOG_MODULE = SRC / "core" / "tracing.py"

#: names the per-component observers went by
FORBIDDEN = {"tracer", "_tracer", "_flightrec", "set_tracer", "flight_recorder"}
#: what packing a ring record takes
RING_ONLY = {"pack_into", "RECORD", "RECORD_SIZE"}
#: the push path: consumers read the ring by cursor instead
PUSH_PATH = {"subscribe", "unsubscribe", "subscribers", "_publish", "Subscriber"}
#: the hooks shadow instruments were attached (and re-attached) through
ATTACH_HOOKS = {"attach_metrics", "add_instrument_hook", "instrument_process"}


def _names(tree: ast.AST, *, local_names: bool):
    """Attributes, call keywords, definitions and imports of a module —
    and, with ``local_names``, its plain variables and parameters too (a
    local ``tracer`` holding a reader is not an attached observer)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.keyword) and node.arg:
            yield node.arg, node.value.lineno
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.lineno
        elif isinstance(node, ast.alias):
            yield (node.asname or node.name).rsplit(".", 1)[-1], node.lineno
        elif local_names and isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif local_names and isinstance(node, ast.arg):
            yield node.arg, node.lineno


def _offences(paths, forbidden, *, local_names):
    found = []
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found.extend(
            f"{path.relative_to(SRC)}:{line}: {name}"
            for name, line in _names(tree, local_names=local_names)
            if name in forbidden
        )
    return found


def _data_plane_paths():
    paths = [
        path
        for package in DATA_PLANE
        for path in sorted((SRC / package).rglob("*.py"))
    ]
    assert len(paths) > 20  # the walk found the packages
    return paths


def test_data_plane_names_no_tracer_or_recorder():
    paths = [path for path in _data_plane_paths() if path != LOG_MODULE]
    assert _offences(paths, FORBIDDEN, local_names=False) == []


def test_data_plane_offers_telemetry_nothing_to_attach():
    assert _offences(_data_plane_paths(), ATTACH_HOOKS, local_names=False) == []


def test_data_plane_does_not_import_the_observability_layer():
    found = []
    for path in _data_plane_paths():
        # A relative import's package depth: ``..obs`` from repro/core/x.py.
        depth = len(path.relative_to(SRC).parts)
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                module = node.module or ""
                if node.level:  # resolve against the repro package root
                    if node.level != depth:
                        continue  # stays inside its own subpackage
                    module = f"repro.{module}" if module else "repro"
                modules = [module] + [
                    f"{module}.{alias.name}" for alias in node.names
                ]
            else:
                continue
            found.extend(
                f"{path.relative_to(SRC)}:{node.lineno}: {module}"
                for module in modules
                if module == "repro.obs" or module.startswith("repro.obs.")
            )
    assert found == []


def test_only_the_log_module_packs_ring_records():
    paths = [path for path in sorted(SRC.rglob("*.py")) if path != LOG_MODULE]
    assert _offences(paths, RING_ONLY, local_names=True) == []
    # ...and the log module does: the guard is looking for the right names.
    log_names = _names(ast.parse(LOG_MODULE.read_text()), local_names=True)
    assert {name for name, _ in log_names} >= RING_ONLY


def _log_function(name):
    tree = ast.parse(LOG_MODULE.read_text(encoding="utf-8"))
    (function,) = [
        node for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == name
    ]
    return function


def test_the_log_has_no_push_path():
    """Was ``test_uninstrumented_pays_nothing``: with no subscribers there
    is no instrumented case to compare an uninstrumented one with."""
    paths = sorted(SRC.rglob("*.py"))
    assert _offences(paths, PUSH_PATH, local_names=True) == []


def test_emitters_only_pack_records():
    """``emit`` / ``emit_many`` build no event object, take no lock but the
    ring's, and read nothing of the log that depends on who is attached."""
    for name in ("emit", "emit_many"):
        function = _log_function(name)
        used = {name for name, _ in _names(function, local_names=True)}
        assert "pack_into" in used
        assert not used & {"TraceEvent", "decode_records", "_readers", "readers"}
        # The one ``with`` is the ring's lock; of ``self`` it reads the
        # ring, the clock and (``emit``, for a BATCH) ``emit_many``.
        locks = [
            ast.unparse(item.context_expr)
            for node in ast.walk(function) if isinstance(node, ast.With)
            for item in node.items
        ]
        assert locks == ["ring.lock"]
        of_self = {
            node.attr for node in ast.walk(function)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name) and node.value.id == "self"
        }
        assert of_self <= {"_ring", "_clock", "emit_many"}
