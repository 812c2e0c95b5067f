"""Zero-copy lifetime dataflow: views must not outlive their blocks.

The zero-copy pipeline (PR 5) hands consumers *views* — ``deserialize(...,
copy=False)`` buffers, ``SlabArena`` block views, ``Block.buf`` — whose
memory is recycled the moment the owning block is freed.  A view that
outlives its block is a silent use-after-free: training batches read
whatever tenant occupies the block next.  This pass walks the per-function
CFGs from :mod:`repro.analysis.dataflow` tracking which variables hold
views, which hold the blocks/handles that own them, and where the owning
storage is released.

Three rules:

``view-escape`` (warning)
    A zero-copy view leaves the function that created it — returned, stored
    into an attribute/container, or passed to a call — without a
    :func:`~repro.core.ownership.detaches_view` annotation (and the callee
    not marked :func:`~repro.core.ownership.borrows_view`).  Once a view
    escapes, nothing ties its lifetime to the block's.

``release-while-borrowed`` (error)
    The owning block is freed (``arena.free``) while a view derived from
    it is still live on that path — or a view is used after its backing
    block was released on every path reaching the use.

``write-through-readonly-view`` (error)
    An element/slice write (or augmented assignment) through a
    ``deserialize(copy=False)`` buffer.  Those views are read-only by
    contract; at runtime the write raises ``TypeError``, and "fixing" it by
    copying first is what ``copy=True`` is for.

Findings inside ``with pytest.raises(...)`` blocks are suppressed — tests
provoke these failures on purpose.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from .dataflow import EXIT, CFG, FunctionInfo, build_cfg, iter_functions
from .findings import Finding, Severity

VIEW_ESCAPE = "view-escape"
RELEASE_WHILE_BORROWED = "release-while-borrowed"
WRITE_THROUGH_READONLY_VIEW = "write-through-readonly-view"

#: Decorator leaf names declaring view intent (see ``core/ownership.py``).
BORROWS_DECORATOR = "borrows_view"
DETACHES_DECORATOR = "detaches_view"

#: Calls a view may be passed to without escaping: they consume the bytes
#: synchronously (or copy them) and never retain the view.
SAFE_VIEW_CALLS = {
    "bytes",
    "bytearray",
    "len",
    "memoryview",
    "print",
    "repr",
    "hash",
    "isinstance",
    "deserialize",
    "array_equal",  # numpy comparison: reads both operands, retains neither
    # The sanctioned escape: registering a view with the arena's export
    # tracker is how a caller *declares* the view outlives this frame.
    "register_export",
}

#: Value kinds tracked per variable.
VIEW = "view"
BLOCK = "block"
HANDLE = "handle"

#: Lifetime statuses (may-set, like the ownership pass).
LIVE = "live"
FREED = "freed"

_FIXPOINT_LIMIT = 200  # per-function worklist iterations (safety bound)


@dataclass(frozen=True)
class VState:
    """Abstract state of one view/block/handle-holding variable."""

    kind: str
    readonly: bool
    owner: str  #: root variable owning the backing storage
    statuses: frozenset
    src_line: int

    def merge(self, other: "VState") -> "VState":
        return VState(
            VIEW if VIEW in (self.kind, other.kind) else self.kind,
            self.readonly or other.readonly,
            self.owner,
            self.statuses | other.statuses,
            min(self.src_line, other.src_line),
        )


State = Dict[str, VState]


def _merge_states(a: State, b: State) -> State:
    merged = dict(a)
    for var, vstate in b.items():
        merged[var] = vstate.merge(merged[var]) if var in merged else vstate
    return merged


def _dotted(node: ast.AST) -> str:
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
    return ".".join(reversed(parts)).lower()


def _root_name(node: ast.AST) -> str:
    """Base variable of a chained expression (``b.buf[1:]`` → ``b``)."""
    while isinstance(node, (ast.Attribute, ast.Subscript, ast.Starred)):
        node = node.value
    if isinstance(node, ast.Name):
        return node.id
    return ""


def _unwrap_subscript(node: ast.AST) -> ast.AST:
    """Slicing a view yields a view: see through ``expr[...]`` chains."""
    while isinstance(node, ast.Subscript):
        node = node.value
    return node


def _call_leaf(node: ast.Call) -> str:
    if isinstance(node.func, ast.Attribute):
        return node.func.attr
    return getattr(node.func, "id", "")


def _is_zero_copy_deserialize(node: ast.AST) -> bool:
    """``deserialize(..., copy=False)`` — the only view-producing spelling."""
    if not (isinstance(node, ast.Call) and _call_leaf(node) == "deserialize"):
        return False
    for keyword in node.keywords:
        if keyword.arg == "copy":
            value = keyword.value
            return isinstance(value, ast.Constant) and value.value is False
    return False


def _arena_call(node: ast.AST, method: str) -> Optional[ast.Call]:
    """``node`` as ``<arena-ish>.<method>(...)``, else ``None``."""
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == method
        and "arena" in _dotted(node.func.value)
    ):
        return node
    return None


def _freed_roots(node: ast.AST) -> List[str]:
    """Root variables whose backing storage ``node`` releases, if any."""
    if not isinstance(node, ast.Call) or not node.args:
        return []
    if isinstance(node.func, ast.Attribute):
        if _call_leaf(node) == "free" and "arena" in _dotted(node.func.value):
            return [_root_name(node.args[0])]
    return []


@dataclass(frozen=True)
class _Report:
    line: int
    rule: str
    message: str


class _LifetimeAnalysis:
    """View-lifetime dataflow over one function's CFG."""

    def __init__(
        self,
        info: FunctionInfo,
        cfg: CFG,
        borrows: Set[str],
    ):
        self.info = info
        self.cfg = cfg
        self.borrows = borrows
        self.detaches = DETACHES_DECORATOR in info.decorators
        self.reports: List[_Report] = []
        self._collecting = False

    # -- driver -------------------------------------------------------------
    def run(self) -> None:
        if self.cfg.entry is None:
            return
        in_states: Dict[int, State] = {self.cfg.entry: {}}
        out_states: Dict[int, State] = {}
        worklist = [self.cfg.entry]
        iterations = 0
        bound = _FIXPOINT_LIMIT * max(1, len(self.cfg.nodes))
        while worklist and iterations < bound:
            iterations += 1
            node_id = worklist.pop(0)
            in_state = in_states.get(node_id, {})
            out_state = self._transfer(node_id, in_state, collect=False)
            if node_id in out_states and out_states[node_id] == out_state:
                continue
            out_states[node_id] = out_state
            for successor, _kind in self.cfg.successors(node_id):
                if successor == EXIT:
                    continue
                merged = _merge_states(in_states.get(successor, {}), out_state)
                if merged != in_states.get(successor):
                    in_states[successor] = merged
                    if successor not in worklist:
                        worklist.append(successor)
        self._collecting = True
        for node_id in self.cfg.nodes:
            self._transfer(node_id, in_states.get(node_id, {}), collect=True)

    def _transfer(self, node_id: int, in_state: State, collect: bool) -> State:
        previous = self._collecting
        self._collecting = collect
        try:
            statement = self.cfg.nodes[node_id]
            state = dict(in_state)
            self._apply(statement, state)
            return state
        finally:
            self._collecting = previous

    def _report(self, line: int, rule: str, message: str) -> None:
        if not self._collecting:
            return
        report = _Report(line, rule, message)
        if report not in self.reports:
            self.reports.append(report)

    # -- statement dispatch ---------------------------------------------------
    def _apply(self, statement: ast.stmt, state: State) -> None:
        if isinstance(statement, ast.Assign) and len(statement.targets) == 1:
            self._apply_assign(statement.targets[0], statement.value, state)
            return
        if isinstance(statement, ast.AnnAssign) and statement.value is not None:
            self._apply_assign(statement.target, statement.value, state)
            return
        if isinstance(statement, ast.AugAssign):
            self._check_readonly_write(statement.target, state)
            self._scan(statement.value, state)
            return
        if isinstance(statement, ast.Expr):
            self._apply_expr_stmt(statement.value, state)
            return
        if isinstance(statement, ast.Return):
            if statement.value is not None:
                self._apply_return(statement.value, state)
            return
        if isinstance(statement, ast.Delete):
            for target in statement.targets:
                if isinstance(target, ast.Name):
                    state.pop(target.id, None)
            return
        if isinstance(statement, ast.If):
            self._scan(statement.test, state)
            return
        if isinstance(statement, ast.While):
            self._scan(statement.test, state)
            return
        if isinstance(statement, (ast.For, ast.AsyncFor)):
            self._scan(statement.iter, state)
            return
        if isinstance(statement, (ast.With, ast.AsyncWith)):
            for item in statement.items:
                self._scan(item.context_expr, state)
            return
        for child in ast.iter_child_nodes(statement):
            if isinstance(child, ast.expr):
                self._scan(child, state)

    # -- value classification --------------------------------------------------
    def _classify(self, value: ast.expr, target: str, state: State) -> Optional[VState]:
        """The :class:`VState` produced by assigning ``value``, if tracked."""
        source = _unwrap_subscript(value)
        line = getattr(value, "lineno", 0)
        if _is_zero_copy_deserialize(source):
            return VState(VIEW, True, target, frozenset({LIVE}), line)
        if _arena_call(source, "alloc") is not None:
            return VState(BLOCK, False, target, frozenset({LIVE}), line)
        view_call = _arena_call(source, "view")
        if view_call is not None:
            owner = _root_name(view_call.args[0]) if view_call.args else ""
            tracked = state.get(owner)
            if tracked is not None:
                owner = tracked.owner
            return VState(VIEW, False, owner or target, frozenset({LIVE}), line)
        if isinstance(source, ast.Attribute):
            base = state.get(_root_name(source))
            if base is not None and base.kind == BLOCK:
                if source.attr == "buf":
                    return VState(VIEW, False, base.owner, base.statuses, line)
                if source.attr == "handle":
                    return VState(HANDLE, False, base.owner, base.statuses, line)
        return None

    # -- statement forms --------------------------------------------------------
    def _apply_assign(self, target: ast.expr, value: ast.expr, state: State) -> None:
        if isinstance(target, ast.Name):
            produced = self._classify(value, target.id, state)
            if produced is not None:
                state[target.id] = produced
                return
            if isinstance(value, ast.Name) and value.id in state:
                state[target.id] = state[value.id]
                return
            self._scan(value, state)
            state.pop(target.id, None)
            return
        # Attribute/subscript/tuple target.
        self._check_readonly_write(target, state)
        if isinstance(target, (ast.Attribute, ast.Subscript)):
            escaping = _unwrap_subscript(value)
            if isinstance(escaping, ast.Name):
                self._check_escape(escaping.id, value.lineno,
                                   "stored outside the frame", state)
            elif self._classify(value, "", state) is not None:
                vstate = self._classify(value, "", state)
                if vstate is not None and vstate.kind == VIEW:
                    self._escape_report(None, value.lineno,
                                        "stored outside the frame")
        self._scan(value, state)

    def _check_readonly_write(self, target: ast.expr, state: State) -> None:
        """Element/slice write through a read-only view."""
        if not isinstance(target, (ast.Subscript, ast.Name)):
            return
        node: ast.AST = target
        if isinstance(target, ast.Name):
            return  # rebinding a name is not a buffer write
        root = _root_name(node)
        vstate = state.get(root)
        if vstate is not None and vstate.kind == VIEW and vstate.readonly:
            self._report(
                getattr(target, "lineno", 0),
                WRITE_THROUGH_READONLY_VIEW,
                f"write through read-only zero-copy view '{root}' — "
                "deserialize with copy=True (or copy the buffer) before "
                "mutating",
            )

    def _apply_expr_stmt(self, value: ast.expr, state: State) -> None:
        if isinstance(value, ast.Call):
            # ``v.release()`` on a tracked view: the borrow ends here.
            if (
                isinstance(value.func, ast.Attribute)
                and value.func.attr == "release"
                and isinstance(value.func.value, ast.Name)
                and value.func.value.id in state
            ):
                state.pop(value.func.value.id, None)
                return
        self._scan(value, state)

    def _apply_return(self, value: ast.expr, state: State) -> None:
        escaping = _unwrap_subscript(value)
        if isinstance(escaping, ast.Name):
            self._check_escape(escaping.id, value.lineno,
                               "returned to the caller", state)
            return
        produced = self._classify(value, "", state)
        if produced is not None and produced.kind == VIEW:
            self._escape_report(None, value.lineno, "returned to the caller")
            return
        if isinstance(escaping, ast.Call):
            # Returning a call's *result*: the view arguments follow normal
            # call rules (borrowing/safe callees consume them in place).
            self._scan(value, state)
            return
        # A view inside a returned container escapes just the same.
        for node in ast.walk(value):
            if isinstance(node, ast.Name):
                self._check_escape(node.id, value.lineno,
                                   "returned to the caller", state)
        self._scan(value, state)

    # -- view events ---------------------------------------------------------
    def _check_escape(self, var: str, line: int, how: str, state: State) -> None:
        vstate = state.get(var)
        if vstate is None or vstate.kind != VIEW:
            return
        self._check_stale_use(var, line, state)
        if not self.detaches:
            self._escape_report(var, line, how)
        state.pop(var, None)

    def _escape_report(self, var: Optional[str], line: int, how: str) -> None:
        if self.detaches:
            return
        name = f"'{var}' " if var else ""
        self._report(
            line,
            VIEW_ESCAPE,
            f"zero-copy view {name}escapes ({how}) — copy the bytes first "
            "or annotate the function @detaches_view",
        )

    def _free(self, root: str, line: int, state: State) -> None:
        """Storage owned by ``root`` is released at ``line``."""
        for var, vstate in list(state.items()):
            if var != root and vstate.owner != root:
                continue
            if (
                vstate.kind == VIEW
                and var != root
                and LIVE in vstate.statuses
            ):
                self._report(
                    line,
                    RELEASE_WHILE_BORROWED,
                    f"block '{root}' is released here while zero-copy view "
                    f"'{var}' (created line {vstate.src_line}) is still "
                    "borrowed — release the view first",
                )
            state[var] = VState(
                vstate.kind, vstate.readonly, vstate.owner,
                frozenset({FREED}), vstate.src_line,
            )

    def _check_stale_use(self, var: str, line: int, state: State) -> None:
        vstate = state.get(var)
        if (
            vstate is not None
            and vstate.kind == VIEW
            and vstate.statuses == frozenset({FREED})
        ):
            self._report(
                line,
                RELEASE_WHILE_BORROWED,
                f"zero-copy view '{var}' is used after its backing block "
                "was released",
            )

    # -- generic expression scan ------------------------------------------------
    def _scan(self, expr: ast.expr, state: State) -> None:
        if expr is None:  # defensive: optional sub-expressions
            return
        for node in ast.walk(expr):
            if not isinstance(node, ast.Call):
                continue
            for root in _freed_roots(node):
                if root:
                    self._free(root, node.lineno, state)
            leaf = _call_leaf(node)
            frees = set(_freed_roots(node))
            for arg in list(node.args) + [kw.value for kw in node.keywords]:
                unwrapped = _unwrap_subscript(arg)
                if not isinstance(unwrapped, ast.Name):
                    continue
                var = unwrapped.id
                vstate = state.get(var)
                if vstate is None or vstate.kind != VIEW:
                    continue
                self._check_stale_use(var, node.lineno, state)
                if leaf in SAFE_VIEW_CALLS or leaf in self.borrows:
                    continue
                if var in frees or (vstate.owner in frees):
                    continue  # the free call itself consumes the reference
                self._check_escape(var, node.lineno, "passed to a call", state)
        # Bare stale uses outside call arguments (comparisons, slicing...).
        for node in ast.walk(expr):
            if isinstance(node, ast.Name):
                self._check_stale_use(node.id, getattr(node, "lineno", 0), state)


# -- entry point -----------------------------------------------------------------


def _has_lifetime_ops(info: FunctionInfo) -> bool:
    for node in ast.walk(info.node):
        if not isinstance(node, ast.Call):
            continue
        leaf = _call_leaf(node)
        if leaf == "deserialize":
            return True
        if isinstance(node.func, ast.Attribute):
            receiver = _dotted(node.func.value)
            if leaf in ("alloc", "view", "free") and "arena" in receiver:
                return True
    return False


def _pytest_raises_ranges(tree: ast.AST) -> List[Tuple[int, int]]:
    """Line ranges of ``with pytest.raises(...)`` blocks."""
    ranges: List[Tuple[int, int]] = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.With, ast.AsyncWith)):
            continue
        for item in node.items:
            expr = item.context_expr
            if isinstance(expr, ast.Call) and "raises" in _dotted(expr.func):
                end = getattr(node, "end_lineno", node.lineno) or node.lineno
                ranges.append((node.lineno, end))
                break
    return ranges


def run_lifetime_rules(
    sources: List[Tuple[str, ast.AST]]
) -> List[Finding]:
    """Run the zero-copy lifetime pass over parsed sources."""
    functions = list(iter_functions(sources))
    borrows = {
        info.name for info in functions if BORROWS_DECORATOR in info.decorators
    }
    severities = {
        VIEW_ESCAPE: Severity.WARNING,
        RELEASE_WHILE_BORROWED: Severity.ERROR,
        WRITE_THROUGH_READONLY_VIEW: Severity.ERROR,
    }
    findings: List[Finding] = []
    for info in functions:
        if not _has_lifetime_ops(info):
            continue
        analysis = _LifetimeAnalysis(info, build_cfg(info.node), borrows)
        analysis.run()
        for report in analysis.reports:
            findings.append(
                Finding(
                    info.path,
                    report.line,
                    severities[report.rule],
                    report.rule,
                    report.message,
                    info.qualname,
                )
            )
    suppress: Dict[str, List[Tuple[int, int]]] = {}
    for path, tree in sources:
        ranges = _pytest_raises_ranges(tree)
        if ranges:
            suppress[path] = ranges
    return [
        finding
        for finding in findings
        if not any(
            start <= finding.line <= end
            for start, end in suppress.get(finding.path, ())
        )
    ]
