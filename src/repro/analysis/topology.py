"""Static communication-topology extraction and trace conformance.

Recovers the sender→receiver graph of the framework from the AST: every
``make_message``/``make_header``/``Message`` call with a literal ``MsgType``
contributes an edge *component —type→ destination role*, where the
component is the enclosing class (or module) mapped to a framework role
(explorer / learner / controller) and the destination role is inferred from
the destination expression (``[self.learner_name]`` → ``learner``,
``list(targets)`` → ``explorer``, anything unrecognizable → ``dynamic``).

The same pass recovers the *handled* side per role (``msg_type ==
MsgType.X`` comparisons and dispatch-dict keys inside each component) and
derives two findings:

``orphan-destination`` (error)
    An edge whose destination is a known framework role that never handles
    the sent type (and the type is not in
    :data:`~repro.analysis.protocol.EXPLICITLY_UNROUTED`) — the message
    would be delivered into a buffer nobody drains by type.

``bounded-queue-cycle`` (warning)
    The role graph contains a send/recv cycle *and* the analyzed tree
    constructs a queue whose producers block when it is full (a literal
    ``Queue(maxsize > 0)`` or ``LaneChannel(control_watermark > 0)``).  Two
    components that both block on full queues in a cycle can deadlock;
    unbounded queues (the framework default) cannot.

The extracted graph is emitted as a deterministic JSON artifact
(``docs/topology.json``) plus Graphviz DOT, and
:func:`conformance_violations` diffs edges observed at runtime by
:class:`repro.core.tracing.Tracer` against the static graph — the
trace-conformance mode of the test suite.
"""

from __future__ import annotations

import ast
import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .findings import Finding, Severity
from .protocol import EXPLICITLY_UNROUTED, _msgtype_member

ORPHAN_DESTINATION = "orphan-destination"
BOUNDED_QUEUE_CYCLE = "bounded-queue-cycle"

#: Send-constructor call names (mirrors :mod:`repro.analysis.protocol`).
_SEND_CALLS = {"make_message", "make_header", "Message"}

#: Explicit class → role table for the framework's component classes.
ROLE_BY_CLASS: Dict[str, str] = {
    "ExplorerProcess": "explorer",
    "LearnerProcess": "learner",
    "CenterController": "controller",
    "Controller": "controller",
}

#: Roles the framework routes to; only these can be orphaned.
KNOWN_ROLES = ("explorer", "learner", "controller")

#: Queue constructor -> the keyword whose positive value makes producers
#: block on a full queue.  A LaneChannel's bulk watermark sheds, it never
#: blocks; HeaderQueue/MessageBuffer take their watermarks from a
#: FlowControlSpec object, which is not a literal this pass can read.
_BLOCKING_BOUND = {"Queue": "maxsize", "LaneChannel": "control_watermark"}


def role_for_name(name: str) -> str:
    """Map a component/class/endpoint name to a framework role.

    Works for both static names (``ExplorerProcess``) and runtime endpoint
    names (``machine-0.explorer-1``, ``learner``, ``controller``).
    """
    if name in ROLE_BY_CLASS:
        return ROLE_BY_CLASS[name]
    lowered = name.lower()
    for role in KNOWN_ROLES:
        if role in lowered:
            return role
    if "center" in lowered:
        return "controller"
    if "target" in lowered:
        return "explorer"
    return "dynamic"


def _dst_role(expr: Optional[ast.AST]) -> str:
    """Infer the destination role from a destination-list expression."""
    if expr is None:
        return "dynamic"
    names: List[str] = []
    for node in ast.walk(expr):
        if isinstance(node, ast.Name):
            names.append(node.id)
        elif isinstance(node, ast.Attribute):
            names.append(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.append(node.value)
    for name in names:
        role = role_for_name(name)
        if role != "dynamic":
            return role
    return "dynamic"


@dataclass(frozen=True)
class Edge:
    """One static communication edge: ``src`` sends ``msg_type`` to ``dst``."""

    src: str
    msg_type: str
    dst: str


@dataclass
class Topology:
    """The extracted communication graph."""

    #: component name (class or module) -> role
    components: Dict[str, str] = field(default_factory=dict)
    #: edge -> source sites ``(path, line)``
    edges: Dict[Edge, List[Tuple[str, int]]] = field(default_factory=dict)
    #: role -> MsgType member names it handles
    handled: Dict[str, Set[str]] = field(default_factory=dict)
    #: ``(path, line)`` sites constructing bounded queues
    bounded_queues: List[Tuple[str, int]] = field(default_factory=list)

    def role_edges(self) -> Set[Tuple[str, str, str]]:
        """Deduplicated ``(src_role, msg_type, dst_role)`` triples."""
        return {(edge.src, edge.msg_type, edge.dst) for edge in self.edges}

    def cycles(self) -> List[List[str]]:
        """Simple role-level send/recv cycles, each rotated to start at the
        lexicographically smallest role, sorted; ``dynamic`` is excluded."""
        graph: Dict[str, Set[str]] = {}
        for src, _, dst in self.role_edges():
            if "dynamic" in (src, dst):
                continue
            graph.setdefault(src, set()).add(dst)
        cycles: Set[Tuple[str, ...]] = set()

        def visit(node: str, path: List[str]) -> None:
            for nxt in sorted(graph.get(node, ())):
                if nxt in path:
                    cycle = path[path.index(nxt):]
                    pivot = cycle.index(min(cycle))
                    cycles.add(tuple(cycle[pivot:] + cycle[:pivot]))
                else:
                    visit(nxt, path + [nxt])

        for start in sorted(graph):
            visit(start, [start])
        return [list(cycle) for cycle in sorted(cycles)]


class _TopologyVisitor(ast.NodeVisitor):
    def __init__(self, path: str, topology: Topology):
        self.path = path
        self.topology = topology
        self.scope_stack: List[str] = []
        self.class_stack: List[str] = []

    # -- scope tracking -----------------------------------------------------
    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self.scope_stack.append(node.name)
        self.class_stack.append(node.name)
        self.generic_visit(node)
        self.class_stack.pop()
        self.scope_stack.pop()

    def _function(self, node: ast.AST) -> None:
        self.scope_stack.append(getattr(node, "name", "<scope>"))
        self.generic_visit(node)
        self.scope_stack.pop()

    visit_FunctionDef = _function
    visit_AsyncFunctionDef = _function

    def _component(self) -> str:
        if self.class_stack:
            return self.class_stack[-1]
        stem = self.path.rsplit("/", 1)[-1]
        return stem[:-3] if stem.endswith(".py") else stem

    def _src_role(self) -> str:
        for name in reversed(self.class_stack):
            role = role_for_name(name)
            if role != "dynamic":
                return role
        for name in reversed(self.scope_stack):
            role = role_for_name(name)
            if role != "dynamic":
                return role
        return role_for_name(self._component())

    # -- send side ----------------------------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
        if name in _SEND_CALLS:
            member = ""
            for arg in list(node.args) + [kw.value for kw in node.keywords]:
                member = member or _msgtype_member(arg)
            if member:
                dst_expr: Optional[ast.AST] = None
                if name in ("make_message", "make_header") and len(node.args) >= 2:
                    dst_expr = node.args[1]
                for keyword in node.keywords:
                    if keyword.arg == "dst":
                        dst_expr = keyword.value
                component = self._component()
                src_role = self._src_role()
                self.topology.components.setdefault(component, src_role)
                edge = Edge(src_role, member, _dst_role(dst_expr))
                self.topology.edges.setdefault(edge, []).append(
                    (self.path, node.lineno)
                )
        elif name in _BLOCKING_BOUND:
            self._check_bounded(node, _BLOCKING_BOUND[name])
        self.generic_visit(node)

    def _check_bounded(self, node: ast.Call, bound: str) -> None:
        for keyword in node.keywords:
            value = keyword.value
            if (
                keyword.arg == bound
                and isinstance(value, ast.Constant)
                and isinstance(value.value, int)
                and value.value > 0
            ):
                self.topology.bounded_queues.append((self.path, node.lineno))

    # -- handle side --------------------------------------------------------
    def _record_handled(self, member: str) -> None:
        role = self._src_role()
        if role != "dynamic":
            self.topology.handled.setdefault(role, set()).add(member)
            self.topology.components.setdefault(self._component(), role)

    def visit_Compare(self, node: ast.Compare) -> None:
        for operand in [node.left] + list(node.comparators):
            member = _msgtype_member(operand)
            if member:
                self._record_handled(member)
            if isinstance(operand, (ast.Tuple, ast.List, ast.Set)):
                for element in operand.elts:
                    element_member = _msgtype_member(element)
                    if element_member:
                        self._record_handled(element_member)
        self.generic_visit(node)

    def visit_Dict(self, node: ast.Dict) -> None:
        for key in node.keys:
            if key is not None:
                member = _msgtype_member(key)
                if member:
                    self._record_handled(member)
        self.generic_visit(node)


def extract_topology(sources: List[Tuple[str, ast.AST]]) -> Topology:
    """Build the communication topology from parsed ``(path, tree)`` pairs."""
    topology = Topology()
    for path, tree in sources:
        _TopologyVisitor(path, topology).visit(tree)
    return topology


def run_topology_rules(sources: List[Tuple[str, ast.AST]]) -> List[Finding]:
    """The ``orphan-destination`` and ``bounded-queue-cycle`` findings."""
    topology = extract_topology(sources)
    findings: List[Finding] = []
    for edge, sites in sorted(
        topology.edges.items(), key=lambda kv: (kv[0].src, kv[0].msg_type, kv[0].dst)
    ):
        if edge.dst not in KNOWN_ROLES:
            continue
        if edge.msg_type in EXPLICITLY_UNROUTED:
            continue
        if edge.msg_type in topology.handled.get(edge.dst, ()):
            continue
        for path, line in sites:
            findings.append(
                Finding(
                    path,
                    line,
                    Severity.ERROR,
                    ORPHAN_DESTINATION,
                    f"MsgType.{edge.msg_type} is sent to role '{edge.dst}' "
                    "which never handles it — orphan destination",
                    scope=f"{edge.src}->{edge.dst}",
                )
            )
    cycles = topology.cycles()
    if cycles and topology.bounded_queues:
        path, line = sorted(topology.bounded_queues)[0]
        rendered = "; ".join("->".join(cycle + [cycle[0]]) for cycle in cycles)
        findings.append(
            Finding(
                path,
                line,
                Severity.WARNING,
                BOUNDED_QUEUE_CYCLE,
                f"send/recv cycle ({rendered}) through a bounded queue "
                "constructed here — static deadlock risk",
                scope="<topology>",
            )
        )
    return findings


# -- artifacts ---------------------------------------------------------------

def topology_to_dict(topology: Topology) -> Dict:
    """Deterministic JSON-ready representation of the topology."""
    return {
        "components": {
            name: topology.components[name] for name in sorted(topology.components)
        },
        "edges": [
            {
                "src": edge.src,
                "type": edge.msg_type,
                "dst": edge.dst,
                "sites": sorted({path for path, _ in sites}),
            }
            for edge, sites in sorted(
                topology.edges.items(),
                key=lambda kv: (kv[0].src, kv[0].msg_type, kv[0].dst),
            )
        ],
        "handled": {
            role: sorted(types) for role, types in sorted(topology.handled.items())
        },
        "cycles": topology.cycles(),
        "bounded_queues": sorted({path for path, _ in topology.bounded_queues}),
    }


def topology_to_json(topology: Topology) -> str:
    return json.dumps(topology_to_dict(topology), indent=2, sort_keys=False) + "\n"


def topology_to_dot(topology: Topology) -> str:
    """Graphviz rendering of the role-level graph."""
    lines = [
        "// Generated by `python -m repro.analysis --emit-topology` — do not edit.",
        "digraph topology {",
        "  rankdir=LR;",
        "  node [shape=box, fontname=\"Helvetica\"];",
    ]
    roles = sorted(
        {edge.src for edge in topology.edges} | {edge.dst for edge in topology.edges}
    )
    for role in roles:
        lines.append(f'  "{role}";')
    for src, msg_type, dst in sorted(topology.role_edges()):
        lines.append(f'  "{src}" -> "{dst}" [label="{msg_type}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


# -- trace conformance -------------------------------------------------------

def observed_edges(records: Sequence) -> Set[Tuple[str, str, str]]:
    """``(src_role, TYPE, dst_role)`` triples from observed communication.

    ``records`` are :class:`repro.obs.spans.SpanRecord` objects (anything
    with ``msg_type``/``src``/``dst`` attributes): one delivered edge each,
    as the span correlator joins them from a run's hop-log records — a
    fan-out's ``sent`` does not name its destinations, their ``delivered``
    records do.  A record whose message type is unknown (its ``sent`` was
    recorded by another process) is skipped.
    """
    edges: Set[Tuple[str, str, str]] = set()
    for record in records:
        member = str(record.msg_type).rsplit(".", 1)[-1].upper()
        if member:
            edges.add(
                (role_for_name(str(record.src)), member, role_for_name(str(record.dst)))
            )
    return edges


def conformance_violations(
    records: Sequence, topology: Topology
) -> List[Tuple[str, str, str]]:
    """Observed runtime edges absent from the static topology.

    A static edge with a ``dynamic`` endpoint is a wildcard: it matches any
    observed role on that side.  Returns the sorted list of violations —
    empty means the trace conforms.
    """
    static = topology.role_edges()
    violations = []
    for src, msg_type, dst in sorted(observed_edges(records)):
        if (src, msg_type, dst) in static:
            continue
        if any(
            member == msg_type
            and (s in (src, "dynamic"))
            and (d in (dst, "dynamic"))
            for s, member, d in static
        ):
            continue
        violations.append((src, msg_type, dst))
    return violations
