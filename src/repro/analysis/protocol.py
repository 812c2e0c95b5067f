"""Message-protocol extraction: one AST walk over every ``MsgType`` site.

The routing table of this framework is implicit: a :class:`~repro.core.message.MsgType`
is *sent* wherever a literal ``MsgType.X`` is passed to ``make_message`` /
``make_header`` / ``Message(...)``, and *handled* wherever code compares a
received message's type against ``MsgType.X`` (``==``, ``!=``, ``in``),
uses it as a dispatch-dict key, matches it in a ``case``, or passes it to a
handler-registration call.  One walk records every such site together with
the component (enclosing class, else module) and framework role it sits in,
and a send site's destination role.  Both views of the protocol are built
from that one list:

* :class:`Protocol` — sends and handlers per type, for the
  ``unrouted-msgtype`` rule and the routing-table exhaustiveness test;
* :class:`repro.analysis.topology.Topology` — the role-level send graph, for
  ``orphan-destination``, the ``docs/topology.json`` artifact and trace
  conformance.

Types that are sent but deliberately have no framework-level handler are
listed in :data:`EXPLICITLY_UNROUTED`; new message types must either gain a
handler or be added there *explicitly* — they cannot silently drop.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

#: MsgType members that are sent without a framework-registered handler, on
#: purpose.  DATA is the generic payload type: benchmark workloads (e.g. the
#: dummy DRL algorithm) consume it straight off their endpoint's receive
#: buffer without a type dispatch.
EXPLICITLY_UNROUTED: Set[str] = {"DATA"}

#: Call names whose MsgType argument means "this type is being sent".
_SEND_CALLS = {"make_message", "make_header", "Message"}

#: Call names whose MsgType argument registers a handler/route.
_REGISTER_CALLS = {"register_handler", "register_route", "add_route"}

#: Explicit class → role table for the framework's component classes.
ROLE_BY_CLASS: Dict[str, str] = {
    "ExplorerProcess": "explorer",
    "LearnerProcess": "learner",
    "CenterController": "controller",
    "Controller": "controller",
}

#: Roles the framework routes to; only these can be orphaned.
KNOWN_ROLES = ("explorer", "learner", "controller")


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
    """Infer the destination role from a destination-list expression
    (``[self.learner_name]`` → ``learner``, ``list(targets)`` →
    ``explorer``, anything unrecognizable → ``dynamic``)."""
    if expr is None:
        return "dynamic"
    for node in ast.walk(expr):
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            name = node.value
        else:
            continue
        role = role_for_name(name)
        if role != "dynamic":
            return role
    return "dynamic"


@dataclass(frozen=True)
class Site:
    """One source location sending or handling a MsgType member."""

    path: str
    line: int
    member: str
    scope: str
    sends: bool  #: a send site; False for a handle site
    component: str  #: enclosing class, else the module's stem
    role: str  #: the framework role of the enclosing code
    dst: str  #: a send site's destination role (``dynamic`` for a handle)


def _by_member(sites: List[Site]) -> Dict[str, List[Site]]:
    grouped: Dict[str, List[Site]] = {}
    for site in sites:
        grouped.setdefault(site.member, []).append(site)
    return grouped


@dataclass
class Protocol:
    """Every send and handle site (in source order), plus the member list."""

    members: List[str] = field(default_factory=list)
    sites: List[Site] = field(default_factory=list)

    @property
    def sends(self) -> Dict[str, List[Site]]:
        return _by_member([site for site in self.sites if site.sends])

    @property
    def handlers(self) -> Dict[str, List[Site]]:
        return _by_member([site for site in self.sites if not site.sends])

    def under(self, prefix: str) -> "Protocol":
        """The sites in files whose path starts with ``prefix``."""
        return Protocol(
            self.members, [site for site in self.sites if site.path.startswith(prefix)]
        )

    def unrouted_sends(self, ignored: Set[str] = frozenset()) -> List[Site]:
        """Send sites whose type has no handler and is not explicitly ignored."""
        ignored = set(ignored) | EXPLICITLY_UNROUTED
        handled = self.handlers
        sites: List[Site] = []
        for member, send_sites in sorted(self.sends.items()):
            if member not in handled and member not in ignored:
                sites.extend(send_sites)
        return sites


def _msgtype_member(node: object) -> str:
    """``'X'`` when ``node`` is the attribute access ``MsgType.X``, else ``''``."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "MsgType"
    ):
        return node.attr
    return ""


class _SiteVisitor(ast.NodeVisitor):
    def __init__(self, path: str):
        self.path = path
        stem = path.rsplit("/", 1)[-1]
        self.module = stem[:-3] if stem.endswith(".py") else stem
        self.scopes: List[str] = []
        self.classes: List[str] = []
        self.sites: List[Site] = []
        self.members: List[str] = []

    # -- scopes -------------------------------------------------------------
    def _scoped(self, node: ast.AST) -> None:
        self.scopes.append(getattr(node, "name", "<scope>"))
        self.generic_visit(node)
        self.scopes.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = _scoped

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        if node.name == "MsgType":
            for statement in node.body:
                if (
                    isinstance(statement, ast.Assign)
                    and len(statement.targets) == 1
                    and isinstance(statement.targets[0], ast.Name)
                ):
                    self.members.append(statement.targets[0].id)
        self.classes.append(node.name)
        self._scoped(node)
        self.classes.pop()

    def _role(self) -> str:
        """The innermost class, else scope, else module naming a role."""
        for name in reversed(self.classes):
            role = role_for_name(name)
            if role != "dynamic":
                return role
        for name in reversed(self.scopes):
            role = role_for_name(name)
            if role != "dynamic":
                return role
        return role_for_name(self.module)

    def _record(self, node: ast.AST, sends: bool, dst: str = "dynamic") -> None:
        member = _msgtype_member(node)
        if member:
            self.sites.append(
                Site(
                    path=self.path,
                    line=getattr(node, "lineno", 0),
                    member=member,
                    scope=".".join(self.scopes),
                    sends=sends,
                    component=self.classes[-1] if self.classes else self.module,
                    role=self._role(),
                    dst=dst,
                )
            )

    # -- send side (and handler registration) -------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
        if name in _SEND_CALLS or name in _REGISTER_CALLS:
            dst_expr: Optional[ast.AST] = None
            if name in ("make_message", "make_header") and len(node.args) >= 2:
                dst_expr = node.args[1]
            for keyword in node.keywords:
                if keyword.arg == "dst":
                    dst_expr = keyword.value
            dst = _dst_role(dst_expr)
            for arg in list(node.args) + [kw.value for kw in node.keywords]:
                self._record(arg, name in _SEND_CALLS, dst)
        self.generic_visit(node)

    # -- handle side ---------------------------------------------------------
    def visit_Compare(self, node: ast.Compare) -> None:
        for operand in [node.left] + list(node.comparators):
            self._record(operand, sends=False)
            # membership tests: ``msg_type in (MsgType.A, MsgType.B)``
            if isinstance(operand, (ast.Tuple, ast.List, ast.Set)):
                for element in operand.elts:
                    self._record(element, sends=False)
        self.generic_visit(node)

    def visit_Dict(self, node: ast.Dict) -> None:
        # Dispatch tables: ``{MsgType.X: handle_x, ...}``
        for key in node.keys:
            if key is not None:
                self._record(key, sends=False)
        self.generic_visit(node)

    def visit_MatchValue(self, node: ast.AST) -> None:
        self._record(getattr(node, "value", node), sends=False)
        self.generic_visit(node)


def extract_from_sources(sources: List[Tuple[str, ast.AST]]) -> Protocol:
    """Walk already-parsed ``(path, tree)`` pairs once for every MsgType site."""
    protocol = Protocol()
    for path, tree in sources:
        visitor = _SiteVisitor(path)
        visitor.visit(tree)
        protocol.members.extend(
            member for member in visitor.members if member not in protocol.members
        )
        protocol.sites.extend(visitor.sites)
    return protocol


def extract_protocol(root: str) -> Protocol:
    """Parse every ``.py`` under ``root`` and extract the protocol table."""
    from .engine import parse_tree_reporting_errors  # avoids an import cycle

    return extract_from_sources(parse_tree_reporting_errors(root)[0])
