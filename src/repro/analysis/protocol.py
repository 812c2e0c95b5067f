"""Message-protocol extraction.

The routing table of this framework is implicit: a :class:`~repro.core.message.MsgType`
is *sent* wherever a literal ``MsgType.X`` is passed to ``make_message`` /
``make_header`` / ``Message(...)``, and *handled* wherever code compares a
received message's type against ``MsgType.X`` (``==``, ``!=``, ``in``),
uses it as a dispatch-dict key, or passes it to a handler-registration
call.  This module recovers both sides of that table from the AST, so the
``unrouted-msgtype`` lint rule and the routing-table exhaustiveness test
can cross-check them without importing (or running) the framework.

Types that are sent but deliberately have no framework-level handler are
listed in :data:`EXPLICITLY_UNROUTED`; new message types must either gain a
handler or be added there *explicitly* — they cannot silently drop.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Set, Tuple

#: MsgType members that are sent without a framework-registered handler, on
#: purpose.  DATA is the generic payload type: benchmark workloads (e.g. the
#: dummy DRL algorithm) consume it straight off their endpoint's receive
#: buffer without a type dispatch.
EXPLICITLY_UNROUTED: Set[str] = {"DATA"}

#: Call names whose MsgType argument means "this type is being sent".
_SEND_CALLS = {"make_message", "make_header", "Message"}

#: Call names whose MsgType argument registers a handler/route.
_REGISTER_CALLS = {"register_handler", "register_route", "add_route"}


@dataclass(frozen=True)
class Site:
    """One source location referencing a MsgType member."""

    path: str
    line: int
    member: str
    scope: str = ""


@dataclass
class Protocol:
    """Send/handle sides of the message protocol, plus the member list."""

    members: List[str] = field(default_factory=list)
    sends: Dict[str, List[Site]] = field(default_factory=dict)
    handlers: Dict[str, List[Site]] = field(default_factory=dict)

    def sent_types(self) -> Set[str]:
        return set(self.sends)

    def handled_types(self) -> Set[str]:
        return set(self.handlers)

    def unrouted_sends(self, ignored: Set[str] = frozenset()) -> List[Site]:
        """Send sites whose type has no handler and is not explicitly ignored."""
        ignored = set(ignored) | EXPLICITLY_UNROUTED
        sites: List[Site] = []
        for member, send_sites in sorted(self.sends.items()):
            if member in self.handlers or member in ignored:
                continue
            sites.extend(send_sites)
        return sites

    def unhandled_members(self, ignored: Set[str] = frozenset()) -> List[str]:
        """MsgType members with neither a handler nor an explicit-ignore entry."""
        ignored = set(ignored) | EXPLICITLY_UNROUTED
        return [
            member
            for member in self.members
            if member not in self.handlers and member not in ignored
        ]


def _msgtype_member(node: ast.AST) -> str:
    """``'X'`` when ``node`` is the attribute access ``MsgType.X``, else ``''``."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "MsgType"
    ):
        return node.attr
    return ""


class _ProtocolVisitor(ast.NodeVisitor):
    def __init__(self, path: str):
        self.path = path
        self.scope_stack: List[str] = []
        self.sends: List[Site] = []
        self.handlers: List[Site] = []
        self.members: List[str] = []
        #: MsgType.X nodes already claimed by a send/handle pattern, by id()
        self._claimed: Set[int] = set()

    # -- scopes -------------------------------------------------------------
    def _scoped(self, node: ast.AST) -> None:
        self.scope_stack.append(getattr(node, "name", "<scope>"))
        self.generic_visit(node)
        self.scope_stack.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._scoped(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._scoped(node)

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        if node.name == "MsgType":
            for statement in node.body:
                if (
                    isinstance(statement, ast.Assign)
                    and len(statement.targets) == 1
                    and isinstance(statement.targets[0], ast.Name)
                ):
                    self.members.append(statement.targets[0].id)
        self._scoped(node)

    def _site(self, node: ast.AST, member: str) -> Site:
        return Site(self.path, getattr(node, "lineno", 0), member, ".".join(self.scope_stack))

    # -- send side ----------------------------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
        bucket = None
        if name in _SEND_CALLS:
            bucket = self.sends
        elif name in _REGISTER_CALLS:
            bucket = self.handlers
        if bucket is not None:
            for arg in list(node.args) + [kw.value for kw in node.keywords]:
                member = _msgtype_member(arg)
                if member:
                    bucket.append(self._site(arg, member))
                    self._claimed.add(id(arg))
        self.generic_visit(node)

    # -- handle side ---------------------------------------------------------
    def visit_Compare(self, node: ast.Compare) -> None:
        for operand in [node.left] + list(node.comparators):
            member = _msgtype_member(operand)
            if member:
                self.handlers.append(self._site(operand, member))
                self._claimed.add(id(operand))
            # membership tests: ``msg_type in (MsgType.A, MsgType.B)``
            if isinstance(operand, (ast.Tuple, ast.List, ast.Set)):
                for element in operand.elts:
                    element_member = _msgtype_member(element)
                    if element_member:
                        self.handlers.append(self._site(element, element_member))
                        self._claimed.add(id(element))
        self.generic_visit(node)

    def visit_Dict(self, node: ast.Dict) -> None:
        # Dispatch tables: ``{MsgType.X: handle_x, ...}``
        for key in node.keys:
            if key is None:
                continue
            member = _msgtype_member(key)
            if member:
                self.handlers.append(self._site(key, member))
                self._claimed.add(id(key))
        self.generic_visit(node)

    def visit_MatchValue(self, node: ast.AST) -> None:
        member = _msgtype_member(getattr(node, "value", None))
        if member:
            self.handlers.append(self._site(node, member))
        self.generic_visit(node)


def extract_from_sources(sources: List[Tuple[str, ast.AST]]) -> Protocol:
    """Build the protocol table from already-parsed ``(path, tree)`` pairs."""
    protocol = Protocol()
    for path, tree in sources:
        visitor = _ProtocolVisitor(path)
        visitor.visit(tree)
        protocol.members.extend(
            member for member in visitor.members if member not in protocol.members
        )
        for site in visitor.sends:
            protocol.sends.setdefault(site.member, []).append(site)
        for site in visitor.handlers:
            protocol.handlers.setdefault(site.member, []).append(site)
    return protocol


def extract_protocol(root: str) -> Protocol:
    """Parse every ``.py`` under ``root`` and extract the protocol table."""
    from .engine import parse_tree  # local import to avoid a cycle

    return extract_from_sources(parse_tree(root))
