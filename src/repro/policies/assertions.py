"""Whole-system policy assertions, and the one definition of a breach.

A policy is a declarative claim about every reachable label state of a
:class:`~repro.analysis.model.Topology`.  Four kinds, mirroring the
paper's security argument for OKWS (Section 7):

- :class:`Isolation` — *handle confinement of taint*: the named handle
  never appears above ``max_level`` in the process's send label or in the
  effective send label of any of its edges.  "bob's worker never carries
  ``uT:alice`` at 3" is the paper's per-user isolation claim.
- :class:`MandatoryDeclassifier` — with every ``declassifier`` edge
  removed from the topology, no delivered message carries the handle
  above ``max_level`` into the sink: every such flow must pass through a
  declassifier (Section 7.6).
- :class:`CapabilityConfinement` — only the allowed processes ever hold
  ``⋆`` for the handle: privilege (the admin handle, a worker's
  verification handle) cannot escape its intended holders.
- :class:`DeadEdges` — the listed edges (default: all) must deliver in
  some reachable state; an edge whose Figure 4 check can never pass is
  wiring that silently drops forever (the whole-system ASB001).

Process fields accept :mod:`fnmatch` patterns (``worker-*``), so one
assertion covers a family of event processes.

Each kind judges its own cases.  :meth:`resolve` binds a policy to one
topology once — its handle, the processes (or edges) its patterns match
— as a :class:`Scope`, or explains why it names nothing it can resolve,
which is a breach by itself.  Then one predicate per clause answers a
breach message or ``None``:

- ``label(scope, process, label)`` — a process's send label;
- ``emission(scope, process, edge, es)`` — an effective send label;
- ``delivery(scope, edge, receiver, es)`` — a delivery into a sink;
- ``liveness(scope, dead)`` — the edges that never delivered.

A kind without a clause has it as ``None``.  asbcheck
(:mod:`repro.analysis.check`) shows the predicates explored states and
edges, asbsched (:mod:`repro.analysis.sched`) live kernel events; both
get back a :class:`Breach`, so the two can disagree about which states
they reached, never about what a breach is.

JSON encoding: ``{"kind": "isolation", "process": "netd", "handle":
"uT:alice", "max_level": "2"}`` — the kind, then the dataclass fields in
order; :func:`policy_from_json` / :func:`policy_to_json` round-trip them.
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, field, fields
from fnmatch import fnmatchcase
from typing import (
    Any,
    Callable,
    ClassVar,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Mapping,
    Optional,
    Tuple,
    Union,
)

from repro.core.levels import L2, STAR, Level, level_name, parse_level

#: A label as the predicates read it: handle → level when called (a
#: :class:`~repro.core.chunks.ChunkedLabel`, a ``Label``, or a join).
LiveLabel = Callable[[int], Level]

#: A tuple of names or name patterns (JSON: a list, or one bare string).
Names = Tuple[str, ...]


def matches(pattern: str, name: str) -> bool:
    """Process-name matching: exact or fnmatch glob."""
    return pattern == name or fnmatchcase(name, pattern)


def _names(value: Any) -> Names:
    if isinstance(value, str):
        return (value,)
    return tuple(str(item) for item in value or ())


#: Field codecs by annotation: (from JSON, to JSON).
_CODECS: Dict[str, Tuple[Callable[[Any], Any], Callable[[Any], Any]]] = {
    "str": (str, str),
    "Level": (parse_level, level_name),
    "Names": (_names, list),
}


@dataclass(frozen=True)
class Scope:
    """One policy resolved against one topology."""

    handle: Optional[int] = None
    #: The processes its clauses cover (edges, for :class:`DeadEdges`).
    names: FrozenSet[str] = frozenset()
    #: Why the policy names nothing it can resolve; a breach by itself.
    problem: Optional[str] = None


@dataclass
class Breach:
    """One policy failure, as either checker found it."""

    kind: str              # the policy kind ("isolation", ...)
    policy: str            # the policy's describe()
    message: str
    process: str = ""      # the process whose state breached (or the sink)
    handle: str = ""       # the policy's symbolic handle ("" for dead-edge)
    edge: str = ""         # the edge the breach travelled, when it has one
    step: int = -1         # asbsched: the scheduler step (-1: terminal)
    trace: List[Any] = field(default_factory=list)  # asbcheck: counterexample

    def to_json(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "policy": self.policy,
            "process": self.process,
            "handle": self.handle,
            "edge": self.edge,
            "step": self.step,
            "message": self.message,
        }


def _scope(topology: Any, handle: str, names: Iterable[str], pattern: str = "") -> Scope:
    """A handle-bound scope over *names*; an empty match of a process
    *pattern* resolves to nothing.  *topology* is duck-typed (``handles``,
    ``processes``, ``edges``) so this layer does not import the analysis
    layer."""
    resolved = topology.handles.get(handle)
    if resolved is None:
        return Scope(problem=f"unknown handle {handle!r} in policy")
    names = frozenset(names)
    if pattern and not names:
        return Scope(problem=f"policy matches no process: {pattern!r}")
    return Scope(resolved, names)


def _over(policy: Any, label: LiveLabel, scope: Scope) -> Optional[str]:
    """``"<handle> at <level> (> <bound>)"`` when *label* carries the
    scope's handle above *policy*'s ``max_level``, else ``None``."""
    level = label(scope.handle)
    if level > policy.max_level:
        return f"{policy.handle} at {level_name(level)} (> {level_name(policy.max_level)})"
    return None


class _Kind:
    """What every policy kind owns besides its fields."""

    kind: ClassVar[str]
    #: The SARIF rule summary.
    summary: ClassVar[str]

    #: The clause predicates; a kind without a clause leaves it None.
    label: Any = None
    emission: Any = None
    delivery: Any = None
    liveness: Any = None

    def describe(self) -> str:
        raise NotImplementedError

    def resolve(self, topology: Any) -> Scope:
        raise NotImplementedError

    def breach(self, message: str, **where: Any) -> Breach:
        return Breach(
            self.kind,
            self.describe(),
            message,
            handle=getattr(self, "handle", ""),
            **where,
        )

    def to_json(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {"kind": self.kind}
        for f in fields(self):  # type: ignore[arg-type]
            out[f.name] = _CODECS[f.type][1](getattr(self, f.name))
        return out

    @classmethod
    def from_json(cls, obj: Mapping[str, Any]) -> "Policy":
        kw: Dict[str, Any] = {}
        for f in fields(cls):  # type: ignore[arg-type]
            if f.name in obj:
                kw[f.name] = _CODECS[f.type][0](obj[f.name])
            elif f.default is MISSING:
                raise KeyError(f.name)
        return cls(**kw)  # type: ignore[return-value]


@dataclass(frozen=True)
class Isolation(_Kind):
    """*handle* stays at or below *max_level* in every matching process's
    send label and every effective send label it can produce."""

    process: str
    handle: str
    max_level: Level = L2

    kind = "isolation"
    summary = (
        "a watched handle never appears above its bound in the process's "
        "send label or any effective send label it can produce"
    )

    def describe(self) -> str:
        return (
            f"isolation: {self.handle} never above "
            f"{level_name(self.max_level)} in {self.process}"
        )

    def resolve(self, topology: Any) -> Scope:
        procs = [p for p in topology.processes if matches(self.process, p)]
        return _scope(topology, self.handle, procs, self.process)

    def label(self, scope: Scope, process: str, label: LiveLabel) -> Optional[str]:
        if process in scope.names and (over := _over(self, label, scope)):
            return f"{process} carries {over} in its send label"
        return None

    def emission(
        self, scope: Scope, process: str, edge: str, es: LiveLabel
    ) -> Optional[str]:
        if process in scope.names and (over := _over(self, es, scope)):
            return (
                f"{process} can emit {over} in the effective send label of "
                f"edge {edge!r}"
            )
        return None


@dataclass(frozen=True)
class MandatoryDeclassifier(_Kind):
    """Without declassifier edges, nothing delivers *handle* above
    *max_level* into a process matching *sink*."""

    handle: str
    sink: str
    max_level: Level = L2

    kind = "mandatory-declassifier"
    summary = (
        "with declassifier edges removed, nothing delivers the handle "
        "above its bound into the sink"
    )

    def describe(self) -> str:
        return (
            f"mandatory-declassifier: {self.handle} above "
            f"{level_name(self.max_level)} reaches {self.sink} only via "
            "declassifier edges"
        )

    def resolve(self, topology: Any) -> Scope:
        sinks = [p for p in topology.processes if matches(self.sink, p)]
        return _scope(topology, self.handle, sinks, self.sink)

    def delivery(
        self, scope: Scope, edge: str, receiver: str, es: LiveLabel
    ) -> Optional[str]:
        """A delivery that travelled no declassifier edge."""
        if receiver in scope.names and (over := _over(self, es, scope)):
            return (
                f"edge {edge!r} delivers {over} into {receiver} without "
                "passing a declassifier"
            )
        return None


@dataclass(frozen=True)
class CapabilityConfinement(_Kind):
    """Only processes matching one of *allowed* ever hold ⋆ for *handle*."""

    handle: str
    allowed: Names = ()

    kind = "capability-confinement"
    summary = "only the allowed processes ever hold * for the handle"

    def describe(self) -> str:
        return (
            f"capability-confinement: * for {self.handle} held only by "
            f"{', '.join(self.allowed)}"
        )

    def permits(self, process: str) -> bool:
        return any(matches(pattern, process) for pattern in self.allowed)

    def resolve(self, topology: Any) -> Scope:
        outsiders = [p for p in topology.processes if not self.permits(p)]
        return _scope(topology, self.handle, outsiders)

    def label(self, scope: Scope, process: str, label: LiveLabel) -> Optional[str]:
        if process in scope.names and label(scope.handle) == STAR:
            return (
                f"{process} holds * for {self.handle} but is not in the "
                f"allowed set ({', '.join(self.allowed)})"
            )
        return None


@dataclass(frozen=True)
class DeadEdges(_Kind):
    """Every listed edge (name patterns; empty = all edges) delivers in
    some reachable state."""

    edges: Names = ()

    kind = "dead-edge"
    summary = "the listed edges must deliver in some reachable state"

    def describe(self) -> str:
        scope = ", ".join(self.edges) if self.edges else "all edges"
        return f"dead-edge: {scope} must be deliverable"

    def covers(self, edge_name: str) -> bool:
        if not self.edges:
            return True
        return any(matches(pattern, edge_name) for pattern in self.edges)

    def resolve(self, topology: Any) -> Scope:
        return Scope(names=frozenset(e.name for e in topology.edges if self.covers(e.name)))

    def liveness(self, scope: Scope, dead: Mapping[str, str]) -> Optional[str]:
        """*dead* maps each edge that never delivered to why."""
        found = [f"{edge} ({why})" for edge, why in dead.items() if edge in scope.names]
        if found:
            return "edges can never deliver: " + "; ".join(found)
        return None


Policy = Union[Isolation, MandatoryDeclassifier, CapabilityConfinement, DeadEdges]

#: Every kind by its JSON name, in SARIF rule-catalogue order.
KINDS: Dict[str, Any] = {
    k.kind: k
    for k in (Isolation, MandatoryDeclassifier, CapabilityConfinement, DeadEdges)
}


def policy_from_json(obj: Mapping[str, Any]) -> Policy:
    if not isinstance(obj, Mapping):
        raise ValueError(f"a policy is a JSON object, not {obj!r}")
    kind = obj.get("kind")
    if kind not in KINDS:
        raise ValueError(f"unknown policy kind: {kind!r}")
    return KINDS[kind].from_json(obj)


def policies_from_json(items: Iterable[Mapping[str, Any]]) -> List[Policy]:
    return [policy_from_json(item) for item in items]


def policy_to_json(policy: Policy) -> Dict[str, Any]:
    if not isinstance(policy, _Kind):
        raise TypeError(f"not a policy: {policy!r}")
    return policy.to_json()
