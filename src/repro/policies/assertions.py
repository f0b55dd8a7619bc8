"""Whole-system policy assertions for the asbcheck model checker.

A policy is a declarative claim about every reachable label state of a
:class:`~repro.analysis.model.Topology`; asbcheck either proves it or
returns a shortest counterexample trace.  Four kinds, mirroring the
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

JSON encoding: ``{"kind": "isolation", "process": "netd", "handle":
"uT:alice", "max_level": "2"}`` and analogously for the other kinds;
:func:`policy_from_json` / :func:`policy_to_json` round-trip them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fnmatch import fnmatchcase
from typing import Any, Dict, Iterable, List, Mapping, Sequence, Tuple, Union

from repro.core.levels import L2, Level, level_name, parse_level


def matches(pattern: str, name: str) -> bool:
    """Process-name matching: exact or fnmatch glob."""
    return pattern == name or fnmatchcase(name, pattern)


@dataclass(frozen=True)
class Isolation:
    """*handle* stays at or below *max_level* in every matching process's
    send label and every effective send label it can produce."""

    process: str
    handle: str
    max_level: Level = L2

    kind = "isolation"

    def describe(self) -> str:
        return (
            f"isolation: {self.handle} never above "
            f"{level_name(self.max_level)} in {self.process}"
        )


@dataclass(frozen=True)
class MandatoryDeclassifier:
    """Without declassifier edges, nothing delivers *handle* above
    *max_level* into a process matching *sink*."""

    handle: str
    sink: str
    max_level: Level = L2

    kind = "mandatory-declassifier"

    def describe(self) -> str:
        return (
            f"mandatory-declassifier: {self.handle} above "
            f"{level_name(self.max_level)} reaches {self.sink} only via "
            "declassifier edges"
        )


@dataclass(frozen=True)
class CapabilityConfinement:
    """Only processes matching one of *allowed* ever hold ⋆ for *handle*."""

    handle: str
    allowed: Tuple[str, ...]

    kind = "capability-confinement"

    def describe(self) -> str:
        return (
            f"capability-confinement: * for {self.handle} held only by "
            f"{', '.join(self.allowed)}"
        )

    def permits(self, process: str) -> bool:
        return any(matches(pattern, process) for pattern in self.allowed)


@dataclass(frozen=True)
class DeadEdges:
    """Every listed edge (name patterns; empty = all edges) delivers in
    some reachable state."""

    edges: Tuple[str, ...] = ()

    kind = "dead-edge"

    def describe(self) -> str:
        scope = ", ".join(self.edges) if self.edges else "all edges"
        return f"dead-edge: {scope} must be deliverable"

    def covers(self, edge_name: str) -> bool:
        if not self.edges:
            return True
        return any(matches(pattern, edge_name) for pattern in self.edges)


Policy = Union[Isolation, MandatoryDeclassifier, CapabilityConfinement, DeadEdges]

def policy_from_json(obj: Mapping[str, Any]) -> Policy:
    kind = obj.get("kind")
    if kind == "isolation":
        return Isolation(
            process=str(obj["process"]),
            handle=str(obj["handle"]),
            max_level=parse_level(obj.get("max_level", 2)),
        )
    if kind == "mandatory-declassifier":
        return MandatoryDeclassifier(
            handle=str(obj["handle"]),
            sink=str(obj["sink"]),
            max_level=parse_level(obj.get("max_level", 2)),
        )
    if kind == "capability-confinement":
        allowed = obj.get("allowed") or []
        if isinstance(allowed, str):
            allowed = [allowed]
        return CapabilityConfinement(
            handle=str(obj["handle"]), allowed=tuple(str(a) for a in allowed)
        )
    if kind == "dead-edge":
        edges = obj.get("edges") or []
        if isinstance(edges, str):
            edges = [edges]
        return DeadEdges(edges=tuple(str(e) for e in edges))
    raise ValueError(f"unknown policy kind: {kind!r}")


def policies_from_json(items: Iterable[Mapping[str, Any]]) -> List[Policy]:
    return [policy_from_json(item) for item in items]


def policy_to_json(policy: Policy) -> Dict[str, Any]:
    if isinstance(policy, Isolation):
        return {
            "kind": policy.kind,
            "process": policy.process,
            "handle": policy.handle,
            "max_level": level_name(policy.max_level),
        }
    if isinstance(policy, MandatoryDeclassifier):
        return {
            "kind": policy.kind,
            "handle": policy.handle,
            "sink": policy.sink,
            "max_level": level_name(policy.max_level),
        }
    if isinstance(policy, CapabilityConfinement):
        return {
            "kind": policy.kind,
            "handle": policy.handle,
            "allowed": list(policy.allowed),
        }
    if isinstance(policy, DeadEdges):
        return {"kind": policy.kind, "edges": list(policy.edges)}
    raise TypeError(f"not a policy: {policy!r}")


def watched_handles(policies: Sequence[Policy], topology: Any) -> List[int]:
    """The concrete handles any policy constrains.  The explorer's
    eager-closure reduction may collapse label changes only at handles
    *outside* this set (see ``repro.analysis.check``).

    *topology* is duck-typed: anything with a ``handles`` name→handle
    mapping works.  (Depending on the concrete
    :class:`repro.analysis.model.Topology` here would make the policy
    layer import the analysis layer — the import cycle PR 6 papered over
    with a lazy re-export hack.)"""
    out = set()
    for policy in policies:
        name = getattr(policy, "handle", None)
        if name is not None:
            handle = topology.handles.get(name)
            if handle is not None:
                out.add(handle)
    return sorted(out)
