"""Declarative system topologies for the asbcheck model checker.

A :class:`Topology` is the whole-system counterpart of a single program's
syscall stream: the processes (and event processes) with their initial
send/receive labels, the ports with their port labels, and the *send
edges* — every (sender, port, cs/ds/v/dr) combination the system's code
can emit.  asbcheck (:mod:`repro.analysis.check`) explores the label
states reachable by firing these edges under the verbatim Figure 4 rules.

Handles are symbolic: a topology names its compartments (``uT:alice``,
``admin``, ``verify:notes``) and the JSON encoding uses those names
everywhere, so fixture files read like the paper's examples.  Internally
every name is bound to a concrete 61-bit handle value and labels are
ordinary :class:`~repro.core.labels.Label` objects.

JSON encoding (``topology/v1``)::

    {
      "version": 1,
      "name": "leaky-site",
      "processes": {"worker_u": {"send": {"entries": {"uT:u": "3"}, "default": "1"},
                                 "receive": {"default": "2"}}},
      "ports":     {"inbox": {"owner": "relay",
                              "label": {"entries": {"inbox": "0"}, "default": "3"}}},
      "edges":     [{"name": "w->relay", "sender": "worker_u", "port": "inbox",
                     "cs": {...}, "ds": {...}, "v": {...}, "dr": {...},
                     "declassifier": false}],
      "policies":  [ ... see repro.policies.assertions ... ]
    }

Level spellings are the paper's: ``"*"``, ``"0"`` … ``"3"`` (integers are
accepted too, with ``-1`` for ⋆).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Tuple, Union

from repro.core import labelops
from repro.core.chunks import ChunkedLabel, OpStats
from repro.core.handles import Handle
from repro.core.labels import (
    DEFAULT_CONTAMINATION,
    DEFAULT_DECONTAMINATE_RECEIVE,
    DEFAULT_DECONTAMINATE_SEND,
    DEFAULT_VERIFY,
    Label,
)
from repro.core.levels import L0, L3, Level, level_name, parse_level

__all__ = [
    "EdgeSpec",
    "LabelStore",
    "PortSpec",
    "ProcSpec",
    "Topology",
    "TopologyError",
    "from_json",
    "load",
    "loads",
]

#: Where auto-minted symbolic handles start; far above the tiny literals
#: examples use, far below the 61-bit ceiling.
_AUTO_HANDLE_BASE = 0x1000


@dataclass
class ProcSpec:
    """One model process (or event process) and its initial labels."""

    name: str
    send: Label
    receive: Label
    #: Free-form annotations (e.g. ``{"user": "alice"}`` on OKWS event
    #: processes) used when choosing policies, never by the checker core.
    meta: Dict[str, Any] = field(default_factory=dict)


@dataclass
class PortSpec:
    """One port: its owner process, its port label, its own handle."""

    name: str
    owner: str
    label: Label
    handle: Handle
    #: A *forking* port (an event-process base port, Section 6): each
    #: delivery lands on a fresh event process, so the check runs against
    #: the owner's labels but the effects never touch them.
    fork: bool = False


@dataclass
class EdgeSpec:
    """One send the system's code can emit: sender → port, with the
    discretionary labels the ``Send`` carries."""

    name: str
    sender: str
    port: str
    cs: Label = DEFAULT_CONTAMINATION
    ds: Label = DEFAULT_DECONTAMINATE_SEND
    v: Label = DEFAULT_VERIFY
    dr: Label = DEFAULT_DECONTAMINATE_RECEIVE
    #: Marked declassifier edges are removed when checking
    #: mandatory-declassifier policies (Section 7.6).
    declassifier: bool = False
    #: Qualified name of the program that emits this send, when known —
    #: the join point with asblint's per-program findings.
    via: str = ""


class TopologyError(ValueError):
    """A malformed topology (unknown process/port, bad level, ...)."""


class Topology:
    """The declarative model asbcheck explores.  Build programmatically
    with :meth:`add_process` / :meth:`add_port` / :meth:`add_edge`, or
    load from JSON with :func:`loads`."""

    def __init__(self, name: str = "system"):
        self.name = name
        self.processes: Dict[str, ProcSpec] = {}
        self.ports: Dict[str, PortSpec] = {}
        self.edges: List[EdgeSpec] = []
        self.handles: Dict[str, Handle] = {}
        self._names: Dict[Handle, str] = {}
        #: Policy documents carried alongside the model (JSON objects as
        #: understood by :mod:`repro.policies.assertions`).
        self.policies: List[Dict[str, Any]] = []
        self._next_handle = _AUTO_HANDLE_BASE

    # -- symbolic handles ---------------------------------------------------

    def handle(self, name: str, value: Optional[Handle] = None) -> Handle:
        """The handle bound to *name*, minting a fresh one on first use."""
        existing = self.handles.get(name)
        if existing is not None:
            if value is not None and value != existing:
                raise TopologyError(f"handle {name!r} already bound to {existing:#x}")
            return existing
        if value is None:
            value = self._next_handle
            self._next_handle += 1
        self.handles[name] = value
        self._names[value] = name
        return value

    def handle_name(self, handle: Handle) -> str:
        return self._names.get(handle, f"h{handle:x}")

    def label(
        self,
        entries: Optional[Mapping[Union[str, Handle], Union[str, int]]] = None,
        default: Union[str, int] = 1,
    ) -> Label:
        """Build a label from symbolic entries: ``{"uT:u": "3"}``."""
        resolved: Dict[Handle, Level] = {}
        for key, level in (entries or {}).items():
            handle = self.handle(key) if isinstance(key, str) else key
            resolved[handle] = parse_level(level)
        return Label(resolved, parse_level(default))

    # -- construction -------------------------------------------------------

    def add_process(
        self,
        name: str,
        send: Optional[Label] = None,
        receive: Optional[Label] = None,
        meta: Optional[Dict[str, Any]] = None,
    ) -> ProcSpec:
        if name in self.processes:
            raise TopologyError(f"duplicate process {name!r}")
        spec = ProcSpec(
            name=name,
            send=send if send is not None else Label.send_default(),
            receive=receive if receive is not None else Label.receive_default(),
            meta=dict(meta or {}),
        )
        self.processes[name] = spec
        return spec

    def add_port(
        self,
        name: str,
        owner: str,
        label: Optional[Label] = None,
        fork: bool = False,
    ) -> PortSpec:
        if name in self.ports:
            raise TopologyError(f"duplicate port {name!r}")
        handle = self.handle(name)
        if label is None:
            # new_port's default: pR ← {3}, then pR(p) ← 0 (Figure 4).
            label = Label({handle: L0}, L3)
        spec = PortSpec(name=name, owner=owner, label=label, handle=handle, fork=fork)
        self.ports[name] = spec
        return spec

    def add_edge(
        self,
        sender: str,
        port: str,
        cs: Optional[Label] = None,
        ds: Optional[Label] = None,
        v: Optional[Label] = None,
        dr: Optional[Label] = None,
        declassifier: bool = False,
        name: Optional[str] = None,
        via: str = "",
    ) -> EdgeSpec:
        if name is None:
            name = f"{sender}->{port}#{len(self.edges)}"
        edge = EdgeSpec(
            name=name,
            sender=sender,
            port=port,
            cs=cs if cs is not None else DEFAULT_CONTAMINATION,
            ds=ds if ds is not None else DEFAULT_DECONTAMINATE_SEND,
            v=v if v is not None else DEFAULT_VERIFY,
            dr=dr if dr is not None else DEFAULT_DECONTAMINATE_RECEIVE,
            declassifier=declassifier,
            via=via,
        )
        self.edges.append(edge)
        return edge

    # -- validation ---------------------------------------------------------

    def validate(self) -> List[str]:
        """Structural problems, empty when the topology is well-formed."""
        problems: List[str] = []
        names = set()
        for port in self.ports.values():
            if port.owner not in self.processes:
                problems.append(f"port {port.name!r}: unknown owner {port.owner!r}")
        for edge in self.edges:
            if edge.name in names:
                problems.append(f"duplicate edge name {edge.name!r}")
            names.add(edge.name)
            if edge.sender not in self.processes:
                problems.append(f"edge {edge.name!r}: unknown sender {edge.sender!r}")
            if edge.port not in self.ports:
                problems.append(f"edge {edge.name!r}: unknown port {edge.port!r}")
        return problems

    def format_label(self, label: Label) -> str:
        return label.format(self._names)

    # -- JSON ---------------------------------------------------------------

    def _label_to_json(self, label: Label) -> Dict[str, Any]:
        return {
            "entries": {
                self.handle_name(h): level_name(lvl) for h, lvl in label.entries()
            },
            "default": level_name(label.default),
        }

    def to_json(self) -> Dict[str, Any]:
        doc: Dict[str, Any] = {
            "version": 1,
            "name": self.name,
            "processes": {},
            "ports": {},
            "edges": [],
        }
        for proc in self.processes.values():
            entry: Dict[str, Any] = {
                "send": self._label_to_json(proc.send),
                "receive": self._label_to_json(proc.receive),
            }
            if proc.meta:
                entry["meta"] = proc.meta
            doc["processes"][proc.name] = entry
        for port in self.ports.values():
            entry = {"owner": port.owner, "label": self._label_to_json(port.label)}
            if port.fork:
                entry["fork"] = True
            doc["ports"][port.name] = entry
        for edge in self.edges:
            item: Dict[str, Any] = {
                "name": edge.name,
                "sender": edge.sender,
                "port": edge.port,
            }
            for key, label, default in (
                ("cs", edge.cs, DEFAULT_CONTAMINATION),
                ("ds", edge.ds, DEFAULT_DECONTAMINATE_SEND),
                ("v", edge.v, DEFAULT_VERIFY),
                ("dr", edge.dr, DEFAULT_DECONTAMINATE_RECEIVE),
            ):
                if label != default:
                    item[key] = self._label_to_json(label)
            if edge.declassifier:
                item["declassifier"] = True
            if edge.via:
                item["via"] = edge.via
            doc["edges"].append(item)
        if self.policies:
            doc["policies"] = list(self.policies)
        return doc

    def dumps(self) -> str:
        return json.dumps(self.to_json(), indent=2)


def _label_from_json(topo: Topology, obj: Optional[Mapping[str, Any]], fallback: Label) -> Label:
    if obj is None:
        return fallback
    if not isinstance(obj, Mapping):
        raise TopologyError(f"not a label object: {obj!r}")
    return topo.label(obj.get("entries") or {}, obj.get("default", 1))


def from_json(doc: Mapping[str, Any]) -> Topology:
    """Parse a ``topology/v1`` JSON document."""
    if not isinstance(doc, Mapping):
        raise TopologyError("topology document must be a JSON object")
    topo = Topology(name=str(doc.get("name", "system")))
    for name, entry in (doc.get("processes") or {}).items():
        entry = entry or {}
        topo.add_process(
            name,
            send=_label_from_json(topo, entry.get("send"), Label.send_default()),
            receive=_label_from_json(topo, entry.get("receive"), Label.receive_default()),
            meta=entry.get("meta"),
        )
    for name, entry in (doc.get("ports") or {}).items():
        entry = entry or {}
        handle = topo.handle(name)
        label = entry.get("label")
        topo.add_port(
            name,
            owner=str(entry.get("owner", "")),
            label=(
                _label_from_json(topo, label, Label({handle: L0}, L3))
                if label is not None
                else None
            ),
            fork=bool(entry.get("fork", False)),
        )
    for entry in doc.get("edges") or []:
        topo.add_edge(
            sender=str(entry["sender"]),
            port=str(entry["port"]),
            cs=_label_from_json(topo, entry.get("cs"), DEFAULT_CONTAMINATION),
            ds=_label_from_json(topo, entry.get("ds"), DEFAULT_DECONTAMINATE_SEND),
            v=_label_from_json(topo, entry.get("v"), DEFAULT_VERIFY),
            dr=_label_from_json(topo, entry.get("dr"), DEFAULT_DECONTAMINATE_RECEIVE),
            declassifier=bool(entry.get("declassifier", False)),
            name=entry.get("name"),
            via=str(entry.get("via", "")),
        )
    topo.policies = list(doc.get("policies") or [])
    problems = topo.validate()
    if problems:
        raise TopologyError("; ".join(problems))
    return topo


def loads(text: str) -> Topology:
    return from_json(json.loads(text))


def load(path: Union[str, Path]) -> Topology:
    return loads(Path(path).read_text(encoding="utf-8"))


# -- the canonical label-state encoding ------------------------------------------------


def _same_value(a: ChunkedLabel, b: ChunkedLabel) -> bool:
    """Whether two chunked labels are equal as functions.

    Chunk by chunk while the directories line up: a shared chunk is equal
    by identity, an aligned pair of the same size by its buffers.  Only
    where the chunk boundaries part does it compare the values with the
    chunking erased (:meth:`~repro.core.chunks.ChunkedLabel.value_key`)."""
    if a.default != b.default or len(a) != len(b):
        return False
    for x, y in zip(a.chunks, b.chunks):
        if x is y:
            continue
        if x.size != y.size:
            return a.value_key() == b.value_key()
        if x.handles != y.handles or x.levels != y.levels:
            return False
    return True


class LabelStore:
    """Interns labels to small integer ids and memoizes the Figure 4
    operations over those ids.

    The model checker's state is a tuple of ids (QS, QR per process);
    every transition is a handful of dictionary probes here.  The actual
    label algebra is :mod:`repro.core.labelops` over
    :class:`~repro.core.chunks.ChunkedLabel` — the same fused operations
    the kernel runs — so the model cannot drift from the implementation's
    semantics without the cross-validation tests noticing.

    The store holds only chunked labels, as the kernel does: a fused
    result is interned as it came out of :mod:`~repro.core.labelops`, so
    it keeps sharing every chunk it did not rewrite with its operands.
    Ids are keyed on the value digest
    (:meth:`~repro.core.chunks.ChunkedLabel.digest`), and every digest hit
    is confirmed by :func:`_same_value`, so a collision costs a comparison,
    never a merged state.  The naive :class:`Label` of an id is built only
    when a counterexample trace asks for it.
    """

    def __init__(self) -> None:
        self.stats = OpStats()
        self._chunked: List[ChunkedLabel] = []
        #: digest → the ids with that digest (one, but for a collision).
        self._ids: Dict[int, List[int]] = {}
        self._lub: Dict[Tuple[int, int], int] = {}
        self._effects: Dict[Tuple[int, int, int], int] = {}
        self._leq: Dict[Tuple[int, int], bool] = {}
        self._check: Dict[Tuple[int, int, int, int, int], bool] = {}
        self._privilege: Dict[Tuple[int, int, int], bool] = {}
        self.memo_hits = 0
        self.memo_misses = 0

    def intern(self, label: Label) -> int:
        """The id of a topology's input label."""
        return self.intern_chunked(ChunkedLabel.from_label(label))

    def intern_chunked(self, label: ChunkedLabel) -> int:
        """The id of *label*'s value, stored as given on first sight."""
        ids = self._ids.setdefault(label.digest(), [])
        for ident in ids:
            if _same_value(self._chunked[ident], label):
                return ident
        ident = len(self._chunked)
        ids.append(ident)
        self._chunked.append(label)
        return ident

    def label(self, ident: int) -> Label:
        """The naive label of an id, for traces and formatting."""
        return self._chunked[ident].to_label()

    def chunked(self, ident: int) -> ChunkedLabel:
        return self._chunked[ident]

    def __len__(self) -> int:
        return len(self._chunked)

    # Each operation consults its memo first; misses run the fused
    # labelops implementation and intern the result.

    def lub(self, a: int, b: int) -> int:
        """``a ⊔ b`` — both ES = PS ⊔ CS and QR ← QR ⊔ DR."""
        key = (a, b)
        got = self._lub.get(key)
        if got is not None:
            self.memo_hits += 1
            return got
        self.memo_misses += 1
        result = labelops.raise_receive(self._chunked[a], self._chunked[b], self.stats)
        ident = self.intern_chunked(result)
        self._lub[key] = ident
        return ident

    def effects(self, qs: int, es: int, ds: int) -> int:
        """``QS ← (QS ⊓ DS) ⊔ (ES ⊓ QS*)`` — the delivery effect."""
        key = (qs, es, ds)
        got = self._effects.get(key)
        if got is not None:
            self.memo_hits += 1
            return got
        self.memo_misses += 1
        result = labelops.apply_send_effects(
            self._chunked[qs], self._chunked[es], self._chunked[ds], self.stats
        )
        ident = self.intern_chunked(result)
        self._effects[key] = ident
        return ident

    def leq(self, a: int, b: int) -> bool:
        """``a ⊑ b`` — requirement (4), DR ⊑ pR."""
        key = (a, b)
        got = self._leq.get(key)
        if got is not None:
            self.memo_hits += 1
            return got
        self.memo_misses += 1
        result = self._chunked[a].leq(self._chunked[b], self.stats)
        self._leq[key] = result
        return result

    def check(self, es: int, qr: int, dr: int, v: int, pr: int) -> bool:
        """Requirement (1): ``ES ⊑ (QR ⊔ DR) ⊓ V ⊓ pR``."""
        key = (es, qr, dr, v, pr)
        got = self._check.get(key)
        if got is not None:
            self.memo_hits += 1
            return got
        self.memo_misses += 1
        result = labelops.check_send(
            self._chunked[es],
            self._chunked[qr],
            self._chunked[dr],
            self._chunked[v],
            self._chunked[pr],
            self.stats,
        )
        self._check[key] = result
        return result

    def privilege_ok(self, ps: int, ds: int, dr: int) -> bool:
        """Requirements (2) and (3): ``DS(h) < 3 ⇒ PS(h) = ⋆`` and
        ``DR(h) > ⋆ ⇒ PS(h) = ⋆`` — the send-time privilege checks."""
        key = (ps, ds, dr)
        got = self._privilege.get(key)
        if got is not None:
            self.memo_hits += 1
            return got
        self.memo_misses += 1
        ok = labelops.decontamination_privileged(
            self._chunked[ps], self._chunked[ds], self._chunked[dr], self.stats
        )
        self._privilege[key] = ok
        return ok
