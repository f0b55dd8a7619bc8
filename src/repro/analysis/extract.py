"""Extract asbcheck topologies from a live kernel run.

The ISSUE with hand-transcribed models is that they drift: the checker
verifies the wiring you *wrote down*, not the wiring the launcher
actually built.  :class:`TopologyRecorder` closes the gap — attach it to
a :class:`~repro.kernel.kernel.Kernel` (it registers itself on
``kernel.hooks``), run the system, and :meth:`~TopologyRecorder.build`
returns the observed :class:`~repro.analysis.model.Topology`: every
process and event process with its labels, every port, and every
distinct (sender, port, cs/ds/v/dr) send the code attempted — delivered
*or dropped*, since the model re-derives deliverability itself.

The model has no NewHandle/NewPort/ChangeLabel transitions, so
capabilities a process acquires by its *own* syscalls are folded into
its initial labels:

- handles and ports it mints appear at ⋆ in its initial send label;
- ``ChangeLabel`` raises (send self-contamination, receive raises) are
  joined into the initial labels.

Capabilities that arrive *by message* (⋆ grants via DS) are not folded —
the model reproduces them by firing the recorded edges.  Two documented
approximations: ``ChangeLabel`` lowerings (``drop_send``, receive
lowerings) are ignored, and folded receive raises are present from the
initial state, so the model can deliver some messages earlier than the
live ordering allowed.  Both make the model *more* permissive — it can
report flows the deployed ordering prevents, never hide one.

Event processes are snapshotted at creation time — after their first
delivery, so a CONNECT's contamination and grants are part of their
initial labels — and become model processes named ``base.user`` (the
``user`` tag supplied via :meth:`~TopologyRecorder.tag`, e.g. by
:mod:`repro.okws.topology`'s payload sniffer) or ``base.epN``.  Their
base-owned activation ports are marked ``fork``: deliveries are checked
against the (frozen) base labels and apply no effects, exactly the
kernel's new-EP path.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Set, Tuple

from repro.core.handles import Handle
from repro.core.labels import (
    DEFAULT_CONTAMINATION,
    DEFAULT_DECONTAMINATE_RECEIVE,
    DEFAULT_DECONTAMINATE_SEND,
    DEFAULT_VERIFY,
    Label,
)
from repro.core.levels import STAR

from repro.analysis.model import Topology

#: The pseudo-process representing kernel.inject (network wire) senders.
WIRE = "<wire>"


class _TaskObs:
    """Labels and capability history observed for one task."""

    __slots__ = (
        "key",
        "name",
        "send0",
        "receive0",
        "mints",
        "send_raises",
        "receive_raises",
        "receive_default",
        "is_ep",
        "base_key",
        "meta",
    )

    def __init__(self, task: Any) -> None:
        self.key: str = task.key
        self.name: str = task.name
        self.send0: Label = task.send_label.to_label()
        self.receive0: Label = task.receive_label.to_label()
        self.mints: List[Handle] = []
        self.send_raises: List[Label] = []
        self.receive_raises: Dict[Handle, int] = {}
        self.receive_default: Optional[int] = None
        self.is_ep = bool(task.is_event_process)
        self.base_key: str = task.base.key if self.is_ep else ""
        self.meta: Dict[str, Any] = {}

    def initial_send(self) -> Label:
        label = self.send0
        for raised in self.send_raises:
            label = label | raised
        return label.with_entries(dict.fromkeys(self.mints, STAR))

    def initial_receive(self) -> Label:
        label = self.receive0
        if self.receive_default is not None and self.receive_default > label.default:
            label = Label(dict(label.entries()), self.receive_default)
        return label.with_entries(
            {h: level for h, level in self.receive_raises.items() if level > label(h)}
        )


class _PortObs:
    __slots__ = ("handle", "owner_key", "label", "fork")

    def __init__(self, handle: Handle, owner_key: str, label: Label) -> None:
        self.handle = handle
        self.owner_key = owner_key
        self.label = label
        self.fork = False


class TopologyRecorder:
    """A passive kernel observer that accumulates a checkable model.

    Attach before the system boots (``TopologyRecorder(kernel)`` hooks
    itself) so spawns, mints and label changes are all seen; tasks and
    ports that already exist at attach time are snapshotted immediately.
    """

    def __init__(self, kernel: Any) -> None:
        self.kernel = kernel
        self._tasks: Dict[str, _TaskObs] = {}
        self._ports: Dict[Handle, _PortObs] = {}
        #: (sender key, port, cs, ds, v, dr) → via-qualname, insertion ordered.
        self._edges: Dict[Tuple[Any, ...], str] = {}
        self._handle_names: Dict[Handle, str] = {}
        self._named: Set[str] = set()
        self.skipped: List[str] = []
        self._wire_ports: Set[Handle] = set()
        for task in kernel.tasks.values():
            self._tasks[task.key] = _TaskObs(task)
        for handle, entry in kernel.ports.items():
            self._ports[handle] = _PortObs(handle, entry.owner, entry.label.to_label())
        kernel.hooks.append(self)

    # -- naming / annotation (for domain-specific sniffers) -----------------

    def name_handle(self, handle: Handle, name: str) -> None:
        """Bind a readable name to a concrete handle (first name wins;
        colliding names get a ``~N`` suffix)."""
        if handle in self._handle_names:
            return
        candidate, n = name, 2
        while candidate in self._named:
            candidate = f"{name}~{n}"
            n += 1
        self._handle_names[handle] = candidate
        self._named.add(candidate)

    def tag(self, task_key: str, **meta: Any) -> None:
        obs = self._tasks.get(task_key)
        if obs is not None:
            obs.meta.update(meta)

    # -- kernel hooks --------------------------------------------------------

    def on_spawn(self, process: Any) -> None:
        self._tasks[process.key] = _TaskObs(process)

    def on_ep_create(self, ep: Any, entry: Any, qmsg: Any) -> None:
        self._tasks[ep.key] = _TaskObs(ep)
        self._port_obs(entry).fork = True

    def on_new_handle(self, task: Any, handle: Handle) -> None:
        obs = self._tasks.get(task.key)
        if obs is not None:
            obs.mints.append(handle)

    def on_new_port(self, task: Any, handle: Handle) -> None:
        obs = self._tasks.get(task.key)
        if obs is not None:
            obs.mints.append(handle)
        entry = self.kernel.ports.get(handle)
        if entry is not None:
            self._ports[handle] = _PortObs(handle, task.key, entry.label.to_label())

    def on_change_label(self, task: Any, request: Any) -> None:
        obs = self._tasks.get(task.key)
        if obs is None:
            return
        if request.raise_receive:
            for handle, level in request.raise_receive.items():
                if level > obs.receive_raises.get(handle, STAR):
                    obs.receive_raises[handle] = level
        if request.send is not None:
            obs.send_raises.append(request.send)
        if request.receive is not None:
            # Only the raising component folds; lowerings are dropped (the
            # model stays more permissive than the live ordering).
            for handle, level in request.receive.entries():
                if level > obs.receive_raises.get(handle, STAR):
                    obs.receive_raises[handle] = level
            default = request.receive.default
            if obs.receive_default is None or default > obs.receive_default:
                obs.receive_default = default

    def on_send(self, task: Any, request: Any) -> None:
        entry = self.kernel.ports.get(request.port)
        if entry is not None:
            self._port_obs(entry)
        via = self._via(task)
        key = (
            task.key,
            request.port,
            request.cs if request.cs is not None else DEFAULT_CONTAMINATION,
            request.ds if request.ds is not None else DEFAULT_DECONTAMINATE_SEND,
            request.v if request.v is not None else DEFAULT_VERIFY,
            request.dr if request.dr is not None else DEFAULT_DECONTAMINATE_RECEIVE,
        )
        self._edges.setdefault(key, via)

    def on_inject(self, port: Handle, payload: Any) -> None:
        self._wire_ports.add(port)
        # kernel.inject: ES is the untainted send default, DS/V top, DR
        # bottom — exactly the EdgeSpec defaults from a default-label
        # pseudo-process.
        key = (
            WIRE,
            port,
            DEFAULT_CONTAMINATION,
            DEFAULT_DECONTAMINATE_SEND,
            DEFAULT_VERIFY,
            DEFAULT_DECONTAMINATE_RECEIVE,
        )
        self._edges.setdefault(key, WIRE)

    # -- internals -----------------------------------------------------------

    def _port_obs(self, entry: Any) -> _PortObs:
        obs = self._ports.get(entry.handle)
        if obs is None:
            obs = _PortObs(entry.handle, entry.owner, entry.label.to_label())
            self._ports[entry.handle] = obs
        else:
            obs.label = entry.label.to_label()
            if entry.owner in self._tasks:
                obs.owner_key = entry.owner
        return obs

    @staticmethod
    def _via(task: Any) -> str:
        fn = task.base.event_body if task.is_event_process else getattr(task, "body", None)
        return getattr(fn, "__qualname__", "") or ""

    # -- building the topology ----------------------------------------------

    def build(self, name: str = "recorded") -> Topology:
        topo = Topology(name=name)
        model_name = self._model_names()

        # Ports may have been relabelled (SetPortLabel) since we last saw
        # traffic; the steady-state label is the one to check against.
        for handle, pobs in self._ports.items():
            entry = self.kernel.ports.get(handle)
            if entry is not None and entry.alive:
                pobs.label = entry.label.to_label()
                if entry.owner in self._tasks:
                    pobs.owner_key = entry.owner

        # Bind every observed handle before any label is registered, so
        # the symbolic document uses the sniffed names throughout.
        labels: List[Label] = []
        for obs in self._tasks.values():
            labels.append(obs.initial_send())
            labels.append(obs.initial_receive())
        for pobs in self._ports.values():
            labels.append(pobs.label)
        for key in self._edges:
            labels.extend(key[2:6])
        seen: Set[Handle] = set()
        for label in labels:
            for handle in label.handles():
                seen.add(handle)
        seen.update(self._ports)
        for handle in sorted(seen):
            topo.handle(self._handle_name(handle), value=handle)

        for key, obs in self._tasks.items():
            meta = dict(obs.meta)
            if obs.is_ep:
                meta.setdefault("base", self._tasks[obs.base_key].name)
            topo.add_process(
                model_name[key],
                send=obs.initial_send(),
                receive=obs.initial_receive(),
                meta=meta,
            )
        if any(key[0] == WIRE for key in self._edges):
            topo.add_process(WIRE)
            model_name[WIRE] = WIRE

        for handle, pobs in self._ports.items():
            owner = model_name.get(pobs.owner_key)
            if owner is None:
                self.skipped.append(
                    f"port {self._handle_name(handle)}: unknown owner "
                    f"{pobs.owner_key!r}"
                )
                continue
            topo.add_port(
                self._handle_name(handle),
                owner=owner,
                label=pobs.label,
                fork=pobs.fork,
            )

        counts: Dict[Tuple[str, str], int] = {}
        for key, via in self._edges.items():
            sender_key, port = key[0], key[1]
            sender = model_name.get(sender_key)
            port_name = self._handle_name(port)
            if sender is None or port_name not in topo.ports:
                self.skipped.append(
                    f"edge {sender_key!r} -> {port_name}: "
                    + ("unknown sender" if sender is None else "unmapped port")
                )
                continue
            n = counts[(sender, port_name)] = counts.get((sender, port_name), 0) + 1
            suffix = f"#{n}" if n > 1 else ""
            topo.add_edge(
                sender,
                port_name,
                cs=key[2],
                ds=key[3],
                v=key[4],
                dr=key[5],
                name=f"{sender}->{port_name}{suffix}",
                via=via,
            )
        return topo

    def _handle_name(self, handle: Handle) -> str:
        return self._handle_names.get(handle, f"h{handle:x}")

    def _model_names(self) -> Dict[str, str]:
        """Task key → model process name.  Event processes are renamed to
        the fnmatch-friendly ``base.user`` / ``base.epN`` (the kernel's
        ``base[N]`` would collide with glob character classes)."""
        out: Dict[str, str] = {}
        used: Set[str] = set()
        for key, obs in self._tasks.items():
            if obs.is_ep:
                base = self._tasks[obs.base_key].name
                user = obs.meta.get("user")
                stem = f"{base}.{user}" if user else f"{base}.ep"
            else:
                stem = obs.name
            candidate, n = stem, 2
            while candidate in used:
                candidate = f"{stem}~{n}"
                n += 1
            used.add(candidate)
            out[key] = candidate
        return out


def mark_declassifier_edges(topology: Topology, *sender_patterns: str) -> int:
    """Flag every edge whose sender matches one of the patterns as a
    declassifier edge (removed for mandatory-declassifier checks)."""
    from repro.policies.assertions import matches

    count = 0
    for edge in topology.edges:
        if any(matches(p, edge.sender) for p in sender_patterns):
            if not edge.declassifier:
                edge.declassifier = True
                count += 1
    return count
