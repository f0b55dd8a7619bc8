"""Replay asbcheck counterexample traces on the real kernel.

asbcheck proves its violations against the *model* (``repro.analysis.
check``); this module closes the loop by re-executing the offending
message sequence through ``Kernel._sys_send`` / ``Kernel._try_deliver`` —
the very code the model claims to mirror — and comparing outcome and
labels hop by hop.  A trace that replays identically is evidence the
model's Figure 4 is the kernel's Figure 4; a mismatch is a bug in one
of them and fails loudly.

The initial condition is set up white-box: processes are spawned with
trivial receive-loop bodies, then their label state and the topology's
ports (with their exact handles and labels) are installed directly.
The *interesting* part — send-time privilege checks, delivery checks,
contamination and decontamination effects — all runs through the
kernel's own syscall path, under the differential sanitizer if the
caller enables it.

Fork-port edges are not replayable (the model treats the event-process
base's labels as frozen; the kernel would spawn a fresh EP), and the
extractor's fold-in of mints and label changes means *extracted*
topologies replay only traces that do not depend on those folds.  The
seeded fixtures in ``examples/topologies`` are built to replay exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.core.chunks import ChunkedLabel
from repro.core.labels import Label
from repro.kernel import syscalls as sc
from repro.kernel.ports import Port

from repro.analysis.check import TraceStep
from repro.analysis.extract import WIRE
from repro.analysis.model import Topology


class ReplayError(Exception):
    """The trace cannot be replayed at all (unknown edge, fork port)."""


@dataclass
class ReplayStep:
    """What the kernel actually did for one hop."""

    index: int
    edge: str
    delivered: bool
    drop: Optional[str]
    qs_after: Label
    qr_after: Label


@dataclass
class ReplayResult:
    steps: List[ReplayStep] = field(default_factory=list)
    mismatches: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def format(self) -> str:
        if self.ok:
            return f"replay: {len(self.steps)} hops, kernel agrees with the model"
        lines = [f"replay: {len(self.mismatches)} mismatch(es):"]
        lines.extend(f"  {m}" for m in self.mismatches)
        return "\n".join(lines)


def _receive_loop(ctx: Any) -> Any:
    while True:
        yield sc.Recv()


def install_topology(
    kernel: Any, topology: Topology, body_for: Callable[[str], Callable]
) -> Dict[str, Any]:
    """Put *kernel* in the topology's initial state, white-box: one process
    per ProcSpec running ``body_for(name)`` with its exact labels, and one
    Port per PortSpec with its exact handle and label.  Returns the
    processes by name."""
    tasks = {}
    for name, spec in topology.processes.items():
        if name == WIRE:
            continue
        process = kernel.spawn(body_for(name), name=name)
        process.send_label = ChunkedLabel.from_label(spec.send)
        process.receive_label = ChunkedLabel.from_label(spec.receive)
        tasks[name] = process
    for pname, port in topology.ports.items():
        owner = tasks.get(port.owner)
        if owner is None:
            raise ReplayError(f"port {pname!r} owned by unreplayable {port.owner!r}")
        kernel.ports[port.handle] = Port(
            handle=port.handle,
            label=ChunkedLabel.from_label(port.label),
            owner=owner.key,
        )
        owner.owned_ports.add(port.handle)
    return tasks


def build_kernel(topology: Topology, kernel: Optional[Any] = None) -> Any:
    """A live kernel in the topology's initial state, every process
    parked on a blocking Recv."""
    if kernel is None:
        from repro.kernel.kernel import Kernel

        kernel = Kernel()
    tasks = install_topology(kernel, topology, lambda name: _receive_loop)
    kernel.run()  # park every receive loop on its blocking Recv
    kernel._replay_tasks = tasks  # noqa: SLF001 - replay-only bookkeeping
    return kernel


def replay_trace(
    topology: Topology,
    trace: Sequence[TraceStep],
    kernel: Optional[Any] = None,
) -> ReplayResult:
    """Re-execute *trace* and compare delivery outcome, drop reason, and
    the receiver's post-hop labels against the model's prediction."""
    kernel = build_kernel(topology, kernel)
    tasks = kernel._replay_tasks
    edges = {edge.name: edge for edge in topology.edges}
    result = ReplayResult()
    for step in trace:
        edge = edges.get(step.edge)
        if edge is None:
            raise ReplayError(f"trace step {step.index}: unknown edge {step.edge!r}")
        port = topology.ports[edge.port]
        if port.fork:
            raise ReplayError(
                f"trace step {step.index}: fork-port edge {edge.name!r} is "
                "not replayable (it would spawn a fresh event process)"
            )
        receiver = tasks[port.owner]
        drops_before = kernel.drop_log.count()
        if edge.sender == WIRE:
            kernel.inject(port.handle, {"replay": step.index})
        else:
            kernel._sys_send(  # noqa: SLF001 - the exact path under test
                tasks[edge.sender],
                sc.Send(
                    port=port.handle,
                    payload={"replay": step.index},
                    cs=edge.cs,
                    ds=edge.ds,
                    v=edge.v,
                    dr=edge.dr,
                ),
            )
        kernel.run()
        delivered = kernel.drop_log.count() == drops_before
        drop = None if delivered else kernel.drop_log.records[-1][0]
        actual = ReplayStep(
            index=step.index,
            edge=step.edge,
            delivered=delivered,
            drop=drop,
            qs_after=receiver.send_label.to_label(),
            qr_after=receiver.receive_label.to_label(),
        )
        result.steps.append(actual)
        where = f"step {step.index} ({step.edge})"
        if delivered != step.delivered:
            result.mismatches.append(
                f"{where}: model says "
                f"{'delivered' if step.delivered else f'dropped ({step.drop})'}, "
                f"kernel says "
                f"{'delivered' if delivered else f'dropped ({drop})'}"
            )
            continue
        if not delivered and drop != step.drop:
            result.mismatches.append(
                f"{where}: drop reason differs: model {step.drop!r}, "
                f"kernel {drop!r}"
            )
        if actual.qs_after != step.qs_after:
            result.mismatches.append(
                f"{where}: receiver QS differs: model "
                f"{topology.format_label(step.qs_after)}, kernel "
                f"{topology.format_label(actual.qs_after)}"
            )
        if actual.qr_after != step.qr_after:
            result.mismatches.append(
                f"{where}: receiver QR differs: model "
                f"{topology.format_label(step.qr_after)}, kernel "
                f"{topology.format_label(actual.qr_after)}"
            )
    return result
