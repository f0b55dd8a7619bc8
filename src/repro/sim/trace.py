"""Label-flow tracing: a developer tool for watching the kernel's
decisions.

Attach a :class:`FlowTracer` to a kernel and every delivery attempt is
recorded — sender, receiver, the verdict, and how the receiver's labels
changed — with symbolic handle names you register as compartments come
into being.  ``tracer.format()`` renders a readable transcript; tests can
assert on the structured :class:`FlowEvent` records.

This is out-of-band diagnostics in the same sense as the kernel's drop
log: nothing inside the simulation can observe it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional

from repro.core.handles import Handle
from repro.core.labels import Label
from repro.kernel.kernel import Kernel

if TYPE_CHECKING:  # a plain run imports no checker
    from repro.analysis.sanitizer import Violation


@dataclass
class FlowEvent:
    """One delivery attempt."""

    seq: int
    sender: str
    receiver: str
    port: Handle
    delivered: bool
    effective_send: Label
    verify: Label
    send_before: Label
    send_after: Optional[Label] = None      # None if dropped
    receive_before: Label = field(default_factory=Label.receive_default)
    receive_after: Optional[Label] = None
    #: Sanitizer violations raised by this delivery (sanitize mode only).
    violations: List[Violation] = field(default_factory=list)

    @property
    def contaminated(self) -> bool:
        return self.delivered and self.send_after != self.send_before

    @property
    def decontaminated_receive(self) -> bool:
        return self.delivered and self.receive_after != self.receive_before


class FlowTracer:
    """A ``Kernel.hooks`` observer that records every delivery attempt."""

    def __init__(self, kernel: Kernel):
        self.kernel = kernel
        self.events: List[FlowEvent] = []
        self.names: Dict[Handle, str] = {}
        self._seq = 0
        #: Sanitizer violations already attributed (or predating the tracer).
        self._violations_seen = kernel.sanitizer.total if kernel.sanitizer else 0
        kernel.hooks.append(self)

    def detach(self) -> None:
        self.kernel.hooks.remove(self)

    def name_handle(self, handle: Handle, name: str) -> None:
        """Register a symbolic name for a handle (e.g. ``uT``)."""
        self.names[handle] = name

    # -- the kernel hook --------------------------------------------------------------

    def on_deliver(self, task, entry, qmsg, delivered, qs_before, qr_before):
        self._seq += 1
        sanitizer = self.kernel.sanitizer
        new_violations = []
        fresh = sanitizer.total - self._violations_seen if sanitizer else 0
        if fresh:
            self._violations_seen = sanitizer.total
            # Send-time violations since the last delivery name no receiver.
            new_violations = [
                v for v in sanitizer.violations[-fresh:] if v.receiver == task.name
            ]
        self.events.append(
            FlowEvent(
                seq=self._seq,
                sender=qmsg.sender_name,
                receiver=task.name,
                port=entry.handle,
                delivered=delivered,
                effective_send=qmsg.effective_send.to_label(),
                verify=qmsg.verify.to_label(),
                send_before=qs_before.to_label(),
                send_after=task.send_label.to_label() if delivered else None,
                receive_before=qr_before.to_label(),
                receive_after=task.receive_label.to_label() if delivered else None,
                violations=new_violations,
            )
        )

    # -- queries -----------------------------------------------------------------------

    def drops(self) -> List[FlowEvent]:
        return [e for e in self.events if not e.delivered]

    def contaminations(self) -> List[FlowEvent]:
        return [e for e in self.events if e.contaminated]

    def violations(self) -> List[Violation]:
        return [v for e in self.events for v in e.violations]

    def between(self, sender: str, receiver: str) -> List[FlowEvent]:
        return [
            e for e in self.events if e.sender == sender and e.receiver == receiver
        ]

    # -- rendering ----------------------------------------------------------------------

    def chrome_trace(self) -> dict:
        """The kernel's span recording as a Chrome ``trace_event`` document
        (JSON-ready dict), with the tracer's symbolic handle names attached
        to message spans as ``port_name``.

        Requires a kernel constructed with ``KernelConfig(spans=True)``.
        """
        spans = getattr(self.kernel, "spans", None)
        if spans is None:
            raise ValueError(
                "kernel records no spans; construct it with "
                "Kernel(config=KernelConfig(spans=True))"
            )
        doc = spans.to_chrome(now_cycles=self.kernel.clock.now)
        by_hex = {f"{handle:#x}": name for handle, name in self.names.items()}
        for event in doc["traceEvents"]:
            port = event.get("args", {}).get("port")
            name = by_hex.get(port)
            if name is not None:
                event["args"] = dict(event["args"], port_name=name)
        return doc

    def _fmt(self, label: Label) -> str:
        return label.format(self.names)

    def format(self, last: Optional[int] = None) -> str:
        """A readable transcript (optionally only the *last* N events)."""
        lines = []
        events = self.events[-last:] if last else self.events
        for e in events:
            verdict = "  ->" if e.delivered else "  XX"
            lines.append(
                f"[{e.seq:>5}]{verdict} {e.sender} => {e.receiver}"
                f"  ES={self._fmt(e.effective_send)}"
            )
            if e.delivered and e.contaminated:
                lines.append(
                    f"         contaminated: {self._fmt(e.send_before)}"
                    f" -> {self._fmt(e.send_after)}"
                )
            if e.delivered and e.decontaminated_receive:
                lines.append(
                    f"         cleared:      {self._fmt(e.receive_before)}"
                    f" -> {self._fmt(e.receive_after)}"
                )
            for violation in e.violations:
                lines.append(f"         !! {violation.format()}")
        return "\n".join(lines)
