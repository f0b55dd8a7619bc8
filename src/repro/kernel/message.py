"""IPC messages.

A message carries an opaque payload plus the labels the sender supplied.
Of the four optional labels only the *verification* label ``V`` is passed
up to the receiving application (Section 5.4) — it proves an upper bound on
the sender's send label without conveying the label itself (avoiding the
confused-deputy pitfall of shipping full credentials with every message).

The receiver never learns the sender's identity from the kernel; services
that need replies include a reply port in the payload by convention (the
9P-inspired protocol of :mod:`repro.ipc.protocol`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.core.chunks import ChunkedLabel
from repro.core.handles import Handle
from repro.core.labels import Label


@dataclass
class Message:
    """A delivered message, as seen by the receiving program."""

    #: The port this message was delivered to.
    port: Handle
    #: Opaque payload (any Python value; treated as bytes-like by netd).
    payload: Any
    #: The sender's verification label V, passed up on delivery (§5.4).
    verify: Label = field(default_factory=Label.top)

    def __repr__(self) -> str:
        return f"<Message to port {self.port:#x}: {self.payload!r}>"


@dataclass
class QueuedMessage:
    """Kernel-internal: a message waiting in a port queue.

    Captures the sender's effective labels at *send* time; the receiver-
    dependent checks (Figure 4 requirements 1 and 4) run at delivery time
    against whatever the receiver's labels are then.

    Built once, where the message is born, and carried as that one object
    through fault delay, cross-shard egress and the port queue; ``seq``
    is stamped by ``Kernel._enqueue`` only when the message actually
    joins a queue.
    """

    port: Handle
    payload: Any
    effective_send: ChunkedLabel          # ES = PS ⊔ CS, snapshotted at send
    decontaminate_send: ChunkedLabel      # DS
    verify: ChunkedLabel                  # V
    decontaminate_receive: ChunkedLabel   # DR
    sender_name: str                      # diagnostics only (drop log)
    seq: int = 0                          # global arrival order
    #: Receive rights travelling with this message (Section 4).
    transfer: tuple = ()
    #: True for cross-shard ingress (``Kernel.enqueue_external``): the
    #: send-time checks ran on another shard, and per-shard verified-flow
    #: proofs must never elide the delivery checks for it (DESIGN.md §15).
    external: bool = False

    def to_message(self) -> Message:
        return Message(self.port, self.payload, self.verify.to_label())
