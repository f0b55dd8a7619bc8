"""Ports: label-checked message endpoints.

Messages sent to a port are delivered to the single context (process or
event process) holding receive rights for it.  Each port carries a *port
receive label* ``pR`` — a verification label imposed by the receiver rather
than the sender — which restricts the effective receive label for messages
delivered to that port, and bounds how far a sender's decontaminate-receive
label may raise the receiver's label (``DR ⊑ pR``; Section 5.5).

``new_port`` gives the new port the caller-supplied label but then sets
``pR(p) ← 0``, so that nobody else can send to the port until the creator
explicitly grants access — the root of capability-style send rights.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque

from repro.core.chunks import ChunkedLabel
from repro.core.handles import Handle
from repro.kernel.message import QueuedMessage

#: Kernel bytes per port beyond its vnode (queue head, owner ref, label ptr).
PORT_STRUCT_BYTES = 48

#: Maximum queued messages per port; beyond this, sends drop (resource
#: exhaustion is the one non-label cause of message loss, Section 4).
DEFAULT_QUEUE_LIMIT = 1024


@dataclass(frozen=True)
class RemoteRoute:
    """A port that lives on another shard (``repro.cluster``).

    The owning kernel has no :class:`Port` for the handle; instead
    ``Kernel.remote_routes`` maps it to one of these, and ``_enqueue``
    hands the already-checked message to the kernel's ``xshard_out`` hook
    for ``wire/v1`` serialization instead of recording a dead-port drop.
    Delivery-time checks (Figure 4 requirements 1 and 4) and effects run
    on the destination shard, against its own interned labels.
    """

    #: Destination shard index.
    shard: int
    #: Human-readable port name for traces and drop accounting.
    name: str = ""


def _payload_bytes(payload: Any) -> int:
    """Cheap size model for message payloads."""
    if payload is None:
        return 8
    if isinstance(payload, (bytes, bytearray, str)):
        return len(payload)
    if isinstance(payload, (int, float)):
        return 8
    if isinstance(payload, dict):
        return 16 + sum(_payload_bytes(k) + _payload_bytes(v) for k, v in payload.items())
    if isinstance(payload, (list, tuple)):
        return 16 + sum(_payload_bytes(v) for v in payload)
    return 64


@dataclass
class Port:
    """Kernel port state."""

    handle: Handle
    label: ChunkedLabel
    #: Context key of the receive-rights holder.
    owner: str
    queue: Deque[QueuedMessage] = field(default_factory=deque)
    queue_limit: int = DEFAULT_QUEUE_LIMIT
    alive: bool = True

    def enqueue(self, message: QueuedMessage) -> bool:
        if not self.alive or len(self.queue) >= self.queue_limit:
            return False
        self.queue.append(message)
        return True

    def dissociate(self) -> None:
        """Kill the port: pending and future messages are dropped."""
        self.alive = False
        self.queue.clear()

    @property
    def queued_bytes(self) -> int:
        """Modelled size of the messages queued right now."""
        return sum(_payload_bytes(m.payload) for m in self.queue)

    def memory_bytes(self) -> int:
        return PORT_STRUCT_BYTES + self.queued_bytes
