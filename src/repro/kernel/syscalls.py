"""Syscall request objects.

Simulated programs are Python generators: they *yield* one of the dataclass
instances below and receive the syscall's result as the value of the yield
expression.  This mirrors a trap-and-return kernel interface while keeping
program code readable:

.. code-block:: python

    def body(ctx):
        port = yield NewPort()
        msg = yield Recv()
        yield Send(msg.payload["reply"], {"status": "ok"})

The label arguments follow Figure 4's ``send(p, data, CS, DS, V, DR)``;
``None`` selects the paper's defaults (CS = {*}, DS = {3}, V = {3},
DR = {*}) — i.e. no contamination, no decontamination, no verification.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional, Tuple

from repro.core.handles import Handle
from repro.core.labels import Label


@dataclass(frozen=True)
class Syscall:
    """Base class for all syscall request objects."""


@dataclass(frozen=True)
class NewHandle(Syscall):
    """Allocate a fresh handle; the caller's send label gets ``h *``.

    Result: the handle value (int).
    """


@dataclass(frozen=True)
class NewPort(Syscall):
    """Allocate a fresh port with port label *label* (default ``{3}``).

    The kernel then sets ``pR(p) <- 0`` so no other process can send until
    the creator grants access, and gives the caller ``p *`` in its send
    label plus receive rights.  Result: the port handle.
    """

    label: Optional[Label] = None


@dataclass(frozen=True)
class DissociatePort(Syscall):
    """Destroy a port the caller holds receive rights for.  Pending and
    future messages to it are silently dropped (senders cannot observe the
    dissociation — that would be a channel)."""

    port: Handle


@dataclass(frozen=True)
class SetPortLabel(Syscall):
    """Replace port *port*'s label with *label* verbatim (Figure 4: unlike
    new_port, set_port_label does **not** modify its input, so resetting to
    ``{3}`` really opens the port).  Caller must hold receive rights."""

    port: Handle
    label: Label


@dataclass(frozen=True)
class Send(Syscall):
    """Send *payload* to *port* — the full Figure 4 send.

    Optional discretionary labels, named after the paper's
    ``send(p, data, CS, DS, V, DR)``:

    - ``cs`` (CS): raises the effective send label ES = PS ⊔ CS.
    - ``ds`` (DS): lowers the receiver's send label (requires
      ``PS(h) = *`` wherever DS(h) < 3) — grants privilege.
    - ``v`` (V): restricts the effective receive label; must bound the
      sender's ES from above for delivery to succeed, and is passed up to
      the receiving application (proves credentials).
    - ``dr`` (DR): raises the receiver's receive label (requires
      ``PS(h) = *`` wherever DR(h) > *, and DR ⊑ pR).

    Result: always ``True`` — sends are asynchronous and *unreliable*;
    a message that fails its delivery-time label check is silently dropped
    (Section 4: delivery notification would be a covert channel).
    """

    port: Handle
    payload: Any = None
    cs: Optional[Label] = None
    ds: Optional[Label] = None
    v: Optional[Label] = None
    dr: Optional[Label] = None
    #: Ports whose *receive rights* move to the receiver with this message
    #: (Section 4: "receive rights are transferable").  The sender must
    #: own them and loses them at send time; if the message is dropped by
    #: a label check the ports are dissociated — returning them would be
    #: a delivery-notification channel.
    transfer: Tuple[Handle, ...] = ()


@dataclass(frozen=True)
class Recv(Syscall):
    """Receive the next deliverable message.

    ``port`` limits the receive to one specific port the caller owns;
    ``None`` receives from any owned port in arrival order.  ``block``
    selects blocking behaviour; a non-blocking recv with nothing
    deliverable returns ``None``.

    ``timeout`` bounds a blocking receive to that many *cycles* of
    simulated time: if nothing becomes deliverable before the kernel
    timer fires, the recv returns ``None`` instead of blocking forever.
    The timer is on virtual time, so timeouts are as deterministic as
    the rest of the simulation.  ``None`` means block indefinitely.

    Result: a :class:`~repro.kernel.message.Message` (or ``None``).
    """

    port: Optional[Handle] = None
    block: bool = True
    timeout: Optional[int] = None


@dataclass(frozen=True)
class Spawn(Syscall):
    """Create a child process running generator function *body*.

    With ``inherit_labels=True`` the child gets copies of the parent's send
    and receive labels — forking is one of the two ways privilege (``*``
    levels) is explicitly distributed (Section 5.3).  The default is a
    least-privilege child with the standard ``{1}``/``{2}`` labels; the
    parent grants specific privileges afterwards with decontaminating
    messages.  ``env`` seeds the child's environment, which is how port
    names are bootstrapped (Section 4).

    Result: the child's pid.
    """

    body: Callable
    name: str = "child"
    component: Optional[str] = None   # cycle-accounting category; inherits
    env: Dict[str, Any] = field(default_factory=dict)
    inherit_labels: bool = False
    #: Port to receive an obituary message ({type: "EXITED", pid, name,
    #: crashed}) when the child terminates — the supervision hook that
    #: lets a mature launcher restart dead processes (Section 7.1).  The
    #: obituary is sent with default labels and is subject to the usual
    #: delivery checks.
    notify_exit: Optional[Handle] = None

    def __hash__(self) -> int:  # env dict is unhashable; identity is fine
        return id(self)


@dataclass(frozen=True)
class Exit(Syscall):
    """Terminate the calling process (or, in an event process, the whole
    base process and all its event processes — the process-wide exit of
    Section 6.1)."""


@dataclass(frozen=True)
class ChangeLabel(Syscall):
    """Change the caller's own labels, subject to privilege checks:

    - raising the send label (self-contamination) is always allowed; this
      includes removing one's own ``*`` (the "special variant of send"
      noted in Section 5.3 — only a process itself may drop its stars);
    - lowering the send label at handle ``h`` requires ``PS(h) = *``
      (self-declassification) — impossible by construction, so full send
      replacement is raise-only;
    - lowering the receive label is always allowed (more restrictive);
    - raising the receive label at ``h`` requires ``PS(h) = *``.

    ``send``/``receive`` replace a whole label.  The sparse forms avoid
    reading the (possibly huge) current labels:

    - ``raise_receive``: per-handle receive raises ({handle: level});
      levels at or below the current one are no-ops, raises need ``*``;
    - ``drop_send``: return the named send-label handles to the default
      level.  Only allowed where that is a raise (dropping a ``*`` or a
      0-level credential); used to release dead capabilities, e.g. netd
      and ok-demux dropping a closed connection's ``uC ⋆``.

    Result: ``True`` on success; raises InvalidArgument on privilege
    violation (revealing only the caller's own labels to itself).
    """

    send: Optional[Label] = None
    receive: Optional[Label] = None
    raise_receive: Optional[Dict[Handle, int]] = None
    drop_send: Optional[Tuple[Handle, ...]] = None

    def __hash__(self) -> int:  # dict field; syscalls are never hashed
        return id(self)


@dataclass(frozen=True)
class GetLabels(Syscall):
    """Read back the caller's own (send, receive) labels.

    Result: ``(send, receive)`` as :class:`~repro.core.labels.Label`.
    """


@dataclass(frozen=True)
class EpCheckpoint(Syscall):
    """Enter the event-process realm (Section 6.1).

    ``event_body(ctx, msg)`` is a generator function.  After this call the
    base process never runs again; each message arriving on a port the
    *base* owns creates a fresh event process — private labels, private
    copy-on-write memory — running ``event_body`` with the message.
    Messages for ports an existing event process owns resume that event
    process at its ``EpYield``.

    Does not return in the base process.
    """

    event_body: Callable

    def __hash__(self) -> int:
        return id(self)


@dataclass(frozen=True)
class EpYield(Syscall):
    """Save this event process's labels, receive rights and modified pages,
    then suspend until the next message for one of its ports arrives.

    Result: the next :class:`~repro.kernel.message.Message` for this EP.
    """


@dataclass(frozen=True)
class EpClean(Syscall):
    """Revert event-process memory to the base process's contents,
    discarding the EP's private page copies — used before yielding to drop
    temporary state (stack, scratch buffers) so a cached session keeps only
    its session data (Section 7.3).

    Exactly one addressing mode:

    - ``start``/``length``: revert an address range;
    - ``region``: revert one named region;
    - ``keep``: revert *everything except* the named regions (the idiom of
      Section 7.3 — keep session data, drop the rest).

    Result: number of private pages dropped.
    """

    start: Optional[int] = None
    length: Optional[int] = None
    region: Optional[str] = None
    keep: Optional[Tuple[str, ...]] = None


@dataclass(frozen=True)
class EpExit(Syscall):
    """Free this event process: private pages, kernel state, receive
    rights.  Does not affect other event processes."""


@dataclass(frozen=True)
class Deadline(Syscall):
    """Sleep for *cycles* of simulated time.

    The caller blocks until the kernel timer queue reaches
    ``clock.now + cycles``; no message delivery wakes it early (use
    ``Recv(timeout=...)`` for that).  This is the primitive behind retry
    backoff and periodic sweeps.

    Result: ``None``.
    """

    cycles: int


@dataclass(frozen=True)
class GetEnv(Syscall):
    """Read the process environment dict (bootstrap port names).

    Result: dict.
    """


@dataclass(frozen=True)
class Compute(Syscall):
    """Model *cycles* of user-space computation, charged to the caller's
    component category.  (Exposed on the context as ``ctx.compute``.)"""

    cycles: int
    category: Optional[str] = None
