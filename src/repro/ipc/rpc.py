"""Request/reply plumbing for program bodies.

These helpers are *sub-generators*: program bodies use them with
``yield from``, so every kernel interaction still flows through the
body's own generator and the scheduler sees each syscall.

A :class:`Channel` owns a reply port and is the one implementation of the
reply-wait protocol: stamp a ``req``, send, wait on the reply port with a
timeout, discard replies echoing another ``req``, re-send.

A :class:`Request` is the server half: it reads a delivered message once
against the server's shape table and is the one place a reply is built
and sent, so the message *format* — ``type``, ``reply``, ``tag``,
``req``, the ``_R`` suffix — is known to this package only.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, Optional, Tuple

from repro.core.handles import Handle
from repro.core.labels import Label
from repro.ipc.protocol import ERROR_R, reply_to, request
from repro.kernel.message import Message
from repro.kernel.syscalls import NewPort, Recv, Send, SetPortLabel

# -- shape-table kinds: plain types, checked with isinstance ----------------------
#: Handles, ports, uids, connection ids: whatever a server uses as a dict
#: key or sends to.
HANDLE = int
NAME = str
KEY = (int, str)
#: ``(kind, NONE)`` reads "or absent".
NONE = type(None)


def open_port(label: Optional[Label] = None) -> Generator:
    """A new port whose label is exactly *label* — by default ``{3}``,
    open to every sender (the process receive label still protects the
    owner).  ``new_port`` alone yields ``{p 0, …}``, which only a holder
    of ``p ⋆`` can send to; ``SetPortLabel`` is verbatim (Section 5.5),
    so the reset is what lifts that ``pR(p) ← 0`` pin and really opens
    the port."""
    port = yield NewPort()
    yield SetPortLabel(port, label if label is not None else Label.top())
    return port


def announce(ctx, who: str, ports: Dict[str, Handle], **fields: Any) -> Generator:
    """Tell whoever spawned us (``announce_port`` in the env, if any) the
    ports we serve on."""
    to = ctx.env.get("announce_port")
    if to is not None:
        yield Send(to, request("ANNOUNCE", who=who, ports=ports, **fields))


class Request:
    """One delivered message, read once against a server's shape table
    (``{type: {field: kind}}``: its vocabulary, and what each request must
    carry before the server indexes with it).

    ``type`` and ``reply`` are ``None`` — so the message matches no
    branch of the server's ``if``/``elif`` chain, cannot be answered, and
    is dropped like any other undeliverable send (Section 4: "a message
    failing any requirement is silently dropped") — when the payload is
    not a dict, when ``reply`` is present and not a handle, when the type
    is not in *shapes*, or when a field *shapes* requires of that type is
    missing or of the wrong kind.  Who sent the message is not checked
    here: that is what verification labels are for.
    """

    __slots__ = ("msg", "payload", "type", "reply")

    def __init__(self, msg: Message, shapes: Dict[str, Dict[str, Any]], ctx) -> None:
        self.msg = msg
        payload = msg.payload
        if type(payload) is dict:
            mtype, reply = payload.get("type"), payload.get("reply")
            shape = shapes.get(mtype) if type(mtype) is str else None
            if shape is not None and (reply is None or isinstance(reply, int)):
                for field, kind in shape.items():
                    if not isinstance(payload.get(field), kind):
                        break
                else:
                    self.payload, self.type, self.reply = payload, mtype, reply
                    return
        else:
            payload = {}
        ctx.count("malformed")
        self.payload, self.type, self.reply = payload, None, None

    def answer(
        self,
        msg_type: Optional[str] = None,
        cs: Optional[Label] = None,
        ds: Optional[Label] = None,
        v: Optional[Label] = None,
        dr: Optional[Label] = None,
        **fields: Any,
    ) -> Generator:
        """Send the reply (``type`` + ``_R`` unless *msg_type* says
        otherwise, ``tag`` and ``req`` echoed) — or nothing when the
        request named no reply port.  The labels are ``Send``'s."""
        if self.reply is not None:
            yield Send(
                self.reply, reply_to(self.payload, msg_type, **fields),
                cs=cs, ds=ds, v=v, dr=dr,
            )

    def error(self, text: str) -> Generator:
        return self.answer(ERROR_R, error=text)


class CallTimeout(Exception):
    """A :meth:`Channel.call` exhausted its deadline (and retries) without
    a reply.  Either leg may have been silently dropped — unreliable sends
    mean the caller cannot know which — so the operation's outcome is
    *unknown*: retry only if the request is idempotent or the server
    deduplicates by ``req``."""

    def __init__(self, port: Handle, attempts: int, deadline: int):
        self.port = port
        self.attempts = attempts
        self.deadline = deadline
        super().__init__(
            f"no reply from {port:#x} after {attempts} attempt(s) "
            f"(deadline {deadline} cycles)"
        )


class Channel:
    """A reusable reply port for request/reply exchanges.

    Create inside a body with ``chan = yield from Channel.open(open_to)``.
    The reply port's label is set so that the named level of senders can
    reach it; by default it is opened to everyone (``{3}``), relying on the
    process receive label for protection — callers with stricter needs pass
    an explicit port label.
    """

    def __init__(self, port: Handle):
        self.port = port
        #: Monotonic per-channel request number, stamped into every
        #: request as ``req``.  One counter per reply port makes the
        #: replies of everything sharing the port disjoint by
        #: construction.
        self._req_seq = 0

    @classmethod
    def open(cls, port_label: Optional[Label] = None) -> Generator:
        return cls((yield from open_port(port_label)))

    def _stamp(self, payload: Dict[str, Any]) -> Tuple[Dict[str, Any], int]:
        """A copy of *payload* with ``reply`` pointing here and the next
        ``req`` number; returns ``(payload, req)``."""
        self._req_seq += 1
        payload = dict(payload)
        payload["reply"] = self.port
        payload["req"] = self._req_seq
        return payload, self._req_seq

    def await_reply(self, req: int, timeout: Optional[int]) -> Generator:
        """The next message on the reply port that answers *req*, or
        ``None`` once *timeout* cycles pass with nothing deliverable.

        A dict payload echoing a different ``req`` is a stale duplicate —
        the answer to a request already retried or abandoned — and is
        skipped.  ``req`` is plumbing, not part of the caller-visible
        reply, and is popped from the payload.
        """
        while True:
            msg = yield Recv(port=self.port, timeout=timeout)
            if msg is not None and isinstance(msg.payload, dict):
                seen = msg.payload.get("req")
                if seen is not None and seen != req:
                    continue
                msg.payload.pop("req", None)
            return msg

    def call(
        self,
        port: Handle,
        payload: Dict[str, Any],
        cs: Optional[Label] = None,
        ds: Optional[Label] = None,
        v: Optional[Label] = None,
        dr: Optional[Label] = None,
        deadline: Optional[int] = None,
        retries: int = 0,
        backoff: float = 2.0,
    ) -> Generator:
        """Send *payload* (with ``reply`` pointing here) and await the
        reply.  Returns the reply :class:`~repro.kernel.message.Message`.

        The discretionary labels are Figure 4's ``cs`` / ``ds`` / ``v`` /
        ``dr``, exactly as on :class:`~repro.kernel.syscalls.Send`.

        Asbestos sends are unreliable: either leg can be silently dropped
        by a label check, a queue limit, or an injected fault, and with
        ``deadline=None`` (the default) such a call blocks forever.
        Passing ``deadline`` (cycles of simulated time) bounds each
        attempt; the request is then retried ``retries`` more times with
        the per-attempt deadline growing by ``backoff``× each round, and
        :class:`CallTimeout` is raised when all attempts are exhausted.

        Every attempt of one call carries the same ``req``, so a server
        can deduplicate a replayed request and a slow answer to an
        earlier attempt still completes the call; a reply to any *other*
        call is discarded by :meth:`await_reply`.
        """
        payload, req = self._stamp(payload)
        attempts = max(1, 1 + retries) if deadline is not None else 1
        timeout = deadline
        for _ in range(attempts):
            yield Send(port, payload, cs=cs, ds=ds, v=v, dr=dr)
            msg = yield from self.await_reply(req, timeout)
            if msg is not None:
                return msg
            timeout = int(timeout * backoff)
        raise CallTimeout(port, attempts, deadline)

    def call_nowait(
        self,
        port: Handle,
        payload: Dict[str, Any],
        cs: Optional[Label] = None,
        ds: Optional[Label] = None,
        v: Optional[Label] = None,
        dr: Optional[Label] = None,
    ) -> Generator:
        """Send *payload* stamped like :meth:`call`, but return the
        ``req`` number at once.  Collect the replies — a streamed answer
        has several — with ``await_reply(req, timeout)``."""
        payload, req = self._stamp(payload)
        yield Send(port, payload, cs=cs, ds=ds, v=v, dr=dr)
        return req
