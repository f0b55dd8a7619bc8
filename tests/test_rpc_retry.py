"""Bounded calls: ``Channel.call(deadline=...)``, retries, and the ``req``
request-matching protocol.

Asbestos sends are unreliable — either leg of a call can vanish without a
trace — so the only liveness tool a client has is a deadline on the reply
and idempotent (or server-deduplicated) retries.  These tests pin down
the contract: :class:`CallTimeout` after the retry budget, one ``req``
number per logical call (retries resend it), stale replies from earlier
calls silently discarded, and the ``req`` plumbing stripped from the
payload the caller finally sees.
"""

import pytest

from repro.core.labels import Label
from repro.ipc import CallTimeout, Channel, protocol as P
from repro.kernel import Deadline, NewPort, Recv, Send, SetPortLabel


def _serve(handler):
    """A server body: open a public port, publish it, answer each request
    with ``handler(msg)``."""

    def body(ctx):
        port = yield NewPort()
        yield SetPortLabel(port, Label.top())
        ctx.env["port"] = port
        while True:
            msg = yield Recv(port=port)
            yield Send(msg.payload["reply"], handler(msg))

    return body


def test_call_with_deadline_returns_reply(kernel):
    def handler(msg):
        return P.reply_to(msg.payload, n=msg.payload["n"] + 1)

    srv = kernel.spawn(_serve(handler), "server")
    kernel.run()
    results = []

    def client(ctx):
        chan = yield from Channel.open()
        reply = yield from chan.call(
            srv.env["port"], P.request("INC", n=41), deadline=10_000_000
        )
        results.append(reply.payload)

    kernel.spawn(client, "client")
    kernel.run()
    assert results[0]["n"] == 42
    # The request number is call() plumbing, not part of the reply.
    assert "req" not in results[0]


def test_call_timeout_raises_after_retry_budget(kernel):
    """A server that never answers: every attempt times out, and the
    exception reports the full attempt count."""

    def black_hole(ctx):
        port = yield NewPort()
        yield SetPortLabel(port, Label.top())
        ctx.env["port"] = port
        while True:
            yield Recv(port=port)  # swallow silently

    srv = kernel.spawn(black_hole, "black-hole")
    kernel.run()
    caught = []

    def client(ctx):
        chan = yield from Channel.open()
        start = ctx.now
        try:
            yield from chan.call(
                srv.env["port"],
                P.request("PING"),
                deadline=1_000_000,
                retries=2,
            )
        except CallTimeout as err:
            caught.append((err.attempts, ctx.now - start))

    kernel.spawn(client, "client")
    kernel.run()
    attempts, elapsed = caught[0]
    assert attempts == 3
    # Exponential backoff (2x default): 1M + 2M + 4M of waiting, minimum.
    assert elapsed >= 7_000_000


def test_call_retries_reuse_the_request_number(kernel):
    """The server ignores the first attempt and answers the second; both
    attempts must carry the *same* ``req`` so server-side dedup works."""
    seen = []

    def flaky(ctx):
        port = yield NewPort()
        yield SetPortLabel(port, Label.top())
        ctx.env["port"] = port
        first = yield Recv(port=port)
        seen.append(first.payload["req"])  # dropped on the floor
        second = yield Recv(port=port)
        seen.append(second.payload["req"])
        yield Send(second.payload["reply"], P.reply_to(second.payload, ok=True))

    srv = kernel.spawn(flaky, "flaky")
    kernel.run()
    results = []

    def client(ctx):
        chan = yield from Channel.open()
        reply = yield from chan.call(
            srv.env["port"], P.request("PING"), deadline=2_000_000, retries=3
        )
        results.append(reply.payload["ok"])

    kernel.spawn(client, "client")
    kernel.run()
    assert results == [True]
    assert len(seen) == 2 and seen[0] == seen[1]


def test_stale_reply_from_earlier_call_is_discarded(kernel):
    """Call #1 times out; its answer arrives *during* call #2.  The stale
    reply (old ``req``) must be skipped, and call #2 gets its own."""

    def laggard(ctx):
        port = yield NewPort()
        yield SetPortLabel(port, Label.top())
        ctx.env["port"] = port
        first = yield Recv(port=port)
        second = yield Recv(port=port)
        # Answer the long-dead first call, then the live second one.
        yield Send(first.payload["reply"], P.reply_to(first.payload, which="old"))
        yield Send(second.payload["reply"], P.reply_to(second.payload, which="new"))

    srv = kernel.spawn(laggard, "laggard")
    kernel.run()
    results = []

    def client(ctx):
        chan = yield from Channel.open()
        with pytest.raises(CallTimeout):
            yield from chan.call(
                srv.env["port"], P.request("ONE"), deadline=1_000_000
            )
        reply = yield from chan.call(
            srv.env["port"], P.request("TWO"), deadline=50_000_000
        )
        results.append(reply.payload["which"])

    kernel.spawn(client, "client")
    kernel.run()
    assert results == ["new"]


def test_call_nowait_reply_matched_by_req(kernel):
    def handler(msg):
        return P.reply_to(msg.payload, n=msg.payload["n"] * 10)

    srv = kernel.spawn(_serve(handler), "server")
    kernel.run()
    results = []

    def client(ctx):
        chan = yield from Channel.open()
        req_a = yield from chan.call_nowait(srv.env["port"], P.request("MUL", n=1))
        req_b = yield from chan.call_nowait(srv.env["port"], P.request("MUL", n=2))
        assert req_a != req_b
        # Collect the second reply first: the first one, sitting ahead of
        # it on the port, echoes another req and is skipped for good.
        reply_b = yield from chan.await_reply(req_b, 10_000_000)
        assert "req" not in reply_b.payload
        results.append(reply_b.payload["n"])
        gone = yield from chan.await_reply(req_a, 10_000_000)
        results.append(gone)

    kernel.spawn(client, "client")
    kernel.run()
    assert results == [20, None]


def test_channel_sleep_advances_time(kernel):
    """Backing off between calls is a bare ``Deadline`` (what the deleted
    ``Channel.sleep`` wrapped): the channel's port stays usable after it."""
    marks = []

    def body(ctx):
        chan = yield from Channel.open()
        start = ctx.now
        yield Deadline(3_000_000)
        marks.append(ctx.now - start)
        marks.append((yield Recv(port=chan.port, block=False)))

    kernel.spawn(body, "sleeper")
    kernel.run()
    assert marks[0] >= 3_000_000 and marks[1] is None
