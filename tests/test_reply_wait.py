"""One reply-wait: every simulated program that waits for an answer does
it through ``Channel`` (DESIGN.md §10.3), so one lost message may cost a
request but never the site, and everything sharing a reply port shares
one ``req`` counter."""

import pytest

from repro.core.labels import Label
from repro.core.levels import L0, L2, L3, STAR
from repro.faults import FaultPlan, FaultRule
from repro.faults.campaign import _build_disarmed
from repro.ipc import Channel, protocol as P
from repro.kernel import (
    ChangeLabel,
    Kernel,
    KernelConfig,
    NewHandle,
    NewPort,
    Recv,
    Send,
    SetPortLabel,
)
from repro.kernel.process import TaskState
from repro.okws import ServiceConfig, launch
from repro.okws.services import echo_handler, notes_handler
from repro.okws.worker import (
    RPC_RETRIES,
    RPC_TIMEOUT,
    CacheClient,
    DbClient,
    DbError,
    make_worker_body,
)
from repro.sim.runner import echo_requests
from repro.sim.workload import HttpClient

# -- the site survives one lost message ------------------------------------------------

CRASH_DBPROXY = FaultRule("crash", id="crash", match="ok-dbproxy", at_syscall=3, max_fires=1)

ONE_FAULT_EACH = {
    "none": (),
    # idd's password QUERY to ok-dbproxy's admin port.
    "drop-lookup": (FaultRule("drop", id="drop", match="idd", max_fires=1),),
    # ok-dbproxy's QUERY_R to it.
    "drop-lookup-reply": (
        FaultRule("drop", id="drop", match="ok-dbproxy", max_fires=1),
    ),
    # Mid-login; the supervised restart succeeds.
    "crash-dbproxy": (CRASH_DBPROXY,),
    # ... and the launcher's first re-seed call to the replacement is lost.
    "crash-dbproxy-drop-reseed": (
        CRASH_DBPROXY,
        FaultRule("drop", id="drop", match="launcher", max_fires=1),
    ),
}


@pytest.mark.parametrize("rules", ONE_FAULT_EACH.values(), ids=ONE_FAULT_EACH.keys())
def test_site_survives_one_lost_message(rules):
    """Four waves of 16 requests against 8 users, one firing per rule in
    the first: whatever that wave loses, every later wave is whole.  With
    an unbounded wait in idd's lookup or the launcher's re-seed, the
    later waves all read 0/16."""
    config = KernelConfig(
        metrics=True, sanitize=True, sanitize_strict=False,
        faults=FaultPlan.of(*rules), fault_seed=0,
    )
    site = _build_disarmed(8, config)
    site.kernel.faults.arm()
    waves = []
    for _ in range(4):
        responses = HttpClient(site).run_batch(echo_requests(8, 16), concurrency=8)
        site.kernel.run()
        waves.append(sum(1 for r in responses if r.ok))
    assert len(site.kernel.faults.events) == len(rules)
    # A dropped leg is answered on the retry; only the crash costs requests.
    assert waves[0] == 16 or CRASH_DBPROXY in rules
    assert waves[1:] == [16, 16, 16]
    assert site.launcher_env["failed_services"] == []
    assert site.kernel.sanitizer.total == 0


# -- a duplicate config reply is not a REGISTER acknowledgement ------------------------


def test_launcher_config_reply_echoes_the_hello_req():
    """The launcher answers WORKER_HELLO with ``reply_to``: the reply
    carries the hello's ``req``, which is what lets the worker's channel
    tell a duplicate of it from the answer to a later call."""
    sent = {}

    class Watch:
        def on_send(self, task, request):
            payload = request.payload
            if task.name == "worker-echo" and payload.get("type") == "WORKER_HELLO":
                sent["hello"] = payload["req"]
            elif task.name == "launcher" and "verify_handle" in payload:
                sent["config"] = payload.get("req")

    kernel = Kernel()
    kernel.hooks.append(Watch())
    launch(kernel=kernel, services=[ServiceConfig("echo", echo_handler)])
    assert sent["hello"] is not None
    assert sent["config"] == sent["hello"]


def test_duplicate_config_reply_does_not_acknowledge_register(kernel):
    """A retried hello is answered twice.  The second config reply, still
    on the worker's channel when it registers, echoes the *hello's*
    ``req`` and is skipped: the worker keeps waiting for ok-demux, and
    re-sends the REGISTER that ok-demux (here) ignored the first time."""
    registers = []

    def fake_demux(ctx):
        port = yield NewPort()
        yield SetPortLabel(port, Label.top())
        ctx.env["port"] = port
        registers.append((yield Recv(port=port)).payload)  # ignored
        again = (yield Recv(port=port)).payload
        registers.append(again)
        yield Send(again["reply"], P.reply_to(again, ok=True))

    demux = kernel.spawn(fake_demux, "fake-demux")
    kernel.run()

    def fake_launcher(ctx):
        port = yield NewPort()
        yield SetPortLabel(port, Label.top())
        ctx.env["port"] = port
        hello = (yield Recv(port=port)).payload
        verify_handle = yield NewHandle()
        for _ in range(2):
            yield Send(
                hello["reply"],
                P.reply_to(
                    hello,
                    verify_handle=verify_handle,
                    demux_port=demux.env["port"],
                    dbproxy_port=0,
                    cache_port=None,
                ),
                ds=Label({verify_handle: STAR}, L3),
            )

    launcher = kernel.spawn(fake_launcher, "fake-launcher")
    kernel.run()
    worker = kernel.spawn(
        make_worker_body("echo", echo_handler),
        "worker-echo",
        env={"launcher_port": launcher.env["port"]},
    )
    kernel.run()
    assert [r["type"] for r in registers] == [P.REGISTER, P.REGISTER]
    assert registers[0]["req"] == registers[1]["req"]  # one call, re-sent
    # Registered and checkpointed, not exited for a restart.
    assert worker.state is TaskState.EP_REALM


# -- one counter per reply port --------------------------------------------------------


def test_stragglers_on_the_shared_ep_channel_are_discarded(kernel):
    """The database client, the cache client and the READ share the event
    process's one reply port.  A late ROW_R of an abandoned SELECT
    attempt, the late answer to a cache GET that was given up, and a
    duplicate READ_R are each skipped by whichever call comes next —
    their ``req`` numbers come from one counter, so none can pass for
    another exchange's answer."""

    def peer(ctx):
        port = yield NewPort()
        yield SetPortLabel(port, Label.top())
        ctx.env["port"] = port
        abandoned = (yield Recv(port=port)).payload  # SELECT attempt 1: silence
        select = (yield Recv(port=port)).payload     # attempt 2, a fresh req
        yield Send(select["reply"], P.reply_to(select, P.ROW_R, row="fresh"))
        yield Send(select["reply"], P.reply_to(select, P.DONE_R))
        yield Send(select["reply"], P.reply_to(abandoned, P.ROW_R, row="stale"))
        get = (yield Recv(port=port)).payload
        yield Send(get["reply"], P.reply_to(get, "GET_R", value="v", hit=True))
        for _ in range(1 + RPC_RETRIES):             # a GET nobody answers in time
            given_up = (yield Recv(port=port)).payload
        read = (yield Recv(port=port)).payload
        yield Send(read["reply"], P.reply_to(given_up, "GET_R", value="late", hit=True))
        yield Send(read["reply"], P.reply_to(read, data="body"))
        yield Send(read["reply"], P.reply_to(read, data="duplicate"))
        write = (yield Recv(port=port)).payload
        yield Send(write["reply"], P.reply_to(write, P.QUERY_R, rows_affected=1))

    server = kernel.spawn(peer, "peer")
    kernel.run()
    seen = {}

    def event_process(ctx):
        port = server.env["port"]
        taint = yield NewHandle()
        grant = yield NewHandle()
        chan = yield from Channel.open()
        db = DbClient(port, chan, 1, taint, grant)
        cache = CacheClient(port, chan, 1, taint, grant)
        seen["rows"] = yield from db.select("SELECT text FROM notes")
        seen["get"] = yield from cache.get("k")
        with pytest.raises(DbError):
            yield from cache.get("k")
        body = yield from chan.call(
            port, P.request(P.READ),
            deadline=RPC_TIMEOUT, retries=RPC_RETRIES, backoff=1,
        )
        seen["body"] = body.payload["data"]
        seen["written"] = yield from db.write("INSERT INTO notes VALUES (?)", ("x",))

    kernel.spawn(event_process, "ep")
    kernel.run()
    assert seen == {"rows": ["fresh"], "get": ("v", True), "body": "body", "written": 1}


def test_replayed_write_reply_still_echoes_req():
    """ok-dbproxy answers a replayed write from its dedup map.  The first
    reply's dict was delivered to — and stripped of ``req`` by — the
    caller's channel; the recorded copy must be untouched, or the replay
    would pass for the answer to whatever that channel asks next."""
    site = launch(
        services=[ServiceConfig("notes", notes_handler)],
        users=[("alice", "pw-a")],
        schema=["CREATE TABLE notes (author TEXT, text TEXT)"],
    )
    seen = {}

    def body(ctx):
        chan = yield from Channel.open()
        login = yield from chan.call(
            site.idd_port, P.request(P.LOGIN, user="alice", password="pw-a")
        )
        uid, taint, grant = (login.payload[k] for k in ("uid", "taint", "grant"))
        yield ChangeLabel(raise_receive={taint: L3})
        insert = P.request(
            P.QUERY, sql="INSERT INTO notes (author, text) VALUES (?, ?)",
            params=("alice", "once"), uid=uid,
        )
        verify = Label({taint: L3, grant: L0}, L2)
        req = yield from chan.call_nowait(site.dbproxy_port, insert, v=verify)
        first = yield from chan.await_reply(req, None)
        assert "req" not in first.payload
        # The retry of that call, by hand: same reply port, same req.
        yield Send(
            site.dbproxy_port, dict(insert, reply=chan.port, req=req), v=verify
        )
        seen["replay"] = (yield Recv(port=chan.port)).payload
        seen["req"] = req
        seen["rows"] = yield from DbClient(
            site.dbproxy_port, chan, uid, taint, grant
        ).select("SELECT text FROM notes")

    site.kernel.spawn(body, "probe")
    site.kernel.run()
    assert seen["replay"]["req"] == seen["req"]
    assert seen["replay"]["rows_affected"] == 1
    assert seen["rows"] == [{"text": "once"}]  # executed once


def test_stale_duplicate_from_a_request_answer_server_is_discarded(kernel):
    """The server half (``Request.answer``) echoes ``req`` as ``reply_to``
    did: a call delivered twice is answered twice, and the second answer,
    still queued when the next call is made, is skipped by it."""
    from repro.servers.fileserver import file_server_body

    fs = kernel.spawn(file_server_body, "fs")
    kernel.run()
    seen = {}

    def client(ctx):
        port = fs.env["fs_port"]
        chan = yield from Channel.open()
        create = P.request(P.CREATE, path="/a", data=b"x")
        req = yield from chan.call_nowait(port, create)
        yield Send(port, dict(create, reply=chan.port, req=req))  # the retry
        seen["create"] = (yield from chan.await_reply(req, None)).payload
        # Queued behind it: ERROR_R "file exists", echoing the same req.
        listing = yield from chan.call(port, P.request("LIST"), deadline=RPC_TIMEOUT)
        seen["list"] = listing.payload

    kernel.spawn(client, "client")
    kernel.run()
    assert seen == {
        "create": {"type": P.CREATE_R, "ok": True},
        "list": {"type": "LIST_R", "paths": ["/a"]},
    }
