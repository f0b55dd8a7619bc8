"""The two boundaries every untrusted program crosses — request payloads
and syscall arguments — fail closed (DESIGN.md §5, §10.3).

A process with the default labels (``PS = {1}``, ``PR = {2}``, no handle,
nothing granted) may send anything to any published port: whatever it
sends, no other process dies, nothing is restarted, ``Kernel.run``
returns, and the site still answers.  A malformed syscall is the
caller's ``InvalidArgument``, never the machine's exception.
"""

from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.analysis import asblint
from repro.analysis import rules as R
from repro.core.labels import Label
from repro.ipc import protocol as P
from repro.ipc.rpc import Request, open_port
from repro.kernel import (
    ChangeLabel,
    Compute,
    Deadline,
    DissociatePort,
    Kernel,
    NewHandle,
    Recv,
    Send,
    SetPortLabel,
)
from repro.kernel.errors import InvalidArgument
from repro.kernel.message import Message
from repro.okws import ServiceConfig, demux, launch, launcher
from repro.okws.services import echo_handler, notes_handler
from repro.servers import cache, dbproxy, fileserver, filesystem, idd, netd, netd2
from repro.sim.workload import HttpClient

ROOT = Path(__file__).resolve().parents[1]
FIXTURES = Path(__file__).parent / "fixtures" / "asblint"
NETWORKS = ("classic", "decomposed")

SHAPE_TABLES = [
    netd.SHAPES, netd2.FRONT_SHAPES, netd2.BACKEND_SHAPES, idd.SHAPES,
    dbproxy.SHAPES, cache.SHAPES, fileserver.SHAPES, filesystem.SHAPES,
    demux.SHAPES, launcher.SHAPES,
]
#: Every message type any server names, and every one in the vocabulary.
TYPES = sorted(
    {t for table in SHAPE_TABLES for t in table}
    | {v for k, v in vars(P).items() if k.isupper() and isinstance(v, str)}
)
#: type -> the fields some server requires of it, plus ``reply``.
FIELDS = {
    t: sorted({"reply"} | {f for table in SHAPE_TABLES for f in table.get(t, ())})
    for t in TYPES
}
HUGE = 10**30
DROPPED = object()
#: Well-formed from anyone who knows the port, and they re-route the site
#: (idd's admin port, netd's listener, dbproxy's idd): *who* may send
#: these is the integrity question DESIGN §10.3 leaves to verification
#: labels, so the fuzz keeps their handle fields ill-typed.
REROUTES = ("REBIND", P.LISTEN, "SET_IDD")


def boot(network):
    site = launch(
        kernel=Kernel(),
        services=[ServiceConfig("echo", echo_handler), ServiceConfig("notes", notes_handler)],
        users=[("alice", "pw-a"), ("bob", "pw-b")],
        schema=["CREATE TABLE notes (author TEXT, text TEXT)"],
        network=network,
    )
    assert HttpClient(site).request("alice", "pw-a", "echo").payload["body"] == "x" * 11
    return site


def published_ports(site):
    """Every live port any process's ``env`` names, by (process, key)."""
    kernel = site.kernel
    return {
        (proc.name, key): value
        for proc in list(kernel.processes.values())
        for key, value in proc.env.items()
        if type(value) is int and value in kernel.ports
    }


def assert_survives(site, messages):
    """A default-label process sends *messages*; nobody else notices."""
    kernel = site.kernel
    before = {proc.name for proc in kernel.processes.values()}

    def rogue(ctx):
        for port, payload in messages:
            yield Send(port, payload)

    kernel.spawn(rogue, "rogue")
    kernel.run()
    assert before <= {proc.name for proc in kernel.processes.values()}, messages
    assert site.launcher_env["restarts"] == [], messages
    assert site.launcher_env["failed_services"] == [], messages


def assert_still_serves(site):
    client = HttpClient(site, _next_conn=1000)
    assert client.request("bob", "pw-b", "echo").payload["body"] == "x" * 11
    added = client.request("bob", "pw-b", "notes", body="n", args={"op": "add"})
    assert added.payload["body"] == "added 1"


# -- (a) request payloads, from the least privileged process on the machine ------------


@pytest.mark.parametrize("network", NETWORKS)
def test_every_type_to_every_published_port_kills_nothing(network):
    """The deterministic sweep: every type, bare and with a reply port,
    and four non-dicts, to every published port, one message at a time."""
    site = boot(network)
    payloads = [5, None, "x", [1]]
    for t in TYPES:
        payloads += [{"type": t}, {"type": t, "reply": 1}]
    for port in sorted(set(published_ports(site).values())):
        for payload in payloads:
            assert_survives(site, [(port, payload)])
    assert_still_serves(site)


def junk(reroute):
    values = [DROPPED, None, [1], "x", 3.5] + ([] if reroute else [HUGE, 1])
    return st.sampled_from(values)


@st.composite
def payloads(draw):
    if draw(st.integers(0, 9)) == 0:
        return draw(st.sampled_from([5, None, "x", [1], 3.5, ("type", "READ")]))
    t = draw(st.sampled_from(TYPES))
    payload = {"type": t}
    for name in FIELDS[t]:
        value = draw(junk(t in REROUTES))
        if value is not DROPPED:
            payload[name] = value
    return payload


@settings(max_examples=120, deadline=None, suppress_health_check=list(HealthCheck))
@given(
    network=st.sampled_from(NETWORKS),
    picks=st.lists(st.tuples(st.integers(0, 63), payloads()), min_size=1, max_size=8),
)
def test_junk_typed_fields_kill_nothing(network, picks):
    site = boot(network)
    ports = sorted(set(published_ports(site).values()))
    assert_survives(site, [(ports[i % len(ports)], payload) for i, payload in picks])
    assert_still_serves(site)


#: The thirteen single messages of ISSUE 24's table: (port's env key,
#: payload).  Each killed a trusted process, or the simulator, at PR 23.
KILLERS = {
    "demux-EXPECT-bare": ("demux_port", {"type": "EXPECT"}),
    "demux-SESSION-bare": ("demux_port", {"type": "SESSION"}),
    "demux-ACCEPT_R-bare": ("demux_port", {"type": "ACCEPT_R"}),
    "demux-DOWN-unhashable": ("demux_port", {"type": "DOWN", "service": [1]}),
    "demux-FAILED-unhashable": ("demux_port", {"type": "FAILED", "service": [1]}),
    "demux-REGISTER-unhashable": ("demux_port", {"type": "REGISTER", "service": [1]}),
    "okc-grant-BIND-bare": ("cache_grant_port", {"type": "BIND"}),
    "okc-GET-unhashable-key": (
        "cache_port", {"type": "GET", "reply": 1, "owner": 0, "key": [1]},
    ),
    "idd-AFFIRM-unhashable": ("idd_port", {"type": "AFFIRM", "uid": [1]}),
    "dbproxy-grant-BIND-bare": ("dbproxy_grant_port", {"type": "BIND"}),
    "netd-LISTEN-unhashable": ("netd_port", {"type": "LISTEN", "port": [1]}),
    "netd-reply-str": ("netd_port", {"type": "LISTEN", "notify": 1, "reply": "x"}),
    "idd-reply-float": ("idd_port", {"type": "AFFIRM", "uid": 1, "reply": 3.5}),
}


@pytest.mark.parametrize("network", NETWORKS)
@pytest.mark.parametrize("case", KILLERS)
def test_the_thirteen_single_messages_are_dropped(case, network):
    key, payload = KILLERS[case]
    site = boot(network)
    ports = {k: port for (_, k), port in published_ports(site).items()}
    assert_survives(site, [(ports[key], payload)])
    assert_still_serves(site)


def test_unhashable_service_in_a_request_head_is_a_404():
    """The head is the HTTP client's: ok-demux looks the service up only
    as a string, whatever an authenticated client put there."""
    site = boot("classic")
    before = {proc.name for proc in site.kernel.processes.values()}
    assert HttpClient(site, _next_conn=500).request("alice", "pw-a", [1]).payload == {"status": 404}
    assert before <= {proc.name for proc in site.kernel.processes.values()}
    assert_still_serves(site)


# -- (b) the worker's side: a process holding uC ⋆, against its connection -------------


@pytest.mark.parametrize("network", NETWORKS)
def test_replyless_connection_ops_from_the_connection_holder(network):
    """READ / SELECT answer on ``reply``; without one they are dropped,
    not a ``KeyError`` in the trusted daemon."""
    site = boot(network)
    kernel = site.kernel
    netd_port = {k: p for (_, k), p in published_ports(site).items()}["netd_port"]
    before = {proc.name for proc in kernel.processes.values()}

    def holder(ctx):
        chan_port = yield from open_port()
        yield Send(netd_port, P.request(P.LISTEN, port=7000, notify=chan_port))
        conn = (yield Recv(port=chan_port)).payload["conn"]  # granted uC ⋆
        for op in (P.READ, P.SELECT, P.WRITE, P.CONTROL, "TAINT"):
            yield Send(conn, {"type": op})
        yield Send(conn, 5)
        ctx.env["done"] = True

    proc = kernel.spawn(holder, "holder")
    kernel.run()
    kernel.inject(site.netd_wire_port, {"type": "OPEN", "conn": 7, "dport": 7000})
    kernel.run()
    assert proc.env.get("done")
    assert before <= {p.name for p in kernel.processes.values()}
    assert_still_serves(site)


# -- (c) syscall arguments --------------------------------------------------------------

#: Each takes *h*, a handle the caller holds ⋆ for.
BAD_SYSCALLS = {
    "send-port-str": lambda h: Send(port="x", payload=1),
    "send-port-none": lambda h: Send(port=None, payload=1),
    "send-port-float": lambda h: Send(port=3.5, payload=1),
    "recv-port-str": lambda h: Recv(port="x"),
    "recv-timeout-str": lambda h: Recv(timeout="x"),
    "set-port-label-str": lambda h: SetPortLabel("x", Label.top()),
    "dissociate-str": lambda h: DissociatePort("x"),
    "send-transfer-str": lambda h: Send(port=1, payload=1, transfer=("x",)),
    "raise-receive-key-str": lambda h: ChangeLabel(raise_receive={"x": 3}),
    "drop-send-key-str": lambda h: ChangeLabel(drop_send=("x",)),
    "compute-str": lambda h: Compute("x"),
    "deadline-str": lambda h: Deadline("x"),
    "raise-receive-level-str": lambda h: ChangeLabel(raise_receive={h: "x"}),
    "raise-receive-level-range": lambda h: ChangeLabel(raise_receive={h: 7}),
}


@pytest.mark.parametrize("case", BAD_SYSCALLS)
def test_mistyped_syscall_argument_is_the_callers_error(case):
    kernel = Kernel()
    seen = []

    def caller(ctx):
        h = yield NewHandle()
        with pytest.raises(InvalidArgument):
            yield BAD_SYSCALLS[case](h)
        yield Compute(1)  # and it keeps running
        seen.append("caller")

    def bystander(ctx):
        yield Compute(1)
        seen.append("bystander")

    kernel.spawn(caller, "caller")
    kernel.spawn(bystander, "bystander")
    kernel.run()
    assert sorted(seen) == ["bystander", "caller"]


# -- (d) Request: what it reads, what it answers ----------------------------------------


class Counts:
    def __init__(self):
        self.malformed = 0

    def count(self, name, n=1):
        assert name == "malformed"
        self.malformed += n


SHAPES = {"ASK": {"uid": int, "key": (int, str, type(None))}, "PING": {}}


def read(payload):
    ctx = Counts()
    return Request(Message(port=9, payload=payload), SHAPES, ctx), ctx


@pytest.mark.parametrize(
    "payload",
    [
        5, None, ["type", "ASK"],
        {}, {"type": None}, {"type": ["ASK"]}, {"type": "NOPE", "reply": 3},
        {"type": "ASK", "reply": 3}, {"type": "ASK", "reply": 3, "uid": "1"},
        {"type": "ASK", "reply": 3, "uid": 1, "key": [1]},
        {"type": "PING", "reply": "x"}, {"type": "PING", "reply": 3.5},
    ],
)
def test_malformed_request_has_no_type_and_cannot_be_answered(payload):
    req, ctx = read(payload)
    assert (req.type, req.reply, ctx.malformed) == (None, None, 1)
    assert isinstance(req.payload, dict)
    assert list(req.answer(ok=True)) == list(req.error("no")) == []


def test_well_formed_request_is_read_once():
    req, ctx = read({"type": "ASK", "reply": 3, "uid": 1, "key": "k"})
    assert (req.type, req.reply, ctx.malformed) == ("ASK", 3, 0)
    assert read({"type": "ASK", "uid": 1})[0].type == "ASK"  # key may be absent
    assert read({"type": "PING"})[0].type == "PING"


def test_answer_without_a_reply_port_makes_no_syscall():
    req, _ = read({"type": "PING"})
    assert list(req.answer(ok=True)) == []


def test_answer_echoes_tag_and_req_in_reply_to_order():
    req, _ = read({"type": "PING", "reply": 3, "req": 8, "tag": 7})
    label = Label({5: 3}, 1)
    (send,) = req.answer(ok=True, cs=label)
    assert (send.port, send.cs, send.ds, send.v, send.dr) == (3, label, None, None, None)
    assert list(send.payload.items()) == [
        ("type", "PING_R"), ("tag", 7), ("req", 8), ("ok", True),
    ]
    (err,) = req.error("nope")
    assert err.payload == {"type": P.ERROR_R, "tag": 7, "req": 8, "error": "nope"}
    (row,) = req.answer(P.ROW_R, row=1)
    assert row.payload["type"] == P.ROW_R


# -- (e) asblint still sees every reply ---------------------------------------------------


@pytest.mark.parametrize(
    "name,rule",
    [
        ("bad_answer_declassify.py", R.DECLASSIFY_NO_STAR),
        ("bad_answer_leak.py", R.HANDLE_LEAK),
    ],
)
def test_answer_is_checked_as_the_send_it_makes(name, rule):
    path = FIXTURES / name
    report = asblint.analyze_file(path)
    markers = [
        lineno
        for lineno, text in enumerate(path.read_text().splitlines(), start=1)
        if "# FINDING" in text
    ]
    assert [(d.rule, d.line) for d in report.diagnostics] == [(rule, markers[0])]


def test_asblint_did_not_go_blind():
    """331 send sites were evaluated over ``src`` and ``examples`` before
    the servers' replies moved into ``Request.answer``; "0 findings" out
    of fewer is the tool losing sight, not the tree getting cleaner."""
    reports = asblint.analyze_paths([ROOT / "src", ROOT / "examples"])
    assert asblint.findings(reports) == []
    assert sum(r.sends_checked for r in reports) >= 331
