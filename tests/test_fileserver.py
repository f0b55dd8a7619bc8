"""The labeled file server and the Section 5.2 / 5.4 examples: privacy
through discretionary contamination, integrity through grant handles."""

import pytest

from repro.core.labels import Label
from repro.core.levels import L0, L3, STAR
from repro.ipc import protocol as P
from repro.ipc.rpc import Channel
from repro.kernel import ChangeLabel, NewHandle, Recv, Send, Spawn
from repro.servers.fileserver import file_server_body


@pytest.fixture
def fs(kernel):
    proc = kernel.spawn(file_server_body, "fs")
    kernel.run()
    return proc


def run_admin(kernel, fs, script):
    """Spawn a manager process with fresh handles uT/uG that runs *script*
    (a generator function taking (ctx, chan, fs_port, uT, uG)) and records
    its result in ctx.env['result']."""

    def manager(ctx):
        uT = yield NewHandle()
        uG = yield NewHandle()
        ctx.env["uT"], ctx.env["uG"] = uT, uG
        chan = yield from Channel.open()
        ctx.env["result"] = yield from script(ctx, chan, ctx.env["fs_port"], uT, uG)

    proc = kernel.spawn(manager, "manager", env={"fs_port": fs.env["fs_port"]})
    kernel.run()
    return proc


def test_create_read_roundtrip(kernel, fs):
    def script(ctx, chan, fs_port, uT, uG):
        yield from chan.call(
            fs_port,
            P.request(P.CREATE, path="/f", data=b"hello"),
        )
        r = yield from chan.call(fs_port, P.request(P.READ, path="/f"))
        return r.payload

    proc = run_admin(kernel, fs, script)
    assert proc.env["result"]["data"] == b"hello"


def test_read_missing_file(kernel, fs):
    def script(ctx, chan, fs_port, uT, uG):
        r = yield from chan.call(fs_port, P.request(P.READ, path="/missing"))
        return r.payload

    proc = run_admin(kernel, fs, script)
    assert proc.env["result"]["type"] == P.ERROR_R


def test_create_taint_requires_grant(kernel, fs):
    # Creating a tainted file without granting the FS ⋆ must fail: the FS
    # refuses rather than accept unremovable contamination.
    def script(ctx, chan, fs_port, uT, uG):
        r = yield from chan.call(fs_port, P.request(P.CREATE, path="/t", taint=uT))
        return r.payload

    proc = run_admin(kernel, fs, script)
    assert proc.env["result"]["type"] == P.ERROR_R


def test_tainted_read_contaminates_reader(kernel, fs):
    def script(ctx, chan, fs_port, uT, uG):
        yield from chan.call(
            fs_port,
            P.request(P.CREATE, path="/u/f", taint=uT, data=b"secret"),
            ds=Label({uT: STAR}, L3),
        )
        # A default-labelled reader cannot receive the uT-3 reply...
        def reader(rctx):
            rchan = yield from Channel.open()
            r = yield from rchan.call(fs_port, P.request(P.READ, path="/u/f"))
            rctx.env["never"] = r.payload

        yield Spawn(reader, name="reader")
        return "spawned"

    run_admin(kernel, fs, script)
    assert kernel.drop_log.count("label-check") == 1  # the READ_R died


def test_cleared_reader_receives_and_is_tainted(kernel, fs):
    observed = {}

    def script(ctx, chan, fs_port, uT, uG):
        yield from chan.call(
            fs_port,
            P.request(P.CREATE, path="/u/f", taint=uT, data=b"secret"),
            ds=Label({uT: STAR}, L3),
        )

        def reader(rctx):
            rchan = yield from Channel.open()
            setup = yield Recv(port=rchan.port)     # wait for clearance
            r = yield from rchan.call(fs_port, P.request(P.READ, path="/u/f"))
            from repro.kernel import GetLabels
            send, _ = yield GetLabels()
            observed["data"] = r.payload["data"]
            observed["taint"] = send(uT)

        hello = yield from Channel.open()
        yield Spawn(reader, name="reader", env={})
        # Clear the reader: raise its receive label for uT (we hold uT ⋆).
        # We need the reader's channel port; do the handshake:
        return "ok"

    # Simpler: run the whole flow in one manager with a raised helper.
    def script2(ctx, chan, fs_port, uT, uG):
        yield from chan.call(
            fs_port,
            P.request(P.CREATE, path="/u/f", taint=uT, data=b"secret"),
            ds=Label({uT: STAR}, L3),
        )
        # Raise our own receive (we control uT) and read the file back.
        yield ChangeLabel(raise_receive={uT: L3})
        r = yield from chan.call(fs_port, P.request(P.READ, path="/u/f"))
        from repro.kernel import GetLabels
        send, _ = yield GetLabels()
        return {"data": r.payload["data"], "taint": send(uT)}

    proc = run_admin(kernel, fs, script2)
    assert proc.env["result"]["data"] == b"secret"
    # The manager holds uT ⋆, so its taint level stays ⋆ (Equation 5)...
    assert proc.env["result"]["taint"] == STAR


def test_integrity_write_requires_grant_proof(kernel, fs):
    # Section 5.4: the file server verifies V(uG) <= 0 before a write.
    def script(ctx, chan, fs_port, uT, uG):
        yield from chan.call(
            fs_port,
            P.request(P.CREATE, path="/u/f", grant=uG, data=b"v1"),
            ds=Label({uG: STAR}, L3),
        )
        # Without V: rejected.
        r1 = yield from chan.call(fs_port, P.request(P.WRITE, path="/u/f", data=b"bad"))
        # With V = {uG 0, 3}: accepted (we hold uG ⋆, so ES(uG) = ⋆ <= 0).
        r2 = yield from chan.call(
            fs_port,
            P.request(P.WRITE, path="/u/f", data=b"v2"),
            v=Label({uG: L0}, L3),
        )
        r3 = yield from chan.call(fs_port, P.request(P.READ, path="/u/f"))
        return (r1.payload, r2.payload, r3.payload)

    proc = run_admin(kernel, fs, script)
    r1, r2, r3 = proc.env["result"]
    assert r1["type"] == P.ERROR_R
    assert r2.get("ok") is True
    assert r3["data"] == b"v2"


def test_integrity_forger_cannot_write(kernel, fs):
    # A process without uG cannot fabricate the verification label: the
    # kernel drops a message whose V does not bound the sender's ES.
    stuck = []

    def script(ctx, chan, fs_port, uT, uG):
        yield from chan.call(
            fs_port,
            P.request(P.CREATE, path="/u/f", grant=uG, data=b"v1"),
            ds=Label({uG: STAR}, L3),
        )

        def forger(fctx):
            fchan = yield from Channel.open()
            yield Send(
                fs_port,
                dict(P.request(P.WRITE, path="/u/f", data=b"evil"), reply=fchan.port),
                v=Label({uG: L0}, L3),   # a lie: forger's ES(uG) = 1 > 0
            )
            stuck.append("sent")

        yield Spawn(forger, name="forger")
        return "ok"

    run_admin(kernel, fs, script)
    kernel.run()
    assert stuck == ["sent"]                      # send "succeeded"...
    assert kernel.drop_log.count("label-check") == 1  # ...but never arrived

    # And the file is unchanged:
    def check(ctx, chan, fs_port, uT, uG):
        r = yield from chan.call(fs_port, P.request(P.READ, path="/u/f"))
        return r.payload["data"]

    fs_proc = [p for p in kernel.processes.values() if p.name == "fs"][0]
    proc = kernel.spawn(
        _checker(check, fs_proc.env["fs_port"]), "checker"
    )
    kernel.run()
    assert proc.env["result"] == b"v1"


def _checker(script, fs_port):
    def body(ctx):
        chan = yield from Channel.open()
        ctx.env["result"] = yield from script(ctx, chan, fs_port, None, None)

    return body


def test_duplicate_create_rejected(kernel, fs):
    def script(ctx, chan, fs_port, uT, uG):
        yield from chan.call(fs_port, P.request(P.CREATE, path="/f", data=b"a"))
        r = yield from chan.call(fs_port, P.request(P.CREATE, path="/f", data=b"b"))
        return r.payload

    proc = run_admin(kernel, fs, script)
    assert proc.env["result"]["type"] == P.ERROR_R


def test_list(kernel, fs):
    def script(ctx, chan, fs_port, uT, uG):
        yield from chan.call(fs_port, P.request(P.CREATE, path="/b", data=b""))
        yield from chan.call(fs_port, P.request(P.CREATE, path="/a", data=b""))
        r = yield from chan.call(fs_port, P.request("LIST"))
        return r.payload

    proc = run_admin(kernel, fs, script)
    assert proc.env["result"]["paths"] == ["/a", "/b"]
