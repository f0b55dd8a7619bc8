"""asblint fixture: a well-behaved OKWS-style worker — zero findings.

Every port disclosure is accompanied by an opened label or a ⋆ grant,
verification credentials are only asserted after the setup message that
grants them, and all contamination crossing a boundary is an explicit
``cs=``.
"""

from repro.core.labels import Label
from repro.core.levels import L0, L3, STAR
from repro.kernel.syscalls import EpExit, NewPort, Recv, Send, SetPortLabel


def worker_body(ctx):
    # Bootstrap: announce on an open channel, then wait for the setup
    # message (which grants the verification credential via DS).
    chan = yield NewPort()
    yield SetPortLabel(chan, Label.top())
    yield Send(ctx.env["launcher_port"], {"type": "HELLO", "reply": chan})
    setup = yield Recv(port=chan)

    # Register with the demux, proving the credential the setup granted.
    base = yield NewPort()
    yield SetPortLabel(base, Label.top())
    yield Send(
        setup.payload["demux_port"],
        {"type": "REGISTER", "port": base},
        v=Label({ctx.env["verify_handle"]: L0}, L3),
    )

    while True:
        msg = yield Recv(port=base)
        # A per-connection reply port: disclosed together with its grant,
        # and the user's taint is declared as explicit contamination.
        conn = yield NewPort()
        yield Send(
            msg.payload["reply"],
            {"type": "OK", "conn": conn},
            ds=Label({conn: STAR}, L3),
            cs=Label({msg.payload["user_taint"]: L3}, STAR),
        )


def conn_handler(ectx, msg):
    # Event-body style: unknown label history, explicit contamination.
    yield Send(
        msg.payload["reply"],
        {"type": "DATA", "body": "hello"},
        cs=Label({msg.payload["taint"]: L3}, STAR),
    )
    yield EpExit()
