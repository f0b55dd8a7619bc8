"""asblint fixture: ASB004 through ``Request.answer``.

``private`` still carries the closed ``{private 0}`` label minted by
``new_port`` and nothing ever grants it, so the asker learns the handle
from the reply's fields but can never send to it.
"""

from repro.ipc.rpc import Request, open_port
from repro.kernel.syscalls import NewPort, Recv

SHAPES = {"WHERE": {}}


def dead_drop_server(ctx):
    port = yield from open_port()
    private = yield NewPort()
    while True:
        req = Request((yield Recv(port=port)), SHAPES, ctx)
        yield from req.answer(port=private)  # FINDING
