"""A labeled multi-user file server — the running example of Section 5.2.

The file server is trusted by its users: it holds declassification
privilege (``⋆``) for each user's taint compartment so it can serve any
user without accumulating contamination, and it re-applies the owning
user's taint to all file data it returns (*discretionary contamination*
via the CS argument to send).

Policies implemented:

- **Privacy** (Section 5.2): a file created with an owner taint handle
  ``uT`` is returned only with contamination ``uT 3``; processes whose
  receive labels do not admit ``uT 3`` never see the data (the kernel
  drops the reply).
- **Discretionary integrity** (Section 5.4): a file created with a grant
  handle ``uG`` accepts writes only from senders whose verification label
  proves ``V(uG) ≤ 0`` — and, to preserve the ∗-property, whose
  verification label is bounded above by ``{uT 3, uG 0, 2}``, so a writer
  contaminated with some *other* user's secrets cannot launder them into
  this file.

Compartment setup is decentralized: whoever creates a user's handles
grants them to the file server at ``⋆`` on the CREATE message (the DS
label), and the server raises its own receive label to accept that user's
taint.  No central security administrator is involved.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.core.handles import Handle
from repro.core.labels import Label
from repro.core.levels import L0, L2, L3, STAR
from repro.ipc import protocol as P
from repro.ipc.rpc import HANDLE, NAME, NONE, Request, open_port
from repro.kernel.errors import InvalidArgument
from repro.kernel.syscalls import ChangeLabel, Recv

#: Modelled cycles per file operation.
FILE_OP_CYCLES = 15_000

#: What the file server understands, and what each request must carry.
SHAPES = {
    P.CREATE: {"path": NAME, "taint": (HANDLE, NONE), "grant": (HANDLE, NONE)},
    P.READ: {"path": NAME},
    P.WRITE: {"path": NAME},
    "LIST": {},
}


def file_server_body(ctx):
    """The file server process.  Publishes ``fs_port``."""
    service = yield from open_port()
    ctx.env["fs_port"] = service

    # path -> metadata; contents live in accounted memory under "file:<path>".
    files: Dict[str, Dict[str, Optional[Handle]]] = {}

    while True:
        msg = yield Recv(port=service)
        req = Request(msg, SHAPES, ctx)
        payload, mtype = req.payload, req.type
        path = payload.get("path")
        ctx.compute(FILE_OP_CYCLES)

        if mtype == P.CREATE:
            taint = payload.get("taint")
            grant = payload.get("grant")
            if path in files:
                yield from req.error("file exists")
                continue
            if taint is not None:
                try:
                    yield ChangeLabel(raise_receive={taint: L3})
                except InvalidArgument:
                    # Without declassification privilege we would be
                    # permanently contaminated by this compartment.
                    yield from req.error("taint not granted")
                    continue
            files[path] = {"taint": taint, "grant": grant}
            ctx.mem.store(f"file:{path}", payload.get("data", b""))
            # The ack carries no file data, so it is not contaminated;
            # contaminating it would wall the creator (who holds uT *)
            # off from its own acknowledgment.
            yield from req.answer(ok=True)

        elif mtype == P.READ:
            meta = files.get(path)
            if meta is None:
                yield from req.error("no such file")
                continue
            data = ctx.mem.load(f"file:{path}")
            # Discretionary contamination: the reply carries the owner's
            # taint, raising the reader's send label (Equation 4).
            yield from req.answer(data=data, cs=_taint_label(meta["taint"]))

        elif mtype == P.WRITE:
            meta = files.get(path)
            if meta is None:
                yield from req.error("no such file")
                continue
            grant = meta["grant"]
            taint = meta["taint"]
            verify: Label = msg.verify
            if grant is not None:
                # The sender must prove it speaks for the owner: V(uG) <= 0
                # (Section 5.4's discretionary integrity check).  For files
                # that also carry a taint compartment, V must additionally
                # be bounded by {uT 3, uG 0, 2} so no *foreign* user's
                # contamination can be laundered into this file.
                ok = verify(grant) <= L0
                if ok and taint is not None:
                    ok = verify <= Label({grant: L0, taint: L3}, L2)
                if not ok:
                    yield from req.error("write not authorized")
                    continue
            ctx.mem.store(f"file:{path}", payload.get("data", b""))
            yield from req.answer(ok=True)

        elif mtype == "LIST":
            yield from req.answer(paths=sorted(files))


def _taint_label(taint: Optional[Handle]) -> Optional[Label]:
    if taint is None:
        return None
    return Label({taint: L3}, STAR)
