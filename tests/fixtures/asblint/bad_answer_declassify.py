"""asblint fixture: ASB003 through ``Request.answer``.

The same overeager grant as ``bad_declassify.py``, made in a reply: a
fresh process (PS = {1}) answers with ``ds=`` lowering ``db_handle`` to
⋆, which requirement (2) — DS(h) < 3 ⇒ PS(h) = ⋆ — provably refuses.
"""

from repro.core.labels import Label
from repro.core.levels import L3, STAR
from repro.ipc.rpc import Request

SHAPES = {"ASK": {}}


def overeager_answerer(ctx):
    req = Request(ctx.env["handed_over"], SHAPES, ctx)
    yield from req.answer(  # FINDING
        ok=True,
        ds=Label({ctx.env["db_handle"]: STAR}, L3),
    )
