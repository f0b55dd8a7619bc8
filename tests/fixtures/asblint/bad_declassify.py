"""asblint fixture: ASB003 — decontamination without ⋆.

A fresh process (PS = {1}) tries to grant ``db_handle`` at ⋆ through
``decontaminate_send``.  Figure 4 requirement (2) — DS(h) < 3 ⇒
PS(h) = ⋆ — provably fails, so the kernel silently drops the send.
"""

from repro.core.labels import Label
from repro.core.levels import L3, STAR
from repro.kernel.syscalls import Send


def overeager_granter(ctx):
    yield Send(  # FINDING
        ctx.env["peer"],
        {"grant": "here you go"},
        ds=Label({ctx.env["db_handle"]: STAR}, L3),
    )
