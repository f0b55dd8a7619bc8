"""asblint fixture: ASB002 — implicit contamination (taint creep).

The program raises its own send label to carry ``h`` at level 3, then
keeps sending with no ``cs=``: every receiver is silently
contaminated by the floating PS instead of a declared CS.
"""

from repro.core.labels import Label
from repro.core.levels import L1, L3
from repro.kernel.syscalls import ChangeLabel, Send


def chatty_tainted(ctx):
    h = ctx.env["taint_handle"]
    yield ChangeLabel(send=Label({h: L3}, L1))
    yield Send(ctx.env["peer"], {"status": "done"})  # FINDING
