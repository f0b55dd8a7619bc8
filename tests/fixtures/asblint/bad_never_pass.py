"""asblint fixture: ASB001 — a send that can never pass the Figure 4 check.

The sender contaminates the message with ``secret`` at level 3 but pins
``v=`` to level 0: ES(secret) = 3 can never fit under V(secret) = 0,
so the kernel drops the message silently on every execution.
"""

from repro.core.labels import Label
from repro.core.levels import L0, L3
from repro.kernel.syscalls import Send


def classified_broadcast(ctx):
    secret = ctx.env["secret_handle"]
    yield Send(  # FINDING
        ctx.env["peer"],
        {"classified": True},
        cs=Label({secret: L3}, L0),
        v=Label({}, L0),
    )
