"""Message-protocol conventions built on raw kernel IPC.

Asbestos emulates conventional mechanisms (pipes, file descriptors) with
messages sent to ports; the protocol messages were inspired by Plan 9's 9P
(paper Section 4).  This package defines the message vocabulary
(:mod:`repro.ipc.protocol`) and request/reply plumbing for writing servers
and clients (:mod:`repro.ipc.rpc`).
"""

from repro.ipc.protocol import (
    CONTROL,
    CONTROL_R,
    ERROR_R,
    READ,
    READ_R,
    SELECT,
    SELECT_R,
    WRITE,
    WRITE_R,
    reply_to,
    request,
)
from repro.ipc.rpc import CallTimeout, Channel

__all__ = [
    "CONTROL",
    "CONTROL_R",
    "ERROR_R",
    "READ",
    "READ_R",
    "SELECT",
    "SELECT_R",
    "WRITE",
    "WRITE_R",
    "reply_to",
    "request",
    "CallTimeout",
    "Channel",
]
