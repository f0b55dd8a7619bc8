"""The 9P-inspired message vocabulary.

Every request is a dict with a ``type`` field, usually a ``reply`` field
naming the port to answer on, and type-specific fields.  Replies carry the
request type suffixed ``_R`` (the paper's convention: a READ is answered
by a READ_R).  Using plain dicts keeps payload size accounting realistic
and programs trivially inspectable in tests.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.core.handles import Handle

# File/socket-style operations (paper Sections 4 and 7.7).
READ = "READ"
READ_R = "READ_R"
WRITE = "WRITE"
WRITE_R = "WRITE_R"
CONTROL = "CONTROL"
CONTROL_R = "CONTROL_R"
SELECT = "SELECT"
SELECT_R = "SELECT_R"
CREATE = "CREATE"
CREATE_R = "CREATE_R"

# OKWS-internal operations (Section 7).
LOGIN = "LOGIN"
LOGIN_R = "LOGIN_R"
LOOKUP = "LOOKUP"
LOOKUP_R = "LOOKUP_R"
REGISTER = "REGISTER"
REGISTER_R = "REGISTER_R"
CONNECT = "CONNECT"
CONNECT_R = "CONNECT_R"
LISTEN = "LISTEN"
LISTEN_R = "LISTEN_R"
ACCEPT_R = "ACCEPT_R"
QUERY = "QUERY"
QUERY_R = "QUERY_R"
ROW_R = "ROW_R"
DONE_R = "DONE_R"

# Generic failure reply.
ERROR_R = "ERROR_R"


def request(
    msg_type: str,
    reply: Optional[Handle] = None,
    **fields: Any,
) -> Dict[str, Any]:
    """Build a request payload."""
    payload: Dict[str, Any] = {"type": msg_type}
    if reply is not None:
        payload["reply"] = reply
    payload.update(fields)
    return payload


def reply_to(req: Dict[str, Any], msg_type: Optional[str] = None, **fields: Any) -> Dict[str, Any]:
    """Build the reply payload for *req* (defaults to its ``type`` + _R)."""
    if msg_type is None:
        msg_type = str(req.get("type", "UNKNOWN")) + "_R"
    payload: Dict[str, Any] = {"type": msg_type}
    if "tag" in req:
        # Correlation tag: lets a client multiplex many outstanding
        # requests over one reply port (ok-demux does this per connection).
        payload["tag"] = req["tag"]
    if "req" in req:
        # Request number: lets Channel.call discard stale duplicate
        # replies left over from retried requests.
        payload["req"] = req["req"]
    payload.update(fields)
    return payload
