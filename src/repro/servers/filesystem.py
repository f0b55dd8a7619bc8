"""A hierarchical labeled filesystem server.

The paper's trusted computing base includes "the network interface, IP
stack, filesystem, and kernel" (Section 2) and its IPC protocol "was
inspired by Plan 9's 9P" (Section 4).  This module is that filesystem: a
9P-flavoured, FID-based hierarchical file service with per-file and
per-directory label policy, generalising the flat Section 5.2 example
server (:mod:`repro.servers.fileserver`).

Protocol (all requests carry a ``reply`` port; ``fid`` is a client-chosen
small integer naming a walked position, like 9P's fids):

- ``ATTACH {fid}`` — bind *fid* to the root directory.
- ``WALK {fid, newfid, names: [..]}`` — walk path components.
- ``CREATE {fid, name, kind: "file"|"dir", taint?, grant?}`` — create an
  entry in the directory *fid*.  Supplying a taint handle requires
  granting the server ``⋆`` for it on the same message (DS), exactly as
  in Section 5.2; children *inherit* the directory's taint/grant unless
  they declare their own.
- ``OPEN/READ/WRITE/CLUNK/REMOVE/STAT`` — as expected.

Label policy:

- READ replies carry the file's *effective taint* (its own plus every
  ancestor directory's) as discretionary contamination — reading a file
  in u's home directory taints you with ``uT 3`` even if the file itself
  declares nothing.
- WRITEs to grant-protected files (or files in grant-protected
  directories) must prove ``V(uG) ≤ 0``.
- Directory listings are filtered by taint: READ of a directory returns
  only children whose effective taint is covered by the *requestor's
  verification label* — the caller states what it is cleared for, and
  entries beyond that clearance are simply absent (their existence is
  itself information).  The listing reply is contaminated with the taint
  of everything it does reveal.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.core.handles import Handle
from repro.core.labels import Label
from repro.core.levels import L0, L3, STAR
from repro.ipc import protocol as P
from repro.ipc.rpc import HANDLE, NAME, NONE, Request, announce, open_port
from repro.kernel.errors import InvalidArgument
from repro.kernel.syscalls import ChangeLabel, Recv

#: Modelled cycles per filesystem operation.
FS_OP_CYCLES = 18_000

#: What the filesystem understands; every request names the fid it is about.
SHAPES = {
    "ATTACH": {"fid": HANDLE},
    "WALK": {"fid": HANDLE, "newfid": (HANDLE, NONE), "names": (list, tuple, NONE)},
    "CREATE": {
        "fid": HANDLE,
        "name": (NAME, NONE),
        "taint": (HANDLE, NONE),
        "grant": (HANDLE, NONE),
    },
    P.READ: {"fid": HANDLE},
    P.WRITE: {"fid": HANDLE},
    "REMOVE": {"fid": HANDLE},
    "STAT": {"fid": HANDLE},
    "CLUNK": {"fid": HANDLE},
}


@dataclass
class Node:
    """One filesystem entry."""

    name: str
    is_dir: bool
    parent: Optional["Node"]
    taint: Optional[Handle] = None
    grant: Optional[Handle] = None
    children: Dict[str, "Node"] = field(default_factory=dict)
    #: Key of this node's content in the server's accounted memory.
    content_key: Optional[str] = None

    def path(self) -> str:
        parts: List[str] = []
        node: Optional[Node] = self
        while node is not None and node.parent is not None:
            parts.append(node.name)
            node = node.parent
        return "/" + "/".join(reversed(parts))

    def effective_taints(self) -> List[Handle]:
        """This node's taint plus every ancestor's, root-down."""
        taints: List[Handle] = []
        node: Optional[Node] = self
        while node is not None:
            if node.taint is not None:
                taints.append(node.taint)
            node = node.parent
        return taints

    def effective_grants(self) -> List[Handle]:
        grants: List[Handle] = []
        node: Optional[Node] = self
        while node is not None:
            if node.grant is not None:
                grants.append(node.grant)
            node = node.parent
        return grants


def filesystem_body(ctx):
    """The filesystem server process.  Publishes ``fs9_port``."""
    service = yield from open_port()
    ctx.env["fs9_port"] = service
    yield from announce(ctx, "fs9", {"fs9_port": service})

    root = Node(name="", is_dir=True, parent=None)
    # (reply port is the client identity for fid namespaces, like a 9P
    # connection) -> fid -> node
    fids: Dict[Tuple[Handle, int], Node] = {}
    content_counter = [0]

    def taint_label(taints: List[Handle]) -> Optional[Label]:
        if not taints:
            return None
        return Label({t: L3 for t in taints}, STAR)

    while True:
        msg = yield Recv(port=service)
        req = Request(msg, SHAPES, ctx)
        payload, mtype, reply = req.payload, req.type, req.reply
        if reply is None:
            continue
        ctx.compute(FS_OP_CYCLES)
        fid_key = (reply, payload["fid"])

        if mtype == "ATTACH":
            fids[fid_key] = root
            yield from req.answer(ok=True)
            continue

        node = fids.get(fid_key)
        if node is None:
            yield from req.error("unknown fid")
            continue

        if mtype == "WALK":
            target = node
            ok = True
            for name in payload.get("names") or ():
                if name == "..":
                    target = target.parent or target
                    continue
                walkable = target.is_dir and isinstance(name, str)
                child = target.children.get(name) if walkable else None
                if child is None:
                    ok = False
                    break
                target = child
            if not ok:
                yield from req.error("no such path")
                continue
            fids[(reply, payload.get("newfid", payload["fid"]))] = target
            yield from req.answer(ok=True, is_dir=target.is_dir)

        elif mtype == "CREATE":
            if not node.is_dir:
                yield from req.error("not a directory")
                continue
            name = payload.get("name")
            if not name or "/" in name or name in node.children:
                yield from req.error("bad or duplicate name")
                continue
            taint = payload.get("taint")
            if taint is not None:
                try:
                    # Accepting a new compartment needs its ⋆ (granted on
                    # this very message) — otherwise we would be trusted
                    # with data we could never serve untainted.
                    yield ChangeLabel(raise_receive={taint: L3})
                except InvalidArgument:
                    yield from req.error("taint not granted")
                    continue
            child = Node(
                name=name,
                is_dir=payload.get("kind") == "dir",
                parent=node,
                taint=taint,
                grant=payload.get("grant"),
            )
            if not child.is_dir:
                content_counter[0] += 1
                child.content_key = f"fs9:{content_counter[0]}"
                ctx.mem.store(child.content_key, payload.get("data", b""))
            node.children[name] = child
            yield from req.answer(ok=True)

        elif mtype == P.READ:
            if node.is_dir:
                # Listing: reveal only entries the caller *explicitly*
                # declares clearance for in its verification label (an
                # explicit ``t 3`` entry, or ``t ⋆`` for a controller —
                # the default level is not a declaration), and contaminate
                # the reply with everything revealed.  A caller that lies
                # about clearance gets the reply dropped at its own
                # receive label anyway; the filter just keeps undeclared
                # entries out of what an honest caller learns.
                verify: Label = msg.verify

                def cleared(t: Handle) -> bool:
                    return t in verify and verify(t) in (L3, STAR)

                visible: List[Dict] = []
                revealed: Set[Handle] = set(node.effective_taints())
                if not all(cleared(t) for t in revealed):
                    # Not even cleared for the directory itself.
                    yield from req.error("no such path")
                    continue
                for child in node.children.values():
                    child_taints = set(child.effective_taints())
                    if all(cleared(t) for t in child_taints):
                        visible.append({"name": child.name, "dir": child.is_dir})
                        revealed |= child_taints
                yield from req.answer(entries=visible, cs=taint_label(sorted(revealed)))
            else:
                data = ctx.mem.load(node.content_key) if node.content_key else b""
                yield from req.answer(data=data, cs=taint_label(node.effective_taints()))

        elif mtype == P.WRITE:
            if node.is_dir:
                yield from req.error("is a directory")
                continue
            grants = node.effective_grants()
            verify = msg.verify
            if grants and not all(verify(g) <= L0 for g in grants):
                yield from req.error("write not authorized")
                continue
            ctx.mem.store(node.content_key, payload.get("data", b""))
            yield from req.answer(ok=True)

        elif mtype == "REMOVE":
            if node.parent is None:
                yield from req.error("cannot remove root")
                continue
            grants = node.effective_grants()
            if grants and not all(msg.verify(g) <= L0 for g in grants):
                yield from req.error("remove not authorized")
                continue
            if node.is_dir and node.children:
                yield from req.error("directory not empty")
                continue
            del node.parent.children[node.name]
            if node.content_key:
                ctx.mem.delete(node.content_key)
            del fids[fid_key]
            yield from req.answer(ok=True)

        elif mtype == "STAT":
            yield from req.answer(
                path=node.path(),
                dir=node.is_dir,
                tainted=bool(node.effective_taints()),
                guarded=bool(node.effective_grants()),
                cs=taint_label(node.effective_taints()),
            )

        elif mtype == "CLUNK":
            fids.pop(fid_key, None)
            yield from req.answer(ok=True)
