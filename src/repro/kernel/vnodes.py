"""The vnode table.

In kernel space each active handle corresponds to a 64-byte structure
called a *vnode* (paper Section 5.6).  For port handles the vnode holds the
port state (label, receive-rights reference, message queue); for plain
compartment handles it is just the identity record.  A hash table maps
handle values to vnodes; vnodes are reference counted, and memory is
reusable once all references disappear.

For the reproduction the table's job is memory accounting: the number of
live vnodes grows with the number of users (two handles per user, plus one
port per TCP connection and per session), which is one of the kernel
contributions to Figure 6's ~1.5 pages per cached session.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.core.handles import Handle

#: Kernel bytes per vnode (paper Section 5.6).
VNODE_BYTES = 64


@dataclass
class Vnode:
    """One active handle's kernel record."""

    handle: Handle
    is_port: bool = False
    #: Key of the context (process/EP) holding receive rights, if a port.
    owner: Optional[str] = None
    #: Whether a port has been dissociated (its queue is dead).
    dissociated: bool = False
    refcount: int = 1


@dataclass
class VnodeTable:
    """Hash table of active handles."""

    table: Dict[Handle, Vnode] = field(default_factory=dict)

    def create(self, handle: Handle, is_port: bool = False, owner: Optional[str] = None) -> Vnode:
        if handle in self.table:
            raise AssertionError(f"duplicate handle {handle:#x}")
        vnode = Vnode(handle, is_port=is_port, owner=owner)
        self.table[handle] = vnode
        return vnode

    def get(self, handle: Handle) -> Optional[Vnode]:
        return self.table.get(handle)

    def decref(self, handle: Handle) -> None:
        vnode = self.table.get(handle)
        if vnode is None:
            return
        vnode.refcount -= 1
        if vnode.refcount <= 0 and (not vnode.is_port or vnode.dissociated):
            del self.table[handle]

    def __len__(self) -> int:
        return len(self.table)

    def memory_bytes(self) -> int:
        return VNODE_BYTES * len(self.table)
