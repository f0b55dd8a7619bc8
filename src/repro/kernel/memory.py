"""Page-granular simulated memory with copy-on-write event-process views.

The memory model exists to reproduce the paper's Section 6.2 and Figure 6
claims *structurally*:

- memory is allocated in 4 KB pages from a machine-wide budget (the paper's
  prototype uses 256 MB);
- a base process owns an :class:`AddressSpace` — a page table plus named
  regions (stack, heap, globals, ...);
- an event process sees the base address space through an
  :class:`EpView`: reads fall through to the base pages, the first write
  to a page copies it into the EP's private page list.  Event processes do
  **not** keep their own page tables; a dormant EP's memory state is just
  the list of modified pages plus the pages themselves;
- ``ep_clean`` reverts a range or named region to the base contents,
  dropping the private copies — how a cached session gets down to a single
  private page.

Programs use the byte-level API (``alloc``/``read``/``write``) or the
pickle-backed object store (``store``/``load``/``delete``), which allocates
real pages and writes real bytes so that COW accounting measures genuine
state, not declared sizes.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, Optional, Tuple

from repro.kernel.errors import InvalidArgument, ResourceExhausted

PAGE_SIZE = 4096
#: The paper's prototype "currently only uses 256MB of RAM".
DEFAULT_RAM_BYTES = 256 * 1024 * 1024


def pages_for(nbytes: int) -> int:
    """Number of 4 KB pages needed to hold *nbytes*."""
    return max(1, -(-nbytes // PAGE_SIZE))


@dataclass
class PageAccountant:
    """Machine-wide physical page budget."""

    capacity_pages: int = DEFAULT_RAM_BYTES // PAGE_SIZE
    in_use: int = 0
    peak: int = 0

    def reserve(self, npages: int) -> None:
        if self.in_use + npages > self.capacity_pages:
            raise ResourceExhausted(
                f"out of memory: {self.in_use + npages} pages needed, "
                f"{self.capacity_pages} available"
            )
        self.in_use += npages
        self.peak = max(self.peak, self.in_use)

    def release(self, npages: int) -> None:
        if npages > self.in_use:
            raise AssertionError("page accounting underflow")
        self.in_use -= npages


@dataclass
class Region:
    """A named, page-aligned allocation."""

    name: str
    start: int
    length: int          # requested bytes

    @property
    def npages(self) -> int:
        return pages_for(self.length)

    @property
    def page_range(self) -> range:
        first = self.start // PAGE_SIZE
        return range(first, first + self.npages)


class MemoryView:
    """Common interface of :class:`AddressSpace` and :class:`EpView`."""

    def alloc(self, nbytes: int, region: str) -> int:
        raise NotImplementedError

    def read(self, addr: int, nbytes: int) -> bytes:
        raise NotImplementedError

    def write(self, addr: int, data: bytes) -> None:
        raise NotImplementedError

    def region(self, name: str) -> Optional[Region]:
        raise NotImplementedError

    def free(self, name: str) -> None:
        raise NotImplementedError

    # -- object store convenience -------------------------------------------------

    def store(self, key: str, obj: object) -> int:
        """Serialize *obj* into a region named *key* (replacing any previous
        value); returns the number of bytes written."""
        data = pickle.dumps(obj)
        existing = self.region(key)
        if existing is not None and existing.length >= len(data) + 4:
            start = existing.start
        else:
            if existing is not None:
                self.free(key)
            start = self.alloc(len(data) + 4, key)
        self.write(start, len(data).to_bytes(4, "big") + data)
        return len(data)

    def load(self, key: str) -> object:
        """Read back the object stored under *key*."""
        reg = self.region(key)
        if reg is None:
            raise KeyError(key)
        size = int.from_bytes(self.read(reg.start, 4), "big")
        return pickle.loads(self.read(reg.start + 4, size))

    def has(self, key: str) -> bool:
        return self.region(key) is not None

    def delete(self, key: str) -> None:
        self.free(key)


class AddressSpace(MemoryView):
    """A base process's memory: page table + named regions."""

    def __init__(
        self,
        accountant: PageAccountant,
        on_page_alloc: Optional[Callable[[int], None]] = None,
    ):
        self._accountant = accountant
        self._on_page_alloc = on_page_alloc or (lambda n: None)
        self.pages: Dict[int, bytearray] = {}
        self.regions: Dict[str, Region] = {}
        self._brk = PAGE_SIZE  # leave page 0 unmapped, like a real process

    # -- allocation ---------------------------------------------------------------

    def alloc(self, nbytes: int, region: str) -> int:
        if nbytes <= 0:
            raise InvalidArgument(f"allocation of {nbytes} bytes")
        if region in self.regions:
            raise InvalidArgument(f"region already exists: {region!r}")
        npages = pages_for(nbytes)
        self._accountant.reserve(npages)
        start = self._brk
        self._brk += npages * PAGE_SIZE
        first = start // PAGE_SIZE
        for page_no in range(first, first + npages):
            self.pages[page_no] = bytearray(PAGE_SIZE)
        reg = Region(region, start, nbytes)
        self.regions[region] = reg
        self._on_page_alloc(npages)
        return start

    def free(self, name: str) -> None:
        reg = self.regions.pop(name, None)
        if reg is None:
            raise InvalidArgument(f"no such region: {name!r}")
        for page_no in reg.page_range:
            self.pages.pop(page_no, None)
        self._accountant.release(reg.npages)

    def region(self, name: str) -> Optional[Region]:
        return self.regions.get(name)

    # -- byte access ----------------------------------------------------------------

    def read(self, addr: int, nbytes: int) -> bytes:
        out = bytearray()
        for page_no, offset, run in _spans(addr, nbytes):
            page = self.pages.get(page_no)
            if page is None:
                raise InvalidArgument(f"read from unmapped page {page_no}")
            out += page[offset : offset + run]
        return bytes(out)

    def write(self, addr: int, data: bytes) -> None:
        pos = 0
        for page_no, offset, run in _spans(addr, len(data)):
            page = self.pages.get(page_no)
            if page is None:
                raise InvalidArgument(f"write to unmapped page {page_no}")
            page[offset : offset + run] = data[pos : pos + run]
            pos += run


class EpView(MemoryView):
    """An event process's copy-on-write view of a base address space.

    Private pages shadow base pages; new allocations are entirely private
    (they exist only in this EP).  The base is frozen — after
    ``ep_checkpoint`` the base process never runs again — so no
    write-through coherence is needed.
    """

    def __init__(
        self,
        base: AddressSpace,
        accountant: PageAccountant,
        on_cow_copy: Optional[Callable[[int], None]] = None,
        on_page_alloc: Optional[Callable[[int], None]] = None,
    ):
        self._base = base
        self._accountant = accountant
        self._on_cow_copy = on_cow_copy or (lambda n: None)
        self._on_page_alloc = on_page_alloc or (lambda n: None)
        self.private: Dict[int, bytearray] = {}
        self.own_regions: Dict[str, Region] = {}
        self._deleted_regions: set = set()
        # Private allocations start above the base's high-water mark; every
        # EP may use the same addresses because each has its own view.
        self._brk = base._brk

    # -- region/alloc ------------------------------------------------------------

    def alloc(self, nbytes: int, region: str) -> int:
        if nbytes <= 0:
            raise InvalidArgument(f"allocation of {nbytes} bytes")
        if self.region(region) is not None:
            raise InvalidArgument(f"region already exists: {region!r}")
        npages = pages_for(nbytes)
        self._accountant.reserve(npages)
        start = self._brk
        self._brk += npages * PAGE_SIZE
        first = start // PAGE_SIZE
        for page_no in range(first, first + npages):
            self.private[page_no] = bytearray(PAGE_SIZE)
        self.own_regions[region] = Region(region, start, nbytes)
        self._deleted_regions.discard(region)
        self._on_page_alloc(npages)
        return start

    def free(self, name: str) -> None:
        reg = self.own_regions.pop(name, None)
        if reg is not None:
            released = 0
            for page_no in reg.page_range:
                if self.private.pop(page_no, None) is not None:
                    released += 1
            self._accountant.release(released)
            return
        base_reg = self._base.region(name)
        if base_reg is None or name in self._deleted_regions:
            raise InvalidArgument(f"no such region: {name!r}")
        # "Freeing" a base region from an EP just hides it from this EP and
        # drops any private copies of its pages.
        self._deleted_regions.add(name)
        self._drop_private(base_reg.page_range)

    def region(self, name: str) -> Optional[Region]:
        if name in self.own_regions:
            return self.own_regions[name]
        if name in self._deleted_regions:
            return None
        return self._base.region(name)

    # -- byte access ----------------------------------------------------------------

    def read(self, addr: int, nbytes: int) -> bytes:
        out = bytearray()
        for page_no, offset, run in _spans(addr, nbytes):
            page = self.private.get(page_no)
            if page is None:
                page = self._base.pages.get(page_no)
            if page is None:
                raise InvalidArgument(f"read from unmapped page {page_no}")
            out += page[offset : offset + run]
        return bytes(out)

    def write(self, addr: int, data: bytes) -> None:
        pos = 0
        for page_no, offset, run in _spans(addr, len(data)):
            page = self.private.get(page_no)
            if page is None:
                base_page = self._base.pages.get(page_no)
                if base_page is None:
                    raise InvalidArgument(f"write to unmapped page {page_no}")
                # Copy-on-write fault: first write to a shared page.
                self._accountant.reserve(1)
                page = bytearray(base_page)
                self.private[page_no] = page
                self._on_cow_copy(1)
            page[offset : offset + run] = data[pos : pos + run]
            pos += run

    # -- ep_clean ----------------------------------------------------------------------

    def clean(self, start: int, length: int) -> int:
        """Revert [start, start+length) to the base contents; returns the
        number of private pages dropped."""
        first = start // PAGE_SIZE
        last = (start + max(length, 1) - 1) // PAGE_SIZE
        return self._drop_private(range(first, last + 1))

    def clean_region(self, name: str) -> int:
        """Revert the named region (base regions revert to base content;
        EP-private regions are freed outright)."""
        if name in self.own_regions:
            reg = self.own_regions[name]
            count = sum(1 for p in reg.page_range if p in self.private)
            self.free(name)
            return count
        reg = self.region(name)
        if reg is None:
            raise InvalidArgument(f"no such region: {name!r}")
        return self._drop_private(reg.page_range)

    def clean_all_except(self, keep_regions: Tuple[str, ...]) -> int:
        """Drop every private page not belonging to one of *keep_regions* —
        the idiom of Section 7.3 (keep session data, drop stack and
        scratch)."""
        keep_pages: set = set()
        for name in keep_regions:
            reg = self.region(name)
            if reg is not None:
                keep_pages.update(reg.page_range)
        dropped = [p for p in self.private if p not in keep_pages]
        for page_no in dropped:
            del self.private[page_no]
        self._accountant.release(len(dropped))
        # Forget EP-private regions that just lost all their pages.
        for name in list(self.own_regions):
            if name not in keep_regions:
                reg = self.own_regions[name]
                if not any(p in self.private for p in reg.page_range):
                    del self.own_regions[name]
        return len(dropped)

    def _drop_private(self, page_range: range) -> int:
        dropped = 0
        for page_no in page_range:
            if self.private.pop(page_no, None) is not None:
                dropped += 1
        self._accountant.release(dropped)
        return dropped

    # -- accounting -----------------------------------------------------------------------

    @property
    def private_page_count(self) -> int:
        """The EP's memory footprint in pages (its modified-page list)."""
        return len(self.private)

    def release_all(self) -> None:
        """Free every private page (ep_exit)."""
        self._accountant.release(len(self.private))
        self.private.clear()
        self.own_regions.clear()


def _spans(addr: int, nbytes: int) -> Iterator[Tuple[int, int, int]]:
    """Split [addr, addr+nbytes) into (page_no, offset, run) spans."""
    if addr < 0 or nbytes < 0:
        raise InvalidArgument(f"bad address range: {addr}+{nbytes}")
    remaining = nbytes
    while remaining > 0:
        page_no = addr // PAGE_SIZE
        offset = addr % PAGE_SIZE
        run = min(PAGE_SIZE - offset, remaining)
        yield page_no, offset, run
        addr += run
        remaining -= run
