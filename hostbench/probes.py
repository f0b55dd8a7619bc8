"""Micro-probes: each calls one layer's public functions directly and
reports the best of five timed batches (host microseconds per call, or
a rate).  Label operands are built through the public ``Label`` /
``ChunkedLabel.from_label``; the ``.live`` variants use the largest
labels harvested from the workload's own site."""

from __future__ import annotations

import os
import time
from typing import Any, Callable, Dict, Iterable, List, Optional

from hostbench.inputs import NOTES_TABLE

from repro.core import labelops
from repro.core.chunks import ChunkedLabel, OpStats
from repro.core.labels import Label
from repro.core.levels import L1, L2, L3, STAR

BATCHES = 5
SIZES = (1, 10, 100, 1000)
#: Label-op calls per timed batch: at 3-70 us a call a batch lasts 1-15 ms
#: (a 20-call batch read 2x off from one run to the next).
LABELOP_CALLS = 200
_BASE_HANDLE = 1 << 20


def best_seconds(batch: Callable[[], Any], batches: int = BATCHES) -> float:
    """Best host seconds of *batches* runs of *batch*."""
    best = float("inf")
    for _ in range(batches):
        begun = time.perf_counter()
        batch()
        best = min(best, time.perf_counter() - begun)
    return best


def _per_call_us(call: Callable[[], Any], number: int) -> float:
    def batch() -> None:
        for _ in range(number):
            call()

    return best_seconds(batch) / number * 1e6


# -- core.labelops ------------------------------------------------------------


def _chunked(entries: Dict[int, int], default: int) -> ChunkedLabel:
    return ChunkedLabel.from_label(Label(entries, default))


def label_operands(n: int) -> Dict[str, ChunkedLabel]:
    """OKWS-shaped operands with *n* explicit entries on the big side:
    a privileged sender holding one ``*`` per user, a receiver raised to
    3 in each user's compartment, one-entry decontaminations."""
    handles = range(_BASE_HANDLE, _BASE_HANDLE + n)
    first, fresh = _BASE_HANDLE, _BASE_HANDLE + n
    return {
        "stars": _chunked({h: STAR for h in handles}, L1),      # PS / QS of netd
        "raised": _chunked({h: L3 for h in handles}, L2),       # QR of netd
        "tainted": _chunked({first: L3}, L1),                   # ES of one worker
        "raise_one": _chunked({fresh: L3}, STAR),               # DR of one message
        "none": _chunked({}, STAR),
        "top": ChunkedLabel.from_label(Label.top()),
    }


def labelop_calls(ops: Dict[str, ChunkedLabel]) -> Dict[str, Callable[[], Any]]:
    stats = OpStats()
    return {
        "check_send_us": lambda: labelops.check_send(
            ops["stars"], ops["raised"], ops["raise_one"], ops["top"], ops["top"], stats),
        "apply_effects_us": lambda: labelops.apply_send_effects(
            ops["stars"], ops["tainted"], ops["top"], stats),
        "raise_receive_us": lambda: labelops.raise_receive(
            ops["raised"], ops["raise_one"], stats),
    }


def labelops_by_size() -> Dict[str, float]:
    out: Dict[str, float] = {}
    for n in SIZES:
        for stem, call in labelop_calls(label_operands(n)).items():
            out[f"core.labelops.{stem}.n{n}"] = _per_call_us(call, LABELOP_CALLS)
    return out


def labelops_live(kernel: Any) -> Dict[str, float]:
    """The same three operations on the site's largest live labels (on
    ``echo_s2000``: netd's and idd's, thousands of entries)."""
    tasks = list(kernel.tasks.values())
    if not tasks:
        return {}
    send = max((t.send_label for t in tasks), key=len)
    receive = max((t.receive_label for t in tasks), key=len)
    ops = label_operands(1)
    ops["stars"], ops["raised"] = send, receive
    entries = max(len(send), len(receive))
    out = {"core.labelops.live_entries": float(entries)}
    for stem, call in labelop_calls(ops).items():
        out[f"core.labelops.{stem}.live"] = _per_call_us(call, LABELOP_CALLS)
    return out


# -- core.interning -----------------------------------------------------------


def intern_us() -> Dict[str, float]:
    """First-time intern of a 10-entry label (builds the canonical key)."""
    from repro.core.interning import InternTable

    number = 500
    table = InternTable()
    labels = [
        _chunked({_BASE_HANDLE + i * 16 + k: L3 for k in range(10)}, L1)
        for i in range(number * BATCHES)
    ]
    batches = iter([labels[i * number:(i + 1) * number] for i in range(BATCHES)])

    def batch() -> None:
        for label in next(batches):
            table.intern(label)

    return {"core.interning.intern_us": best_seconds(batch) / number * 1e6}


# -- kernel ---------------------------------------------------------------------


def _pong_body(ctx):
    from repro.kernel.syscalls import NewPort, Recv, Send, SetPortLabel

    port = yield NewPort()
    yield SetPortLabel(port, Label.top())
    ctx.env["port"] = port
    while True:
        msg = yield Recv(port=port)
        yield Send(msg.payload, None)


def _ping_body(ctx):
    from repro.kernel.syscalls import NewHandle, NewPort, Recv, Send, SetPortLabel

    port = yield NewPort()
    yield SetPortLabel(port, Label.top())
    ctx.env["port"] = port
    for _ in range(ctx.env["handles"]):
        yield NewHandle()  # one * entry each in the sender's send label
    while True:
        go = yield Recv(port=port)
        for _ in range(go.payload):
            yield Send(ctx.env["peer"], port)
            yield Recv(port=port)


def send_deliver_us(sizes: Iterable[int] = (1, 100, 1000)) -> Dict[str, float]:
    """Two-task Send/Recv ping-pong on a bare kernel; the sender's label
    holds *n* entries.  Host microseconds per send->deliver."""
    from repro.kernel.config import KernelConfig
    from repro.kernel.kernel import Kernel

    out: Dict[str, float] = {}
    exchanges = 200
    for n in sizes:
        kernel = Kernel(config=KernelConfig())
        pong = kernel.spawn(_pong_body, "pong")
        kernel.run()
        ping = kernel.spawn(_ping_body, "ping", env={"peer": pong.env["port"], "handles": n})
        kernel.run()

        def batch() -> None:
            kernel.inject(ping.env["port"], exchanges)
            kernel.run()

        out[f"kernel.send_deliver_us.n{n}"] = best_seconds(batch) / (2 * exchanges) * 1e6
    return out


def scheduler_us() -> Dict[str, float]:
    from repro.kernel.scheduler import Scheduler

    keys = [f"task-{i}" for i in range(1000)]
    scheduler = Scheduler()

    def batch() -> None:
        for key in keys:
            scheduler.enqueue(key)
        for _ in keys:
            scheduler.dequeue()

    return {"kernel.scheduler.enq_deq_us": best_seconds(batch) / len(keys) * 1e6}


# -- db / store ---------------------------------------------------------------------

_INSERT = "INSERT INTO notes (author, text) VALUES (?, ?)"


def db_probes() -> Dict[str, float]:
    from repro.db.engine import Database

    rows = 500
    fresh: List[Any] = []

    def insert_batch() -> None:
        db = Database()
        db.execute(NOTES_TABLE)
        for i in range(rows):
            db.execute(_INSERT, (f"u{i % 50}", f"note {i}"))
        fresh.append(db)

    insert_us = best_seconds(insert_batch) / rows * 1e6
    db = fresh[-1]

    def select_batch() -> None:
        db.execute("SELECT author, text FROM notes")

    return {
        "db.insert_us": insert_us,
        "db.select_rows_per_s": rows / best_seconds(select_batch),
    }


def store_probes(scratch: str, image: bytes) -> Dict[str, float]:
    """WAL append, framing, and scan — the scan over the image the
    workload itself wrote."""
    from repro.db import sql
    from repro.store import wal
    from repro.store.store import LabeledStore

    writes = 200
    insert = sql.parse(_INSERT)
    taint = wal.RowTaint(handles=(_BASE_HANDLE,), level=3)
    paths = iter(os.path.join(scratch, f"probe-{i}.log") for i in range(BATCHES))

    def append_batch() -> None:
        store = LabeledStore(next(paths))
        store.apply(sql.parse(NOTES_TABLE))
        for i in range(writes):
            store.apply(insert, (f"u{i}", f"note {i}"), owner=7, taint=taint)
        store.close()

    append_s = best_seconds(append_batch)
    record = wal.write_record(1, insert, ("u1", "note 1"), 7, taint, False)
    out = {
        # begin + write + commit per apply
        "store.append_records_per_s": 3 * (writes + 1) / append_s,
        "store.wal.frame_us": _per_call_us(lambda: wal.frame(record), 500),
    }
    if image:
        out["store.wal.scan_mb_per_s"] = (
            len(image) / 1e6 / best_seconds(lambda: wal.scan(image))
        )
    return out


# -- cluster.wire -----------------------------------------------------------------------


def wire_probes() -> Dict[str, float]:
    """Courier-shaped messages: every message carries labels over a fresh
    handle, so the first encode (full label bodies) is the common case."""
    from repro.cluster.wire import WireDecoder, WireEncoder
    from repro.core.interning import InternTable

    number = 200
    table = InternTable()
    top = table.intern_label(Label.top())
    messages = [
        (table.intern_label(Label({_BASE_HANDLE + i: L3}, L1)),
         table.intern_label(Label({_BASE_HANDLE + i: L3}, STAR)))
        for i in range(number * BATCHES)
    ]
    groups = iter([messages[i * number:(i + 1) * number] for i in range(BATCHES)])
    encoder = WireEncoder(table, src=0)
    payload = {"type": "DIGEST", "user": "u1", "seq": 1}
    documents: List[List[Dict[str, Any]]] = []

    def encode_first() -> None:
        documents.append([
            encoder.encode(1, 4242, payload, es, top, top, dr, sender="courier-0")
            for es, dr in next(groups)
        ])

    first_us = best_seconds(encode_first) / number * 1e6
    es, dr = messages[0]
    warm_us = _per_call_us(
        lambda: encoder.encode(1, 4242, payload, es, top, top, dr, sender="courier-0"), number)
    # One receiver, fed in shipping order: a label travels in full once
    # and by fingerprint after that.
    pending = iter(documents)
    decoder = WireDecoder(InternTable())

    def decode_batch() -> None:
        for document in next(pending):
            decoder.decode(document)

    return {
        "cluster.wire.encode_first_us": first_us,
        "cluster.wire.encode_warm_us": warm_us,
        "cluster.wire.decode_us": best_seconds(decode_batch) / number * 1e6,
    }


# -- store.crashcheck ---------------------------------------------------------------------


def check_prefix_us(image: bytes) -> Dict[str, float]:
    """One crash point: recover the full recorded image and diff it
    against the oracle."""
    from repro.store import crashcheck

    return {"store.crashcheck.check_prefix_us":
            _per_call_us(lambda: crashcheck.check_prefix(image), 20)}


def proofs_load_ms(path: Optional[str]) -> Dict[str, float]:
    if not path:
        return {}
    from repro.core.interning import InternTable
    from repro.kernel.elide import VerifiedFlowTable

    seconds = best_seconds(lambda: VerifiedFlowTable.load(path, InternTable()))
    return {"analysis.proofs.load_ms": seconds * 1e3}
