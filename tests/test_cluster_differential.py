"""Cross-shard differential suite: shard count must not change semantics.

The same OKWS workload runs at ``n_shards=1`` (the in-process identity
path) and at 2 and 4 shards (real OS worker processes, cross-shard
courier traffic over ``wire/v1``).  Everything a user of the system can
observe must be invariant: per-session outcomes in request order, the
set of board-delivered digests, and the drop accounting — the doomed
``V = {0}`` couriers are rejected by Figure 4 requirement (1) *wherever*
the destination board lives, so ``label-check`` totals match even
though at 2+ shards some of those checks run on a different OS process
against re-interned labels.

The per-shard sampled sanitizer (1/16 here) rides along and must stay
silent: re-interned cross-shard labels go through the same differential
cross-check as home-grown ones.

The transport is held too: a pinned report of 2- and 4-shard runs, the
pump's fan-out order, outboxes that reach the router only as bytes, and
shard errors that neither desync the router nor deliver half a batch.
"""

from __future__ import annotations

import hashlib
import json
import pickle
import struct

import pytest

from repro.cluster import Cluster, ClusterConfig, ClusterError
from repro.cluster.router import Router
from repro.cluster.shard import ShardSpec
from repro.cluster.wire import WireDecoder
from repro.kernel.config import KernelConfig

USERS = tuple((f"user{i}", f"pw{i}") for i in range(8))
REQUESTS = [
    (f"user{i % len(USERS)}", f"pw{i % len(USERS)}", "echo", None, {"length": 7})
    for i in range(24)
]


def _run(n_shards):
    config = ClusterConfig(
        n_shards=n_shards,
        users=USERS,
        kernel=KernelConfig(sanitize=True, intern_labels=True),
        sanitize_sample=16,
    )
    with Cluster(config) as cluster:
        cluster.mark()
        result = cluster.run_batch(REQUESTS)
        routed = cluster.run_courier()
        report = cluster.report()
    return {
        "outcomes": [(user, status, body) for user, status, body, _ in result.outcomes],
        "board": sorted(
            (p["user"], p["seq"]) for p in report["board_log"]
        ),
        "drops": report["drops"],
        "violations": report["sanitizer_violations"],
        "routed": routed,
        "busy": result.busy_cycles,
    }


@pytest.fixture(scope="module")
def baseline():
    return _run(1)


@pytest.mark.parametrize("n_shards", [2, 4])
def test_sharded_run_matches_single_shard(baseline, n_shards):
    sharded = _run(n_shards)
    assert sharded["outcomes"] == baseline["outcomes"]
    assert sharded["board"] == baseline["board"]
    assert sharded["drops"] == baseline["drops"]
    assert sharded["violations"] == 0 and baseline["violations"] == 0
    # Real cross-shard traffic happened (the courier ring guarantees it
    # whenever two shards both own users) and the wire was exercised.
    assert sharded["routed"] > 0
    assert baseline["routed"] == 0


def test_sharding_reduces_the_critical_path():
    single, double = _run(1), _run(2)
    # Cluster time is the slowest shard's simulated busy time; splitting
    # the users must beat the single kernel (superlinear per-connection
    # label costs make this comfortably true even with CRC imbalance).
    assert max(double["busy"]) < max(single["busy"])


def test_doomed_couriers_drop_on_the_receiving_shard():
    report = _run(2)
    # len(USERS)//2 doomed messages were sent; every one must be dropped
    # by the delivery-side label check, never delivered to a board.
    assert report["drops"].get("label-check", 0) == len(USERS) // 2
    # Exactly one digest per user reached a board — had any doomed
    # variant been delivered, its (user, seq) would duplicate an entry.
    assert len(report["board"]) == len(USERS)
    assert len(set(report["board"])) == len(USERS)


# -- the transport: fan-out pump, bytes through the router ------------------

CANON_USERS = tuple((f"user{i}", f"pw{i}") for i in range(40))
CANON_REQUESTS = [
    (f"user{i % 40}", f"pw{i % 40}", "echo", None, {"length": 7}) for i in range(120)
]
#: sha256 of :func:`_canonical_run`'s JSON, computed by the serial pump that
#: unpickled every document in the router.  How documents cross the router
#: must not move a byte of what a user of the cluster sees.
CANON_SHA = {
    2: "507196252453b34cd3c49ca1bd4bd261d910346e94c69ebf2ef4bcd16754cb85",
    4: "71f08796c522af72a4c09d304c343060f9abe4aa749dbba1c05d437974700c8d",
}


def _canonical_run(n_shards):
    config = ClusterConfig(
        n_shards=n_shards,
        users=CANON_USERS,
        kernel=KernelConfig(sanitize=True, intern_labels=True),
        sanitize_sample=16,
    )
    with Cluster(config) as cluster:
        cluster.mark()
        result = cluster.run_batch(CANON_REQUESTS)
        passes = [cluster.run_courier() for _ in range(3)]
        report = cluster.report()
    return json.dumps(
        {
            "outcomes": result.outcomes,
            "busy": result.busy_cycles,
            "routed": [result.routed] + passes,
            "report": report,
        },
        sort_keys=True,
    )


@pytest.mark.parametrize("n_shards", [2, 4])
def test_report_is_pinned(n_shards):
    text = _canonical_run(n_shards)
    assert hashlib.sha256(text.encode()).hexdigest() == CANON_SHA[n_shards]


class _Endpoint:
    """A fake shard pipe that logs the router's calls and answers
    ``xsend`` from a script of outboxes."""

    def __init__(self, shard, log, outboxes):
        self.shard, self.log, self.outboxes = shard, log, list(outboxes)

    def send(self, command):
        self.log.append(("send", self.shard, command))

    def recv(self):
        self.log.append(("recv", self.shard))
        return ("ok", {"delivered": 0, "outbox": self.outboxes.pop(0)})


def test_a_pump_round_writes_every_xsend_before_reading_a_reply():
    log = []
    router = Router([ShardSpec(s, 3, None, "echo", ()) for s in range(3)])
    router._pipes = [
        _Endpoint(0, log, [[(2, 1, b"c")], []]),
        _Endpoint(1, log, []),
        _Endpoint(2, log, [[(0, 2, b"d")], []]),
    ]
    assert router.pump([(2, 1, b"a"), (0, 3, b"b"), (2, 1, b"e")]) == 8
    assert log == [
        # Round 1: blobs grouped by destination in arrival order, written
        # in ascending destination order, then the replies read.
        ("send", 0, ("xsend", [b"b"])),
        ("send", 2, ("xsend", [b"a", b"e"])),
        ("recv", 0),
        ("recv", 2),
        ("send", 0, ("xsend", [b"d"])),
        ("send", 2, ("xsend", [b"c"])),
        ("recv", 0),
        ("recv", 2),
    ]
    assert router.routed == 8


class _Recording:
    """A real shard pipe, watched: logs each command's verb and each reply."""

    def __init__(self, shard, pipe, log):
        self.shard, self.pipe, self.log = shard, pipe, log

    def send(self, command):
        self.log.append(("send", self.shard, command[0]))
        self.pipe.send(command)

    def recv(self):
        reply = self.pipe.recv()
        self.log.append(("recv", self.shard, reply))
        return reply

    def close(self):
        self.pipe.close()


def _record(cluster):
    log = []
    router = cluster._router
    router._pipes = [_Recording(s, pipe, log) for s, pipe in enumerate(router._pipes)]
    return log


def test_the_router_forwards_bytes_it_never_opens(monkeypatch):
    config = ClusterConfig(n_shards=2, users=USERS, kernel=KernelConfig())
    with Cluster(config) as cluster:
        # Patched after the fork: only the router process sees it.
        def refuse(self, doc):
            raise AssertionError("the router decoded a wire/v1 document")

        monkeypatch.setattr(WireDecoder, "decode", refuse)
        log = _record(cluster)
        cluster.run_batch(REQUESTS)
        start = len(log)
        assert cluster.run_courier() > 0
        log = log[:]  # before the shutdown's own commands
    # One courier pass on a real cluster: both shards' digests cross in a
    # single pump round, written to both shards before either reply is read.
    assert [event[:2] for event in log[start:]] == [
        ("send", 0), ("send", 1), ("recv", 0), ("recv", 1),
        ("send", 0), ("send", 1), ("recv", 0), ("recv", 1),
    ]
    assert [event[2] for event in log[start:] if event[0] == "send"] == (
        ["courier"] * 2 + ["xsend"] * 2
    )
    entries = [
        entry
        for kind, _, reply in log
        if kind == "recv"
        for entry in reply[1]["outbox"]
    ]
    assert entries
    assert {tuple(map(type, entry)) for entry in entries} == {(int, int, bytes)}


# -- errors: every reply is read, a bad batch fails closed ------------------


@pytest.fixture
def cluster2():
    with Cluster(ClusterConfig(n_shards=2, users=USERS)) as cluster:
        yield cluster


def test_a_shard_error_leaves_no_stale_reply(cluster2):
    with pytest.raises(ClusterError, match="shard 0 no-such-verb"):
        cluster2._router.call_all([("no-such-verb",), ("mark",)])
    report = cluster2.report()
    assert [snap["shard"] for snap in report["shards"]] == [0, 1]


#: ES bodies wire/v1 rejects, each shipped under its own (correct)
#: fingerprint so that the content check, not the hash, is what fails:
#: ``default, handle, level, ...`` as the body spells them.
_BAD_BODIES = {
    "truncated-body": struct.pack("<3q", 1, 7, 3)[:-4],
    "level-minus-2": struct.pack("<3q", 1, 7, -2),
    "default-4": struct.pack("<3q", 4, 7, 3),
    "duplicate-handle": struct.pack("<5q", 1, 7, 3, 7, 2),
    "descending-handles": struct.pack("<5q", 1, 9, 3, 7, 3),
    "handle-2^61": struct.pack("<3q", 1, 1 << 61, 3),
    "entry-at-default": struct.pack("<3q", 1, 7, 1),
    "body-not-bytes": bytearray(struct.pack("<3q", 1, 7, 3)),
}


def _with_es_body(doc, body):
    fp = int.from_bytes(hashlib.blake2b(body, digest_size=8).digest(), "little")
    return {**doc, "labels": {**doc["labels"], "es": {"fp": fp, "body": body}}}


@pytest.mark.parametrize("bad", ["truncated", "not-a-list", "not-documents", *_BAD_BODIES])
def test_a_bad_batch_fails_closed(cluster2, bad):
    log = _record(cluster2)
    routed = cluster2.run_courier()
    # A digest shard 0 sent shard 1's board: good on its own.
    (blob,) = [
        blob
        for kind, shard, reply in log
        if kind == "recv" and shard == 0 and reply[1]["outbox"]
        for dst, _, blob in reply[1]["outbox"]
        if dst == 1
    ]
    good = next(doc for doc in pickle.loads(blob) if doc["payload"]["type"] == "DIGEST")
    blob = {
        "truncated": pickle.dumps([good])[:-3],
        "not-a-list": pickle.dumps(good),
        "not-documents": pickle.dumps([good, 1]),
        **{
            name: pickle.dumps([good, _with_es_body(good, body)])
            for name, body in _BAD_BODIES.items()
        },
    }[bad]
    error = "shard 1 xsend failed" + (
        ": WireError.*(not a canonical label body|is bytes, not)" if bad in _BAD_BODIES else ""
    )
    with pytest.raises(ClusterError, match=error):
        cluster2._router.pump([(1, 2, blob)])
    # The cluster keeps answering, and the bad batch delivered nothing:
    # not even the good digest ahead of the bad entry.
    assert cluster2.run_courier() == routed
    report = cluster2.report()
    assert len(report["board_log"]) == 2 * len(USERS)
    assert report["routed"] == 2 * routed
