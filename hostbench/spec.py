"""The benchmark's fixed vocabulary: workloads, metrics, bounds.

Names here are cited by issues and by ``BENCHMARK.json``; change a
definition only in a PR that claims no gain (see README.md).  A metric's
*currency* is ``host`` (seconds of this machine), ``simulated`` (the
paper's cycle clock; exact for a seed) or ``count``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Mapping, Optional, Tuple

RUN_SECONDS = 10
SMOKE_SHARE = 0.1

# Workload families; a family fixes the phases a rep runs.
ECHO, NOTES, CLUSTER, ORACLES = "echo", "notes", "cluster", "oracles"

# Oracle sizes.  Exhaustive depth 3 (not the 5 first timed) and two sweeps
# keep a rep at ~2.5 s, so a 10 s run holds four passes of every checker.
ORACLE_SIZES = {"users": 4, "exhaustive_depth": 3, "dpor_depth": 8, "sweeps": 2}
ORACLE_SMOKE = {"users": 2, "exhaustive_depth": 2, "dpor_depth": 5, "sweeps": 1}


@dataclass(frozen=True)
class Workload:
    """One named set of inputs.  A *rep* is a fresh site plus its rounds;
    a *round* is one request per user in seeded-shuffled order."""

    name: str
    why: str
    kind: str
    users: int = 0
    resume_rounds: int = 0
    concurrency: int = 16
    kernel: Mapping[str, Any] = field(default_factory=dict)
    #: ``oracles`` only: asbcheck users, explorer depths, sweeps per rep.
    oracle_sizes: Mapping[str, int] = field(default_factory=dict)
    #: Tracer layer groups installed for the traced rep (trace.TARGETS).
    trace_groups: Tuple[str, ...] = ("site",)

    def sized(self, smoke: bool) -> "Workload":
        """The ~1/10-size self-test variant (same name, same phases)."""
        if not smoke:
            return self
        if self.kind == ORACLES:
            return replace(self, oracle_sizes=ORACLE_SMOKE)
        return replace(
            self, users=max(2 * self.concurrency, int(self.users * SMOKE_SHARE))
        )


_INTERNED = {"intern_labels": True, "labelop_cache_size": 1 << 16}

WORKLOADS: Tuple[Workload, ...] = (
    Workload(
        "echo_s300",
        "small labels: per-message fixed costs (dispatch, scheduler, per-call "
        "label-op overhead) dominate; per-entry label work should not move it",
        ECHO, users=300, resume_rounds=1,
    ),
    Workload(
        "echo_s2000",
        "the Fig. 7/9 regime: netd/idd/dbproxy labels hold thousands of entries, "
        "so per-entry scans in core.labelops/core.chunks set the slope",
        ECHO, users=2000, resume_rounds=1,
    ),
    Workload(
        "echo_interned_s300",
        "inputs of echo_s300 with intern_labels on: isolates core.interning; "
        "its ratio to echo_s300 is what ROADMAP item 3 judges",
        ECHO, users=300, resume_rounds=1, kernel=_INTERNED,
    ),
    Workload(
        "echo_elided_s300",
        "inputs of echo_s300 with proof-guided elision on top of interning: "
        "shows whether kernel.elide pays beyond interning and what its set-up costs",
        ECHO, users=300, resume_rounds=1,
        kernel={**_INTERNED, "elide_checks": True},
    ),
    Workload(
        "echo_sanitized_s100",
        "the differential sanitizer in the request path: the oracle ROADMAP "
        "wants within 3x of plain so it can stay on",
        ECHO, users=100, resume_rounds=1, kernel={"sanitize": True},
    ),
    Workload(
        "notes_store_s60",
        "writes beside reads on one stack: add goes dbproxy -> db -> wal append, "
        "list returns one labelled message per row that the kernel filters per user",
        NOTES, users=60, resume_rounds=1, concurrency=2,
        trace_groups=("site", "store"),
    ),
    Workload(
        "cluster2_s600",
        "the only real parallelism and wire/v1: batch rounds measure router, pipes "
        "and two shard processes; the courier phase is all cross-shard traffic",
        CLUSTER, users=600, resume_rounds=1, kernel={"sanitize": True},
        trace_groups=("cluster",),
    ),
    Workload(
        "oracles",
        "the checkers' own rates (asbcheck, asbsched, crashcheck): almost no "
        "request path, so request-path work must not move it",
        ORACLES, oracle_sizes=ORACLE_SIZES, trace_groups=("oracles",),
    ),
)

BY_NAME: Dict[str, Workload] = {w.name: w for w in WORKLOADS}
SITE = tuple(w.name for w in WORKLOADS if w.kind != ORACLES)
ECHOES = tuple(w.name for w in WORKLOADS if w.kind == ECHO)
ALL = tuple(w.name for w in WORKLOADS)


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str                     # "higher" | "lower"
    currency: str                   # "host" | "simulated" | "count"
    #: Share of the base by which it may worsen; 0.0 = exact; None = no bound.
    bound: Optional[float] = None
    #: Workloads that measure it (others report nothing, or 0 on the
    #: driver's full grid).
    workloads: Tuple[str, ...] = ALL
    #: Per-layer only: the end-to-end metric it should move, and where.
    moves: str = ""
    #: In BENCHMARK.json's ``end_to_end`` (measured by every workload).
    dense: bool = False
    #: ``compare`` only: a worsening no larger than this, in the metric's
    #: unit, is never a regression (the issue's ``max(share, 0.25 s)``).
    slack: float = 0.0


def _rate(name: str, unit: str, workloads: Tuple[str, ...]) -> Metric:
    return Metric(name, unit, "higher", "host", 0.10, workloads)


#: The end-to-end metrics.  ``dense`` ones are what the PR driver bounds;
#: the rest are bounded by ``python -m hostbench compare``.
END_TO_END: Tuple[Metric, ...] = (
    # Interpreter start and imports alone swing by 0.05 s from run to run.
    Metric("setup_s", "s", "lower", "host", 0.25, slack=0.25, dense=True),
    Metric("ops_per_s", "1/s", "higher", "host", 0.25, dense=True),
    Metric("rep_s", "s", "lower", "host", 0.25, dense=True),
    Metric("peak_rss_mb", "MB", "lower", "host", 0.05, dense=True),
    _rate("conn_per_s", "conn/s", SITE),
    _rate("create_conn_per_s", "conn/s", SITE),
    _rate("resume_conn_per_s", "conn/s", ECHOES + ("cluster2_s600",)),
    _rate("write_conn_per_s", "conn/s", ("notes_store_s60",)),
    _rate("read_conn_per_s", "conn/s", ("notes_store_s60",)),
    _rate("recover_records_per_s", "records/s", ("notes_store_s60",)),
    _rate("xshard_msgs_per_s", "msgs/s", ("cluster2_s600",)),
    _rate("asbcheck_states_per_s", "states/s", ("oracles",)),
    _rate("asbsched_schedules_per_s", "schedules/s", ("oracles",)),
    _rate("crashcheck_points_per_s", "points/s", ("oracles",)),
    Metric("sim_kcycles_per_conn", "Kcycles/conn", "lower", "simulated", 0.0, SITE),
    Metric("failed_share", "share", "lower", "count", 0.0),
)

DENSE = tuple(m for m in END_TO_END if m.dense)
SPARSE = tuple(m for m in END_TO_END if not m.dense)

_PLAIN_ECHO = "conn_per_s on every echo_*"
_BIG = "conn_per_s, create_conn_per_s on echo_s2000 (<5% on echo_s300)"
_INTERN = "resume_conn_per_s on echo_interned_s300, echo_elided_s300; none on plain"
_ELIDE = "resume_conn_per_s and setup_s on echo_elided_s300 only"
_KERNEL = "conn_per_s on echo_s300 most; read_conn_per_s on notes_store_s60"
_SIM = "sim_kcycles_per_conn; byte-stable under any host-time-only change"
_SANI = "conn_per_s on echo_sanitized_s100 only"
_STORE = "write_conn_per_s, read_conn_per_s, recover_records_per_s on notes_store_s60"
_WIRE = "xshard_msgs_per_s on cluster2_s600"
_ROUTER = "conn_per_s, setup_s on cluster2_s600"
_ORACLE = "the three oracles rates"
_DIAG = "diagnostic"

_SIZES = (1, 10, 100, 1000)
_INTERNED_WL = ("echo_interned_s300", "echo_elided_s300")
_ELIDED_WL = ("echo_elided_s300",)
_SANI_WL = ("echo_sanitized_s100",)
_NOTES_WL = ("notes_store_s60",)
_CLUSTER_WL = ("cluster2_s600",)
_ORACLES_WL = ("oracles",)
_KERNEL_WL = tuple(n for n in SITE if n != "cluster2_s600")  # one in-process kernel


def _layer(name: str, unit: str, better: str, currency: str, moves: str,
           workloads: Tuple[str, ...] = _KERNEL_WL) -> Metric:
    return Metric(name, unit, better, currency, None, workloads, moves)


def _per_size(stem: str, sizes: Tuple[int, ...], moves_small: str, moves_big: str) -> List[Metric]:
    return [
        _layer(f"{stem}.n{n}", "us", "lower", "host", moves_small if n <= 10 else moves_big)
        for n in sizes
    ]


PER_LAYER: Tuple[Metric, ...] = (
    # core.labelops / core.chunks — probes by label entries, then counters.
    *_per_size("core.labelops.check_send_us", _SIZES, _PLAIN_ECHO, _BIG),
    *_per_size("core.labelops.apply_effects_us", _SIZES, _PLAIN_ECHO, _BIG),
    *_per_size("core.labelops.raise_receive_us", _SIZES, _PLAIN_ECHO, _BIG),
    _layer("core.labelops.check_send_us.live", "us", "lower", "host", _BIG),
    _layer("core.labelops.apply_effects_us.live", "us", "lower", "host", _BIG),
    _layer("core.labelops.raise_receive_us.live", "us", "lower", "host", _BIG),
    _layer("core.labelops.live_entries", "count", "lower", "count", _DIAG),
    _layer("core.labelops.calls_per_conn", "count", "lower", "count", _PLAIN_ECHO),
    _layer("core.labelops.self_ms_per_conn", "ms", "lower", "host", _BIG),
    _layer("core.chunks.entries_scanned_per_conn", "count", "lower", "count", _BIG),
    _layer("core.chunks.fast_path_share", "share", "higher", "count", _BIG),
    # core.interning
    _layer("core.interning.intern_us", "us", "lower", "host", _INTERN, _INTERNED_WL),
    _layer("core.interning.cache_hit_rate", "share", "higher", "count", _INTERN, _INTERNED_WL),
    _layer("core.interning.self_ms_per_conn", "ms", "lower", "host", _INTERN),
    # kernel.elide / analysis.proofs
    _layer("kernel.elide.hit_rate", "share", "higher", "count", _ELIDE, _ELIDED_WL),
    _layer("kernel.elide.batched_share", "share", "higher", "count", _ELIDE, _ELIDED_WL),
    _layer("kernel.elide.quarantines", "count", "lower", "count", _ELIDE, _ELIDED_WL),
    _layer("kernel.elide.self_ms_per_conn", "ms", "lower", "host", _ELIDE),
    _layer("analysis.proofs.compile_ms", "ms", "lower", "host", _ELIDE, _ELIDED_WL),
    _layer("analysis.proofs.load_ms", "ms", "lower", "host", _ELIDE, _ELIDED_WL),
    # kernel
    _layer("kernel.msgs_per_conn", "count", "lower", "count", _KERNEL),
    _layer("kernel.steps_per_conn", "count", "lower", "count", _KERNEL),
    _layer("kernel.host_us_per_msg", "us", "lower", "host", _KERNEL),
    _layer("kernel.drops_per_conn.label-check", "count", "lower", "count", _KERNEL),
    _layer("kernel.run_self_ms_per_conn", "ms", "lower", "host", _KERNEL),
    *[_layer(f"kernel.send_deliver_us.n{n}", "us", "lower", "host", _KERNEL)
      for n in (1, 100, 1000)],
    _layer("kernel.scheduler.enq_deq_us", "us", "lower", "host", _KERNEL),
    # simulated cycles by Figure 9 component
    *[_layer(f"sim.kcycles_per_conn.{c}", "Kcycles/conn", "lower", "simulated", _SIM)
      for c in ("okdb", "okws", "kernel_ipc", "network", "other")],
    # analysis.sanitizer
    _layer("analysis.sanitizer.checks_per_conn", "count", "lower", "count", _SANI, _SANI_WL),
    _layer("analysis.sanitizer.self_ms_per_conn", "ms", "lower", "host", _SANI),
    _layer("analysis.sanitizer.slowdown_ratio", "ratio", "lower", "host", _SANI, _SANI_WL),
    # db / store
    _layer("db.insert_us", "us", "lower", "host", _STORE, _NOTES_WL),
    _layer("db.select_rows_per_s", "rows/s", "higher", "host", _STORE, _NOTES_WL),
    _layer("db.self_ms_per_conn", "ms", "lower", "host", _STORE, _NOTES_WL),
    _layer("store.append_records_per_s", "records/s", "higher", "host", _STORE, _NOTES_WL),
    _layer("store.wal.frame_us", "us", "lower", "host", _STORE, _NOTES_WL),
    _layer("store.wal.scan_mb_per_s", "MB/s", "higher", "host", _STORE, _NOTES_WL),
    _layer("store.bytes_per_write", "bytes", "lower", "count", _STORE, _NOTES_WL),
    _layer("store.apply_self_ms_per_conn", "ms", "lower", "host", _STORE, _NOTES_WL),
    # cluster
    _layer("cluster.wire.encode_first_us", "us", "lower", "host", _WIRE, _CLUSTER_WL),
    _layer("cluster.wire.encode_warm_us", "us", "lower", "host", _WIRE, _CLUSTER_WL),
    _layer("cluster.wire.decode_us", "us", "lower", "host", _WIRE, _CLUSTER_WL),
    _layer("cluster.router.call_all_ms_per_round", "ms", "lower", "host", _ROUTER, _CLUSTER_WL),
    _layer("cluster.router.pump_ms", "ms", "lower", "host", _ROUTER, _CLUSTER_WL),
    _layer("cluster.boot_ms", "ms", "lower", "host", _ROUTER, _CLUSTER_WL),
    _layer("cluster.busy_imbalance", "ratio", "lower", "simulated", _ROUTER, _CLUSTER_WL),
    # the oracles
    _layer("analysis.check.transitions_per_s", "1/s", "higher", "host", _ORACLE, _ORACLES_WL),
    _layer("analysis.check.labels_interned", "count", "lower", "count", _ORACLE, _ORACLES_WL),
    _layer("analysis.sched.transitions_per_s", "1/s", "higher", "host", _ORACLE, _ORACLES_WL),
    _layer("analysis.sched.dpor_prune_ratio", "ratio", "higher", "count", _ORACLE, _ORACLES_WL),
    _layer("store.crashcheck.check_prefix_us", "us", "lower", "host", _ORACLE, _ORACLES_WL),
    # diagnostics
    _layer("sim.wave_ms_p50", "ms", "lower", "host", _DIAG),
    _layer("sim.wave_ms_p90", "ms", "lower", "host", _DIAG),
    _layer("sim.wave_samples", "count", "higher", "count", _DIAG),
    _layer("obs.metrics_on_ratio", "ratio", "lower", "host", _DIAG, ("echo_s300",)),
    _layer("host.calib_loop_ms", "ms", "lower", "host", _DIAG, ALL),
    _layer("host.gc_gen2_collections", "count", "lower", "count", _DIAG, ALL),
    _layer("host.tracing_overhead_ratio", "ratio", "lower", "host", _DIAG, ALL),
    _layer("host.trace_spans", "count", "lower", "count", _DIAG, ALL),
)

_METRICS: Dict[str, Metric] = {m.name: m for m in END_TO_END + PER_LAYER}


def metric(name: str) -> Metric:
    return _METRICS[name]


def benchmark_manifest() -> Dict[str, Any]:
    """The ``BENCHMARK.json`` document (exactly the contract's keys).

    The driver wants a full grid, so ``end_to_end`` holds only the
    metrics every workload measures; the workload-specific end-to-end
    rates ride in ``per_layer`` (0 where a workload does not measure
    them) and keep their bounds in :data:`END_TO_END` for ``compare``.
    """
    return {
        "command": ["python3", "-m", "hostbench", "bench"],
        "paths": ["hostbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in DENSE
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better}
            for m in SPARSE + PER_LAYER
        ],
    }
