"""The machine-readable benchmark harness: ``python -m repro bench``.

Regenerates the paper's evaluation figures headlessly and writes one JSON
document per figure at the repository root (or ``--out``):

    BENCH_fig6.json       memory per cached/active session      (Figure 6)
    BENCH_fig7.json       throughput vs cached sessions         (Figure 7)
    BENCH_fig8.json       latency at concurrency 4              (Figure 8)
    BENCH_fig9.json       component Kcycles/connection          (Figure 9)
    BENCH_labelops.json   paper-mode vs fused label-op ablation  (§5.6/9.3)
    BENCH_eventproc.json  event processes vs forked processes    (§6.1–6.2)
    BENCH_scale.json      sharded-cluster scaling           (DESIGN.md §13)

The scale figure is not part of the default run (it forks shard worker
processes); ``python -m repro bench --only scale`` selects it.

Every document follows the ``repro-bench/v1`` schema (see
:data:`SCHEMA` and DESIGN.md §8): paper value, measured value and their
ratio for each headline quantity, the raw series, and a full
:func:`~repro.obs.metrics.kernel_snapshot` of an instrumented run so the
perf trajectory of the *kernel internals* (label fast-path rate, drop
counts, queue depths) is tracked alongside the headline numbers.

Every value is simulated — cycles, pages, counts — so a document is a
pure function of the tree: two runs write the same bytes, and
:func:`guard_files` is an equality check.  Host seconds are
``hostbench/``'s currency and appear in no BENCH document.

The full run uses the paper's grids (sweep 1…10,000 cached sessions,
memory 0…10,000); ``--quick`` shrinks them to CI scale (about a minute)
and the document records which grid produced it.
"""

from __future__ import annotations

import json
import os
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional

from repro.ipc.rpc import open_port
from repro.kernel import EpCheckpoint, EpClean, EpYield, Kernel, KernelConfig, Recv, Send, Spawn
from repro.kernel.clock import CATEGORIES, CPU_HZ, KERNEL_IPC, NETWORK, OKWS, CostModel
from repro.kernel.event_process import EP_STRUCT_BYTES
from repro.kernel.memory import PAGE_SIZE
from repro.kernel.process import PROCESS_STRUCT_BYTES
from repro.obs.metrics import kernel_snapshot
from repro.sim.runner import (
    build_cache_site,
    build_echo_site,
    echo_requests,
    run_latency_experiment,
    run_memory_experiment,
    run_session_sweep,
    warm_window,
)
from repro.sim.workload import HttpClient

#: Schema identifier stamped into (and required of) every document.
SCHEMA = "repro-bench/v1"

#: Every figure this harness knows how to regenerate.
FIGURES = ("fig6", "fig7", "fig8", "fig9", "labelops", "eventproc", "scale")

#: The default ``run_bench`` selection: the paper's numbers.  ``scale``
#: (the multi-process cluster bench) runs only when asked for.
DEFAULT_FIGURES = FIGURES[:-1]

#: Operating point of the full run's interning and elision warm windows.
#: Named, not ``grid[-1]``: the 1.15x / 1.5x targets are claims about
#: 3,000 cached sessions, whatever the sweep's last point is.
WARM_SESSIONS = 3000

#: Keys every document must carry; see :func:`validate`.
REQUIRED_KEYS = ("schema", "figure", "title", "quick", "series", "comparisons")

#: Keys every comparison row must carry.
COMPARISON_KEYS = ("name", "paper", "measured", "ratio", "unit")


# -- document assembly ---------------------------------------------------------------


def _ratio(paper: Any, measured: Any) -> Optional[float]:
    if isinstance(paper, (int, float)) and isinstance(measured, (int, float)) and paper:
        return round(measured / paper, 4)
    return None


def comparison(name: str, paper: Any, measured: Any, unit: str = "") -> Dict[str, Any]:
    """One paper-vs-measured row; ``ratio`` is measured/paper when both
    are numeric (the number the perf trajectory tracks over time)."""
    if isinstance(measured, float):
        measured = round(measured, 4)
    return {
        "name": name,
        "paper": paper,
        "measured": measured,
        "ratio": _ratio(paper, measured),
        "unit": unit,
    }


def _document(
    figure: str,
    title: str,
    quick: bool,
    series: Dict[str, Any],
    comparisons: List[Dict[str, Any]],
    metrics: Optional[Dict[str, Any]],
    meta: Dict[str, Any],
) -> Dict[str, Any]:
    return {
        "schema": SCHEMA,
        "figure": figure,
        "title": title,
        "quick": quick,
        "series": series,
        "comparisons": comparisons,
        "metrics": metrics,
        "meta": meta,
    }


def validate(doc: Dict[str, Any]) -> List[str]:
    """Check *doc* against the ``repro-bench/v1`` schema; returns the list
    of problems (empty = valid)."""
    problems: List[str] = []
    if not isinstance(doc, dict):
        return [f"document is {type(doc).__name__}, not an object"]
    for key in REQUIRED_KEYS:
        if key not in doc:
            problems.append(f"missing required key {key!r}")
    if problems:
        return problems
    if doc["schema"] != SCHEMA:
        problems.append(f"schema is {doc['schema']!r}, expected {SCHEMA!r}")
    if doc["figure"] not in FIGURES:
        problems.append(f"unknown figure {doc['figure']!r}")
    if not isinstance(doc["title"], str) or not doc["title"]:
        problems.append("title must be a non-empty string")
    if not isinstance(doc["quick"], bool):
        problems.append("quick must be a boolean")
    if not isinstance(doc["series"], dict):
        problems.append("series must be an object")
    else:
        for name, ser in doc["series"].items():
            if not isinstance(ser, dict) or "x" not in ser or "y" not in ser:
                problems.append(f"series {name!r} must have x and y arrays")
            elif len(ser["x"]) != len(ser["y"]):
                problems.append(f"series {name!r}: len(x) != len(y)")
    if not isinstance(doc["comparisons"], list) or not doc["comparisons"]:
        problems.append("comparisons must be a non-empty array")
    else:
        for i, row in enumerate(doc["comparisons"]):
            for key in COMPARISON_KEYS:
                if not isinstance(row, dict) or key not in row:
                    problems.append(f"comparisons[{i}] missing key {key!r}")
    metrics = doc.get("metrics")
    if metrics is not None and not isinstance(metrics, dict):
        problems.append("metrics must be an object or null")
    return problems


def _series(xs: Iterable[Any], ys: Iterable[Any], unit: str = "") -> Dict[str, Any]:
    return {"x": list(xs), "y": [round(y, 4) if isinstance(y, float) else y for y in ys], "unit": unit}


# -- instrumented snapshot runs -------------------------------------------------------

_OBS_CONFIG = KernelConfig(metrics=True, spans=True, span_limit=50_000)


def _snapshot(site) -> Dict[str, Any]:
    """The kernel snapshot (metric counters, drop counts, label-op stats,
    memory) of a site built with :data:`_OBS_CONFIG`."""
    snap = kernel_snapshot(site.kernel)
    snap["spans_recorded"] = len(site.kernel.spans)
    return snap


def _instrumented_echo_snapshot(n_users: int) -> Dict[str, Any]:
    """A small fully-instrumented echo-site run: two rounds per user."""
    site = build_echo_site(n_users, config=_OBS_CONFIG)
    HttpClient(site).run_batch(echo_requests(n_users, 2 * n_users), concurrency=16)
    return _snapshot(site)


def _instrumented_cache_snapshot(n_users: int) -> Dict[str, Any]:
    site = build_cache_site(n_users, config=_OBS_CONFIG)
    HttpClient(site).run_batch(
        [(f"u{i}", f"pw{i}", "cache", b"s" * 900, None) for i in range(n_users)],
        concurrency=16,
    )
    return _snapshot(site)


# -- the figures ---------------------------------------------------------------------


def _slope(points) -> float:
    first, last = points[0], points[-1]
    return (last.total_pages - first.total_pages) / (last.sessions - first.sessions)


def run_fig6(quick: bool) -> Dict[str, Any]:
    """Figure 6: memory used by cached and active web sessions."""
    grid = [0, 200, 400] if quick else [0, 1000, 3000, 5000, 10000]
    grid_active = [100, 300] if quick else [1000, 5000]
    cached = run_memory_experiment(grid)
    active = run_memory_experiment(grid_active, active=True)
    cached_slope = _slope(cached)
    active_slope = _slope(active)
    return _document(
        "fig6",
        "Memory used by cached and active web sessions",
        quick,
        {
            "cached_pages": _series(
                [p.sessions for p in cached], [p.total_pages for p in cached], "pages"
            ),
            "active_pages": _series(
                [p.sessions for p in active], [p.total_pages for p in active], "pages"
            ),
        },
        [
            comparison("pages per cached session", 1.5, cached_slope, "pages"),
            comparison("pages per active session", 9.5, active_slope, "pages"),
            comparison(
                "extra pages per active session", 8.0, active_slope - cached_slope, "pages"
            ),
        ],
        _instrumented_cache_snapshot(50 if quick else 200),
        {"grid": grid, "grid_active": grid_active},
    )


def _sweep(quick: bool):
    grid = [1, 100, 500] if quick else [1, 100, 1000, 3000, 5000, 7500, 10000]
    return grid, run_session_sweep(grid)


def _crossing(xs, a, b) -> Optional[float]:
    """The x where series *a* passes series *b* from below (linear
    interpolation between grid points); ``None`` if it never does."""
    for i in range(1, len(xs)):
        d_prev, d_here = a[i - 1] - b[i - 1], a[i] - b[i]
        if d_prev < 0 <= d_here:
            return xs[i - 1] + -d_prev / (d_here - d_prev) * (xs[i] - xs[i - 1])
    return None


def _interning_speedup(sessions: int) -> Dict[str, Any]:
    """Warm-window per-connection cost at *sessions* cached sessions,
    interned-label fast path off vs on.

    Three identical rounds per kernel (:func:`warm_window`): two to let
    every label reach its per-user fixed point (the regime a long-running
    server lives in), one measured.  The cache is sized to hold the warm
    working set (a few keys per user) so the measurement reflects the
    fast path, not LRU thrash.
    """
    out: Dict[str, Any] = {"sessions": sessions, "cache_size": 1 << 16}
    requests = echo_requests(sessions)
    for key, intern in (("plain_kcycles_conn", False), ("interned_kcycles_conn", True)):
        site = build_echo_site(
            sessions,
            config=KernelConfig(intern_labels=intern, labelop_cache_size=1 << 16),
        )
        delta, _ = warm_window(site, requests)
        out[key] = round(sum(delta.values()) / sessions / 1000, 1)
        if intern:
            cache = site.kernel.labelop_cache
            out["hit_rate"] = round(cache.hits / max(1, cache.lookups), 4)
    out["speedup"] = round(out["plain_kcycles_conn"] / out["interned_kcycles_conn"], 4)
    return out


def _elision_speedup(sessions: int) -> Dict[str, Any]:
    """Warm-window kernel-IPC cost at *sessions* cached sessions, plain
    Figure 4 checking vs proof-guided elision (DESIGN.md §15).

    Plain site: two warm-up rounds, a recording round (the
    :class:`~repro.analysis.extract.TopologyRecorder` rides along, so
    this round is *not* measured), then a measured round through a clock
    window.  The recorded topology is compiled to a ``proofs/v1``
    document and a second site boots with ``elide_checks`` on; its third
    round — the same round index the recorder saw, so the deterministic
    handle values line up — is measured through the same window.  The
    headline is the Kernel-IPC category ratio (that is where checks
    live); ``total_speedup`` reports the whole-clock ratio alongside so
    the IPC-window framing cannot oversell the end-to-end win.
    """
    import tempfile

    from repro.analysis.extract import TopologyRecorder
    from repro.analysis.proofs import compile_proofs, write_proofs

    requests = echo_requests(sessions)
    out: Dict[str, Any] = {"sessions": sessions}

    # Recording pass: warm to the per-user fixed point, then record one
    # round.  Separate from the measured plain site so recorder overhead
    # never lands in the baseline window.
    site = build_echo_site(sessions, config=KernelConfig())
    client = HttpClient(site)
    for _ in range(2):
        client.run_batch(requests, concurrency=16)
    recorder = TopologyRecorder(site.kernel)
    client.run_batch(requests, concurrency=16)
    doc = compile_proofs(recorder.build(f"echo-site-{sessions}"))
    out["proof_stats"] = doc["stats"]

    with tempfile.NamedTemporaryFile(
        mode="w", suffix=".json", prefix="repro-bench-proofs-", delete=False
    ) as fh:
        proof_path = fh.name
    try:
        write_proofs(doc, proof_path)
        windows: Dict[str, Dict[str, float]] = {}
        for key, config in (
            ("plain", KernelConfig()),
            (
                "elided",
                KernelConfig(
                    intern_labels=True,
                    elide_checks=True,
                    proof_path=proof_path,
                    labelop_cache_size=1 << 16,
                ),
            ),
        ):
            mside = build_echo_site(sessions, config=config)
            delta, _ = warm_window(mside, requests)
            windows[key] = {
                "ipc": delta.get(KERNEL_IPC, 0.0),
                "total": sum(delta.values()),
            }
            out[f"{key}_ipc_kcycles_conn"] = round(
                delta.get(KERNEL_IPC, 0.0) / sessions / 1000, 1
            )
            if key == "elided":
                table = mside.kernel.flow_table
                counters = table.counters() if table is not None else {}
                out["elide"] = {
                    name: counters.get(name)
                    for name in (
                        "valid", "deliver_hits", "send_hits", "misses",
                        "batch_drains", "batched_messages", "quarantines",
                    )
                }
    finally:
        os.unlink(proof_path)
    out["speedup"] = round(
        windows["plain"]["ipc"] / max(1.0, windows["elided"]["ipc"]), 4
    )
    out["total_speedup"] = round(
        windows["plain"]["total"] / max(1.0, windows["elided"]["total"]), 4
    )
    return out


def _cluster_single_shard_point(sessions: int) -> float:
    """Throughput through the ``repro.cluster`` facade at ``n_shards=1``.

    The single-shard cluster drives the ordinary in-process kernel with
    the unmodified boot key, so this series pins the facade's identity
    path under the same guard as the direct-kernel series: a change that
    makes ``Cluster(n_shards=1)`` anything but a thin pass-through moves
    this point.
    """
    from repro.cluster import Cluster, ClusterConfig

    users = tuple((f"u{i}", f"pw{i}") for i in range(sessions))
    requests = echo_requests(sessions, 2 * sessions)
    with Cluster(ClusterConfig(n_shards=1, users=users)) as cluster:
        result = cluster.run_batch(requests)
    return len(requests) / (result.elapsed_cycles / CPU_HZ)


def run_fig7(quick: bool, sweep) -> Dict[str, Any]:
    """Figure 7: throughput vs cached sessions, plus the interned-label
    and proof-elision warm-window speedups and the cluster facade's
    single-shard point."""
    from repro.baselines import ApacheCgiModel, ModApacheModel

    grid, points = sweep
    apache = ApacheCgiModel().run(1000 if quick else 4000, concurrency=400)
    mod_apache = ModApacheModel().run(1000 if quick else 4000, concurrency=16)
    okws_1 = points[0].throughput

    # Warm-window speedups of the interned-label fast path (DESIGN.md
    # §11) and of proof-guided check elision (§15), guarded like any other
    # series: a change to a hit rate, the fast-path billing or the stub
    # keys fails CI.  The full run shows the paper-scale
    # wins (≥ 1.15x and ≥ 1.5x at 3000 cached sessions).
    warm = grid[-1] if quick else WARM_SESSIONS
    speed = _interning_speedup(warm)
    elide = _elision_speedup(warm)

    # The repro.cluster identity path (DESIGN.md §13), guarded like any
    # other series: n_shards=1 must stay a thin facade over this kernel.
    cluster_sessions = grid[1]
    cluster_conn_s = _cluster_single_shard_point(cluster_sessions)
    throughputs = [p.throughput for p in points]
    comparisons = [
        comparison("OKWS(1) / Mod-Apache", 0.55, okws_1 / mod_apache.throughput, "x"),
        comparison(
            "OKWS(1) / Apache (paper: better, i.e. > 1)",
            1.0,
            okws_1 / apache.throughput,
            "x",
        ),
        comparison(
            "throughput degrades monotonically",
            True,
            all(a >= b for a, b in zip(throughputs, throughputs[1:])),
            "",
        ),
        comparison(
            f"interned fast path speedup at {speed['sessions']} sessions",
            1.15 if not quick else "n/a (reduced grid)",
            speed["speedup"],
            "x",
        ),
        comparison(
            f"proof-elision speedup at {elide['sessions']} sessions",
            1.5 if not quick else "n/a (reduced grid)",
            elide["speedup"],
            "x",
        ),
        comparison(
            f"cluster facade (1 shard) at {cluster_sessions} sessions",
            "n/a (guarded series)",
            cluster_conn_s,
            "conn/s",
        ),
    ]
    if not quick:
        # §9.2.1's claims about the far end of the paper's grid.
        comparisons += [
            comparison(
                f"OKWS({grid[-1]}) / Apache (paper: approximately half)",
                0.5,
                throughputs[-1] / apache.throughput,
                "x",
            ),
            comparison(
                "sessions where OKWS falls below Apache",
                "somewhere over one thousand",
                _crossing(grid, [apache.throughput] * len(grid), throughputs),
                "sessions",
            ),
        ]
    return _document(
        "fig7",
        "Throughput for various numbers of cached sessions",
        quick,
        {
            "okws_throughput": _series(grid, throughputs, "conn/s"),
            "interning_speedup": _series([speed["sessions"]], [speed["speedup"]], "x"),
            "elision_speedup": _series([elide["sessions"]], [elide["speedup"]], "x"),
            "cluster_single_shard": _series([cluster_sessions], [cluster_conn_s], "conn/s"),
        },
        comparisons,
        _instrumented_echo_snapshot(50 if quick else 200),
        {
            "grid": grid,
            "apache_conn_s": round(apache.throughput, 1),
            "mod_apache_conn_s": round(mod_apache.throughput, 1),
            "interning": speed,
            "elision": elide,
            "cluster_single_shard_sessions": cluster_sessions,
        },
    )


def run_fig8(quick: bool) -> Dict[str, Any]:
    """Figure 8: median and 90th-percentile latency at concurrency 4."""
    from repro.baselines import ApacheCgiModel, ModApacheModel
    from repro.sim.stats import percentile

    n = 150 if quick else 400
    big = 200 if quick else 1000
    rows: Dict[str, List[float]] = {
        "Mod-Apache": ModApacheModel().run(n, concurrency=4).latencies_us,
        "Apache": ApacheCgiModel().run(n, concurrency=4).latencies_us,
        "OKWS, 1 session": run_latency_experiment(1, n_requests=n),
        f"OKWS, {big} sessions": run_latency_experiment(big, n_requests=n),
    }
    paper_medians = {"Mod-Apache": 999, "Apache": 3374, "OKWS, 1 session": 1875}
    if not quick:
        paper_medians["OKWS, 1000 sessions"] = 3414
    comparisons = [
        comparison(
            f"median latency: {label}",
            paper_medians.get(label, "n/a (reduced grid)"),
            percentile(lats, 50),
            "us",
        )
        for label, lats in rows.items()
    ]
    # Interned fast path at the big operating point.
    interned_lats = run_latency_experiment(
        big,
        n_requests=n,
        config=KernelConfig(intern_labels=True, labelop_cache_size=1 << 16),
    )
    comparisons.append(
        comparison(
            f"median latency: OKWS, {big} sessions (interned)",
            "n/a (fast path)",
            percentile(interned_lats, 50),
            "us",
        )
    )
    # Sharding the same operating point across two kernels (DESIGN.md
    # §13): each shard sees half the users, so per-connection label scans
    # shrink and median latency should drop below the single-kernel row.
    sharded_lats = _sharded_latencies(big, n_requests=n, concurrency=4)
    comparisons.append(
        comparison(
            f"median latency: OKWS, {big} sessions (2 shards)",
            "n/a (sharded)",
            percentile(sharded_lats, 50),
            "us",
        )
    )
    return _document(
        "fig8",
        "Request latency at a concurrency of four",
        quick,
        {
            label: _series(
                [50, 90], [percentile(lats, 50), percentile(lats, 90)], "us"
            )
            for label, lats in rows.items()
        },
        comparisons,
        _instrumented_echo_snapshot(20 if quick else 100),
        {"n_requests": n, "big_sessions": big, "series_x_axis": "percentile"},
    )


def _sharded_latencies(
    sessions: int, n_requests: int, concurrency: int = 4
) -> List[float]:
    """Per-request latency (µs) for the fig8 workload on a 2-shard cluster."""
    from repro.cluster import Cluster, ClusterConfig

    users = tuple((f"u{i}", f"pw{i}") for i in range(sessions))
    requests = echo_requests(sessions, n_requests, args=None)
    config = ClusterConfig(n_shards=2, users=users, concurrency=concurrency)
    with Cluster(config) as cluster:
        result = cluster.run_batch(requests)
    return [cycles / CPU_HZ * 1e6 for cycles in result.latencies_cycles]


def _durability_overhead() -> Dict[str, float]:
    """Simulated per-connection cost of the board write workload with the
    in-memory dbproxy vs the ``wal/v1``-backed store (DESIGN.md §14).

    Both runs are the same deterministic four-request workload; the delta
    is exactly the store's append billing (``APPEND_BASE_CYCLES`` plus
    the per-byte charge), so the series quantifies what durability costs
    on the Figure 9 cycle scale."""
    import tempfile

    from repro.store.crashcheck import BOARD_REQUESTS, run_board_workload

    out: Dict[str, float] = {}
    requests = len(BOARD_REQUESTS)
    with tempfile.TemporaryDirectory(prefix="repro-bench-store-") as scratch:
        for key, store_path in (
            ("memory_kcycles_conn", None),
            ("store_kcycles_conn", os.path.join(scratch, "wal.log")),
        ):
            site = run_board_workload(store_path)
            out[key] = site.kernel.clock.now / requests / 1000.0
    return out


def run_fig9(quick: bool, sweep) -> Dict[str, Any]:
    """Figure 9: component cost breakdown and label growth per session."""
    grid, points = sweep
    durability = _durability_overhead()

    # Section 9.3's structural label-growth claims, on live kernel state.
    n = 50 if quick else 200
    site = build_echo_site(n, config=_OBS_CONFIG)
    HttpClient(site).run_batch(echo_requests(n, args=None), concurrency=16)
    procs = {p.name: p for p in site.kernel.processes.values()}

    by_category = {
        category: [p.components_kcycles.get(category, 0.0) for p in points]
        for category in CATEGORIES
    }
    totals = [p.total_kcycles for p in points]
    series = {
        f"kcycles_{category}": _series(grid, ys, "Kcycles/conn")
        for category, ys in by_category.items()
    }
    series["kcycles_total"] = _series(grid, totals, "Kcycles/conn")
    # Durability overhead (DESIGN.md §14): x=0 is the in-memory dbproxy,
    # x=1 the wal/v1-backed store, same board write workload.
    series["durability_kcycles_conn"] = _series(
        [0, 1],
        [durability["memory_kcycles_conn"], durability["store_kcycles_conn"]],
        "Kcycles/conn",
    )
    ipc = by_category[KERNEL_IPC]
    comparisons = [
        comparison(
            f"{proc} {which}-label entries per user",
            paper,
            len(getattr(procs[proc], f"{which}_label")) / n,
            "entries",
        )
        for proc, which, paper in (
            ("idd", "send", 2.0), ("ok-dbproxy", "send", 2.0), ("netd", "receive", 1.0)
        )
    ] + [
        comparison("kernel IPC cost grows with sessions", True, ipc[-1] > ipc[0], ""),
        comparison(
            "wal/v1 store costs more than in-memory (durable writes)",
            True,
            durability["store_kcycles_conn"]
            > durability["memory_kcycles_conn"],
            "",
        ),
    ]
    if not quick:
        # §9.3's claims about the paper's grid: where the lines cross, and
        # "no obviously quadratic or exponential factors" — every point
        # from 100 sessions up sits near the line through the end points.
        tail = [(x, y) for x, y in zip(grid, totals) if x >= 100]
        (x0, y0), (x1, y1) = tail[0], tail[-1]
        slope = (y1 - y0) / (x1 - x0)
        comparisons += [
            comparison(
                "sessions where Kernel IPC passes Network",
                3000,
                _crossing(grid, ipc, by_category[NETWORK]),
                "sessions",
            ),
            comparison(
                "sessions where Kernel IPC meets OKWS",
                7500,
                _crossing(grid, ipc, by_category[OKWS]),
                "sessions",
            ),
            comparison(
                "worst deviation from a line, 100+ sessions (paper: linear)",
                "n/a (< 0.25)",
                max(abs(y / (y0 + slope * (x - x0)) - 1) for x, y in tail),
                "",
            ),
        ]
    return _document(
        "fig9",
        "Average cost of Asbestos components per connection",
        quick,
        series,
        comparisons,
        _snapshot(site),
        {"grid": grid, "label_growth_users": n},
    )


def run_labelops(quick: bool) -> Dict[str, Any]:
    """The §5.6/§9.3 ablation: paper-mode label costs vs fused operations,
    plus the fast-path/full-merge split from the instrumented counters."""
    grid = [50, 200] if quick else [100, 1000]
    paper_mode, fused_mode = (
        run_session_sweep(grid, config=KernelConfig.from_env(label_cost_mode=mode))
        for mode in ("paper", "fused")
    )
    growth_paper = (
        paper_mode[-1].components_kcycles[KERNEL_IPC]
        - paper_mode[0].components_kcycles[KERNEL_IPC]
    )
    growth_fused = (
        fused_mode[-1].components_kcycles[KERNEL_IPC]
        - fused_mode[0].components_kcycles[KERNEL_IPC]
    )
    snapshot = _instrumented_echo_snapshot(50 if quick else 200)
    label_ops = snapshot.get("label_ops", {})
    fast = label_ops.get("fast_path", 0)
    full = label_ops.get("full_merges", 0)
    return _document(
        "labelops",
        "Label-operation costs: 2005 implementation vs fused operations",
        quick,
        {
            "kernel_ipc_paper_mode": _series(
                grid,
                [p.components_kcycles[KERNEL_IPC] for p in paper_mode],
                "Kcycles/conn",
            ),
            "kernel_ipc_fused_mode": _series(
                grid,
                [p.components_kcycles[KERNEL_IPC] for p in fused_mode],
                "Kcycles/conn",
            ),
        },
        [
            comparison(
                "fused/paper IPC growth (paper: well under half)",
                0.5,
                (growth_fused / growth_paper) if growth_paper else 0.0,
                "x",
            ),
            comparison(
                "label fast-path share of checked operations",
                "n/a",
                fast / (fast + full) if (fast + full) else 0.0,
                "",
            ),
        ],
        snapshot,
        {"grid": grid, "fast_path": fast, "full_merges": full},
    )


def _scale_point(
    n_shards: int, n_users: int, n_conns: int, concurrency: int
) -> Dict[str, Any]:
    """One cell of the scale grid: a full cluster run at *n_shards*.

    Sanitizer sampled at 1/64 (the production-shaped setting the sharded
    deployment runs with) and the interned-label fast path on — the
    configuration DESIGN.md §13 describes.  Cluster throughput is total
    connections over the *slowest* shard's simulated busy time: shards
    run on independent simulated CPUs, so host scheduling of the worker
    processes cannot perturb the measurement.
    """
    from repro.cluster import Cluster, ClusterConfig
    from repro.sim.stats import percentile

    users = tuple((f"u{i}", f"pw{i}") for i in range(n_users))
    requests = echo_requests(n_users, n_conns)
    config = ClusterConfig(
        n_shards=n_shards,
        users=users,
        kernel=KernelConfig(sanitize=True, intern_labels=True),
        sanitize_sample=64,
        concurrency=concurrency,
    )
    with Cluster(config) as cluster:
        cluster.mark()
        result = cluster.run_batch(requests)
        routed = cluster.run_courier()
        report = cluster.report()
    latencies = [cycles / CPU_HZ * 1e6 for cycles in result.latencies_cycles]
    return {
        "shards": n_shards,
        "throughput": n_conns / (result.elapsed_cycles / CPU_HZ),
        "p50_us": percentile(latencies, 50),
        "p99_us": percentile(latencies, 99),
        "busy_cycles": list(result.busy_cycles),
        "elapsed_cycles": result.elapsed_cycles,
        "routed": routed + result.routed,
        "board_messages": len(report["board_log"]),
        "drops": report["drops"],
        "sanitizer_violations": report["sanitizer_violations"],
    }


def run_scale(quick: bool) -> Dict[str, Any]:
    """The ``scale`` figure: sharded-cluster throughput and latency.

    Runs the same OKWS echo workload (every connection routed to the
    shard owning its user) at each shard count and reports throughput,
    latency percentiles, and speedup over the single-shard baseline.
    The speedup can exceed the shard count: per-connection label work
    scans O(users-per-kernel) entries, so halving a shard's user
    partition more than halves its per-connection cost.

    Cross-shard correctness rides along: every run includes the courier
    phase (real labels over ``wire/v1``, Figure 4 checks re-run on the
    receiving shard), and the document asserts the sampled sanitizer saw
    zero violations and that board deliveries and label-check drops are
    invariant in the shard count.
    """
    shard_grid = [1, 2] if quick else [1, 2, 4]
    n_users = 64 if quick else 500
    n_conns = 400 if quick else 10_000
    rows = [_scale_point(s, n_users, n_conns, concurrency=16) for s in shard_grid]
    base = rows[0]
    speedups = [row["throughput"] / base["throughput"] for row in rows]
    comparisons = [
        comparison(
            "cluster speedup at 2 shards (target 1.6x)", 1.6, speedups[1], "x"
        )
    ]
    if len(rows) > 2:
        comparisons.append(
            comparison(
                "cluster speedup at 4 shards (target 2.5x)", 2.5, speedups[2], "x"
            )
        )
    violations = sum(row["sanitizer_violations"] or 0 for row in rows)
    comparisons += [
        comparison("sampled sanitizer violations (1/64)", 0, violations, "count"),
        comparison(
            "cross-shard wire messages routed (max shards)",
            "n/a (>0 expected)",
            rows[-1]["routed"],
            "count",
        ),
        comparison(
            "board deliveries invariant in shard count",
            True,
            len({row["board_messages"] for row in rows}) == 1,
            "",
        ),
        comparison(
            "label-check drops invariant in shard count",
            True,
            len({row["drops"].get("label-check", 0) for row in rows}) == 1,
            "",
        ),
    ]
    return _document(
        "scale",
        "Sharded-cluster throughput scaling (repro.cluster)",
        quick,
        {
            "throughput": _series(
                shard_grid, [row["throughput"] for row in rows], "conn/s"
            ),
            "speedup": _series(shard_grid, speedups, "x"),
            "p50_latency": _series(
                shard_grid, [row["p50_us"] for row in rows], "us"
            ),
            "p99_latency": _series(
                shard_grid, [row["p99_us"] for row in rows], "us"
            ),
        },
        comparisons,
        None,
        {
            "n_users": n_users,
            "n_conns": n_conns,
            "concurrency": 16,
            "sanitize_sample": 64,
            "rows": rows,
        },
    )


# -- event processes (paper Sections 6.1–6.2) ------------------------------------------

#: The fork-vs-EP ablation: this many users, each holding ~1 KB of state.
_EP_SESSIONS = 300
_SESSION_STATE = b"s" * 1000


def _collector(ctx):
    port = ctx.env["port"] = yield from open_port()
    replies = ctx.env["replies"] = []
    while True:
        replies.append((yield Recv(port=port)).payload)


def _counting_session(ectx, msg):
    """An event process with its own port and a counter that must
    survive ``ep_clean`` + ``ep_yield`` between messages."""
    my_port = yield from open_port()
    count = 0
    while True:
        count += 1
        ectx.mem.store("session", count)
        yield Send(msg.payload["reply"], {"port": my_port, "count": count})
        yield EpClean(keep=("session",))
        msg = yield EpYield()


def _cached_session(ectx, msg):
    ectx.mem.store("session", _SESSION_STATE)
    yield Send(msg.payload["reply"], {"ok": True})
    yield EpClean(keep=("session",))
    yield EpYield()


def _forked_session(ctx):
    ctx.mem.store("session", _SESSION_STATE)
    port = ctx.env["port"] = yield from open_port()
    yield Send(ctx.env["reply"], {"ok": True})
    while True:
        yield Recv(port=port)


def _forker(ctx):
    reply = ctx.env["port"] = yield from open_port()
    for i in range(_EP_SESSIONS):
        yield Spawn(_forked_session, name=f"session{i}", env={"reply": reply})
        yield Recv(port=reply)


def _ep_server(event_body, connections: int):
    """A kernel whose one worker process is checkpointed into
    *event_body* event processes — one per message to its port — after
    *connections* first messages, each answered to a reply collector.
    Returns the kernel, the worker, the collector's ``env`` (its ``port``
    and the ``replies`` it received) and the (memory report, clock) pair
    taken just before the first connection."""

    def base(ctx):
        ctx.env["port"] = yield from open_port()
        yield EpCheckpoint(event_body)

    kernel = Kernel()
    worker = kernel.spawn(base, "worker")
    collector = kernel.spawn(_collector, "collector")
    kernel.run()
    before = kernel.memory_report(), kernel.clock.now
    for _ in range(connections):
        kernel.inject(worker.env["port"], {"reply": collector.env["port"]})
    kernel.run()
    return kernel, worker, collector.env, before


def _per_session(kernel, before):
    """(pages, cycles) each of the ``_EP_SESSIONS`` sessions cost since *before*."""
    report, cycles = before
    grown = kernel.memory_report()["total_bytes"] - report["total_bytes"]
    return grown / _EP_SESSIONS / PAGE_SIZE, (kernel.clock.now - cycles) / _EP_SESSIONS


def run_eventproc(quick: bool) -> Dict[str, Any]:
    """Sections 6.1–6.2: what an event process costs next to a process,
    and the forked-server design Section 6 argues against.  Both
    architectures run on the same kernel and hold the same per-user
    state; the grid is small enough to be the same quick or full."""
    cost = CostModel()

    # Dormant memory, then resume-with-state: 100 first connections make
    # 100 event processes; 50 more messages to one of them resume it.
    kernel, worker, collector, (report, _) = _ep_server(_counting_session, 100)
    dormant_pages = kernel.memory_report()["user_pages"] - report["user_pages"]
    created = len(worker.event_processes)
    session_port = collector["replies"][0]["port"]
    for _ in range(50):
        kernel.inject(session_port, {"reply": collector["port"]})
        kernel.run()
    counts = [r["count"] for r in collector["replies"] if r["port"] == session_port]

    ep_kernel, _, _, before = _ep_server(_cached_session, _EP_SESSIONS)
    ep_pages, ep_cycles = _per_session(ep_kernel, before)

    fork_kernel = Kernel()
    before = fork_kernel.memory_report(), fork_kernel.clock.now
    fork_kernel.spawn(_forker, "forker")
    fork_kernel.run()
    fork_pages, fork_cycles = _per_session(fork_kernel, before)

    return _document(
        "eventproc",
        "Event processes vs forked processes",
        quick,
        {
            # x=0 is the event-process server, x=1 the forked server.
            "pages_per_session": _series([0, 1], [ep_pages, fork_pages], "pages"),
            "creation_cycles_per_session": _series([0, 1], [ep_cycles, fork_cycles], "cycles"),
            "dormant_user_pages": _series([created], [dormant_pages], "pages"),
        },
        [
            comparison("event process struct", 44, EP_STRUCT_BYTES, "bytes"),
            comparison("minimal process struct", 320, PROCESS_STRUCT_BYTES, "bytes"),
            comparison("modelled spawn / ep_create", "n/a", cost.spawn / cost.ep_create, "x"),
            comparison("event processes after 100 first connections", 100, created, ""),
            comparison("user pages held by 100 dormant EPs", 100, dormant_pages, "pages"),
            comparison("counter survives 50 resumes", True, counts == list(range(1, 52)), ""),
            comparison("event processes after 50 resumes", 100, len(worker.event_processes), ""),
            comparison("pages per session, event processes", 1.5, ep_pages, "pages"),
            comparison("pages per session, forked processes", "n/a", fork_pages, "pages"),
            comparison("memory, forked / EP", "n/a", fork_pages / ep_pages, "x"),
            comparison("creation cycles, forked / EP", "n/a", fork_cycles / ep_cycles, "x"),
            comparison("processes, forked server", _EP_SESSIONS, len(fork_kernel.processes), ""),
            comparison("processes, event-process server", "n/a", len(ep_kernel.processes), ""),
        ],
        None,
        {"sessions": _EP_SESSIONS, "session_bytes": len(_SESSION_STATE)},
    )


# -- the runner ---------------------------------------------------------------------

_RUNNERS: Dict[str, Callable[..., Dict[str, Any]]] = {
    "fig6": run_fig6,
    "fig7": run_fig7,
    "fig8": run_fig8,
    "fig9": run_fig9,
    "labelops": run_labelops,
    "eventproc": run_eventproc,
    "scale": run_scale,
}


def run_bench(
    out_dir: str = ".",
    quick: bool = False,
    only: Optional[List[str]] = None,
    echo: Callable[[str], None] = print,
) -> List[str]:
    """Run the selected figures and write ``BENCH_<figure>.json`` files.

    Returns the list of paths written.  Raises ValueError if any produced
    document fails its own schema validation (a bug, not an input error).
    """
    selected = list(only) if only else list(DEFAULT_FIGURES)
    for figure in selected:
        if figure not in _RUNNERS:
            raise ValueError(
                f"unknown figure {figure!r}; choose from {', '.join(FIGURES)}"
            )
    os.makedirs(out_dir, exist_ok=True)
    # Figures 7 and 9 share the expensive session sweep.
    sweep = None
    if "fig7" in selected or "fig9" in selected:
        echo(f"bench: running session sweep ({'quick' if quick else 'full'} grid)")
        sweep = _sweep(quick)
    paths: List[str] = []
    for figure in selected:
        echo(f"bench: {figure}")
        runner = _RUNNERS[figure]
        if figure in ("fig7", "fig9"):
            doc = runner(quick, sweep=sweep)
        else:
            doc = runner(quick)
        problems = validate(doc)
        if problems:
            raise ValueError(f"{figure} produced an invalid document: {problems}")
        path = os.path.join(out_dir, f"BENCH_{figure}.json")
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
        paths.append(path)
        echo(f"bench: wrote {path}")
    return paths


def _load(path: str) -> Any:
    with open(path) as fh:
        return json.load(fh)


def validate_files(paths: List[str]) -> Dict[str, List[str]]:
    """Validate existing BENCH_*.json files; returns {path: problems}."""
    results: Dict[str, List[str]] = {}
    for path in paths:
        try:
            results[path] = validate(_load(path))
        except (OSError, json.JSONDecodeError) as err:
            results[path] = [str(err)]
    return results


def _differences(path: str, base: Any, fresh: Any) -> Iterator[str]:
    """Every place two JSON values differ, as ``path: baseline X, fresh Y``."""
    if isinstance(base, dict) and isinstance(fresh, dict):
        for key in sorted(set(base) | set(fresh)):
            yield from _differences(
                f"{path}.{key}", base.get(key, "<absent>"), fresh.get(key, "<absent>")
            )
    elif isinstance(base, list) and isinstance(fresh, list) and len(base) == len(fresh):
        for i, (b, f) in enumerate(zip(base, fresh)):
            yield from _differences(f"{path}[{i}]", b, f)
    elif base != fresh:
        yield f"{path}: baseline {base!r}, fresh {fresh!r}"


def guard_files(baseline_paths: List[str], fresh_dir: str) -> List[str]:
    """The guard: committed baseline documents against the freshly
    generated ones in *fresh_dir*.

    A document is a pure function of the tree, so the guard is equality
    of ``quick``, ``series``, ``comparisons``, ``meta`` and ``metrics``,
    in either direction; a change that means to move a bill regenerates
    the baseline in the same diff.  A quick run against a full-grid
    baseline (or vice versa) is reported as that, before any series.

    Returns the differences, each naming its path (for a series point,
    the series and its x); empty = guard passes.
    """
    problems: List[str] = []
    for base_path in baseline_paths:
        name = os.path.basename(base_path)
        try:
            base, fresh = _load(base_path), _load(os.path.join(fresh_dir, name))
        except (OSError, json.JSONDecodeError) as err:
            problems.append(f"{name}: {err}")
            continue
        if base.get("quick") != fresh.get("quick"):
            was, now = ("quick" if d.get("quick") else "full-grid" for d in (base, fresh))
            problems.append(f"{name}: baseline is {was}, fresh run is {now}")
            continue
        base_series, fresh_series = base.get("series", {}), fresh.get("series", {})
        for series in sorted(set(fresh_series) - set(base_series)):
            problems.append(
                f"{name}: series {series!r} is not in the baseline (regenerate it)"
            )
        for series, base_ser in base_series.items():
            fresh_ser = fresh_series.get(series)
            if fresh_ser is None:
                problems.append(f"{name}: series {series!r} missing from fresh run")
            elif fresh_ser.get("x") != base_ser.get("x"):
                problems.append(f"{name}: series {series!r} x-grid changed")
            else:
                problems += [
                    f"{name}: {series}@x={x}: baseline {base_y!r}, fresh {fresh_y!r}"
                    for x, base_y, fresh_y in zip(
                        base_ser["x"], base_ser.get("y", []), fresh_ser.get("y", [])
                    )
                    if base_y != fresh_y
                ]
                problems += _differences(
                    f"{name}: {series}.unit", base_ser.get("unit"), fresh_ser.get("unit")
                )
        for key in ("comparisons", "meta", "metrics"):
            problems += _differences(f"{name}: {key}", base.get(key), fresh.get(key))
    return problems
