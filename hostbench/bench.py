"""One workload in this process: the untraced run (end-to-end metrics)
and the traced run (per-layer metrics)."""

from __future__ import annotations

import gc
import os
import resource
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, Optional

from hostbench import probes, spec
from hostbench.check import Checker
from hostbench.timing import REFERENCE_LOOP_S, Samples, calibration_loop
from hostbench.trace import Tracer
from hostbench.workloads import Rep, Run, make_driver, run_workload

CONN_PHASES = ("create", "resume", "write", "read")
ORACLE_PHASES = ("asbcheck", "asbsched", "crashcheck")
#: Everything a rep times: ``rep_s`` also covers the two phases no
#: connection rate does (WAL recovery, the cross-shard courier).
REP_PHASES = CONN_PHASES + ("recover", "courier") + ORACLE_PHASES
#: Figure 9 category -> metric suffix.
SIM_CATEGORIES = {"OKDB": "okdb", "OKWS": "okws", "Kernel IPC": "kernel_ipc",
                  "Network": "network", "Other": "other"}
POST_CREATE = ("resume", "write", "read")
PLAIN_SANITIZER_BASE = {"sanitize": False}
OBS_ON = {"metrics": True, "spans": True}
#: ``setup_s`` on the plain workloads is mostly imports: they are timed in
#: this many fresh interpreters before the reps and again after them.
IMPORT_REPEATS = 3
IMPORTS = "import argparse, json, os, shutil, subprocess, sys; from hostbench import bench"


def calibrated(values: Dict[str, float], factor: float) -> Dict[str, float]:
    """Scale raw host times and rates (by unit; ratios, counts and sizes
    pass through) to calibrated seconds: what :class:`Samples` does per
    unit, for values measured outside one."""
    def scale(name: str, value: float) -> float:
        metric = spec.metric(name)
        if metric.currency != "host":
            return value
        if metric.unit in ("s", "ms", "us"):
            return value * factor
        return value / factor if metric.unit.endswith("/s") else value

    return {name: scale(name, value) for name, value in values.items()}


def _probe(measure: Any, *args: Any) -> Dict[str, float]:
    """Run one probe group and calibrate it by the loop timed right after."""
    values = measure(*args)
    loop = statistics.median(calibration_loop() for _ in range(9))
    return calibrated(values, REFERENCE_LOOP_S / loop)


def peak_rss_mb(workload: spec.Workload) -> float:
    """``ru_maxrss`` of the workload's processes, summed per process
    (Linux reports KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    shards = 2 if workload.kind == spec.CLUSTER else 0
    return (own + shards * child) / 1024


def phase_rates(samples: Samples) -> Dict[str, Optional[float]]:
    """Every end-to-end rate the samples can give (``None`` where the
    phase never ran)."""
    conn = samples.rate(*CONN_PHASES)
    return {
        "ops_per_s": conn if conn is not None else samples.rate(*ORACLE_PHASES),
        "conn_per_s": conn,
        "create_conn_per_s": samples.rate("create"),
        "resume_conn_per_s": samples.rate("resume"),
        "write_conn_per_s": samples.rate("write"),
        "read_conn_per_s": samples.rate("read"),
        "recover_records_per_s": samples.rate("recover"),
        "xshard_msgs_per_s": samples.rate("courier"),
        "asbcheck_states_per_s": samples.rate("asbcheck"),
        "asbsched_schedules_per_s": samples.rate("asbsched"),
        "crashcheck_points_per_s": samples.rate("crashcheck"),
    }


def sim_kcycles_per_conn(rep: Rep) -> Optional[float]:
    return sum(rep.cycles.values()) / rep.conns / 1e3 if rep.conns else None


def time_imports(samples: Samples) -> None:
    """Fresh interpreters, start to imports done: ``import`` units."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    for _ in range(IMPORT_REPEATS):
        begun = time.perf_counter()
        subprocess.run([sys.executable, "-c", IMPORTS], env=env, check=True)
        samples.add("import", 1, begun)


def end_to_end(run: Run) -> Dict[str, float]:
    """The end-to-end metrics this workload is listed for."""
    samples = run.samples
    values: Dict[str, Optional[float]] = phase_rates(samples)
    # Interpreter start to first timed op: the median import, what a run
    # pays once (proof record + compile), the median per-rep site build.
    values["setup_s"] = (statistics.median(samples.each("import"))
                         + samples.seconds("prepare")
                         + statistics.median(samples.each("setup")))
    values["rep_s"] = samples.seconds(*REP_PHASES) / len(run.reps)
    values["peak_rss_mb"] = peak_rss_mb(run.workload)
    values["sim_kcycles_per_conn"] = sim_kcycles_per_conn(run.reps[0])
    values["failed_share"] = run.checks.failed_share
    return {
        m.name: values[m.name] for m in spec.END_TO_END
        if run.workload.name in m.workloads and values.get(m.name) is not None
    }


def untraced(workload: spec.Workload, seed: int, seconds: float, scratch: str,
             smoke: bool) -> Dict[str, Any]:
    samples = Samples()
    time_imports(samples)
    run = run_workload(workload, seed, seconds, scratch, samples, smoke)
    time_imports(samples)
    return document(run.workload, seed, trace=False, checks=run.checks,
                    metrics=end_to_end(run), samples=samples, reps=len(run.reps))


# -- the traced run ----------------------------------------------------------------


def traced(workload: spec.Workload, seed: int, scratch: str, results_dir: str,
           smoke: bool) -> Dict[str, Any]:
    """One untraced rep, then the same rep under the tracer.

    The pair gives the tracing overhead and must bill identical
    simulated cycles; layer self times come from the traced rep, counts
    from the kernel, ``*_us`` from the probes."""
    workload, inputs, driver = make_driver(workload, seed, scratch, smoke)
    checks = Checker()
    plain_samples = _one_rep()
    driver.prepare(plain_samples)
    gen2_before = gc.get_stats()[2]["collections"]

    gc.collect()
    plain = driver.rep(plain_samples, checks)
    plain.kernel = None

    gc.collect()
    tracer = Tracer(workload.trace_groups)
    traced_samples = _one_rep()
    with tracer:
        rep = driver.rep(traced_samples, checks, mark=tracer.mark)
    checks.expect(
        plain.cycle_key == rep.cycle_key,
        "the traced rep billed different simulated cycles than the untraced rep",
    )

    values: Dict[str, float] = {}
    timed = CONN_PHASES if rep.conns else ORACLE_PHASES
    values["host.tracing_overhead_ratio"] = (
        traced_samples.seconds(*timed) / plain_samples.seconds(*timed)
    )
    values["host.gc_gen2_collections"] = gc.get_stats()[2]["collections"] - gen2_before
    values["host.trace_spans"] = len(tracer.spans) + tracer.dropped
    values["host.calib_loop_ms"] = plain_samples.loop_seconds * 1e3
    # The workload-specific end-to-end rates, from the untraced rep.
    rates = phase_rates(plain_samples)
    rates["sim_kcycles_per_conn"] = sim_kcycles_per_conn(plain)
    rates["failed_share"] = checks.failed_share
    for m in spec.SPARSE:
        if workload.name in m.workloads and rates.get(m.name) is not None:
            values[m.name] = rates[m.name]

    # Spans and facts were timed during the traced rep: calibrate by its loop.
    if workload.kind in (spec.ECHO, spec.NOTES):
        values.update(calibrated(_site_layers(workload, rep, tracer), traced_samples.factor))
        values["kernel.host_us_per_msg"] = _share(
            plain_samples.seconds(*CONN_PHASES) * 1e6, rep.counters["msgs"])
        values.update(_site_extras(workload, driver, plain_samples, checks, scratch, rep))
    elif workload.kind == spec.CLUSTER:
        values.update(calibrated(_cluster_layers(rep, tracer), traced_samples.factor))
        values.update(_probe(probes.wire_probes))
    else:
        values.update(calibrated(_oracle_layers(rep, workload), traced_samples.factor))
        values.update(_probe(probes.check_prefix_us, rep.image))

    os.makedirs(results_dir, exist_ok=True)
    tracer.write_chrome(os.path.join(results_dir, f"trace-{workload.name}.json"),
                        workload.name)
    result = document(workload, seed, trace=True, checks=checks, metrics=values,
                      samples=traced_samples, reps=1)
    result["spans"] = tracer.aggregates()
    result["missing_boundaries"] = tracer.missing
    return result


def _one_rep() -> Samples:
    samples = Samples()
    samples.begin_rep()
    return samples


def _per_conn_ms(tracer: Tracer, layer: str, conns: int) -> float:
    return tracer.self_seconds(layer) * 1e3 / conns


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _site_layers(workload: spec.Workload, rep: Rep, tracer: Tracer) -> Dict[str, float]:
    """Counts and (raw) self times of the traced rep."""
    conns, counters = rep.conns, rep.counters
    values = {
        "core.labelops.calls_per_conn": counters["label_ops.operations"] / conns,
        "core.labelops.self_ms_per_conn": _per_conn_ms(tracer, "core.labelops", conns),
        "core.chunks.entries_scanned_per_conn": counters["label_ops.entries_scanned"] / conns,
        "core.chunks.fast_path_share": _share(
            counters["label_ops.fast_path"],
            counters["label_ops.fast_path"] + counters["label_ops.full_merges"]),
        "core.interning.self_ms_per_conn": _per_conn_ms(tracer, "core.interning", conns),
        "kernel.elide.self_ms_per_conn": _per_conn_ms(tracer, "kernel.elide", conns),
        "analysis.sanitizer.self_ms_per_conn": _per_conn_ms(tracer, "analysis.sanitizer", conns),
        "kernel.msgs_per_conn": counters["msgs"] / conns,
        "kernel.steps_per_conn": counters["steps"] / conns,
        "kernel.drops_per_conn.label-check": counters["drops.label-check"] / conns,
        "kernel.run_self_ms_per_conn": _per_conn_ms(tracer, "kernel", conns),
    }
    for category, suffix in SIM_CATEGORIES.items():
        values[f"sim.kcycles_per_conn.{suffix}"] = rep.cycles.get(category, 0) / conns / 1e3
    waves = sorted(
        d * 1e3 for d in tracer.durations("HttpClient.run_batch", POST_CREATE))
    if waves:
        values["sim.wave_ms_p50"] = statistics.median(waves)
        values["sim.wave_ms_p90"] = waves[min(len(waves) - 1, int(len(waves) * 0.9))]
        values["sim.wave_samples"] = len(waves)
    if "labelop_cache.hits" in counters:
        values["core.interning.cache_hit_rate"] = _share(
            counters["labelop_cache.hits"],
            counters["labelop_cache.hits"] + counters["labelop_cache.misses"])
    if "elide.deliver_hits" in counters:
        hits = counters["elide.deliver_hits"] + counters["elide.send_hits"]
        values["kernel.elide.hit_rate"] = _share(hits, hits + counters["elide.misses"])
        values["kernel.elide.batched_share"] = _share(
            counters["elide.batched_messages"], counters["msgs"])
        values["kernel.elide.quarantines"] = counters["elide.quarantines"]
        values["analysis.proofs.compile_ms"] = rep.facts["compile_ms"]
    if "sanitizer.checks" in counters:
        values["analysis.sanitizer.checks_per_conn"] = counters["sanitizer.checks"] / conns
    if workload.kind == spec.NOTES:
        values["db.self_ms_per_conn"] = _per_conn_ms(tracer, "db", conns)
        values["store.apply_self_ms_per_conn"] = (
            tracer.total_seconds("LabeledStore.apply") * 1e3 / conns)
        values["store.bytes_per_write"] = _share(
            rep.facts["wal_bytes"], rep.facts["accepted_writes"])
    return values


def _site_extras(workload: spec.Workload, driver: Any, plain_samples: Samples,
                 checks: Checker, scratch: str, rep: Rep) -> Dict[str, float]:
    """Probes and the comparison reps, run with the tracer removed."""
    values = _probe(probes.labelops_by_size)
    values.update(_probe(probes.labelops_live, rep.kernel))
    values.update(_probe(probes.send_deliver_us))
    values.update(_probe(probes.scheduler_us))
    plain_s = plain_samples.seconds(*CONN_PHASES)
    if workload.kernel.get("intern_labels"):
        values.update(_probe(probes.intern_us))
    if workload.kernel.get("elide_checks"):
        values.update(_probe(probes.proofs_load_ms, driver.kernel_options.get("proof_path")))
    if workload.kernel.get("sanitize"):
        # vs one plain rep on the same inputs
        base = _one_rep()
        driver.rep(base, checks, options=PLAIN_SANITIZER_BASE)
        values["analysis.sanitizer.slowdown_ratio"] = (
            plain_s / base.seconds(*CONN_PHASES))
    if workload.name in spec.metric("obs.metrics_on_ratio").workloads:
        observed = _one_rep()
        driver.rep(observed, checks, options=OBS_ON)
        values["obs.metrics_on_ratio"] = observed.seconds(*CONN_PHASES) / plain_s
    if workload.kind == spec.NOTES:
        values.update(_probe(probes.db_probes))
        values.update(_probe(probes.store_probes, scratch, rep.image))
    return values


def _cluster_layers(rep: Rep, tracer: Tracer) -> Dict[str, float]:
    fan_outs = tracer.durations("Router.call_all", ("create", "resume"))
    values = {
        "cluster.router.call_all_ms_per_round": statistics.mean(fan_outs) * 1e3,
        "cluster.router.pump_ms": tracer.total_seconds("Router.pump") * 1e3,
        "cluster.boot_ms": rep.facts["boot_ms"],
        "cluster.busy_imbalance": rep.facts["busy_imbalance"],
    }
    return values


def _oracle_layers(rep: Rep, workload: spec.Workload) -> Dict[str, float]:
    from repro.analysis.sched import explore

    facts = rep.facts
    # DPOR at the exhaustive run's depth: how many schedules it prunes.
    pruned = explore(rep.scenario, mode="dpor",
                     depth=workload.oracle_sizes["exhaustive_depth"])
    values = {
        "analysis.check.transitions_per_s": facts["check_transitions"] / facts["check_seconds"],
        "analysis.check.labels_interned": facts["labels_interned"],
        "analysis.sched.transitions_per_s": facts["sched_transitions"] / facts["sched_seconds"],
        "analysis.sched.dpor_prune_ratio": facts["exhaustive_schedules"] / pruned.schedules,
    }
    return values


# -- the result document ---------------------------------------------------------------


def document(workload: spec.Workload, seed: int, trace: bool, checks: Checker,
             metrics: Dict[str, float], samples: Samples, reps: int) -> Dict[str, Any]:
    return {
        "workload": workload.name,
        "seed": seed,
        "trace": trace,
        "reps": reps,
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "failures": checks.messages,
        "metrics": {
            name: {"value": value, "unit": spec.metric(name).unit}
            for name, value in metrics.items()
        },
        "samples": {phase: samples.count(phase) for phase in samples.phases()},
    }


def contract_line(result: Dict[str, Any]) -> Dict[str, Any]:
    """The driver's last line: every ``end_to_end`` metric untraced, every
    ``per_layer`` metric traced — a full grid, 0 where this workload does
    not measure a per-layer metric."""
    wanted = spec.SPARSE + spec.PER_LAYER if result["trace"] else spec.DENSE
    measured = result["metrics"]
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            m.name: measured.get(m.name, {"value": 0, "unit": m.unit}) for m in wanted
        },
    }
