"""The workload drivers: build a fresh site, run its rounds, time every
closed-loop wave, check every output.

Load is closed-loop and comes from this one process: a *wave* is
``concurrency`` connections opened together and run to quiescence
(``HttpClient.run_batch``), the next wave starts when the last reply is
in.  The only extra processes are ``cluster2_s600``'s two shard workers.

Host time is kept per timed unit, next to the calibration loops timed
around it (:mod:`hostbench.timing`; README.md, "Noise").
"""

from __future__ import annotations

import gc
import os
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from hostbench import spec
from hostbench.check import Checker
from hostbench.inputs import NOTES_TABLE, Inputs, Request, make_inputs
from hostbench.timing import Samples

from repro.kernel.config import KernelConfig
from repro.kernel.kernel import Kernel
from repro.obs import kernel_snapshot
from repro.okws.launcher import ServiceConfig, launch
from repro.okws.services import echo_handler, notes_handler
from repro.sim.workload import HttpClient

RECOVER_PASSES = 10
MIX_TOPOLOGY = os.path.join(os.path.dirname(__file__), "data", "okws_request_mix.json")

Mark = Callable[[str], None]


def _no_mark(_round: str) -> None:
    pass


@dataclass
class Rep:
    """What one rep leaves behind (beyond its samples and checks)."""

    conns: int
    #: Simulated cycles billed over the timed rounds, by Figure 9 category
    #: (cluster: the slowest shard's busy cycles under ``"busy"``).
    cycles: Dict[str, int]
    #: Kernel counters over the timed rounds (label ops, steps, messages...).
    counters: Dict[str, float] = field(default_factory=dict)
    #: Per-layer facts a traced run reports (boot ms, imbalance, WAL bytes...).
    facts: Dict[str, float] = field(default_factory=dict)
    #: Kept for the traced run's probes: the site's kernel (live labels),
    #: the WAL image the rep wrote, the asbsched scenario.
    kernel: Any = None
    image: bytes = b""
    scenario: Any = None

    @property
    def cycle_key(self) -> Tuple[Tuple[str, int], ...]:
        return tuple(sorted(self.cycles.items()))


def kernel_counters(kernel: Kernel) -> Dict[str, float]:
    """The counts the kernel already keeps, flattened."""
    snap = kernel_snapshot(kernel)
    flat: Dict[str, float] = {f"label_ops.{k}": v for k, v in snap["label_ops"].items()}
    flat["steps"] = snap["steps"]
    # The IPC sequence is the one count with no public accessor; read 0
    # rather than fail if a refactor drops it.
    flat["msgs"] = getattr(kernel, "_seq", 0)
    flat["drops.label-check"] = snap["drops"].get("label-check", 0)
    for group in ("labelop_cache", "elide"):
        for key, value in (snap[group] or {}).items():
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                flat[f"{group}.{key}"] = value
    if kernel.sanitizer is not None:
        flat["sanitizer.checks"] = (
            kernel.sanitizer.checked_sends + kernel.sanitizer.checked_deliveries
        )
    return flat


def _delta(after: Dict[str, float], before: Dict[str, float]) -> Dict[str, float]:
    return {key: value - before.get(key, 0) for key, value in after.items()}


def drive_round(
    client: HttpClient, requests: Sequence[Request], concurrency: int,
    phase: str, samples: Samples,
) -> List[Any]:
    """One round, wave by wave; each wave is one timed unit."""
    responses: List[Any] = []
    for start in range(0, len(requests), concurrency):
        wave = requests[start : start + concurrency]
        begun = time.perf_counter()
        responses.extend(client.run_batch(wave, concurrency=concurrency))
        samples.add(phase, len(wave), begun)
    return responses


class SiteDriver:
    """The in-process OKWS site workloads (``echo_*``, ``notes_store_s60``)."""

    def __init__(self, workload: spec.Workload, inputs: Inputs, scratch: str) -> None:
        self.workload = workload
        self.inputs = inputs
        self.scratch = scratch
        self.kernel_options = dict(workload.kernel)
        self.facts: Dict[str, float] = {}
        self._stores = 0

    def prepare(self, samples: Samples) -> None:
        """Set-up shared by every rep: the elision proofs.

        Recorded and compiled as ``repro.obs.bench._elision_speedup``
        does: a plain site runs two rounds (create, resume) to reach the
        per-user label fixed point, the topology recorder rides along on
        a third (the resume round again), and the recorded topology
        compiles to a ``proofs/v1`` document.  Each stage is a timed
        ``prepare`` unit."""
        if not self.workload.kernel.get("elide_checks"):
            return
        from repro.analysis.extract import TopologyRecorder
        from repro.analysis.proofs import compile_proofs, write_proofs

        begun = time.perf_counter()
        site = self._launch(KernelConfig())
        client = HttpClient(site)
        create, resume = (requests for _, requests in self.inputs.rounds[:2])
        recorder = None
        for stage, requests in enumerate((create, resume, resume)):
            if stage == 2:
                recorder = TopologyRecorder(site.kernel)
            client.run_batch(requests, concurrency=self.workload.concurrency)
            samples.add("prepare", 1, begun)
            begun = time.perf_counter()
        document = compile_proofs(recorder.build(self.workload.name))
        self.facts["compile_ms"] = (time.perf_counter() - begun) * 1e3
        path = os.path.join(self.scratch, "proofs.json")
        write_proofs(document, path)
        self.kernel_options["proof_path"] = path
        samples.add("prepare", 1, begun)

    def _launch(self, config: KernelConfig) -> Any:
        notes = self.workload.kind == spec.NOTES
        return launch(
            kernel=Kernel(config=config),
            services=[ServiceConfig("notes", notes_handler) if notes
                      else ServiceConfig("echo", echo_handler)],
            users=list(self.inputs.users),
            schema=[NOTES_TABLE] if notes else [],
        )

    def rep(self, samples: Samples, checks: Checker, mark: Mark = _no_mark,
            options: Optional[Dict[str, Any]] = None) -> Rep:
        notes = self.workload.kind == spec.NOTES
        kernel_options = dict(self.kernel_options, **(options or {}))
        begun = time.perf_counter()
        store_path = None
        if notes:
            self._stores += 1
            store_path = os.path.join(self.scratch, f"wal-{self._stores}.log")
            kernel_options["store_path"] = store_path
        site = self._launch(KernelConfig(**kernel_options))
        client = HttpClient(site)
        samples.add("setup", 1, begun)

        kernel = site.kernel
        clock_before = kernel.clock.snapshot()
        counters_before = kernel_counters(kernel)
        accepted: Dict[str, List[str]] = {name: [] for name, _ in self.inputs.users}
        for index, (phase, requests) in enumerate(self.inputs.rounds):
            mark(f"{phase}-{index}")
            responses = drive_round(
                client, requests, self.workload.concurrency, phase, samples
            )
            for request, response in zip(requests, responses):
                user, op = request[0], (request[4] or {}).get("op")
                if op == "add":
                    if checks.add_reply(user, response.ok, response.payload):
                        accepted[user].append(request[3])
                elif op == "list":
                    checks.list_reply(user, response.ok, response.payload, accepted[user])
                else:
                    checks.echo_reply(user, response.ok, response.payload)
        kernel.run()
        result = Rep(
            conns=self.inputs.connections,
            cycles=kernel.clock.delta(clock_before),
            counters=_delta(kernel_counters(kernel), counters_before),
            facts=dict(self.facts),
            kernel=kernel,
        )
        if kernel.sanitizer is not None:
            checks.sanitizer_clean(len(kernel.sanitizer.violations))
        if kernel.flow_table is not None:
            checks.elision_valid(kernel.flow_table.counters())
        if store_path is not None:
            self._recover(store_path, accepted, samples, checks, result, mark)
        return result

    def _recover(self, store_path: str, accepted: Dict[str, List[str]],
                 samples: Samples, checks: Checker, result: Rep, mark: Mark) -> None:
        """Recovery, timed on the WAL image the rep just produced."""
        from repro.store.store import replay_image

        with open(store_path, "rb") as handle:
            image = handle.read()
        mark("recover")
        state = None
        for _ in range(RECOVER_PASSES):
            begun = time.perf_counter()
            state = replay_image(image)
            samples.add("recover", state.report.records, begun)
        checks.recovered(state, accepted)
        writes = sum(len(texts) for texts in accepted.values())
        result.facts["wal_bytes"] = len(image)
        result.facts["accepted_writes"] = writes
        result.image = image


class ClusterDriver:
    """``cluster2_s600``: two shard processes behind the facade."""

    N_SHARDS = 2
    #: Requests per ``Cluster.run_batch`` call: ~4 waves of 16 on each
    #: shard, so a round is several timed units and not one.
    BATCH = 128
    #: ``run_courier`` calls per rep (each sends every user's digest
    #: again): one 0.4 s call a rep repeated no better than 23%.
    COURIER_PASSES = 3

    def __init__(self, workload: spec.Workload, inputs: Inputs, scratch: str) -> None:
        self.workload = workload
        self.inputs = inputs

    def prepare(self, samples: Samples) -> None:
        pass

    def rep(self, samples: Samples, checks: Checker, mark: Mark = _no_mark) -> Rep:
        from repro.cluster import Cluster, ClusterConfig

        users = self.inputs.users
        begun = time.perf_counter()
        cluster = Cluster(ClusterConfig(
            n_shards=self.N_SHARDS, users=users, service="echo",
            kernel=KernelConfig(**self.workload.kernel), sanitize_sample=64,
            concurrency=self.workload.concurrency,
        ))
        boot_s = time.perf_counter() - begun
        samples.add("setup", 1, begun)
        busy = [0] * self.N_SHARDS
        with cluster:
            cluster.mark()
            for index, (phase, requests) in enumerate(self.inputs.rounds):
                mark(f"{phase}-{index}")
                for start in range(0, len(requests), self.BATCH):
                    batch = requests[start : start + self.BATCH]
                    begun = time.perf_counter()
                    result = cluster.run_batch(batch)
                    samples.add(phase, len(batch), begun)
                    for request, outcome in zip(batch, result.outcomes):
                        checks.echo_outcome(request[0], outcome[1], outcome[2])
                    busy = [a + b for a, b in zip(busy, result.busy_cycles)]
            mark("courier")
            for _ in range(self.COURIER_PASSES):
                begun = time.perf_counter()
                routed = cluster.run_courier()
                samples.add("courier", routed, begun)
            report = cluster.report()
        # Odd-indexed users also send the doomed V={0} variant.
        checks.courier(report, digests=self.COURIER_PASSES * len(users),
                       doomed=self.COURIER_PASSES * (len(users) // 2))
        return Rep(
            conns=self.inputs.connections,
            cycles={"busy": max(busy)},
            facts={
                "boot_ms": boot_s * 1e3,
                "busy_imbalance": max(busy) / (sum(busy) / len(busy)),
            },
        )


class OracleDriver:
    """``oracles``: asbcheck, asbsched (both modes) and crashcheck."""

    def __init__(self, workload: spec.Workload, inputs: Inputs, scratch: str) -> None:
        self.scratch = scratch
        self.sizes = workload.oracle_sizes
        self._images = 0

    def prepare(self, samples: Samples) -> None:
        pass

    def rep(self, samples: Samples, checks: Checker, mark: Mark = _no_mark) -> Rep:
        from repro.analysis import check as asbcheck
        from repro.analysis import sched as asbsched
        from repro.analysis.model import load as load_topology
        from repro.okws.topology import record_okws_topology
        from repro.store import crashcheck

        sizes = self.sizes
        begun = time.perf_counter()
        topology = record_okws_topology(
            tuple((f"u{i}", f"pw-{i}") for i in range(sizes["users"]))
        )
        scenario = asbsched.scenario_from_topology(load_topology(MIX_TOPOLOGY))
        self._images += 1
        image, boot_records = crashcheck.record_workload(
            os.path.join(self.scratch, f"board-{self._images}.log")
        )
        samples.add("setup", 1, begun)
        facts: Dict[str, float] = {}

        # Called through the module so the tracer's wrappers are seen.
        mark("asbcheck")
        begun = time.perf_counter()
        report = asbcheck.run_check(topology)
        seconds = time.perf_counter() - begun
        samples.add("asbcheck", report.states, begun)
        checks.asbcheck(report)
        facts["check_transitions"] = report.transitions
        facts["check_seconds"] = seconds
        facts["labels_interned"] = report.labels_interned

        mark("asbsched")
        facts["sched_transitions"] = facts["sched_seconds"] = 0
        for mode, depth in (("exhaustive", sizes["exhaustive_depth"]),
                            ("dpor", sizes["dpor_depth"])):
            begun = time.perf_counter()
            explored = asbsched.explore(scenario, mode=mode, depth=depth)
            seconds = time.perf_counter() - begun
            samples.add("asbsched", explored.schedules, begun)
            checks.asbsched(explored)
            facts["sched_transitions"] += explored.transitions
            facts["sched_seconds"] += seconds
            facts[f"{mode}_schedules"] = explored.schedules

        mark("crashcheck")
        for _ in range(sizes["sweeps"]):
            begun = time.perf_counter()
            swept = crashcheck.sweep(image, boot_records)
            samples.add("crashcheck", swept.points, begun)
            checks.crashcheck(swept)
        return Rep(conns=0, cycles={}, facts=facts,
                   image=image, scenario=scenario)


DRIVERS = {
    spec.ECHO: SiteDriver,
    spec.NOTES: SiteDriver,
    spec.CLUSTER: ClusterDriver,
    spec.ORACLES: OracleDriver,
}


@dataclass
class Run:
    workload: spec.Workload
    inputs: Inputs
    samples: Samples = field(default_factory=Samples)
    checks: Checker = field(default_factory=Checker)
    reps: List[Rep] = field(default_factory=list)


def make_driver(workload: spec.Workload, seed: int, scratch: str, smoke: bool):
    workload = workload.sized(smoke)
    inputs = make_inputs(workload, seed)
    return workload, inputs, DRIVERS[workload.kind](workload, inputs, scratch)


def run_workload(workload: spec.Workload, seed: int, seconds: float,
                 scratch: str, samples: Samples, smoke: bool = False) -> Run:
    """The untraced run: reps until about *seconds* have been measured
    (stopping where one more rep would overshoot by more than it
    undershoots now), never fewer than one."""
    workload, inputs, driver = make_driver(workload, seed, scratch, smoke)
    run = Run(workload, inputs, samples)
    driver.prepare(samples)
    begun = time.perf_counter()
    while True:
        gc.collect()
        run.samples.begin_rep()
        run.reps.append(driver.rep(run.samples, run.checks))
        run.reps[-1].kernel = None  # one site alive at a time
        elapsed = time.perf_counter() - begun
        if smoke or elapsed + elapsed / len(run.reps) / 2 >= seconds:
            break
    run.checks.reps_agree(rep.cycle_key for rep in run.reps)
    return run
