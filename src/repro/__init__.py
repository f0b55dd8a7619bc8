"""asbestos-repro: a Python reproduction of "Labels and Event Processes
in the Asbestos Operating System" (SOSP 2005).

Quick tour of the public surface:

- :mod:`repro.core` — the label algebra: :class:`~repro.core.labels.Label`,
  levels ``STAR < 0 < 1 < 2 < 3``, 61-bit handles.
- :mod:`repro.kernel` — the simulated OS: :class:`~repro.kernel.Kernel`
  (configured with a frozen :class:`~repro.kernel.KernelConfig`), the
  syscall objects program generators yield, event processes.
- :mod:`repro.okws` — the OKWS web server: :func:`~repro.okws.launch`,
  :class:`~repro.okws.ServiceConfig`, the worker framework.
- :mod:`repro.obs` — observability: :class:`~repro.obs.MetricsRegistry`,
  :class:`~repro.obs.SpanRecorder` (Chrome trace export), and the
  ``python -m repro bench`` harness.
- :mod:`repro.sim` — workload generation and the experiment drivers that
  regenerate the paper's figures.
- :mod:`repro.policies` — MLS, capability and integrity recipes.
- :mod:`repro.covert` — the Section 8 storage channels and mitigation.
- :mod:`repro.faults` — deterministic fault injection: declarative
  :class:`~repro.faults.FaultPlan` documents, the seeded injector, and
  the ``python -m repro chaos`` campaign runner.
- :mod:`repro.store` — durable storage for ok-dbproxy: a labeled
  ``wal/v1`` write-ahead log whose recovery label-checks every
  resurrected row, and the ``python -m repro crashcheck``
  crash-consistency checker that proves it at every crash point
  (DESIGN.md §14).
- :mod:`repro.cluster` — the sharded multi-core kernel:
  :class:`~repro.cluster.Cluster` runs N kernels as parallel OS
  processes behind one facade, exchanging ``wire/v1`` messages with
  full Figure 4 checks re-run on the receiving shard (DESIGN.md §13);
  ``python -m repro bench --only scale`` measures the scaling.

- :mod:`repro.cli` — the ``python -m repro`` command line: a table of
  one module per subcommand (README.md §"The command line").

The stable, re-exported surface is exactly ``repro.__all__`` below (see
the API table in README.md); anything else may move between releases.

Start with ``python examples/quickstart.py`` or ``python -m repro``.
"""

from repro.core import Label, STAR, L0, L1, L2, L3, Handle, HandleAllocator
from repro.kernel import Kernel, KernelConfig
from repro.obs import MetricsRegistry, SpanRecorder, kernel_snapshot

__version__ = "1.3.0"

__all__ = [
    # label algebra
    "Label",
    "STAR",
    "L0",
    "L1",
    "L2",
    "L3",
    "Handle",
    "HandleAllocator",
    # the machine
    "Kernel",
    "KernelConfig",
    # observability
    "MetricsRegistry",
    "SpanRecorder",
    "kernel_snapshot",
    # entry points (lazy; see __getattr__)
    "launch",
    "ServiceConfig",
    "run_memory_experiment",
    "run_session_sweep",
    "run_latency_experiment",
    "run_bench",
    "analyze_paths",
    "run_check",
    "explore",
    "scenario_from_topology",
    "record_okws_topology",
    "FaultPlan",
    "load_plan",
    "run_campaign",
    # the sharded cluster (repro.cluster, DESIGN.md §13)
    "Cluster",
    "ClusterConfig",
    # label identity by value: wire fingerprints and the interned-label
    # bill (repro.core.interning, DESIGN.md §11)
    "InternTable",
    "LabelOpCache",
    # the labeled durable store (repro.store, DESIGN.md §14)
    "LabeledStore",
    "RecoveryReport",
    "replay_image",
    "__version__",
]

#: Lazily-resolved re-exports: importing ``repro`` must stay cheap (no
#: OKWS/simulator machinery), but ``from repro import launch`` still works.
_LAZY = {
    "launch": ("repro.okws", "launch"),
    "ServiceConfig": ("repro.okws", "ServiceConfig"),
    "run_memory_experiment": ("repro.sim.runner", "run_memory_experiment"),
    "run_session_sweep": ("repro.sim.runner", "run_session_sweep"),
    "run_latency_experiment": ("repro.sim.runner", "run_latency_experiment"),
    "run_bench": ("repro.obs.bench", "run_bench"),
    "analyze_paths": ("repro.analysis.asblint", "analyze_paths"),
    "run_check": ("repro.analysis.check", "run_check"),
    "explore": ("repro.analysis.sched", "explore"),
    "scenario_from_topology": ("repro.analysis.sched", "scenario_from_topology"),
    "record_okws_topology": ("repro.okws.topology", "record_okws_topology"),
    "InternTable": ("repro.core.interning", "InternTable"),
    "LabelOpCache": ("repro.core.interning", "LabelOpCache"),
    "FaultPlan": ("repro.faults", "FaultPlan"),
    "load_plan": ("repro.faults", "load_plan"),
    "run_campaign": ("repro.faults", "run_campaign"),
    "Cluster": ("repro.cluster", "Cluster"),
    "ClusterConfig": ("repro.cluster", "ClusterConfig"),
    "LabeledStore": ("repro.store", "LabeledStore"),
    "RecoveryReport": ("repro.store", "RecoveryReport"),
    "replay_image": ("repro.store", "replay_image"),
}


def __getattr__(name):
    target = _LAZY.get(name)
    if target is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    value = getattr(importlib.import_module(target[0]), target[1])
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY))
