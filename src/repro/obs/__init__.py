"""repro.obs — the observability layer.

Three pieces, all out-of-band with respect to the simulated label system
(nothing a simulated program can observe — cf. the drop log):

- :mod:`repro.obs.metrics` — a :class:`MetricsRegistry` of counters,
  histograms and mirrors wired through the kernel hot paths and the OKWS
  components, with near-zero overhead when disabled;
- :mod:`repro.obs.spans` — a :class:`SpanRecorder` for the
  syscall→enqueue→delivery chains, exportable as Chrome ``trace_event``
  JSON;
- :mod:`repro.obs.bench` — the ``python -m repro bench`` harness that
  regenerates the paper's figures headlessly and writes the
  ``BENCH_*.json`` perf-trajectory files.

Enable per kernel with ``Kernel(config=KernelConfig(metrics=True,
spans=True))``.
"""

from repro.obs.metrics import (
    Counter,
    Histogram,
    MetricsRegistry,
    MetricsScope,
    kernel_snapshot,
)
from repro.obs.spans import SpanRecorder

__all__ = [
    "Counter",
    "Histogram",
    "MetricsRegistry",
    "MetricsScope",
    "SpanRecorder",
    "kernel_snapshot",
]
