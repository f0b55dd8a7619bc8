"""The metrics registry — counters, histograms and mirrors for the kernel
and the OKWS components.

Design constraints, in order:

1. **Near-zero overhead when disabled.**  A disabled registry hands out a
   single shared :data:`NULL` instrument whose mutators are no-ops, and
   the kernel pushes nothing at all: its counts are plain ints it keeps
   anyway, published as :class:`Mirror` views, so a kernel with
   ``metrics=False`` pays nothing measurable (the Figure 7 acceptance
   bound is < 3%).
2. **Out-of-band.**  Like the drop log, nothing inside the simulation can
   observe a metric — programs have no syscall for it.  Metrics are for
   the harness, the bench runner and the tests.
3. **Plain data out.**  :meth:`MetricsRegistry.snapshot` returns nested
   dicts of numbers, ready for JSON (the ``BENCH_*.json`` metrics block).

Names are dotted paths (``kernel.ipc.sends``, ``netd.connections``);
:meth:`MetricsRegistry.scope` gives a component a named prefix so netd,
ok-demux, idd, ok-dbproxy and the workers each own a subtree.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Union

__all__ = [
    "Counter",
    "Histogram",
    "MetricsRegistry",
    "Mirror",
    "MetricsScope",
    "NullInstrument",
    "NULL",
    "kernel_snapshot",
]


class Counter:
    """A monotonically increasing integer."""

    __slots__ = ("value",)
    kind = "counter"

    def __init__(self) -> None:
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n

    def snapshot(self) -> int:
        return self.value


class Histogram:
    """Streaming summary of observations: count / sum / min / max / mean.

    Deliberately bucket-free: the simulator is deterministic, so tests
    want exact moments rather than bucketed approximations, and the bench
    JSON stays compact.
    """

    __slots__ = ("count", "total", "min", "max")
    kind = "histogram"

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    def snapshot(self) -> Dict[str, float]:
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min if self.min is not None else 0,
            "max": self.max if self.max is not None else 0,
            "mean": (self.total / self.count) if self.count else 0,
        }


class Mirror:
    """A read-through view of a counter another object already keeps:
    ``snapshot`` reads ``source.attr`` (``source[attr]`` for a dict of
    counts) when the registry is read, so the registry cannot fall behind
    the owner and the owner's hot path syncs nothing.  A ``None`` source
    (an optional feature that is off) or a missing key reads 0."""

    __slots__ = ("source", "attr")
    kind = "counter"

    def __init__(self, source: Any, attr: str) -> None:
        self.source = source
        self.attr = attr

    def snapshot(self) -> int:
        if isinstance(self.source, dict):
            return self.source.get(self.attr, 0)
        return getattr(self.source, self.attr, 0)


class NullInstrument:
    """The shared no-op instrument a disabled registry hands out."""

    __slots__ = ()
    kind = "null"

    def inc(self, n: int = 1) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    def snapshot(self) -> int:
        return 0


#: The singleton null instrument.
NULL = NullInstrument()

Instrument = Union[Counter, Histogram, Mirror, NullInstrument]


class MetricsRegistry:
    """A flat namespace of named instruments.

    ``counter``/``histogram`` get-or-create; asking for an
    existing name with a different kind is an error (it would silently
    fork the series).  When the registry is disabled every accessor
    returns :data:`NULL`, so call sites can bind instruments once at
    setup and use them unconditionally.
    """

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self._instruments: Dict[str, Instrument] = {}

    # -- instrument access -------------------------------------------------------

    def _get(self, name: str, factory) -> Instrument:
        if not self.enabled:
            return NULL
        instrument = self._instruments.get(name)
        if instrument is None:
            instrument = factory()
            self._instruments[name] = instrument
        elif not isinstance(instrument, factory):
            raise ValueError(
                f"metric {name!r} already registered as {instrument.kind}, "
                f"requested {factory.kind}"
            )
        return instrument

    def counter(self, name: str) -> Instrument:
        return self._get(name, Counter)

    def histogram(self, name: str) -> Instrument:
        return self._get(name, Histogram)

    def mirror(self, name: str, source: Any, attr: str) -> None:
        """Publish ``source.attr`` under *name* (see :class:`Mirror`)."""
        if self.enabled:
            self._instruments[name] = Mirror(source, attr)

    def scope(self, prefix: str) -> "MetricsScope":
        """A view that prefixes every name with ``prefix.`` — how each
        OKWS component gets its own metric subtree."""
        return MetricsScope(self, prefix)

    # -- reading -----------------------------------------------------------------

    def get(self, name: str) -> Any:
        """The snapshot value of one metric (0 / empty if never touched)."""
        instrument = self._instruments.get(name)
        return instrument.snapshot() if instrument is not None else 0

    def snapshot(self) -> Dict[str, Any]:
        """All metrics as a flat ``{dotted.name: value}`` dict."""
        return {
            name: instrument.snapshot()
            for name, instrument in sorted(self._instruments.items())
        }

    def __len__(self) -> int:
        return len(self._instruments)


class MetricsScope:
    """A registry view with a fixed name prefix."""

    __slots__ = ("_registry", "prefix")

    def __init__(self, registry: MetricsRegistry, prefix: str):
        self._registry = registry
        self.prefix = prefix

    def counter(self, name: str) -> Instrument:
        return self._registry.counter(f"{self.prefix}.{name}")

    def histogram(self, name: str) -> Instrument:
        return self._registry.histogram(f"{self.prefix}.{name}")

    def mirror(self, name: str, source: Any, attr: str) -> None:
        self._registry.mirror(f"{self.prefix}.{name}", source, attr)

    def scope(self, prefix: str) -> "MetricsScope":
        return MetricsScope(self._registry, f"{self.prefix}.{prefix}")


def kernel_snapshot(kernel) -> Dict[str, Any]:
    """One machine-readable snapshot of everything observable on *kernel*.

    Combines the live registry with the accounting the kernel already
    keeps — cycle clock, drop log, label-op stats, memory report — so a
    ``BENCH_*.json`` metrics block is complete even for sub-experiments
    run with metrics disabled.
    """
    stats = kernel.label_stats
    cache = kernel.labelop_cache
    return {
        "config": {
            "intern_labels": kernel.config.intern_labels,
            "labelop_cache_size": kernel.config.labelop_cache_size,
            "label_cost_mode": kernel.config.label_cost_mode,
            "elide_checks": kernel.config.elide_checks,
            "proof_path": kernel.config.proof_path,
        },
        "labelop_cache": cache.counters() if cache is not None else None,
        "elide": (
            kernel.flow_table.counters() if kernel.flow_table is not None else None
        ),
        "metrics": kernel.metrics.snapshot(),
        "clock": {
            "now_cycles": kernel.clock.now,
            "by_category": dict(kernel.clock.by_category),
        },
        "drops": dict(sorted(kernel.drop_log.by_reason.items())),
        "label_ops": {
            "operations": stats.operations,
            "entries_scanned": stats.entries_scanned,
            "chunks_skipped": stats.chunks_skipped,
            "chunks_allocated": stats.chunks_allocated,
            "chunks_shared": stats.chunks_shared,
            "labels_allocated": stats.labels_allocated,
            "fast_path": stats.fast_path,
            "full_merges": stats.full_merges,
        },
        "memory": kernel.memory_report(),
        "scheduler": {"queue_depth": len(kernel.scheduler)},
        "steps": kernel.steps_executed,
    }
