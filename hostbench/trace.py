"""Spans at the public layer boundaries, recorded from the benchmark's
side only.

:class:`Tracer` swaps each boundary function for a timing wrapper
(:meth:`Tracer.install`) and puts the originals back
(:meth:`Tracer.remove`); nothing in ``src/`` knows it exists.  A span is
``(name, start, end, parent, round)``; spans stay in memory (nested ones
capped — aggregates are kept for every span regardless) and are written
once, at exit, as a Chrome ``trace_event`` file.  A layer's *self time* is its
spans' duration minus the part their child spans cover.

A boundary that a later refactor moves or renames is skipped and listed
in :attr:`Tracer.missing`; its layer then reads 0 rather than crashing
the benchmark.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

SPAN_CAP = 200_000
CHROME_EVENT_CAP = 20_000

#: group -> (module, class or None, attribute, layer).  The span name is
#: ``Class.attr`` or ``module_tail.attr``; the layer is the module the
#: per-layer metrics are named after.
TARGETS: Dict[str, Tuple[Tuple[str, Optional[str], str, str], ...]] = {
    "site": (
        ("repro.sim.workload", "HttpClient", "run_batch", "sim"),
        ("repro.kernel.kernel", "Kernel", "run", "kernel"),
        ("repro.core.labelops", None, "check_send", "core.labelops"),
        ("repro.core.labelops", None, "apply_send_effects", "core.labelops"),
        ("repro.core.labelops", None, "raise_receive", "core.labelops"),
        ("repro.core.labelops", None, "sparse_update", "core.labelops"),
        ("repro.core.interning", "LabelOpCache", "check_send", "core.interning"),
        ("repro.core.interning", "LabelOpCache", "apply_send_effects", "core.interning"),
        ("repro.core.interning", "LabelOpCache", "raise_receive", "core.interning"),
        ("repro.core.interning", "InternTable", "intern", "core.interning"),
        ("repro.kernel.elide", "VerifiedFlowTable", "plan_deliver", "kernel.elide"),
        ("repro.kernel.elide", "VerifiedFlowTable", "plan_send", "kernel.elide"),
        ("repro.analysis.sanitizer", "LabelSanitizer", "check_effective_send",
         "analysis.sanitizer"),
        ("repro.analysis.sanitizer", "LabelSanitizer", "before_deliver", "analysis.sanitizer"),
        ("repro.analysis.sanitizer", "LabelSanitizer", "after_deliver", "analysis.sanitizer"),
        ("repro.db.engine", "Database", "execute", "db"),
        ("repro.db.engine", "Database", "run", "db"),
    ),
    "store": (
        ("repro.store.store", "LabeledStore", "apply", "store"),
        ("repro.store.store", None, "replay_image", "store"),
    ),
    "cluster": (
        ("repro.cluster.facade", "Cluster", "run_batch", "cluster"),
        ("repro.cluster.facade", "Cluster", "run_courier", "cluster"),
        ("repro.cluster.router", "Router", "call_all", "cluster.router"),
        ("repro.cluster.router", "Router", "pump", "cluster.router"),
    ),
    "oracles": (
        ("repro.analysis.check", None, "run_check", "analysis.check"),
        ("repro.analysis.sched", None, "explore", "analysis.sched"),
        ("repro.store.crashcheck", None, "sweep", "store.crashcheck"),
        ("repro.store.crashcheck", None, "check_prefix", "store.crashcheck"),
        ("repro.sim.workload", "HttpClient", "run_batch", "sim"),
    ),
}


class Tracer:
    def __init__(self, groups: Sequence[str], span_cap: int = SPAN_CAP) -> None:
        self.groups = tuple(groups)
        self.span_cap = span_cap
        #: ``(name, start, end, parent index or -1, round)``, oldest first.
        self.spans: List[Tuple[str, float, float, int, str]] = []
        self.dropped = 0
        #: name -> [calls, total seconds, self seconds]
        self.totals: Dict[str, List[float]] = {}
        self.layer_of: Dict[str, str] = {}
        self.missing: List[str] = []
        self.round = ""
        self._stack: List[List[Any]] = []
        self._patched: List[Tuple[Any, str, Any]] = []

    # -- wrappers -------------------------------------------------------------

    def _wrap(self, function: Callable, name: str) -> Callable:
        stack, totals, spans = self._stack, self.totals, self.spans
        total = totals.setdefault(name, [0, 0.0, 0.0])
        clock = time.perf_counter

        @functools.wraps(function)
        def traced(*args: Any, **kwargs: Any) -> Any:
            # frame: [child seconds, own span index]
            index = len(spans)
            frame = [0.0, index]
            parent = stack[-1][1] if stack else -1
            # Outermost spans (the waves) are few and always kept: the wave
            # percentiles need every one of them, however many spans a big
            # site nests inside the early ones.
            if index < self.span_cap or not stack:
                spans.append(None)  # reserve the slot so parents precede children
            else:
                frame[1] = -1
            stack.append(frame)
            start = clock()
            try:
                return function(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                total[0] += 1
                total[1] += duration
                total[2] += duration - frame[0]
                if stack:
                    stack[-1][0] += duration
                if frame[1] >= 0:
                    spans[frame[1]] = (name, start, end, parent, self.round)
                else:
                    self.dropped += 1

        traced.__hostbench_original__ = function
        return traced

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        for group in self.groups:
            for module_name, class_name, attribute, layer in TARGETS[group]:
                label = f"{class_name or module_name.rsplit('.', 1)[-1]}.{attribute}"
                try:
                    owner = importlib.import_module(module_name)
                    if class_name is not None:
                        owner = getattr(owner, class_name)
                    original = owner.__dict__[attribute]
                except (ImportError, AttributeError, KeyError):
                    self.missing.append(f"{module_name}:{label}")
                    continue
                if getattr(original, "__hostbench_original__", None) is not None:
                    continue  # the same boundary listed by two groups
                self.layer_of[label] = layer
                setattr(owner, attribute, self._wrap(original, label))
                self._patched.append((owner, attribute, original))

    def remove(self) -> None:
        while self._patched:
            owner, attribute, original = self._patched.pop()
            setattr(owner, attribute, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.remove()

    def mark(self, round_name: str) -> None:
        self.round = round_name

    # -- aggregates -----------------------------------------------------------

    def calls(self, name: str) -> int:
        return int(self.totals.get(name, (0, 0, 0))[0])

    def total_seconds(self, name: str) -> float:
        return self.totals.get(name, (0, 0.0, 0.0))[1]

    def self_seconds(self, layer: str) -> float:
        """Self time of every span whose boundary belongs to *layer*."""
        return sum(
            total[2] for name, total in self.totals.items()
            if self.layer_of.get(name) == layer
        )

    def durations(self, name: str, rounds: Sequence[str]) -> List[float]:
        """Durations of *name*'s spans in rounds whose mark starts with one
        of *rounds* (``"resume"`` matches ``resume-1``, ``resume-2``...)."""
        prefixes = tuple(rounds)
        return [
            span[2] - span[1] for span in self.spans
            if span is not None and span[0] == name and span[4].startswith(prefixes)
        ]

    def aggregates(self) -> Dict[str, Dict[str, float]]:
        return {
            name: {
                "layer": self.layer_of.get(name, ""),
                "calls": int(total[0]),
                "total_ms": total[1] * 1e3,
                "self_ms": total[2] * 1e3,
            }
            for name, total in sorted(self.totals.items())
            if total[0]
        }

    # -- export ---------------------------------------------------------------

    def write_chrome(self, path: str, workload: str) -> None:
        """Chrome ``trace_event`` JSON: the first :data:`CHROME_EVENT_CAP`
        spans as complete events, plus the full aggregates."""
        spans = [s for s in self.spans if s is not None]
        origin = spans[0][1] if spans else 0.0
        events = [
            {
                "name": name, "ph": "X", "pid": 1, "tid": 1,
                "ts": round((start - origin) * 1e6, 1),
                "dur": round((end - start) * 1e6, 1),
                "cat": self.layer_of.get(name, ""),
                "args": {"round": round_name, "parent": parent},
            }
            for name, start, end, parent, round_name in spans[:CHROME_EVENT_CAP]
        ]
        document = {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "hostbench": {
                "workload": workload,
                "spans_recorded": len(spans),
                "spans_written": len(events),
                "spans_beyond_cap": self.dropped,
                "missing_boundaries": self.missing,
                "aggregates": self.aggregates(),
            },
        }
        with open(path, "w") as handle:
            json.dump(document, handle)
