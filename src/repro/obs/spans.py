"""Span-structured tracing of the kernel's syscall→enqueue→delivery chains.

Two span families, both timestamped in *virtual* cycles from the kernel's
:class:`~repro.kernel.clock.CycleClock` (exported as microseconds at the
paper's 2.8 GHz):

- **Activation spans** (``B``/``E`` duration events): one per scheduler
  activation of a task.  Activations of one task never overlap, so plain
  begin/end pairs on a per-task ``tid`` nest correctly.
- **Message spans** (``b``/``e`` async events keyed by the kernel message
  sequence number): begin at enqueue, end at delivery or drop.  Message
  lifetimes overlap arbitrarily — enqueue order is not delivery order —
  which is exactly what Chrome's async events model.

The kernel knows none of this vocabulary: :class:`KernelSpans` is an
ordinary observer on ``Kernel.hooks`` that turns kernel events into
recorder calls.

Export is the Chrome ``trace_event`` JSON array format: load the file in
``chrome://tracing`` / Perfetto, or feed it to any trace_event consumer.
Like the drop log and the metrics registry this is out-of-band: nothing
inside the simulation can observe it.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional

__all__ = ["KernelSpans", "SpanRecorder", "CHROME_PID"]

#: The whole simulated machine is one "process" in the Chrome trace.
CHROME_PID = 1

#: Microseconds per cycle at the paper's 2.8 GHz (Chrome traces use µs).
_US_PER_CYCLE = 1e6 / 2_800_000_000


class SpanRecorder:
    """Records span events; bounded by *limit* (oldest events drop first).

    The recorder never timestamps with wall-clock time — callers pass the
    virtual cycle count — so recordings are exactly reproducible.
    """

    def __init__(self, limit: int = 250_000):
        self.limit = limit
        self.events: List[Dict[str, Any]] = []
        self.dropped = 0
        self._tids: Dict[str, int] = {}
        #: Open async (message) spans by id, for close-out at export.
        self._open_async: Dict[int, Dict[str, Any]] = {}

    # -- recording ---------------------------------------------------------------

    def _tid(self, track: str) -> int:
        tid = self._tids.get(track)
        if tid is None:
            tid = len(self._tids) + 1
            self._tids[track] = tid
        return tid

    def _push(self, event: Dict[str, Any]) -> None:
        if len(self.events) >= self.limit:
            # Drop the oldest half in one move; amortised O(1) per event.
            keep = self.limit // 2
            self.dropped += len(self.events) - keep
            del self.events[: len(self.events) - keep]
        self.events.append(event)

    def begin(self, name: str, track: str, ts_cycles: int, **args: Any) -> None:
        """Open a duration span on *track* (must nest within the track)."""
        self._push(
            {
                "ph": "B",
                "name": name,
                "cat": "task",
                "ts": ts_cycles,
                "pid": CHROME_PID,
                "tid": self._tid(track),
                "args": args,
            }
        )

    def end(self, name: str, track: str, ts_cycles: int, **args: Any) -> None:
        self._push(
            {
                "ph": "E",
                "name": name,
                "cat": "task",
                "ts": ts_cycles,
                "pid": CHROME_PID,
                "tid": self._tid(track),
                "args": args,
            }
        )

    def async_begin(self, name: str, span_id: int, ts_cycles: int, **args: Any) -> None:
        """Open an async span (message lifetime) keyed by *span_id*."""
        event = {
            "ph": "b",
            "name": name,
            "cat": "msg",
            "id": span_id,
            "ts": ts_cycles,
            "pid": CHROME_PID,
            "tid": 0,
            "args": args,
        }
        self._open_async[span_id] = event
        self._push(event)

    def async_end(self, name: str, span_id: int, ts_cycles: int, **args: Any) -> None:
        self._open_async.pop(span_id, None)
        self._push(
            {
                "ph": "e",
                "name": name,
                "cat": "msg",
                "id": span_id,
                "ts": ts_cycles,
                "pid": CHROME_PID,
                "tid": 0,
                "args": args,
            }
        )

    def instant(self, name: str, track: str, ts_cycles: int, **args: Any) -> None:
        self._push(
            {
                "ph": "i",
                "name": name,
                "cat": "event",
                "ts": ts_cycles,
                "pid": CHROME_PID,
                "tid": self._tid(track),
                "s": "t",
                "args": args,
            }
        )

    # -- export ------------------------------------------------------------------

    def open_spans(self) -> List[int]:
        """Ids of message spans begun but not yet ended (still queued)."""
        return sorted(self._open_async)

    def to_chrome(
        self,
        now_cycles: Optional[int] = None,
        names: Optional[Dict[str, str]] = None,
    ) -> Dict[str, Any]:
        """The Chrome ``trace_event`` document (JSON-ready dict).

        Every begin gets a matching end: async spans still open — messages
        queued but never delivered when the recording stopped — are closed
        at *now_cycles* (defaults to the last recorded timestamp) with
        ``"unfinished": true`` so consumers that require balanced pairs
        always get them.  *names* optionally overrides thread names (the
        :class:`~repro.sim.trace.FlowTracer` passes symbolic handle names
        through here).
        """
        events: List[Dict[str, Any]] = []
        close_at = now_cycles
        if close_at is None:
            close_at = self.events[-1]["ts"] if self.events else 0
        for track, tid in sorted(self._tids.items(), key=lambda kv: kv[1]):
            label = (names or {}).get(track, track)
            events.append(
                {
                    "ph": "M",
                    "name": "thread_name",
                    "pid": CHROME_PID,
                    "tid": tid,
                    "args": {"name": label},
                }
            )
        for event in self.events:
            out = dict(event)
            out["ts"] = event["ts"] * _US_PER_CYCLE
            events.append(out)
        for span_id, begin in sorted(self._open_async.items()):
            events.append(
                {
                    "ph": "e",
                    "name": begin["name"],
                    "cat": begin["cat"],
                    "id": span_id,
                    "ts": close_at * _US_PER_CYCLE,
                    "pid": CHROME_PID,
                    "tid": 0,
                    "args": {"unfinished": True},
                }
            )
        return {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {
                "source": "repro.obs.spans",
                "clock": "virtual-cycles@2.8GHz",
                "dropped_events": self.dropped,
            },
        }

    def to_json(self, **kwargs: Any) -> str:
        return json.dumps(self.to_chrome(**kwargs))

    def __len__(self) -> int:
        return len(self.events)


class KernelSpans:
    """The ``Kernel.hooks`` observer behind ``KernelConfig(spans=True)``:
    it alone maps kernel events to the ``"activate"``/``"msg"``/``"drop"``
    span vocabulary, stamping each with the kernel's virtual clock."""

    def __init__(self, recorder: SpanRecorder, clock: Any):
        self.recorder = recorder
        self.clock = clock

    def on_activate(self, task: Any) -> None:
        self.recorder.begin("activate", task.name, self.clock.now)

    def on_activate_end(self, task: Any) -> None:
        self.recorder.end("activate", task.name, self.clock.now)

    def on_enqueue(self, qmsg: Any) -> None:
        self.recorder.async_begin(
            "msg",
            qmsg.seq,
            self.clock.now,
            sender=qmsg.sender_name,
            port=f"{qmsg.port:#x}",
        )

    def on_deliver(self, task: Any, entry: Any, qmsg: Any, delivered: bool, *labels: Any) -> None:
        if delivered:  # a refused delivery ends its span in on_drop
            self.recorder.async_end(
                "msg", qmsg.seq, self.clock.now, delivered=True, receiver=task.name
            )

    def on_drop(self, reason: str, sender: str, where: str, seq: Optional[int]) -> None:
        """A queued message (it has a *seq*) ends its span; one that never
        joined a queue leaves an instant on the sender's track."""
        if seq is not None:
            self.recorder.async_end(
                "msg", seq, self.clock.now, delivered=False, reason=reason
            )
        else:
            self.recorder.instant("drop", sender, self.clock.now, reason=reason)
