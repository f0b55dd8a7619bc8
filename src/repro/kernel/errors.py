"""Kernel error taxonomy.

Errors fall into two classes with very different security treatment:

- **Loud errors** (subclasses of :class:`KernelError`) are raised into the
  calling process.  They are only used where the failure reveals nothing
  about other processes' labels: malformed arguments, operating on a port
  the caller does not own, resource exhaustion of the caller's own memory.

- **Silent failures** never surface to any process.  Label checks that fail
  drop the message without notice (paper Section 4: reliable delivery
  notification would let a process leak information through careful label
  changes).  The kernel records these in a diagnostic
  :class:`DropLog` that tests and experiments may inspect out-of-band —
  the simulated programs themselves must never read it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple


class KernelError(Exception):
    """Base class for errors the kernel raises into the calling process."""


class InvalidArgument(KernelError):
    """Malformed syscall argument (bad label, unknown port, bad address)."""


class NotOwner(KernelError):
    """The caller does not hold receive rights for the port it named."""


class ResourceExhausted(KernelError):
    """The simulated machine is out of memory (or another hard resource)."""


class SimulationError(Exception):
    """A bug in simulation harness usage (not a modelled kernel error):
    e.g. yielding a non-syscall object, or calling ep_yield outside an
    event process."""


# -- silent-drop diagnostics ----------------------------------------------------

#: Reasons a message can be silently dropped.
DROP_LABEL_CHECK = "label-check"          # requirement (1) of Figure 4
DROP_DECONT_PRIVILEGE = "decont-privilege"  # requirements (2)/(3)
DROP_PORT_LABEL = "port-label"            # requirement (4)
DROP_DEAD_PORT = "dead-port"              # receiver exited / port dissociated
DROP_QUEUE_LIMIT = "queue-limit"          # resource exhaustion
DROP_FAULT = "fault-injected"             # repro.faults injected drop

DROP_REASONS = (
    DROP_LABEL_CHECK,
    DROP_DECONT_PRIVILEGE,
    DROP_PORT_LABEL,
    DROP_DEAD_PORT,
    DROP_QUEUE_LIMIT,
    DROP_FAULT,
)


@dataclass
class DropLog:
    """Out-of-band record of silently dropped messages.

    Only the experiment harness and the test suite read this; simulated
    programs have no syscall that exposes it (it would otherwise be a
    storage channel).  ``by_reason`` counts every drop exactly; ``records``
    is bounded: past :data:`LIMIT` ``(reason, sender, port)`` triples the
    oldest half goes, and ``dropped`` says how many went.
    """

    LIMIT = 10_000

    records: List[Tuple[str, str, str]] = field(default_factory=list)
    by_reason: Dict[str, int] = field(default_factory=dict)
    dropped: int = 0

    def record(self, reason: str, sender: str, port: str) -> None:
        self.by_reason[reason] = self.by_reason.get(reason, 0) + 1
        self.records.append((reason, sender, port))
        if len(self.records) > self.LIMIT:
            self.dropped += self.LIMIT // 2
            del self.records[: self.LIMIT // 2]

    def count(self, reason: str = "") -> int:
        if not reason:
            return len(self.records) + self.dropped
        return self.by_reason.get(reason, 0)
