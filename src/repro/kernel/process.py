"""Processes and the execution context handed to simulated programs.

A *task* is anything schedulable: a base process or an event process.
Tasks carry the two kernel-maintained labels (send and receive), a set of
ports they hold receive rights for, and a generator implementing the
program.  The kernel resumes a task's generator with the result of its
last syscall; the generator yields the next syscall object.

The paper's minimal process structure takes 320 bytes of kernel memory
(Section 6); we account the same.
"""

from __future__ import annotations

import enum
from typing import Any, Callable, Dict, Generator, Optional, Set

from repro.core.chunks import ChunkedLabel
from repro.core.handles import Handle
from repro.core.labels import Label
from repro.kernel.memory import AddressSpace, MemoryView
from repro.kernel.syscalls import Recv

#: Kernel bytes per process (paper Section 6).
PROCESS_STRUCT_BYTES = 320

#: Pages implicitly allocated at spawn: stack and exception stack (§9.1).
STACK_PAGES = 1
XSTACK_PAGES = 1


class TaskState(enum.Enum):
    RUNNABLE = "runnable"     # generator ready to advance
    BLOCKED = "blocked"       # waiting in recv
    EP_REALM = "ep-realm"     # base process after ep_checkpoint; never runs
    DORMANT = "dormant"       # event process between activations
    EXITED = "exited"


class Context:
    """The per-task view handed to program bodies.

    Programs yield syscall objects for anything that crosses the protection
    boundary; purely local actions — touching their own memory, modelling
    their own computation time — are direct method calls here.
    """

    def __init__(
        self,
        kernel: "Any",
        task: "Task",
        mem: MemoryView,
        env: Dict[str, Any],
    ):
        self._kernel = kernel
        self._task = task
        self.mem = mem
        self.env = env

    @property
    def name(self) -> str:
        return self._task.name

    def compute(self, cycles: int, category: Optional[str] = None) -> None:
        """Model *cycles* of user-space computation (charged to the task's
        component category unless overridden)."""
        self._kernel.clock.charge(category or self._task.component, cycles)

    def log(self, message: str) -> None:
        self._kernel.debug_log(self._task.name, message)

    def count(self, name: str, n: int = 1) -> None:
        """Record an application-level event under the metric
        ``app.<component>.<name>`` (no-op unless metrics are enabled).

        Out-of-band like :meth:`log` — nothing a simulated program can
        read back, so it cannot become a label-bypassing channel.
        """
        metrics = self._kernel.metrics
        if metrics.enabled:
            metrics.counter(f"app.{self._task.component}.{name}").inc(n)

    @property
    def now(self) -> int:
        """Current virtual time in cycles (a CPU has a cycle counter; this
        is not a covert-channel concern we model — see paper §8 on timing
        channels being out of scope)."""
        return self._kernel.clock.now

    @property
    def config(self):
        """The kernel's :class:`~repro.kernel.config.KernelConfig`.

        Read-only run-mode options a component is allowed to see (e.g.
        ok-dbproxy consults ``store_path``); the config is frozen, so a
        program cannot use this to perturb the kernel."""
        return self._kernel.config

    def io_point(self, nbytes: int = 0) -> Optional[int]:
        """A durable-I/O choke point (one log append of *nbytes*).

        Consults the fault injector's ``crash_at_io`` rules; returns the
        injected torn-byte count, or ``None`` for "no fault".  The caller
        (the labeled store) owns persisting the torn prefix and raising
        the crash."""
        kernel = self._kernel
        if kernel.faults is None:
            return None
        return kernel.faults.on_io(
            self._task.key, self._task.name, kernel.steps_executed, nbytes
        )

    def metrics_scope(self, prefix: str):
        """A :class:`~repro.obs.metrics.MetricsScope` under *prefix*.

        Always safe to call — a disabled registry hands out no-op
        instruments — so components can bind their counters once."""
        return self._kernel.metrics.scope(prefix)


class Task:
    """Base class for schedulable entities (processes and event processes)."""

    def __init__(self, key: str, name: str, component: str):
        self.key = key
        self.name = name
        self.component = component
        self.send_label: ChunkedLabel = ChunkedLabel.from_label(Label.send_default())
        self.receive_label: ChunkedLabel = ChunkedLabel.from_label(Label.receive_default())
        self.gen: Optional[Generator] = None
        self.ctx: Optional[Context] = None
        self.state = TaskState.RUNNABLE
        #: Value (or exception) to deliver at the next generator resume.
        self.pending: Any = None
        self.pending_exc: Optional[BaseException] = None
        #: Ports this task holds receive rights for, in creation order.
        self.owned_ports: Set[Handle] = set()
        #: Owned ports with queued messages (kernel-maintained, so recv
        #: never scans idle ports).
        self.ready_ports: Set[Handle] = set()
        #: The Recv this task is blocked on, if BLOCKED/DORMANT.
        self.blocked_on: Optional[Recv] = None

    @property
    def is_event_process(self) -> bool:
        return False

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name} ({self.state.value})>"


class Process(Task):
    """A base process: own address space, environment, optional EP realm."""

    def __init__(
        self,
        pid: int,
        name: str,
        component: str,
        body: Callable,
        env: Dict[str, Any],
        address_space: AddressSpace,
    ):
        super().__init__(key=f"p{pid}", name=name, component=component)
        self.pid = pid
        self.body = body
        self.env = dict(env)
        self.address_space = address_space
        #: Set after ep_checkpoint: the generator function run per EP.
        self.event_body: Optional[Callable] = None
        #: Live event processes of this base, by key.
        self.event_processes: Dict[str, "Any"] = {}
        self.ep_counter = 0
        #: The EP currently mid-activation (only one runs at a time and a
        #: blocked EP blocks the whole process, §6.1).
        self.active_ep: Optional[str] = None
        #: Realm ports with queued messages (kernel-maintained; avoids
        #: scanning thousands of dormant EPs per delivery).
        self.ready_realm_ports: Set[Handle] = set()
        #: Port to send an obituary to when this process exits.
        self.notify_exit: Optional[Handle] = None

    def kernel_bytes(self) -> int:
        return PROCESS_STRUCT_BYTES
