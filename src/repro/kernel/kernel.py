"""The Asbestos kernel simulator.

Single-threaded, deterministic, cooperative: program bodies are generators
that yield syscall objects; the kernel advances one task per scheduler
step, executes the syscall, and hands the result back at the next resume.

The security-relevant parts implement Figure 4 exactly:

``send(p, data, CS, DS, V, DR)`` by process P, where Q owns port p::

    ES = PS ⊔ CS
    requirements:
      (1) ES ⊑ (QR ⊔ DR) ⊓ V ⊓ pR          — checked at delivery time
      (2) DS(h) < 3  ⇒  PS(h) = ⋆           — checked at send time
      (3) DR(h) > ⋆  ⇒  PS(h) = ⋆           — checked at send time
      (4) DR ⊑ pR                            — checked at delivery time
    effects (at delivery):
      QS ← (QS ⊓ DS) ⊔ (ES ⊓ QS*)
      QR ← QR ⊔ DR

All four requirements and both effects are decided by one label engine
(:mod:`repro.kernel.engine`): ``_sys_send`` makes one ``send_join`` call
and ``_try_deliver`` one ``deliver`` call, and each owns only what follows
the verdict — the drop log, rights transfer, the queue, the labels' update.

Sends are asynchronous and unreliable: the sender always sees success, and
a message failing any requirement is silently dropped (recorded only in
the out-of-band :class:`~repro.kernel.errors.DropLog`).  Label checks and
effects run when the receiver actually receives — the kernel cannot know
deliverability earlier, since labels change in the meantime (Section 4).
"""

from __future__ import annotations

import heapq
from typing import (
    Any,
    Callable,
    Dict,
    Generator,
    List,
    Optional,
    Set,
    Tuple,
)

from repro.core import labelops
from repro.core.chunks import ChunkedLabel, OpStats, shared_memory_bytes
from repro.core.handles import Handle, HandleAllocator
from repro.core.labels import (
    DEFAULT_PORT_LABEL,
    Label,
)
from repro.core.levels import L0, STAR, is_level
from repro.kernel import syscalls as sc
from repro.kernel.clock import CycleClock, KERNEL_IPC, OTHER
from repro.kernel.config import KernelConfig
from repro.kernel.engine import LOCAL, Figure4Engine, SanitizingEngine, Work, bill
from repro.kernel.errors import (
    DROP_DEAD_PORT,
    DROP_FAULT,
    DROP_QUEUE_LIMIT,
    DROP_REASONS,
    DropLog,
    InvalidArgument,
    NotOwner,
    ResourceExhausted,
    SimulationError,
)
from repro.kernel.event_process import EventProcess
from repro.kernel.memory import (
    AddressSpace,
    EpView,
    PAGE_SIZE,
    PageAccountant,
)
from repro.kernel.message import Message, QueuedMessage
from repro.kernel.ports import Port, RemoteRoute
from repro.kernel.process import (
    Context,
    Process,
    STACK_PAGES,
    Task,
    TaskState,
    XSTACK_PAGES,
)
from repro.kernel.scheduler import Scheduler


def _int_arg(value: Any, what: str) -> None:
    """A handle- or cycle-typed syscall argument that is not an integer is
    the caller's error — ``InvalidArgument`` at its next resume, as for a
    non-``Label`` — not the machine's."""
    if not isinstance(value, int):
        raise InvalidArgument(f"{what}: expected an integer, got {value!r}")


class Kernel:
    """The simulated machine: CPU clock, RAM, handle space, tasks, ports.

    Construct with a :class:`~repro.kernel.config.KernelConfig`::

        Kernel(config=KernelConfig(metrics=True, label_cost_mode="fused"))

    A bare ``Kernel()`` resolves its config from the environment
    (``KernelConfig.from_env()``), which is how whole test suites are
    swept under the sanitizer or interning without touching call sites.
    """

    def __init__(self, *, config: Optional[KernelConfig] = None):
        if config is None:
            config = KernelConfig.from_env()
        self.config = config

        self.clock = CycleClock()
        self.allocator = HandleAllocator(key=config.boot_key)
        self.accountant = (
            PageAccountant(capacity_pages=config.ram_bytes // PAGE_SIZE)
            if config.ram_bytes
            else PageAccountant()
        )
        self.scheduler = Scheduler()
        self.drop_log = DropLog()
        self.tasks: Dict[str, Task] = {}
        self.processes: Dict[str, Process] = {}
        self.ports: Dict[Handle, Port] = {}
        self.label_stats = OpStats()
        self.trace = config.trace
        self.debug_lines: List[str] = []
        #: Covert-channel mitigation hook (Section 8): called before each
        #: spawn; returning False denies process creation.
        self.fork_limiter: Optional[Callable[[Process], bool]] = None
        #: Passive observers — the one mechanism for watching the kernel
        #: (topology extraction, asbsched, the flow tracer, span tracing):
        #: objects whose optional ``on_<event>`` methods are called at the
        #: matching kernel events; DESIGN.md §5 lists events and arguments.
        #: The hot paths guard every dispatch behind ``if self.hooks:`` so
        #: an unobserved kernel pays one falsy check.
        self.hooks: List[Any] = []
        #: Pluggable scheduling nondeterminism (repro.kernel.nondet): when
        #: set, every scheduler pick and every timer-vs-task wake order is
        #: routed through this source's ``choose``, letting the explorer
        #: (repro.analysis.sched) drive the kernel through alternative
        #: interleavings.  None — the default, and the only configuration
        #: production runs use — is plain FIFO round-robin.
        self.nondet: Optional[Any] = None
        # Counts the kernel keeps whether or not anyone reads them;
        # _mirror_counters publishes them (``_pid`` is processes spawned).
        self._pid = 0
        self._seq = 0
        self._steps = 0
        self._sends = self._injected = self._enqueued = self._delivered = 0
        self._xshard_in = self._xshard_out = 0
        self._ep_created = self._ep_switched = 0
        # Import deferred to avoid a cycle at module load.
        from repro.kernel.vnodes import VnodeTable

        self.vnodes = VnodeTable()

        # -- observability (repro.obs, DESIGN.md §8) -------------------------
        # Counts are mirrors (read through the registry, never pushed) and
        # watchers are hooks (span tracing is one more observer), so the
        # hot paths carry no metric or span code to guard.
        from repro.obs.metrics import MetricsRegistry
        from repro.obs.spans import KernelSpans, SpanRecorder

        self.metrics = MetricsRegistry(enabled=config.metrics)
        #: The one sampled (not counted) instrument; None when metrics are off.
        self._queue_depth = (
            self.metrics.histogram("kernel.sched.queue_depth") if config.metrics else None
        )
        self.spans: Optional[SpanRecorder] = None
        if config.spans:
            self.spans = SpanRecorder(limit=config.span_limit)
            self.hooks.append(KernelSpans(self.spans, self.clock))

        # -- the label engine (repro.kernel.engine) -------------------------
        # Every Figure 4 decision goes through self.engine; the optional
        # layers are stacked here, once, and never branched on again.
        #
        # The interned-label bill (repro.core.interning, DESIGN.md §11):
        # the three Figure 4 hot operations still run on the full labels,
        # and a bounded LRU of their ⋆-factored operand digests decides
        # which are billed as the hits a hash-consing kernel would take.
        self.labelop_cache = None
        if config.intern_labels or config.elide_checks:
            from repro.core.interning import LabelOpCache

            self.labelop_cache = LabelOpCache(size=config.labelop_cache_size)

        # Proof-guided check elision (repro.kernel.elide, DESIGN.md §15):
        # a loaded proofs/v1 table of asbcheck-proven always-allowed
        # edges, probed before the Figure 4 operations, whose hits are
        # billed as the verified fastpath.  elide_checks without a
        # proof_path is valid and is just an interning kernel: it probes
        # nothing (flow_table stays None).
        self.flow_table = None
        if config.elide_checks and config.proof_path:
            from repro.core.interning import InternTable
            from repro.kernel.elide import VerifiedFlowTable

            self.flow_table = VerifiedFlowTable.load(config.proof_path, InternTable())
        engine: Any = Figure4Engine(self.labelop_cache, self.flow_table)

        # Differential label sanitizer (repro.analysis): opt in per kernel
        # via KernelConfig(sanitize=True), or globally via REPRO_SANITIZE=1
        # (how a whole test suite is swept without touching call sites).
        # sanitize_sample = N replays only every Nth IPC (repro.cluster's
        # per-shard safety net); 1, the default, replays every one.
        self.sanitizer = None
        if config.sanitize:
            from repro.analysis.sanitizer import LabelSanitizer

            self.sanitizer = LabelSanitizer(self, strict=config.sanitize_strict)
            engine = SanitizingEngine(engine, self.sanitizer, config.sanitize_sample)
        self.engine = engine
        self._mirror_counters()
        # Kernel-born constants: what an omitted CS/DR (⊥) and DS/V (⊤)
        # default to.
        self._bottom = ChunkedLabel.from_label(Label.bottom())
        self._top = ChunkedLabel.from_label(Label.top())
        #: ES of every kernel-born message (wire injection, exit obituary):
        #: the send label of a maximally untainted sender.
        self._default_es = ChunkedLabel.from_label(Label.send_default())
        self._syscalls = self._syscall_table()
        self._cost_mode = config.label_cost_mode

        # -- cross-shard routing (repro.cluster) -----------------------------
        #: Handles that live on another shard: handle → RemoteRoute.  Only
        #: the cluster runtime populates this; a standalone kernel never
        #: pays more than one falsy check on the send path.
        self.remote_routes: Dict[Handle, RemoteRoute] = {}
        #: Egress hook set by the shard runtime: called with (route, qmsg)
        #: for each send whose port resolves to a RemoteRoute; the runtime
        #: serializes it as wire/v1 and ships it.
        self.xshard_out: Optional[Callable[[RemoteRoute, QueuedMessage], None]] = None

        # -- kernel timers (Recv timeout / Deadline) ------------------------
        # Min-heap of (deadline_cycles, serial, task_key, token).  The token
        # is the blocking syscall object itself; cancellation is lazy — a
        # timer whose task no longer blocks on that exact token is ignored
        # when it pops.
        self._timers: List[Tuple[int, int, str, Any]] = []
        self._timer_serial = 0

        # -- fault injection (repro.faults) ---------------------------------
        # Opt in via KernelConfig(faults=FaultPlan(...)).  Delayed messages
        # live in a min-heap of (release_step, serial, message) and
        # re-enter _enqueue fault-exempt when their round comes up.
        self.faults = None
        self._delayed: List[Tuple[int, int, QueuedMessage]] = []
        self._delay_serial = 0
        if config.faults is not None:
            from repro.faults.injector import FaultInjector

            self.faults = FaultInjector(config.faults, seed=config.fault_seed, kernel=self)

    def _hook(self, method: str, *args: Any) -> None:
        for observer in self.hooks:
            fn = getattr(observer, method, None)
            if fn is not None:
                fn(*args)

    # -- bootstrapping -----------------------------------------------------------

    def spawn(
        self,
        body: Callable,
        name: str,
        component: str = OTHER,
        env: Optional[Dict[str, Any]] = None,
        parent: Optional[Task] = None,
        inherit_labels: bool = False,
        notify_exit: Optional[Handle] = None,
    ) -> Process:
        """Create a process running generator function *body(ctx)*.

        With ``inherit_labels`` the child gets copies of *parent*'s labels
        (privilege distribution by forking, Section 5.3); otherwise it gets
        the defaults ``PS = {1}``, ``PR = {2}``.
        """
        if self.fork_limiter is not None and parent is not None:
            if not self.fork_limiter(parent):  # type: ignore[arg-type]
                raise ResourceExhausted("process creation rate limited")
        if self.faults is not None and self.faults.on_spawn(name, self._steps):
            raise ResourceExhausted(f"spawn of {name!r} failed (fault injection)")
        self._pid += 1
        space = AddressSpace(self.accountant)
        space.alloc(STACK_PAGES * PAGE_SIZE, "stack")
        space.alloc(XSTACK_PAGES * PAGE_SIZE, "xstack")
        process = Process(
            pid=self._pid,
            name=name,
            component=component,
            body=body,
            env=dict(env or {}),
            address_space=space,
        )
        if parent is not None and inherit_labels:
            process.send_label = parent.send_label
            process.receive_label = parent.receive_label
        process.notify_exit = notify_exit
        process.ctx = Context(self, process, space, process.env)
        process.gen = body(process.ctx)
        if not isinstance(process.gen, Generator):
            raise SimulationError(f"process body {name!r} is not a generator function")
        self.tasks[process.key] = process
        self.processes[process.key] = process
        self.clock.charge(OTHER, self.clock.cost.spawn)
        self.scheduler.enqueue(process.key)
        if self.hooks:
            self._hook("on_spawn", process)
        return process

    def inject(self, port: Handle, payload: Any) -> bool:
        """Enqueue a message from *outside* the label system — the network
        wire.  Labels are the defaults of a maximally untainted sender, so
        the receiver is not contaminated and ordinary receive checks apply."""
        self._injected += 1
        if self.hooks:
            self._hook("on_inject", port, payload)
        self._enqueue(self._kernel_message(port, payload, "<wire>"))
        return True

    def _kernel_message(self, port: Handle, payload: Any, sender_name: str) -> QueuedMessage:
        """A message born in the kernel, not in a task: default labels, so
        it contaminates nobody and ordinary delivery checks apply."""
        return QueuedMessage(
            port, payload, self._default_es, self._top, self._top, self._bottom, sender_name
        )

    def enqueue_external(
        self,
        port: Handle,
        payload: Any,
        *,
        effective_send: ChunkedLabel,
        ds: ChunkedLabel,
        v: ChunkedLabel,
        dr: ChunkedLabel,
        sender_name: str = "<xshard>",
    ) -> bool:
        """Enqueue a message whose send-time checks ran on another shard.

        The cross-shard ingress half of ``repro.cluster``: the sending
        shard already enforced Figure 4 requirements (2) and (3) and
        computed ``ES = PS ⊔ CS``; this kernel runs the delivery-time
        checks (1) and (4) plus the label effects locally, exactly as for
        a local send.  Unlike
        :meth:`inject`, the caller supplies real labels — cross-shard
        taint and decontamination propagate.
        """
        self._xshard_in += 1
        self._enqueue(
            QueuedMessage(
                port=port,
                payload=payload,
                effective_send=effective_send,
                decontaminate_send=ds,
                verify=v,
                decontaminate_receive=dr,
                sender_name=sender_name,
                external=True,
            )
        )
        return True

    # -- the run loop ----------------------------------------------------------------

    def run(self, max_steps: int = 10_000_000) -> int:
        """Advance until no task is runnable; returns steps executed.

        When the run queue drains but kernel timers (Recv timeouts,
        Deadline sleeps) or fault-delayed messages are still pending, the
        clock jumps forward to the next event — simulated time passes with
        nothing to run, exactly like an idle CPU — and the loop continues.
        Quiescence means no runnable task, no live timer, and no deferred
        message.
        """
        steps = 0
        while steps < max_steps:
            if self._timers:
                # Timer-vs-task wake order: with a due timer *and* a
                # runnable task, the kernel historically fires the timer
                # first.  A nondet source may invert that for one loop
                # iteration (the timer stays due and is re-offered), so
                # the explorer can race timeouts against queued messages.
                if (
                    self.nondet is not None
                    and self.scheduler
                    and self._timers[0][0] <= self.clock.now
                    and self.nondet.choose("wake", ("timers", "task")) == 1
                ):
                    pass
                else:
                    self._fire_due_timers()
            if not self.scheduler:
                if not self._advance_idle():
                    break
                continue
            self._step()
            steps += 1
        # Out of steps is a failure only if work is left: a run that
        # quiesces in exactly max_steps steps has quiesced.
        if steps >= max_steps and (
            self.scheduler
            or self._delayed
            or any(self._timer_live(key, token) for _, _, key, token in self._timers)
        ):
            raise SimulationError(f"run did not quiesce within {max_steps} steps")
        return steps

    def _timer_live(self, key: str, token: Any) -> bool:
        """Cancellation is lazy: a timer counts only while its task still
        blocks on that exact token."""
        task = self.tasks.get(key)
        return task is not None and task.state == TaskState.BLOCKED and task.blocked_on is token

    def _advance_idle(self) -> bool:
        """Nothing runnable: release the next deferred message or jump the
        clock to the earliest live timer.  Returns False at quiescence."""
        if self._delayed:
            release_step, _, qmsg = heapq.heappop(self._delayed)
            self._steps = max(self._steps, release_step)
            self._enqueue(qmsg, fault_exempt=True)
            return True
        while self._timers:
            deadline, _, key, token = self._timers[0]
            if not self._timer_live(key, token):
                heapq.heappop(self._timers)  # cancelled; purge and look again
                continue
            if deadline > self.clock.now:
                # Idle wait: simulated time passes with no work to do.
                self.clock.charge(OTHER, deadline - self.clock.now)
            self._fire_due_timers()
            return True
        return False

    def _arm_timer(self, task: Task, token: Any, deadline: int) -> None:
        self._timer_serial += 1
        heapq.heappush(self._timers, (deadline, self._timer_serial, task.key, token))

    def _fire_due_timers(self) -> None:
        """Wake every task whose timer deadline has passed.  Stale timers —
        the task completed its recv, died, or blocked on something newer —
        are discarded silently.  A timed-out Recv first retries delivery:
        only a task with truly nothing deliverable sees the ``None``
        timeout result (the timer must not race messages already queued)."""
        while self._timers and self._timers[0][0] <= self.clock.now:
            _, _, key, token = heapq.heappop(self._timers)
            task = self.tasks.get(key)
            if task is None or task.state != TaskState.BLOCKED or task.blocked_on is not token:
                continue
            if not self._retry_blocked_recv(task):
                task.blocked_on = None
                task.state = TaskState.RUNNABLE
                task.pending = None
            if isinstance(task, EventProcess):
                # A timed-out EP resumes through its base's realm step.
                self.scheduler.enqueue(task.base.key)
            else:
                self.scheduler.enqueue(task.key)

    def _release_due_messages(self) -> None:
        while self._delayed and self._delayed[0][0] <= self._steps:
            _, _, qmsg = heapq.heappop(self._delayed)
            self._enqueue(qmsg, fault_exempt=True)

    def _step(self) -> None:
        if self.nondet is None:
            key = self.scheduler.dequeue()
        else:
            # Controlled pick: the source chooses among every runnable
            # task (index 0 = the FIFO head, so a default-answering
            # source reproduces plain round-robin).
            options = self.scheduler.runnable()
            key = options[self.nondet.choose("pick", tuple(options))]
            self.scheduler.take(key)
        task = self.tasks.get(key)
        if task is None or task.state == TaskState.EXITED:
            return
        self._steps += 1
        if self._queue_depth is not None:
            self._queue_depth.observe(len(self.scheduler))
        if self.faults is not None:
            self.faults.on_step(self, self._steps)
            if self._delayed:
                self._release_due_messages()
            task = self.tasks.get(key)  # kill_ep may have destroyed it
            if task is None or task.state == TaskState.EXITED:
                return
            if self.faults.on_pick(task.name, self._steps):
                self.scheduler.enqueue(key)  # stalled: loses this turn only
                return
        if self.hooks:
            self._hook("on_step", task)
        if isinstance(task, Process) and task.state == TaskState.EP_REALM:
            self._step_ep_realm(task)
            return
        if task.state == TaskState.BLOCKED:
            if not self._retry_blocked_recv(task):
                return  # still blocked; re-woken on next enqueue
        self._advance(task)

    # -- generator driving ---------------------------------------------------------------

    #: Maximum syscalls a task executes per scheduling step before it is
    #: preempted back to the run queue.  Bounds the run loop against
    #: message-passing livelocks (a task sending to itself forever) so
    #: ``run(max_steps=...)`` can actually trip.
    INLINE_SYSCALL_BUDGET = 512

    def _advance(self, task: Task) -> None:
        """Resume *task*'s generator until it blocks, exits, or exhausts
        its inline budget (then it re-queues, preempted)."""
        if self.hooks:
            self._hook("on_activate", task)
        charge, syscall_base = self.clock.charge, self.clock.cost.syscall_base
        syscalls = self._syscalls
        try:
            budget = self.INLINE_SYSCALL_BUDGET
            while True:
                budget -= 1
                if budget < 0:
                    self.scheduler.enqueue(
                        task.base.key if isinstance(task, EventProcess) else task.key
                    )
                    return
                try:
                    if task.pending_exc is not None:
                        exc = task.pending_exc
                        task.pending_exc = None
                        request = task.gen.throw(exc)
                    else:
                        value, task.pending = task.pending, None
                        request = task.gen.send(value)
                except StopIteration:
                    self._task_finished(task)
                    return
                except Exception as exc:  # program crashed
                    self.debug_log(task.name, f"crashed: {exc!r}")
                    if self.trace:
                        raise
                    self._task_finished(task, crashed=True)
                    return
                if self.faults is not None and self.faults.on_syscall(
                    task.key, task.name, self._steps
                ):
                    # Injected crash: the program dies mid-syscall, exactly as
                    # if its body had raised.
                    self.debug_log(task.name, "crashed: fault injection")
                    self._task_finished(task, crashed=True)
                    return
                charge(OTHER, syscall_base)
                handler = syscalls.get(type(request))
                if handler is None:
                    raise SimulationError(f"{task.name} yielded a non-syscall: {request!r}")
                try:
                    if not handler(task, request):
                        return
                except (InvalidArgument, NotOwner, ResourceExhausted) as err:
                    # Loud kernel errors come back to the caller as an
                    # exception at its next resume.
                    task.pending_exc = err
        finally:
            if self.hooks:
                self._hook("on_activate_end", task)

    def _syscall_table(self) -> Dict[type, Callable[[Task, Any], bool]]:
        """Exact request type → handler.  Every handler sets ``task.pending``
        itself and returns True to keep advancing the same task inline
        (cheap syscalls), False when the task blocked, exited, or should
        round-robin.  No syscall class is subclassed, so the exact type
        decides."""
        return {
            sc.Send: self._sys_send,
            sc.Recv: self._sys_recv,
            sc.NewHandle: self._sys_new_handle,
            sc.NewPort: self._sys_new_port,
            sc.SetPortLabel: self._sys_set_port_label,
            sc.DissociatePort: self._sys_dissociate_port,
            sc.ChangeLabel: self._sys_change_label,
            sc.GetLabels: self._sys_get_labels,
            sc.GetEnv: self._sys_get_env,
            sc.Spawn: self._sys_spawn,
            sc.Compute: self._sys_compute,
            sc.Deadline: self._sys_deadline,
            sc.Exit: self._sys_exit,
            sc.EpCheckpoint: self._sys_ep_checkpoint,
            sc.EpYield: self._sys_ep_yield,
            sc.EpClean: self._sys_ep_clean,
            sc.EpExit: self._sys_ep_exit,
        }

    def _sys_get_labels(self, task: Task, request: sc.GetLabels) -> bool:
        task.pending = (task.send_label.to_label(), task.receive_label.to_label())
        return True

    def _sys_get_env(self, task: Task, request: sc.GetEnv) -> bool:
        env = task.env if isinstance(task, Process) else task.base.env  # type: ignore[attr-defined]
        task.pending = dict(env)
        return True

    def _sys_spawn(self, task: Task, request: sc.Spawn) -> bool:
        child = self.spawn(
            request.body,
            request.name,
            component=request.component or task.component,
            env=request.env,
            parent=task,
            inherit_labels=request.inherit_labels,
            notify_exit=request.notify_exit,
        )
        task.pending = child.pid
        return True

    def _sys_compute(self, task: Task, request: sc.Compute) -> bool:
        _int_arg(request.cycles, "compute: cycles")
        self.clock.charge(request.category or task.component, request.cycles)
        task.pending = None
        return True

    def _sys_deadline(self, task: Task, request: sc.Deadline) -> bool:
        _int_arg(request.cycles, "deadline: cycles")
        if request.cycles <= 0:
            task.pending = None
            return True
        task.state = TaskState.BLOCKED
        task.blocked_on = request
        self._arm_timer(task, request, self.clock.now + request.cycles)
        return False

    def _sys_exit(self, task: Task, request: sc.Exit) -> bool:
        self._task_finished(task, explicit_exit=True)
        return False

    def _task_finished(
        self, task: Task, crashed: bool = False, explicit_exit: bool = False
    ) -> None:
        if isinstance(task, EventProcess):
            if explicit_exit or crashed:
                # Process-wide exit from inside an EP kills the whole base
                # process (Section 6.1); a crashing event body takes it
                # down too, like a fault in any thread of a real process.
                self._terminate_process(task.base, crashed=crashed)
            else:
                # Returning from the event body behaves like ep_exit.
                self._destroy_ep(task)
                self._schedule_realm_if_work(task.base)
            return
        self._terminate_process(task, crashed=crashed)  # type: ignore[arg-type]

    # -- send ------------------------------------------------------------------------------

    def _drop(self, reason: str, sender: str, where: str, seq: Optional[int] = None) -> None:
        """Record a silent message drop in the out-of-band log (which
        counts it) and tell the observers; *seq* is set when the message
        had joined a queue."""
        self.drop_log.record(reason, sender, where)
        if self.hooks:
            self._hook("on_drop", reason, sender, where, seq)

    def _sys_send(self, task: Task, request: sc.Send) -> bool:
        if type(request.port) is not int:  # inline: 17.5 sends a connection
            _int_arg(request.port, "send: port")
        self.clock.charge(KERNEL_IPC, self.clock.cost.send_base)
        self._sends += 1
        if self.hooks:
            self._hook("on_send", task, request)
        stats = OpStats()
        ps = task.send_label
        cs, ds, v, dr = request.cs, request.ds, request.v, request.dr
        cs = self._bottom if cs is None else self._user_label(cs)
        ds = self._top if ds is None else self._user_label(ds)
        v = self._top if v is None else self._user_label(v)
        dr = self._bottom if dr is None else self._user_label(dr)

        drop, es, work = self.engine.send_join(ps, cs, ds, dr, stats, task.name, request.port)
        self._bill(stats, work)
        if drop is not None:
            self._drop(drop, task.name, f"{request.port:#x}")
            task.pending = True  # unreliable send: the sender cannot observe the drop
            return True

        # Transferred receive rights leave the sender immediately; they
        # land on the receiver at delivery, or die with a dropped message.
        transfer = tuple(request.transfer or ())
        for handle in transfer:
            _int_arg(handle, "send: transfer")
            if handle not in task.owned_ports:
                raise NotOwner(f"transfer of unowned port {handle:#x}")
        for handle in transfer:
            task.owned_ports.discard(handle)
            task.ready_ports.discard(handle)
            entry = self.ports.get(handle)
            if entry is not None:
                entry.owner = "<in-transit>"

        self._enqueue(
            QueuedMessage(request.port, request.payload, es, ds, v, dr, task.name, 0, transfer)
        )
        task.pending = True
        return True

    def _enqueue(self, qmsg: QueuedMessage, fault_exempt: bool = False) -> None:
        """Queue *qmsg* on its port — or delay it, ship it to the shard
        that owns the port, or drop it.  The sender sees none of this."""
        port = qmsg.port
        if self.faults is not None and not fault_exempt:
            action = self.faults.on_send(qmsg.sender_name, port, self._steps)
            if action is not None:
                what, rounds = action
                if what == "drop":
                    # Injected unreliability: indistinguishable from a
                    # label-check drop to every simulated program.
                    self._drop_unqueued(DROP_FAULT, qmsg)
                    return
                self._delay_serial += 1
                heapq.heappush(self._delayed, (self._steps + rounds, self._delay_serial, qmsg))
                return
        entry = self.ports.get(port)
        if entry is None or not entry.alive:
            # Receive rights cannot cross a shard boundary — wire/v1 has no
            # port-migration protocol — so a remote send carrying them
            # drops, and the in-transit rights die, exactly like a send to
            # a dead port.
            if entry is None and self.remote_routes and not qmsg.transfer:
                route = self.remote_routes.get(port)
                if route is not None and self.xshard_out is not None:
                    # Send-time checks (requirements 2 and 3) already passed;
                    # the owning shard runs the delivery-time checks and
                    # effects against its own labels.
                    self.xshard_out(route, qmsg)
                    self._xshard_out += 1
                    return
            self._drop_unqueued(DROP_DEAD_PORT, qmsg)
            return
        self._seq += 1
        qmsg.seq = self._seq
        if self.faults is not None:
            squeeze = self.faults.queue_limit(qmsg.sender_name, port, self._steps)
            if squeeze is not None and len(entry.queue) >= squeeze[0]:
                # Injected queue pressure: behaves exactly like hitting the
                # real queue limit, but with the squeezed bound.
                self.faults.note_squeeze_drop(squeeze[1], qmsg.sender_name, port)
                self._drop_unqueued(DROP_QUEUE_LIMIT, qmsg)
                return
        if not entry.enqueue(qmsg):
            self._drop_unqueued(DROP_QUEUE_LIMIT, qmsg)
            return
        self._enqueued += 1
        if self.hooks:
            self._hook("on_enqueue", qmsg)
        # Mark the port ready and wake whoever will receive from it.
        owner = self.tasks.get(entry.owner)
        if owner is None:
            return
        owner.ready_ports.add(port)
        if isinstance(owner, EventProcess):
            # The base process is the schedulable identity for its realm.
            base = owner.base
            base.ready_realm_ports.add(port)
            if base.state == TaskState.EP_REALM:
                self.scheduler.enqueue(base.key)
        elif owner.state == TaskState.EP_REALM:
            owner.ready_realm_ports.add(port)
            self.scheduler.enqueue(owner.key)
        elif owner.state in (TaskState.BLOCKED, TaskState.RUNNABLE):
            self.scheduler.enqueue(owner.key)

    def _drop_unqueued(self, reason: str, qmsg: QueuedMessage) -> None:
        """Drop a message that never joined a queue (it has no span).  Any
        in-transit receive rights die with it — returning them to the
        sender would reveal the drop."""
        self._drop(reason, qmsg.sender_name, f"{qmsg.port:#x}")
        for handle in qmsg.transfer:
            self._dissociate_port(handle)

    # -- delivery (Figure 4 requirements 1 & 4, then the effects) ---------------------------

    def _try_deliver(self, task: Task, entry: Port, qmsg: QueuedMessage) -> bool:
        """Run the delivery-time checks against *task*; apply effects and
        return True, or record the drop and return False."""
        stats = OpStats()
        # Decided on the labels as they stand before the effects; proofs
        # are per shard, so they may not speak for cross-shard ingress.
        qs, qr = task.send_label, task.receive_label
        drop, new_qs, new_qr, work = self.engine.deliver(
            entry.handle,
            qmsg.effective_send,
            qmsg.decontaminate_send,
            qmsg.verify,
            qmsg.decontaminate_receive,
            entry.label,
            qs,
            qr,
            stats,
            not qmsg.external,
            qmsg.sender_name,
            task.name,
        )
        self._bill(stats, work)
        delivered = drop is None
        if delivered:
            task.send_label = new_qs
            task.receive_label = new_qr
            # Receive rights travelling with the message land here.
            for handle in qmsg.transfer:
                port_entry = self.ports.get(handle)
                if port_entry is not None and port_entry.alive:
                    port_entry.owner = task.key
                    task.owned_ports.add(handle)
                    if port_entry.queue:
                        task.ready_ports.add(handle)
                        if isinstance(task, EventProcess):
                            task.base.ready_realm_ports.add(handle)
                    vnode = self.vnodes.get(handle)
                    if vnode is not None:
                        vnode.owner = task.key
            self._delivered += 1
        else:
            self._drop(drop, qmsg.sender_name, task.name, seq=qmsg.seq)
            for handle in qmsg.transfer:
                self._dissociate_port(handle)
        if self.hooks:
            self._hook("on_deliver", task, entry, qmsg, delivered, qs, qr)
        return delivered

    def _bill(self, stats: OpStats, work: Work = LOCAL) -> None:
        """Charge KERNEL_IPC for label work (:func:`repro.kernel.engine.bill`
        is the cost function) and fold *stats* into the kernel's totals."""
        self.clock.charge(KERNEL_IPC, bill(work, stats, self.clock.cost, self._cost_mode))
        self.label_stats.merge(stats)

    def _mirror_counters(self) -> None:
        """Publish every count the kernel, its drop log and the label
        engine's parts already keep as read-through registry names: they
        cannot drift from their owners however a run ends, and the hot
        path carries no metric syncing.  A feature that is off reads 0."""
        ipc = self.metrics.scope("kernel.ipc")
        for name in ("sends", "injected", "enqueued", "delivered", "xshard_in", "xshard_out"):
            ipc.mirror(name, self, f"_{name}")
        for reason in DROP_REASONS:
            ipc.mirror(f"drops.{reason}", self.drop_log.by_reason, reason)
        self.metrics.mirror("kernel.sched.steps", self, "_steps")
        procs = self.metrics.scope("kernel.proc")
        procs.mirror("spawned", self, "_pid")
        procs.mirror("ep_created", self, "_ep_created")
        procs.mirror("ep_switched", self, "_ep_switched")
        labels = self.metrics.scope("kernel.labels")
        for name in ("fast_path", "full_merges", "entries_scanned"):
            labels.mirror(name, self.label_stats, name)
        for name in ("hits", "misses", "evictions"):
            labels.mirror(f"cache_{name}", self.labelop_cache, name)
        elide = self.metrics.scope("kernel.elide")
        elide.mirror("deliver_stub_hits", self.flow_table, "deliver_hits")
        elide.mirror("send_stub_hits", self.flow_table, "send_hits")
        for name in ("batch_drains", "batched_messages"):
            elide.mirror(name, self.flow_table, name)

    # -- recv --------------------------------------------------------------------------------

    def _sys_recv(self, task: Task, request: sc.Recv) -> bool:
        port = request.port
        if port is not None:
            if type(port) is not int:  # inline, as in _sys_send
                _int_arg(port, "recv: port")
            if port not in task.owned_ports:
                raise NotOwner(f"recv on port {port:#x} not owned")
        if request.timeout is not None:
            _int_arg(request.timeout, "recv: timeout")
        delivered = self._pick_and_deliver(task, request)
        if delivered is not None:
            task.pending = delivered
            return True
        if not request.block:
            task.pending = None
            return True
        task.state = TaskState.BLOCKED
        task.blocked_on = request
        if request.timeout is not None:
            self._arm_timer(task, request, self.clock.now + request.timeout)
        return False

    def _retry_blocked_recv(self, task: Task) -> bool:
        """Try to complete a blocked Recv; True if the task may now run."""
        request = task.blocked_on
        if request is None:
            task.state = TaskState.RUNNABLE
            return True
        if isinstance(request, sc.Deadline):
            return False  # only the timer wakes a sleeper
        delivered = self._pick_and_deliver(task, request)
        if delivered is None:
            return False
        task.pending = delivered
        task.state = TaskState.RUNNABLE
        task.blocked_on = None
        return True

    def _pick_and_deliver(self, task: Task, request: sc.Recv) -> Optional[Message]:
        """One receive attempt: deliver the oldest deliverable message on
        the requested port (or any owned port).  Messages failing their
        check are dropped permanently."""
        if self.hooks:
            self._hook("on_recv", task, request)
        while True:
            entry = self._oldest_head(task.ready_ports, request.port)
            if entry is None:
                return None
            qmsg = entry.queue.popleft()
            if not entry.queue:
                task.ready_ports.discard(entry.handle)
            if self._try_deliver(task, entry, qmsg):
                return qmsg.to_message()
            # dropped; look again

    def _oldest_head(
        self, ready: Set[Handle], port: Optional[Handle] = None, realm: bool = False
    ) -> Optional[Port]:
        """The live port whose queued head is oldest, among the handles in
        *ready* (or just *port*); handles with nothing queued are pruned
        from *ready*.  Only ports with traffic (the kernel-maintained ready
        sets) are examined, so a server owning thousands of idle connection
        ports, or a realm with thousands of dormant event processes, pays
        nothing for them here.  With *realm*, a port owned by an active or
        blocked EP is passed over: that EP consumes its own queue."""
        if port is not None:  # a named port (every reply-wait) is one lookup
            entry = self.ports.get(port)
            if entry is not None and entry.alive and entry.queue:
                return entry
            ready.discard(port)
            return None
        best: Optional[Port] = None
        best_seq = 0
        stale: List[Handle] = []
        for handle in ready:
            entry = self.ports.get(handle)
            if entry is None or not entry.alive or not entry.queue:
                stale.append(handle)
                continue
            if realm:
                owner = self.tasks.get(entry.owner)
                if isinstance(owner, EventProcess) and owner.state != TaskState.DORMANT:
                    continue
            seq = entry.queue[0].seq
            if best is None or seq < best_seq:
                best, best_seq = entry, seq
        for handle in stale:
            ready.discard(handle)
        return best

    # -- handles, ports, labels ---------------------------------------------------------------

    def _sys_new_handle(self, task: Task, request: sc.NewHandle) -> bool:
        self.clock.charge(KERNEL_IPC, self.clock.cost.handle_alloc)
        handle = self.allocator.fresh()
        self.vnodes.create(handle)
        stats = OpStats()
        task.send_label = labelops.sparse_update(task.send_label, {handle: STAR}, stats)
        self._bill(stats)
        if self.hooks:
            self._hook("on_new_handle", task, handle)
        task.pending = handle
        return True

    def _sys_new_port(self, task: Task, request: sc.NewPort) -> bool:
        self.clock.charge(KERNEL_IPC, self.clock.cost.port_alloc)
        handle = self.allocator.fresh()
        self.vnodes.create(handle, is_port=True, owner=task.key)
        label = request.label if request.label is not None else DEFAULT_PORT_LABEL
        base = ChunkedLabel.from_label(label)
        stats = OpStats()
        # Figure 4: pR ← L, then pR(p) ← 0.
        port_label = labelops.sparse_update(base, {handle: L0}, stats)
        self.ports[handle] = Port(handle=handle, label=port_label, owner=task.key)
        task.owned_ports.add(handle)
        # PS(p) ← ⋆.
        task.send_label = labelops.sparse_update(task.send_label, {handle: STAR}, stats)
        self._bill(stats)
        if self.hooks:
            self._hook("on_new_port", task, handle)
        task.pending = handle
        return True

    def _sys_set_port_label(self, task: Task, request: sc.SetPortLabel) -> bool:
        _int_arg(request.port, "set_port_label: port")
        entry = self.ports.get(request.port)
        if entry is None or request.port not in task.owned_ports:
            raise NotOwner(f"set_port_label: port {request.port:#x} not owned")
        # Unlike new_port, the input is used verbatim (Section 5.5).
        entry.label = ChunkedLabel.from_label(request.label)
        if self.hooks:
            self._hook("on_port_touch", task, request.port)
        task.pending = True
        return True

    def _sys_dissociate_port(self, task: Task, request: sc.DissociatePort) -> bool:
        _int_arg(request.port, "dissociate: port")
        if request.port not in task.owned_ports:
            raise NotOwner(f"dissociate: port {request.port:#x} not owned")
        if self.hooks:
            self._hook("on_port_touch", task, request.port)
        self._dissociate_port(request.port)
        task.pending = True
        return True

    def _sys_change_label(self, task: Task, request: sc.ChangeLabel) -> bool:
        """All-or-nothing: both new labels are computed aside and become
        the task's only once every clause has passed, so a rejected
        request leaves no partial effect.  The scan is billed either way."""
        send, recv = task.send_label, task.receive_label
        stats = OpStats()
        try:
            if request.drop_send:
                updates = {}
                default = send.default
                for handle in request.drop_send:
                    _int_arg(handle, "change_label: drop_send")
                    if send(handle) > default:
                        raise InvalidArgument(
                            f"drop_send of {handle:#x} would lower the send label "
                            "(declassification); only * and sub-default credentials "
                            "can be dropped"
                        )
                    updates[handle] = default
                send = labelops.sparse_update(send, updates, stats)
            if request.raise_receive:
                updates = {}
                for handle, level in request.raise_receive.items():
                    _int_arg(handle, "change_label: raise_receive")
                    if not is_level(level):
                        raise InvalidArgument(f"change_label: not a level: {level!r}")
                    current = recv(handle)
                    if level > current and send(handle) != STAR:
                        raise InvalidArgument(
                            f"raising receive level of {handle:#x} requires "
                            "declassification privilege"
                        )
                    if level != current:
                        updates[handle] = level
                if updates:
                    recv = labelops.sparse_update(recv, updates, stats)
            if request.send is not None:
                new = ChunkedLabel.from_label(request.send)
                # Raising only (self-contamination, including dropping own ⋆).
                if not send.leq(new, stats):
                    raise InvalidArgument(
                        "change_label: send label may only be raised "
                        "(self-contamination); lowering requires receiving a "
                        "decontaminating message from a * holder"
                    )
                send = new
            if request.receive is not None:
                new = ChunkedLabel.from_label(request.receive)
                # Raising any component requires ⋆ for that handle.
                handles = {h for h, _ in new.iter_entries()}
                handles.update(h for h, _ in recv.iter_entries())
                for handle in handles:
                    stats.entries_scanned += 1
                    if new(handle) > recv(handle) and send(handle) != STAR:
                        raise InvalidArgument(
                            f"change_label: raising receive level of {handle:#x} "
                            "requires declassification privilege"
                        )
                if new.default > recv.default and send.max_level != STAR:
                    raise InvalidArgument(
                        "change_label: raising the receive default requires "
                        "universal declassification privilege"
                    )
                recv = new
        finally:
            self._bill(stats)
        task.send_label, task.receive_label = send, recv
        if self.hooks:
            self._hook("on_change_label", task, request)
        task.pending = True
        return True

    def _user_label(self, label: Label) -> ChunkedLabel:
        if not isinstance(label, Label):
            raise InvalidArgument(f"not a label: {label!r}")
        return ChunkedLabel.from_label(label)

    # -- event processes -----------------------------------------------------------------------

    def _sys_ep_checkpoint(self, task: Task, request: sc.EpCheckpoint) -> bool:
        if not isinstance(task, Process):
            raise SimulationError("ep_checkpoint from inside an event process")
        if task.event_body is not None:
            raise SimulationError("ep_checkpoint called twice")
        task.event_body = request.event_body
        task.state = TaskState.EP_REALM
        task.gen = None  # the base process never runs again (Section 6.1)
        self._schedule_realm_if_work(task)
        return False

    def _sys_ep_yield(self, task: Task, request: sc.EpYield) -> bool:
        if not isinstance(task, EventProcess):
            raise SimulationError("ep_yield outside an event process")
        base = task.base
        task.state = TaskState.DORMANT
        task.blocked_on = sc.Recv()
        base.active_ep = None
        self._schedule_realm_if_work(base)
        return False

    def _sys_ep_clean(self, task: Task, request: sc.EpClean) -> bool:
        if not isinstance(task, EventProcess):
            raise SimulationError("ep_clean outside an event process")
        if request.keep is not None:
            task.pending = task.view.clean_all_except(tuple(request.keep))
        elif request.region is not None:
            task.pending = task.view.clean_region(request.region)
        elif request.start is None or request.length is None:
            raise InvalidArgument("ep_clean needs a region name, a range, or keep=")
        else:
            task.pending = task.view.clean(request.start, request.length)
        return True

    def _sys_ep_exit(self, task: Task, request: sc.EpExit) -> bool:
        if not isinstance(task, EventProcess):
            raise SimulationError("ep_exit outside an event process")
        self._destroy_ep(task)
        self._schedule_realm_if_work(task.base)
        return False

    def _destroy_ep(self, ep: EventProcess) -> None:
        ep.state = TaskState.EXITED
        ep.exited = True
        for handle in list(ep.owned_ports):
            self._dissociate_port(handle)
        ep.view.release_all()
        ep.base.event_processes.pop(ep.key, None)
        if ep.base.active_ep == ep.key:
            ep.base.active_ep = None
        self.tasks.pop(ep.key, None)

    def _step_ep_realm(self, process: Process) -> None:
        """One scheduler step for a process in the EP realm."""
        if process.active_ep is not None:
            ep = process.event_processes.get(process.active_ep)
            if ep is None:
                process.active_ep = None
            else:
                if ep.state == TaskState.BLOCKED:
                    if not self._retry_blocked_recv(ep):
                        return  # whole process stays blocked (Section 6.1)
                self._advance(ep)
                self._schedule_realm_if_work(process)
                return
        # No active EP: find the oldest deliverable message in the realm.
        if self._activate_next_ep(process):
            self._schedule_realm_if_work(process)

    def _activate_next_ep(self, process: Process) -> bool:
        """Deliver the oldest deliverable realm message, creating or
        resuming an event process.  Returns True if an EP ran."""
        while True:
            entry = self._oldest_head(process.ready_realm_ports, realm=True)
            if entry is None:
                return False
            ep = self.tasks.get(entry.owner)
            qmsg = entry.queue.popleft()
            if not isinstance(ep, EventProcess):
                if self._deliver_to_new_ep(process, entry, qmsg):
                    return True
                continue  # dropped; try the next head
            if self._try_deliver(ep, entry, qmsg):
                self.clock.charge(OTHER, self.clock.cost.ep_switch)
                self._ep_switched += 1
                self._touch_stack(ep)
                # A cleaned EP dropped its message-queue page; receiving a
                # message brings it back.
                if ep.view.region("msgq") is None:
                    ep.view.alloc(PAGE_SIZE, "msgq")
                ep.state = TaskState.RUNNABLE
                ep.blocked_on = None
                ep.pending = qmsg.to_message()
                process.active_ep = ep.key
                self._advance(ep)
                return True

    def _deliver_to_new_ep(self, process: Process, entry: Port, qmsg: QueuedMessage) -> bool:
        """Create a fresh EP for a message on a base-owned port."""
        process.ep_counter += 1
        view = EpView(
            process.address_space,
            self.accountant,
            on_cow_copy=lambda n: self.clock.charge(OTHER, self.clock.cost.cow_page_copy * n),
            on_page_alloc=lambda n: self.clock.charge(OTHER, self.clock.cost.page_alloc * n),
        )
        ep = EventProcess(process, process.ep_counter, view)
        if not self._try_deliver(ep, entry, qmsg):
            return False  # never existed
        self.clock.charge(OTHER, self.clock.cost.ep_create)
        self._ep_created += 1
        self.tasks[ep.key] = ep
        process.event_processes[ep.key] = ep
        process.active_ep = ep.key
        ep.state = TaskState.RUNNABLE
        # One page for the event process's message queue (Section 9.1).
        view.alloc(PAGE_SIZE, "msgq")
        self._touch_stack(ep)
        ep.ctx = Context(self, ep, view, process.env)
        ep.gen = process.event_body(ep.ctx, qmsg.to_message())  # type: ignore[misc]
        if not isinstance(ep.gen, Generator):
            raise SimulationError(
                f"event body of {process.name!r} is not a generator function"
            )
        # Observers see the EP after its first delivery, so its labels
        # already include the activating message's contamination.
        if self.hooks:
            self._hook("on_ep_create", ep, entry, qmsg)
        self._advance(ep)
        return True

    def _touch_stack(self, ep: EventProcess) -> None:
        """Model the stack writes of an activation: the running event
        process dirties its stack and exception-stack pages (they become
        private copies until cleaned — Section 9.1 counts 2 such pages per
        active session)."""
        for region_name in ("stack", "xstack"):
            region = ep.base.address_space.region(region_name)
            if region is not None:
                ep.view.write(region.start, b"\x01")

    def _schedule_realm_if_work(self, process: Process) -> None:
        if process.state != TaskState.EP_REALM:
            return
        if process.active_ep is not None:
            ep = process.event_processes.get(process.active_ep)
            if ep is not None and ep.state == TaskState.RUNNABLE:
                self.scheduler.enqueue(process.key)
                return
            if ep is not None and ep.state == TaskState.BLOCKED:
                # Re-tried when a message arrives (_enqueue wakes the base).
                return
        if self._oldest_head(process.ready_realm_ports, realm=True) is not None:
            self.scheduler.enqueue(process.key)

    # -- teardown -----------------------------------------------------------------------------

    def _dissociate_port(self, handle: Handle) -> None:
        entry = self.ports.get(handle)
        if entry is None:
            return
        entry.dissociate()
        vnode = self.vnodes.get(handle)
        if vnode is not None:
            vnode.dissociated = True
            self.vnodes.decref(handle)
        task = self.tasks.get(entry.owner)
        if task is not None:
            task.owned_ports.discard(handle)
        del self.ports[handle]

    def _terminate_process(self, process: Process, crashed: bool = False) -> None:
        for ep in list(process.event_processes.values()):
            self._destroy_ep(ep)
        for handle in list(process.owned_ports):
            self._dissociate_port(handle)
        for name in list(process.address_space.regions):
            process.address_space.free(name)
        process.state = TaskState.EXITED
        process.gen = None
        self.scheduler.remove(process.key)
        self.tasks.pop(process.key, None)
        self.processes.pop(process.key, None)
        if process.notify_exit is not None:
            # The obituary: default labels, ordinary delivery checks.
            # Fault-exempt: the injector models unreliable *user* IPC; the
            # kernel's own exit notification is the mechanism supervision
            # (and chaos recovery itself) is built on.
            obituary = {
                "type": "EXITED",
                "pid": process.pid,
                "name": process.name,
                "crashed": crashed,
            }
            self._enqueue(
                self._kernel_message(process.notify_exit, obituary, "<kernel>"),
                fault_exempt=True,
            )

    # -- introspection ----------------------------------------------------------------------

    def debug_log(self, who: str, message: str) -> None:
        if self.trace:
            line = f"[{self.clock.now:>12}] {who}: {message}"
            self.debug_lines.append(line)
            if len(self.debug_lines) > 10_000:
                del self.debug_lines[:5_000]

    def memory_report(self) -> Dict[str, int]:
        """System-wide memory accounting (drives Figure 6).

        Returns bytes by category plus page totals.  Label memory counts
        shared chunks once, mirroring the copy-on-write sharing of the
        kernel representation.
        """
        labels = []
        ep_bytes = 0
        process_bytes = 0
        for task in self.tasks.values():
            labels.append(task.send_label)
            labels.append(task.receive_label)
            if isinstance(task, EventProcess):
                ep_bytes += task.kernel_bytes()
            elif isinstance(task, Process):
                process_bytes += task.kernel_bytes()
        port_bytes = 0
        for port in self.ports.values():
            labels.append(port.label)
            port_bytes += port.memory_bytes()
            for qmsg in port.queue:
                labels.append(qmsg.effective_send)
                labels.append(qmsg.verify)
        label_bytes = shared_memory_bytes(labels)
        user_pages = self.accountant.in_use
        kernel_bytes = (
            process_bytes + ep_bytes + port_bytes + label_bytes + self.vnodes.memory_bytes()
        )
        return {
            "user_pages": user_pages,
            "user_bytes": user_pages * PAGE_SIZE,
            "process_bytes": process_bytes,
            "ep_bytes": ep_bytes,
            "port_bytes": port_bytes,
            "label_bytes": label_bytes,
            "vnode_bytes": self.vnodes.memory_bytes(),
            "kernel_bytes": kernel_bytes,
            "total_bytes": user_pages * PAGE_SIZE + kernel_bytes,
            "total_pages": user_pages + -(-kernel_bytes // PAGE_SIZE),
        }

    @property
    def steps_executed(self) -> int:
        return self._steps
