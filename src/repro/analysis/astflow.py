"""AST-level label-flow analysis of simulated programs.

Simulated programs are Python generators that ``yield`` syscall objects
from :mod:`repro.kernel.syscalls`.  That convention is a gift to static
analysis: every kernel interaction is a syntactically recognizable
``yield <Syscall>(...)`` expression, so the complete syscall behaviour of
a program is visible in its AST — no call-graph reconstruction through an
FFI, no pointer analysis.

:class:`ProgramAnalyzer` abstract-interprets one generator function:

- it walks the function body in control-flow order (branch states are
  hulled at joins, loop bodies are iterated to an interval fixpoint —
  the syscall-flow graph of a structured Python function *is* its AST);
- it tracks an :class:`~repro.analysis.intervals.AbstractState` — interval
  abstractions of the process send/receive labels — plus a small symbolic
  environment mapping local names to the ports, handles, channels and
  labels they hold;
- at every ``yield Send(...)`` (and ``ChangeLabel``) site it evaluates
  the rule catalogue of :mod:`repro.analysis.rules` against the abstract
  Figure 4 check.

Entry states: a module-level (or closure) generator taking a single
``ctx`` parameter is a *process body* and starts from the fresh-process
labels PS = {1}, PR = {2}; everything else — event bodies ``(ectx, msg)``,
RPC helpers, methods — starts from
:meth:`~repro.analysis.intervals.AbstractState.unknown_history`, because
an event process inherits whatever its base accumulated and a helper can
be called from anywhere.  The fresh state is what lets the analyzer prove
"definitely holds no ⋆" before the first receive; after a receive,
anything may have been granted and must-claims narrow to tracked tokens.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

from repro.analysis import rules as R
from repro.analysis.intervals import (
    AbstractLabel,
    AbstractState,
    Interval,
    IV_L0,
    IV_L1,
    IV_STAR,
    TOP,
    check_send_interval,
    exact,
)
from repro.core.levels import L1, L2, L3, STAR

#: Names of the syscall dataclasses a program may yield.
SYSCALL_NAMES = frozenset(
    {
        "NewHandle",
        "NewPort",
        "DissociatePort",
        "SetPortLabel",
        "Send",
        "Recv",
        "Spawn",
        "Exit",
        "ChangeLabel",
        "GetLabels",
        "GetEnv",
        "Compute",
        "EpCheckpoint",
        "EpYield",
        "EpClean",
        "EpExit",
    }
)

#: Level constants resolvable in label literals.
LEVEL_CONSTS = {"STAR": STAR, "L0": 0, "L1": L1, "L2": L2, "L3": L3}

#: Positional argument order of the Send dataclass, which is also the
#: leading signature of ``Channel.call`` / ``Channel.call_nowait``.
SEND_FIELDS = (
    "port",
    "payload",
    "cs",
    "ds",
    "v",
    "dr",
    "transfer",
)

#: ``Channel`` methods that send before they receive.
CHANNEL_SENDS = ("call", "call_nowait")

#: ``ipc.rpc`` sub-generators that send to a port we cannot name and
#: receive nothing: ``Request.answer`` / ``.error`` and ``announce``.
#: Their label keywords are ``Send``'s; every other argument is payload.
REPLY_SENDS = ("answer", "error", "announce")
LABEL_FIELDS = ("cs", "ds", "v", "dr")

#: What ``yield from`` may name that makes a syscall on our behalf.
RPC_NAMES = CHANNEL_SENDS + REPLY_SENDS + ("open_port",)

MAX_LOOP_ITERATIONS = 8


# -- symbolic values --------------------------------------------------------------


@dataclass(frozen=True)
class Unknown:
    """A value the analysis cannot track."""


UNKNOWN = Unknown()


@dataclass(frozen=True)
class PortVal:
    """A port handle created by this program (``yield NewPort()``)."""

    token: str


@dataclass(frozen=True)
class HandleVal:
    """A compartment handle created by this program (``yield NewHandle()``)."""

    token: str


@dataclass(frozen=True)
class ChannelVal:
    """An ``ipc.rpc.Channel`` whose reply port we may know."""

    port: Union[PortVal, Unknown]


@dataclass(frozen=True)
class MsgVal:
    """A received Message (payload contents unknown)."""


@dataclass(frozen=True)
class LabelVal:
    """A Label expression resolved to its interval abstraction."""

    label: AbstractLabel


Value = Union[Unknown, PortVal, HandleVal, ChannelVal, MsgVal, LabelVal]


@dataclass(frozen=True)
class PortStatus:
    """What the analysis knows about a created port's label ``pR``."""

    label: AbstractLabel

    def hull(self, other: "PortStatus") -> "PortStatus":
        return PortStatus(self.label.hull(other.label))


class FlowState:
    """Mutable per-path analysis state: abstract labels + environment."""

    __slots__ = ("abstract", "env", "ports", "terminated")

    def __init__(
        self,
        abstract: AbstractState,
        env: Optional[Dict[str, Value]] = None,
        ports: Optional[Dict[str, PortStatus]] = None,
        terminated: bool = False,
    ):
        self.abstract = abstract
        self.env: Dict[str, Value] = dict(env or {})
        self.ports: Dict[str, PortStatus] = dict(ports or {})
        self.terminated = terminated

    def copy(self) -> "FlowState":
        return FlowState(self.abstract.copy(), self.env, self.ports, self.terminated)

    def hull(self, other: "FlowState") -> "FlowState":
        if self.terminated and not other.terminated:
            return other.copy()
        if other.terminated and not self.terminated:
            return self.copy()
        env: Dict[str, Value] = {}
        for name in set(self.env) & set(other.env):
            if self.env[name] == other.env[name]:
                env[name] = self.env[name]
        ports: Dict[str, PortStatus] = {}
        for token in set(self.ports) | set(other.ports):
            a, b = self.ports.get(token), other.ports.get(token)
            if a is None:
                ports[token] = b  # type: ignore[assignment]
            elif b is None:
                ports[token] = a
            else:
                ports[token] = a.hull(b)
        return FlowState(
            self.abstract.hull(other.abstract),
            env,
            ports,
            self.terminated and other.terminated,
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FlowState):
            return NotImplemented
        return (
            self.abstract == other.abstract
            and self.env == other.env
            and self.ports == other.ports
            and self.terminated == other.terminated
        )


# -- program discovery -------------------------------------------------------------


@dataclass
class Program:
    """One discovered simulated-program generator."""

    node: ast.FunctionDef
    qualname: str
    fresh: bool  # fresh-process entry state vs unknown history


def _callee_name(call: ast.Call) -> Optional[str]:
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _own_nodes(fn: ast.FunctionDef):
    """Walk *fn*'s body without descending into nested function scopes."""
    stack: List[ast.AST] = list(fn.body)
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        stack.extend(ast.iter_child_nodes(node))


def _yields_syscalls(fn: ast.FunctionDef) -> bool:
    """True when *fn* yields a syscall itself or makes one through
    ``yield from`` a ``Channel`` / ``Request`` method or an ``ipc.rpc``
    helper."""
    for node in _own_nodes(fn):
        if isinstance(node, (ast.Yield, ast.YieldFrom)) and isinstance(
            node.value, ast.Call
        ):
            names = SYSCALL_NAMES if isinstance(node, ast.Yield) else RPC_NAMES
            if _callee_name(node.value) in names:
                return True
    return False


def _is_fresh_entry(fn: ast.FunctionDef) -> bool:
    """A process body: exactly one parameter, canonically ``ctx``.

    Event bodies take ``(ectx, msg)``, handlers ``(ectx, request)``, RPC
    helpers arbitrary signatures — all get the unknown-history state.
    """
    args = fn.args
    if args.vararg or args.kwarg or args.kwonlyargs or args.posonlyargs:
        return False
    if len(args.args) != 1:
        return False
    return args.args[0].arg in ("ctx", "ectx")


def discover_programs(tree: ast.Module) -> List[Program]:
    """Find every simulated-program generator in a parsed module."""
    programs: List[Program] = []

    def visit(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.FunctionDef):
                qual = f"{prefix}{child.name}"
                if _yields_syscalls(child):
                    programs.append(Program(child, qual, _is_fresh_entry(child)))
                visit(child, qual + ".")
            elif isinstance(child, ast.AsyncFunctionDef):
                continue
            else:
                visit(child, prefix)

    visit(tree, "")
    return programs


# -- the analyzer ------------------------------------------------------------------


class ProgramAnalyzer:
    """Abstract interpretation of one program generator."""

    def __init__(self, program: Program, path: str):
        self.program = program
        self.path = path
        self.diagnostics: List[R.Diagnostic] = []
        #: token -> pretty source-level name, for messages.
        self.names: Dict[str, str] = {}
        #: Port tokens granted/opened/transferred anywhere in the program
        #: (flow-insensitive: a grant in a later message still counts).
        self.ever_reachable: Set[str] = set()
        #: Deferred ASB004 candidates: (token, line, col).
        self.leak_candidates: List[Tuple[str, int, int]] = []
        #: Send sites evaluated against the rule catalogue (reporting
        #: passes only) — what "0 findings" is zero findings *out of*.
        self.sends_checked = 0
        self._reported: Set[Tuple[int, int, str, str]] = set()
        self._report = True

    # -- public ------------------------------------------------------------------

    def run(self) -> List[R.Diagnostic]:
        entry = (
            AbstractState.fresh_process()
            if self.program.fresh
            else AbstractState.unknown_history()
        )
        state = FlowState(entry)
        self.exec_block(self.program.node.body, state)
        self._flush_leaks()
        self.diagnostics.sort(key=lambda d: (d.line, d.col, d.rule))
        return self.diagnostics

    # -- reporting ------------------------------------------------------------------

    def emit(self, node: ast.AST, rule: str, message: str) -> None:
        if not self._report:
            return
        line = getattr(node, "lineno", self.program.node.lineno)
        col = getattr(node, "col_offset", 0) + 1
        key = (line, col, rule, message)
        if key in self._reported:
            return
        self._reported.add(key)
        self.diagnostics.append(
            R.Diagnostic(
                path=self.path,
                line=line,
                col=col,
                rule=rule,
                message=message,
                function=self.program.qualname,
            )
        )

    def describe(self, token: str) -> str:
        if token in self.names:
            return self.names[token]
        if token.startswith("expr:"):
            return token[len("expr:"):]
        return token

    # -- statement walking ----------------------------------------------------------

    def exec_block(self, stmts: Sequence[ast.stmt], state: FlowState) -> FlowState:
        for stmt in stmts:
            if state.terminated:
                break
            state = self.exec_stmt(stmt, state)
        return state

    def exec_stmt(self, stmt: ast.stmt, state: FlowState) -> FlowState:
        if isinstance(stmt, ast.Expr):
            self.eval_expr(stmt.value, state)
            return state
        if isinstance(stmt, ast.Assign):
            value = self.eval_expr(stmt.value, state)
            for target in stmt.targets:
                self.bind(target, value, state)
            return state
        if isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                value = self.eval_expr(stmt.value, state)
                self.bind(stmt.target, value, state)
            return state
        if isinstance(stmt, ast.AugAssign):
            self.eval_expr(stmt.value, state)
            if isinstance(stmt.target, ast.Name):
                state.env.pop(stmt.target.id, None)
            return state
        if isinstance(stmt, ast.Return):
            if stmt.value is not None:
                self.eval_expr(stmt.value, state)
            state.terminated = True
            return state
        if isinstance(stmt, ast.Raise):
            state.terminated = True
            return state
        if isinstance(stmt, ast.If):
            self.eval_expr(stmt.test, state)
            then = self.exec_block(stmt.body, state.copy())
            other = self.exec_block(stmt.orelse, state.copy())
            return then.hull(other)
        if isinstance(stmt, (ast.While, ast.For)):
            return self.exec_loop(stmt, state)
        if isinstance(stmt, ast.Try):
            body = self.exec_block(stmt.body, state.copy())
            merged = state.hull(body)  # handlers may run from any point
            for handler in stmt.handlers:
                handled = self.exec_block(handler.body, merged.copy())
                merged = merged.hull(handled)
            if stmt.orelse:
                merged = merged.hull(self.exec_block(stmt.orelse, body.copy()))
            if stmt.finalbody:
                merged = self.exec_block(stmt.finalbody, merged)
            return merged
        if isinstance(stmt, ast.With):
            for item in stmt.items:
                self.eval_expr(item.context_expr, state)
            return self.exec_block(stmt.body, state)
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            return state  # analyzed as its own program if it yields syscalls
        if isinstance(stmt, (ast.Break, ast.Continue, ast.Pass)):
            return state
        if isinstance(stmt, (ast.Import, ast.ImportFrom, ast.Global, ast.Nonlocal)):
            return state
        if isinstance(stmt, ast.Delete):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    state.env.pop(target.id, None)
            return state
        if isinstance(stmt, ast.Assert):
            self.eval_expr(stmt.test, state)
            return state
        # Anything else: evaluate child expressions for their yields.
        for child in ast.iter_child_nodes(stmt):
            if isinstance(child, ast.expr):
                self.eval_expr(child, state)
        return state

    def exec_loop(self, stmt: Union[ast.While, ast.For], state: FlowState) -> FlowState:
        if isinstance(stmt, ast.While):
            self.eval_expr(stmt.test, state)
        else:
            self.eval_expr(stmt.iter, state)
            if isinstance(stmt.target, ast.Name):
                state.env.pop(stmt.target.id, None)
        # Phase 1: silent fixpoint of the loop-entry state (the body may
        # receive messages, create ports, raise labels — its effects must
        # be folded into the state its own start sees).
        self._report = False
        entry = state.copy()
        for _ in range(MAX_LOOP_ITERATIONS):
            after = self.exec_block(stmt.body, entry.copy())
            merged = entry.hull(after)
            if merged == entry:
                break
            entry = merged
        self._report = True
        # Phase 2: one reporting pass from the stabilized entry state.
        exit_state = self.exec_block(stmt.body, entry.copy())
        out = state.hull(entry.hull(exit_state))
        if stmt.orelse:
            out = self.exec_block(stmt.orelse, out)
        return out

    def bind(self, target: ast.expr, value: Value, state: FlowState) -> None:
        if isinstance(target, ast.Name):
            state.env[target.id] = value
            token = getattr(value, "token", None)
            if token is None and isinstance(value, ChannelVal) and isinstance(
                value.port, PortVal
            ):
                self.names.setdefault(value.port.token, f"{target.id}.port")
            if isinstance(token, str):
                self.names.setdefault(token, target.id)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self.bind(element, UNKNOWN, state)
        # Attribute/Subscript targets: untracked.

    # -- expression evaluation ---------------------------------------------------------

    def eval_expr(self, node: ast.expr, state: FlowState) -> Value:
        if isinstance(node, ast.Yield):
            if isinstance(node.value, ast.Call):
                name = _callee_name(node.value)
                if name in SYSCALL_NAMES:
                    return self.apply_syscall(name, node.value, state)
            if node.value is not None:
                self.eval_expr(node.value, state)
            return UNKNOWN
        if isinstance(node, ast.YieldFrom):
            return self.apply_yield_from(node, state)
        if isinstance(node, ast.Name):
            return state.env.get(node.id, UNKNOWN)
        if isinstance(node, ast.Attribute):
            base = self.eval_expr(node.value, state)
            if isinstance(base, ChannelVal) and node.attr == "port":
                return base.port
            return UNKNOWN
        if isinstance(node, ast.Call):
            return self.eval_call(node, state)
        if isinstance(node, ast.IfExp):
            self.eval_expr(node.test, state)
            a = self.eval_expr(node.body, state)
            b = self.eval_expr(node.orelse, state)
            return a if a == b else UNKNOWN
        # Generic: evaluate children (to execute any nested yields).
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                self.eval_expr(child, state)
        return UNKNOWN

    def eval_call(self, node: ast.Call, state: FlowState) -> Value:
        name = _callee_name(node)
        if name in SYSCALL_NAMES:
            # A bare (non-yielded) syscall construction: no kernel effect,
            # but Send(...) objects built and yielded elsewhere are rare
            # enough that we treat construction as the site of record.
            return UNKNOWN
        # Channel(port): remember the wrapped port.
        if name == "Channel" and node.args and not node.keywords:
            inner = self.eval_expr(node.args[0], state)
            if isinstance(inner, PortVal):
                return ChannelVal(inner)
            return ChannelVal(UNKNOWN)
        for arg in node.args:
            self.eval_expr(arg, state)
        for kw in node.keywords:
            self.eval_expr(kw.value, state)
        label = self.eval_label(node, state)
        if label is not None:
            return LabelVal(label)
        return UNKNOWN

    def apply_yield_from(self, node: ast.YieldFrom, state: FlowState) -> Value:
        """``yield from`` a sub-generator.  ``open_port`` / ``Channel.open``
        are modelled exactly (new port, opened, ⋆ held); ``<channel>.call``
        / ``.call_nowait`` is a ``Send`` of its leading arguments followed
        by a receive; ``<request>.answer`` / ``.error`` and ``announce``
        are a ``Send`` to a port we cannot name whose payload is their
        non-label arguments; everything else may receive messages on our
        behalf, so the state is widened."""
        call = node.value
        if isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute):
            if call.func.attr in CHANNEL_SENDS and isinstance(
                self.resolve(call.func.value, state), ChannelVal
            ):
                self.apply_send(call, self._bind_args(call, SEND_FIELDS), state)
                state.abstract = state.abstract.after_receive()
                return UNKNOWN
            if (
                call.func.attr == "open"
                and isinstance(call.func.value, ast.Name)
                and call.func.value.id == "Channel"
            ):
                return ChannelVal(self.apply_open_port(call, state))
        if isinstance(call, ast.Call) and _callee_name(call) in REPLY_SENDS:
            return self.apply_send(call, self._reply_args(call), state)
        if isinstance(call, ast.Call) and _callee_name(call) == "open_port":
            return self.apply_open_port(call, state)
        if isinstance(call, ast.expr):
            self.eval_expr(call, state)
        state.abstract = state.abstract.after_receive()
        return UNKNOWN

    def apply_open_port(self, call: ast.Call, state: FlowState) -> PortVal:
        """``open_port(label=None)``: ``NewPort`` then a verbatim
        ``SetPortLabel`` — ``{3}`` unless a label is given."""
        token = f"port@L{call.lineno}"
        state.abstract.ps = state.abstract.ps.with_entry(token, IV_STAR)
        args = self._bind_args(call, ("label",))
        port_label = AbstractLabel.top()
        if args:
            port_label = self._label_arg(next(iter(args.values())), state)
        state.ports[token] = PortStatus(port_label)
        if not self._definitely_closed(port_label, token):
            self.ever_reachable.add(token)
        return PortVal(token)

    def _reply_args(self, call: ast.Call) -> Dict[str, ast.expr]:
        """``Send``-shaped arguments of a ``REPLY_SENDS`` call: the label
        keywords as they are, every other argument gathered into the
        payload."""
        args = self._bind_args(call, ())
        fields = [node for name, node in args.items() if name not in LABEL_FIELDS]
        bound = {name: node for name, node in args.items() if name in LABEL_FIELDS}
        bound["payload"] = ast.Tuple(elts=call.args + fields, ctx=ast.Load())
        return bound

    # -- syscall effects -----------------------------------------------------------------

    def apply_syscall(self, name: str, call: ast.Call, state: FlowState) -> Value:
        if name == "NewPort":
            token = f"port@L{call.lineno}"
            state.abstract.ps = state.abstract.ps.with_entry(token, IV_STAR)
            base: Optional[AbstractLabel] = None
            if call.args:
                base = self.eval_label(call.args[0], state)
            for kw in call.keywords:
                if kw.arg == "label":
                    base = self.eval_label(kw.value, state)
            if base is None and (call.args or call.keywords):
                base = AbstractLabel.unknown()
            if base is None:
                base = AbstractLabel.top()
            # Figure 4: pR ← L, then pR(p) ← 0.
            state.ports[token] = PortStatus(base.with_entry(token, IV_L0))
            return PortVal(token)
        if name == "NewHandle":
            token = f"handle@L{call.lineno}"
            state.abstract.ps = state.abstract.ps.with_entry(token, IV_STAR)
            return HandleVal(token)
        if name in ("Recv", "EpYield"):
            state.abstract = state.abstract.after_receive()
            return MsgVal()
        if name == "Send":
            return self.apply_send(call, self._bind_args(call, SEND_FIELDS), state)
        if name == "ChangeLabel":
            return self.apply_change_label(call, state)
        if name == "SetPortLabel":
            args = self._bind_args(call, ("port", "label"))
            port = self.resolve(args.get("port"), state)
            if isinstance(port, PortVal):
                label = (
                    self.eval_label(args["label"], state)
                    if args.get("label") is not None
                    else None
                )
                if label is None:
                    label = AbstractLabel.unknown()
                state.ports[port.token] = PortStatus(label)
                if not self._definitely_closed(label, port.token):
                    self.ever_reachable.add(port.token)
            return UNKNOWN
        if name == "DissociatePort":
            return UNKNOWN
        if name in ("Exit", "EpExit"):
            state.terminated = True
            return UNKNOWN
        if name == "Spawn":
            # The child is its own program; inherit_labels only copies
            # labels *to* the child, the parent is unaffected.
            return UNKNOWN
        # GetLabels, GetEnv, Compute, EpCheckpoint, EpClean: no label effect.
        return UNKNOWN

    def apply_change_label(self, call: ast.Call, state: FlowState) -> Value:
        args = self._bind_args(call, ("send", "receive", "raise_receive", "drop_send"))
        abstract = state.abstract
        if args.get("drop_send") is not None:
            node = args["drop_send"]
            for element in getattr(node, "elts", []):
                token = self.token_for(element, state)
                if token is not None:
                    abstract.ps = abstract.ps.without(token)
        if args.get("raise_receive") is not None:
            node = args["raise_receive"]
            if isinstance(node, ast.Dict):
                for key, value in zip(node.keys, node.values):
                    if key is None:
                        continue
                    token = self.token_for(key, state)
                    if token is None:
                        continue
                    level = self.eval_level(value)
                    current = abstract.pr.at(token)
                    if level.lo > current.hi and not state.abstract.may_hold_star(token):
                        self.emit(
                            call,
                            R.DECLASSIFY_NO_STAR,
                            f"raise_receive of {self.describe(token)} to "
                            f"{level!r} needs PS({self.describe(token)}) = *, "
                            "which this process provably does not hold; the "
                            "kernel will raise InvalidArgument",
                        )
                    abstract.pr = abstract.pr.with_entry(token, current.hull(level))
            else:
                abstract.pr = abstract.pr.widened()
        if args.get("send") is not None:
            label = self.eval_label(args["send"], state)
            abstract.ps = label if label is not None else AbstractLabel.unknown()
        if args.get("receive") is not None:
            label = self.eval_label(args["receive"], state)
            abstract.pr = label if label is not None else AbstractLabel.unknown()
        return UNKNOWN

    def apply_send(
        self, call: ast.Call, args: Dict[str, ast.expr], state: FlowState
    ) -> Value:
        """Evaluate the rule catalogue at one send site; *args* are its
        ``Send`` fields, however the site spells them."""
        if self._report:
            self.sends_checked += 1
        port_val = self.resolve(args.get("port"), state)

        cs = self._label_arg(args.get("cs"), state)
        ds = self._label_arg(args.get("ds"), state)
        v = self._label_arg(args.get("v"), state)
        dr = self._label_arg(args.get("dr"), state)

        ps = state.abstract.ps
        es = ps.join(cs) if cs is not None else ps
        qr = AbstractLabel.unknown()
        pr = AbstractLabel.unknown()
        if isinstance(port_val, PortVal) and port_val.token in state.ports:
            pr = state.ports[port_val.token].label

        verdict = check_send_interval(
            es,
            qr,
            dr if dr is not None else AbstractLabel.bottom(),
            v if v is not None else AbstractLabel.top(),
            pr,
        )

        # ASB001: the delivery check cannot pass.
        if verdict.never_passes:
            where = (
                "for every handle outside the explicit entries"
                if verdict.witness == "<default>"
                else f"at handle {self.describe(verdict.witness)}"
            )
            self.emit(
                call,
                R.NEVER_PASS,
                f"this send can never pass the delivery check: "
                f"ES ≥ {verdict.lhs_lo} exceeds (QR ⊔ DR) ⊓ V ⊓ pR ≤ "
                f"{verdict.rhs_hi} {where}; the kernel will drop it "
                "silently on every execution",
            )

        # ASB002: provable implicit contamination.
        if cs is None and not verdict.never_passes:
            creep = [
                token
                for token, iv in ps.entries.items()
                if iv.lo > L1
                and (v is None or v.at(token).hi >= iv.lo)
            ]
            if ps.default.lo > L1:
                creep.append("<default>")
            if creep:
                pretty = ", ".join(self.describe(t) for t in creep)
                self.emit(
                    call,
                    R.TAINT_CREEP,
                    f"send label provably carries taint above the default "
                    f"({pretty}) but the send states no cs=; the "
                    "receiver is contaminated implicitly (taint creep) — "
                    "declare the contamination or exclude it with v=",
                )

        # ASB003: decontamination without ⋆.
        self._check_decontaminate(call, state, ds, dr)

        # DS grants make ports reachable; transfer moves receive rights.
        if ds is not None:
            for token, iv in ds.entries.items():
                if iv.hi <= IV_L0.hi:
                    self.ever_reachable.add(token)
        transfer = args.get("transfer")
        if transfer is not None:
            for element in getattr(transfer, "elts", []):
                token = self.token_for(element, state)
                if token is not None:
                    self.ever_reachable.add(token)

        # ASB004: closed ports embedded in the payload (deferred —
        # a grant later in the program still redeems the reference).
        payload = args.get("payload")
        if payload is not None:
            for leaked in self._ports_in_payload(payload, state):
                status = state.ports.get(leaked.token)
                if status is None:
                    continue
                if self._definitely_closed(status.label, leaked.token):
                    self.leak_candidates.append(
                        (leaked.token, call.lineno, call.col_offset + 1)
                    )
        return UNKNOWN

    def _check_decontaminate(
        self,
        call: ast.Call,
        state: FlowState,
        ds: Optional[AbstractLabel],
        dr: Optional[AbstractLabel],
    ) -> None:
        abstract = state.abstract
        if ds is not None:
            for token, iv in ds.entries.items():
                if iv.hi < L3 and not abstract.may_hold_star(token):
                    self.emit(
                        call,
                        R.DECLASSIFY_NO_STAR,
                        f"ds= grants {self.describe(token)} "
                        f"below 3, which requires PS({self.describe(token)}) "
                        "= *; this process provably holds no * for it — the "
                        "kernel will silently drop the send",
                    )
            if ds.default.hi < L3 and abstract.ps.default.lo > STAR:
                self.emit(
                    call,
                    R.DECLASSIFY_NO_STAR,
                    "ds= lowers its default below 3, which "
                    "requires * at every handle; this process provably "
                    "cannot hold that — the kernel will silently drop the "
                    "send",
                )
        if dr is not None:
            for token, iv in dr.entries.items():
                if iv.lo > STAR and not abstract.may_hold_star(token):
                    self.emit(
                        call,
                        R.DECLASSIFY_NO_STAR,
                        f"dr= raises {self.describe(token)} "
                        f"above *, which requires PS({self.describe(token)}) "
                        "= *; this process provably holds no * for it — the "
                        "kernel will silently drop the send",
                    )
            if dr.default.lo > STAR and abstract.ps.default.lo > STAR:
                self.emit(
                    call,
                    R.DECLASSIFY_NO_STAR,
                    "dr= raises its default above *, which "
                    "requires * at every handle; this process provably "
                    "cannot hold that — the kernel will silently drop the "
                    "send",
                )

    # -- deferred ASB004 ----------------------------------------------------------------

    def _flush_leaks(self) -> None:
        seen: Set[Tuple[str, int]] = set()
        for token, line, col in self.leak_candidates:
            if token in self.ever_reachable:
                continue
            if (token, line) in seen:
                continue
            seen.add((token, line))
            pretty = self.describe(token)
            self.diagnostics.append(
                R.Diagnostic(
                    path=self.path,
                    line=line,
                    col=col,
                    rule=R.HANDLE_LEAK,
                    message=(
                        f"port {pretty} is embedded in a message payload while "
                        f"its port label is still the closed {{{pretty} 0}} and "
                        "no send ever grants it; receivers can never send to "
                        "it, so every reply routed there is silently dropped"
                    ),
                    function=self.program.qualname,
                )
            )

    def _ports_in_payload(self, node: ast.expr, state: FlowState) -> List[PortVal]:
        found: List[PortVal] = []
        for sub in ast.walk(node):
            if isinstance(sub, (ast.Name, ast.Attribute)):
                value = self.resolve(sub, state)
                if isinstance(value, PortVal):
                    found.append(value)
        return found

    def _definitely_closed(self, label: AbstractLabel, token: str) -> bool:
        """True when pR provably blocks every sender without ``p ⋆``:
        the port's own entry is ≤ 0 — the ``{p 0}`` minted by new_port."""
        return label.at(token).hi <= IV_L0.hi and not label.blurry

    # -- argument plumbing -----------------------------------------------------------

    def _bind_args(
        self, call: ast.Call, fields: Sequence[str]
    ) -> Dict[str, ast.expr]:
        bound: Dict[str, ast.expr] = {}
        for i, arg in enumerate(call.args):
            if i < len(fields):
                bound[fields[i]] = arg
        for kw in call.keywords:
            if kw.arg is not None:
                bound[kw.arg] = kw.value
        # Explicit None means "use the default", i.e. not given.
        return {
            name: node
            for name, node in bound.items()
            if not (isinstance(node, ast.Constant) and node.value is None)
        }

    def _label_arg(
        self, node: Optional[ast.expr], state: FlowState
    ) -> Optional[AbstractLabel]:
        if node is None:
            return None
        label = self.eval_label(node, state)
        return label if label is not None else AbstractLabel.unknown()

    # -- pure resolution (no kernel effects) ----------------------------------------

    def resolve(self, node: Optional[ast.expr], state: FlowState) -> Value:
        if node is None:
            return UNKNOWN
        if isinstance(node, ast.Name):
            return state.env.get(node.id, UNKNOWN)
        if isinstance(node, ast.Attribute):
            base = self.resolve(node.value, state)
            if isinstance(base, ChannelVal) and node.attr == "port":
                return base.port
            return UNKNOWN
        return UNKNOWN

    def token_for(self, node: ast.expr, state: FlowState) -> Optional[str]:
        """A stable symbolic-handle token for an expression used as a
        label key (or drop/transfer element)."""
        value = self.resolve(node, state)
        token = getattr(value, "token", None)
        if isinstance(token, str):
            return token
        try:
            text = ast.unparse(node)
        except Exception:  # pragma: no cover - unparse is total on 3.9+
            return None
        return f"expr:{text}"

    # -- label expression evaluation --------------------------------------------------

    def eval_level(self, node: Optional[ast.expr]) -> Interval:
        if node is None:
            return TOP
        if isinstance(node, ast.Name) and node.id in LEVEL_CONSTS:
            return exact(LEVEL_CONSTS[node.id])
        if isinstance(node, ast.Attribute) and node.attr in LEVEL_CONSTS:
            return exact(LEVEL_CONSTS[node.attr])
        if isinstance(node, ast.Constant) and isinstance(node.value, int) and not isinstance(node.value, bool):
            if STAR <= node.value <= L3:
                return exact(node.value)
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            if (
                isinstance(node.operand, ast.Constant)
                and node.operand.value == 1
            ):
                return IV_STAR
        return TOP

    def eval_label(
        self, node: Optional[ast.expr], state: FlowState
    ) -> Optional[AbstractLabel]:
        """Abstract a Label-valued expression; None when unrecognized."""
        if node is None:
            return None
        if isinstance(node, ast.Name):
            value = state.env.get(node.id)
            if isinstance(value, LabelVal):
                return value.label
            return None
        if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.BitOr, ast.BitAnd)):
            left = self.eval_label(node.left, state)
            right = self.eval_label(node.right, state)
            if left is not None and right is not None:
                return (
                    left.join(right)
                    if isinstance(node.op, ast.BitOr)
                    else left.meet(right)
                )
            return None
        if not isinstance(node, ast.Call):
            return None
        func = node.func
        # Label.top() / Label.bottom() / Label.uniform(l) / defaults.
        if isinstance(func, ast.Attribute):
            base_name = func.value.id if isinstance(func.value, ast.Name) else None
            if base_name == "Label":
                if func.attr == "top":
                    return AbstractLabel.top()
                if func.attr == "bottom":
                    return AbstractLabel.bottom()
                if func.attr == "uniform" and node.args:
                    return AbstractLabel({}, self.eval_level(node.args[0]))
                if func.attr == "send_default":
                    return AbstractLabel({}, IV_L1)
                if func.attr == "receive_default":
                    return AbstractLabel({}, exact(L2))
                return None
            if func.attr == "with_entry" and len(node.args) == 2:
                base = self.eval_label(func.value, state)
                if base is not None:
                    token = self.token_for(node.args[0], state)
                    iv = self.eval_level(node.args[1])
                    if token is not None:
                        return base.with_entry(token, iv)
                    return AbstractLabel(
                        base.entries, base.default.hull(iv), blurry=True
                    )
                return None
            if func.attr == "stars":
                base = self.eval_label(func.value, state)
                if base is not None:
                    entries = {
                        t: (IV_STAR if iv == IV_STAR else exact(L3))
                        if iv.exact
                        else Interval(STAR, L3)
                        for t, iv in base.entries.items()
                    }
                    default = (
                        IV_STAR if base.default == IV_STAR else exact(L3)
                    ) if base.default.exact else Interval(STAR, L3)
                    return AbstractLabel(entries, default, base.blurry)
                return None
            return None
        if not (isinstance(func, ast.Name) and func.id == "Label"):
            return None
        # Label(entries?, default?)
        entries_node: Optional[ast.expr] = None
        default_node: Optional[ast.expr] = None
        if len(node.args) >= 1:
            entries_node = node.args[0]
        if len(node.args) >= 2:
            default_node = node.args[1]
        for kw in node.keywords:
            if kw.arg == "entries":
                entries_node = kw.value
            elif kw.arg == "default":
                default_node = kw.value
        default_iv = self.eval_level(default_node) if default_node is not None else IV_L1
        entries: Dict[str, Interval] = {}
        blurry = False
        if entries_node is None or (
            isinstance(entries_node, ast.Constant) and entries_node.value is None
        ):
            pass
        elif isinstance(entries_node, ast.Dict):
            for key, value in zip(entries_node.keys, entries_node.values):
                iv = self.eval_level(value)
                if key is None:  # **expansion
                    blurry = True
                    default_iv = default_iv.hull(iv)
                    continue
                token = self.token_for(key, state)
                if token is None:
                    blurry = True
                    default_iv = default_iv.hull(iv)
                else:
                    entries[token] = iv
        elif isinstance(entries_node, ast.DictComp):
            blurry = True
            default_iv = default_iv.hull(self.eval_level(entries_node.value))
        else:
            blurry = True
            default_iv = TOP
        return AbstractLabel(entries, default_iv, blurry)
