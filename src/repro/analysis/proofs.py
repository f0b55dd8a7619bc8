"""proofs/v1 — compiling asbcheck explorations into verified flow stubs.

asbcheck (:mod:`repro.analysis.check`) already decides, offline, whether
an edge can ever be dropped: the fully-eager exploration fires every
send edge in every reachable label state.  An edge that *delivers in
every reachable state* is a proven flow — at runtime the Figure 4 checks
on it are pure re-computation of a result the exploration has already
established.  This module compiles those edges into a ``proofs/v1``
document the kernel's :class:`~repro.kernel.elide.VerifiedFlowTable`
loads, so a proven, still-valid edge skips the full check and applies
the precomputed QS/QR effect deltas instead (DESIGN.md §15).

**What one stub claims.**  A deliver stub is keyed on the concatenation
of the three ⋆-factored :mod:`repro.core.interning` plan keys — the
:func:`~repro.core.interning.check_plan` verdict key on
``(ES, QR, DR, V, pR)``, the :func:`~repro.core.interning.effects_plan`
key on ``(QS°, ES, DS)`` and the :func:`~repro.core.interning.raise_plan`
key on ``(QR°, DR)`` — plus the receiving port handle.  Its value is the
pair of ⋆-free result cores the Figure 4 effects produce on those
operands.  The claim is purely algebraic: *on these exact (factored)
operand values, requirement (4) and requirement (1) pass and the effects
yield these cores*.  The exploration only selects **which** operand
tuples are worth compiling (the ones reachable on proven edges); the
result cores themselves are recomputed here with the reference
:mod:`repro.core.labelops` operators at emit time, and the factoring
side conditions are re-walked by the kernel on the *live* operands at
probe time.  A live operand mismatch — different label value, different
port, a side condition that no longer holds — simply misses and falls
back to the PR 5 interned path, so a stale or foreign proof can cost
performance but never soundness.  T4 pin-abstracted keys are never
emitted: they name fresh per-connection handles only through their
levels and are a per-cache artifact, not a portable proof.

**Why the emitter is trusted and the loader is not.**  The emitter runs
in the analysis toolchain and computes every effect delta itself; the
loader (and the kernel behind it) treats the document as untrusted
input: every label body is re-interned through
:meth:`~repro.core.interning.InternTable.from_wire`, which verifies the
content fingerprint, but the claimed result cores are *not* recomputed
at load time — they flow into the applied labels, where the sampled
sanitizer re-derives every elided decision from reference semantics and
quarantines the table on the first mismatch.  That split is what the
adversarial battery (``tests/test_elision_adversarial.py``) pins down:
a corrupted label body fails the load, a corrupted effect delta is
flagged on its first elided use, and a proof for a different topology
never matches a key at all.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any, Dict, List, Set, Tuple, Union

from repro.core import labelops
from repro.core.chunks import ChunkedLabel
from repro.core.interning import (
    InternTable,
    apply_effects_tail,
    apply_raise_tail,
    check_plan,
    effects_plan,
    raise_plan,
)

from repro.analysis.check import Engine, Exploration
from repro.analysis.model import Topology

__all__ = [
    "ProofError",
    "compile_proofs",
    "load_proofs",
    "topology_fingerprint",
    "write_proofs",
    "LoadedProofs",
    "DeliverStub",
    "SendStub",
]

SCHEMA = "proofs/v1"


class ProofError(ValueError):
    """A malformed, corrupt, or unusable proofs document."""


def topology_fingerprint(topology: Topology) -> str:
    """Stable content id of a topology (hash of its canonical JSON)."""
    canonical = json.dumps(topology.to_json(), sort_keys=True, separators=(",", ":"))
    return hashlib.blake2b(canonical.encode("utf-8"), digest_size=16).hexdigest()


# -- emitting ----------------------------------------------------------------------


class _Pool:
    """Fingerprint-keyed label pool for the document body."""

    def __init__(self, table: InternTable) -> None:
        self.table = table
        self.labels: Dict[str, ChunkedLabel] = {}

    def ref(self, label: ChunkedLabel) -> str:
        fp = f"{self.table.fingerprint(label):016x}"
        self.labels.setdefault(fp, label)
        return fp

    def to_json(self) -> Dict[str, Any]:
        return {
            fp: {
                "default": label.default,
                "entries": [[h, lvl] for h, lvl in label.iter_entries()],
            }
            for fp, label in sorted(self.labels.items())
        }


def compile_proofs(topology: Topology, max_states: int = 200_000) -> Dict[str, Any]:
    """Explore *topology* and compile its always-allowed edges.

    Returns the ``proofs/v1`` document (a JSON-ready dict).  Raises
    :class:`ProofError` if the exploration truncates — a truncated state
    space cannot support an "always allowed" claim.  Labels are interned
    in a table private to this compilation; the document names them by
    content fingerprint only.
    """
    table = InternTable()
    engine = Engine(topology)
    live = Exploration(engine, set(), exact=False, max_states=max_states)
    if live.truncated:
        raise ProofError(
            "state space truncated at the max-states cap; "
            "refusing to emit proofs from a partial exploration"
        )
    store = engine.store
    pool = _Pool(table)
    delivers: List[Dict[str, Any]] = []
    sends: List[Dict[str, Any]] = []
    send_seen: Set[Tuple[int, int]] = set()
    covered_ports: Set[int] = set()
    covered_tasks: Set[str] = set()
    realms: Set[str] = set()
    port_labels: Dict[int, Set[str]] = {}
    proven_edges = 0
    skipped_abstract = 0

    def chunk(ident: int) -> ChunkedLabel:
        return table.intern(store.chunked(ident))

    for edge in engine.edges:
        firings = [engine.fire(state, edge) for state in live.order]
        if not all(f.delivered for f in firings):
            continue
        proven_edges += 1
        port_handle = topology.ports[edge.port].handle
        covered_ports.add(port_handle)
        covered_tasks.add(edge.sender)
        covered_tasks.add(edge.receiver)
        if edge.fork:
            realms.add(edge.receiver)
        pl = chunk(edge.pr)
        # Every pR the proofs assume for this port, recorded whether or
        # not any stub survives T4 skipping below: the kernel's
        # set_port_label invalidation tests membership in this set.
        port_labels.setdefault(port_handle, set()).add(pool.ref(pl))
        cs = chunk(edge.cs)
        ds = chunk(edge.ds)
        v = chunk(edge.v)
        dr = chunk(edge.dr)
        seen: Set[Tuple[int, int, int]] = set()
        for state in live.order:
            ps_id = state[2 * edge.s_idx]
            qs_id = state[2 * edge.r_idx]
            qr_id = state[2 * edge.r_idx + 1]
            if (ps_id, qs_id, qr_id) in seen:
                continue
            seen.add((ps_id, qs_id, qr_id))
            ps, qs, qr = chunk(ps_id), chunk(qs_id), chunk(qr_id)
            # ES = PS ⊔ CS, exactly as the kernel's send path computes it.
            es = table.intern(labelops.raise_receive(ps, cs, None))
            # The exploration proved this instance delivers; re-derive the
            # verdicts with the reference operators so the emitted claim
            # never rests on the model alone.
            if not dr.leq(pl, None) or not labelops.check_send(es, qr, dr, v, pl, None):
                raise ProofError(
                    f"edge {edge.name!r}: exploration and reference "
                    "semantics disagree on a proven delivery"
                )
            cplan = check_plan(table, es, qr, dr, v, pl)
            if cplan.abstracted:
                skipped_abstract += 1
                continue
            eplan = effects_plan(table, qs, es, ds)
            rplan = raise_plan(table, qr, dr)
            new_qs_core = table.intern(
                labelops.apply_send_effects(*eplan.exec_ops, None)
            )
            new_qr_core = table.intern(labelops.raise_receive(*rplan.exec_ops, None))
            # Emit-time soundness sanity: overlaying the cores must
            # reproduce the full-operand reference results bit for bit.
            full_qs = table.intern(labelops.apply_send_effects(qs, es, ds, None))
            full_qr = table.intern(labelops.raise_receive(qr, dr, None))
            if (
                apply_effects_tail(table, eplan, new_qs_core) is not full_qs
                or apply_raise_tail(table, rplan, new_qr_core) is not full_qr
            ):
                raise ProofError(
                    f"edge {edge.name!r}: ⋆-factored result does not "
                    "reproduce the reference result"
                )
            delivers.append(
                {
                    "edge": edge.name,
                    "port": port_handle,
                    "sender": edge.sender,
                    "receiver": edge.receiver,
                    "es": pool.ref(es),
                    "pl": pool.ref(pl),
                    "qr": pool.ref(qr),
                    "v": pool.ref(v),
                    "dr": pool.ref(dr),
                    "qs": pool.ref(qs),
                    "ds": pool.ref(ds),
                    "new_qs_core": pool.ref(new_qs_core),
                    "new_qr_core": pool.ref(new_qr_core),
                }
            )
            # One send stub per distinct (PS, CS): the ES = PS ⊔ CS join
            # at send time is the same proven math.
            splan = raise_plan(table, ps, cs)
            skey = (ps.intern_id, cs.intern_id)
            if skey not in send_seen:
                send_seen.add(skey)
                es_core = table.intern(labelops.raise_receive(*splan.exec_ops, None))
                sends.append(
                    {
                        "edge": edge.name,
                        "sender": edge.sender,
                        "ps": pool.ref(ps),
                        "cs": pool.ref(cs),
                        "es_core": pool.ref(es_core),
                    }
                )
    return {
        "schema": SCHEMA,
        "tool": "asbcheck",
        "topology": {
            "name": topology.name,
            "fingerprint": topology_fingerprint(topology),
        },
        "stats": {
            "states": len(live.order),
            "edges": len(engine.edges),
            "proven_edges": proven_edges,
            "deliver_stubs": len(delivers),
            "send_stubs": len(sends),
            "skipped_abstract_keys": skipped_abstract,
        },
        "labels": pool.to_json(),
        "delivers": delivers,
        "sends": sends,
        "covered": {
            "ports": sorted(covered_ports),
            "tasks": sorted(covered_tasks),
            "realms": sorted(realms),
            "port_labels": {
                str(handle): sorted(fps) for handle, fps in sorted(port_labels.items())
            },
        },
    }


def write_proofs(doc: Dict[str, Any], path: Union[str, Path]) -> None:
    Path(path).write_text(
        json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


# -- loading -----------------------------------------------------------------------


class DeliverStub:
    """One loaded deliver stub: the document's claimed result cores."""

    __slots__ = ("edge", "sender", "receiver", "port", "new_qs_core", "new_qr_core")

    def __init__(
        self,
        edge: str,
        sender: str,
        receiver: str,
        port: int,
        new_qs_core: ChunkedLabel,
        new_qr_core: ChunkedLabel,
    ) -> None:
        self.edge = edge
        self.sender = sender
        self.receiver = receiver
        self.port = port
        self.new_qs_core = new_qs_core
        self.new_qr_core = new_qr_core


class SendStub:
    """One loaded send stub: the claimed ``ES = PS ⊔ CS`` core."""

    __slots__ = ("edge", "sender", "es_core")

    def __init__(self, edge: str, sender: str, es_core: ChunkedLabel) -> None:
        self.edge = edge
        self.sender = sender
        self.es_core = es_core


class LoadedProofs:
    """A verified-and-indexed ``proofs/v1`` document.

    ``deliver`` maps ``(port, check key, effects key, raise key)`` —
    the keys recomputed *here* from the assumed full labels with the
    same plan helpers the kernel uses — to :class:`DeliverStub`;
    ``send`` maps a :func:`raise_plan` key to :class:`SendStub`.  The
    claimed result cores are stored verbatim from the document (never
    recomputed), which is what lets the sanitizer catch a corrupted
    delta on its first elided use instead of silently repairing it.
    """

    def __init__(self) -> None:
        self.deliver: Dict[Tuple[Any, ...], DeliverStub] = {}
        self.send: Dict[Tuple[Any, ...], SendStub] = {}
        #: Strong references to every label the document names, plus the
        #: load-time plans.  The intern table holds canonical labels
        #: *weakly* — a value nobody references is collected and a later
        #: intern of it issues a fresh id — so the proofs must pin every
        #: assumed label and every derived plan operand (⋆-stripped
        #: cores) for their intern ids to stay canonical, or the stub
        #: keys would silently stop matching live labels.
        self.pool: Dict[str, ChunkedLabel] = {}
        self.pinned: List[Any] = []
        self.covered_ports: Set[int] = set()
        self.covered_tasks: Set[str] = set()
        self.expected_realms: Set[str] = set()
        #: Per covered task: the ⋆-free core ids of every QS/QR value the
        #: proofs assumed *for that task* — the membership set behind the
        #: "label write outside the proof's assumed set" invalidation.
        #: Per-task is load-bearing: a task ramping up through boot-time
        #: label states is outside its own assumed set on both sides of
        #: every write (content addressing already keeps its stubs from
        #: hitting), and only a task *leaving* its assumed set — warm
        #: state diverging from the proven world — invalidates.
        self.assumed_cores: Dict[str, Set[int]] = {}
        #: Per covered port: the intern ids of every pR value the proofs
        #: assumed for it.  ``set_port_label`` writing one of these is
        #: the recorded world replaying itself; anything else invalidates.
        self.port_labels: Dict[int, Set[int]] = {}
        self.topology_name: str = ""
        self.topology_fp: str = ""
        self.stats: Dict[str, Any] = {}


def _pool_from_json(doc: Dict[str, Any], table: InternTable) -> Dict[str, ChunkedLabel]:
    pool: Dict[str, ChunkedLabel] = {}
    labels = doc.get("labels")
    if not isinstance(labels, dict):
        raise ProofError("proofs document has no label pool")
    for fp_hex, body in labels.items():
        try:
            fp = int(fp_hex, 16)
            entries = [(int(h), int(lvl)) for h, lvl in body["entries"]]
            default = int(body["default"])
        except (KeyError, TypeError, ValueError) as err:
            raise ProofError(f"malformed label {fp_hex!r}: {err}") from err
        try:
            pool[fp_hex] = table.from_wire(fp, default, entries)
        except (KeyError, ValueError) as err:
            raise ProofError(str(err)) from err
    return pool


def load_proofs(
    source: Union[str, Path, Dict[str, Any]], table: InternTable
) -> LoadedProofs:
    """Load and index a ``proofs/v1`` document against *table* — the one
    the probing kernel interns its live labels into, since stub keys are
    intern-id tuples.

    Every label body is verified against its content fingerprint via
    :meth:`InternTable.from_wire`; stub keys are recomputed from the
    assumed labels with the shared plan helpers.  The claimed result
    cores are resolved from the (verified) pool but deliberately not
    re-derived — see the class docstring.
    """
    if isinstance(source, (str, Path)):
        try:
            doc = json.loads(Path(source).read_text(encoding="utf-8"))
        except (OSError, ValueError) as err:
            raise ProofError(f"cannot read proofs from {source}: {err}") from err
    else:
        doc = source
    if not isinstance(doc, dict) or doc.get("schema") != SCHEMA:
        raise ProofError(
            f"not a {SCHEMA} document: schema={doc.get('schema')!r}"
            if isinstance(doc, dict)
            else "proofs document must be a JSON object"
        )
    pool = _pool_from_json(doc, table)

    def label(record: Dict[str, Any], field: str) -> ChunkedLabel:
        ref = record.get(field)
        got = pool.get(ref)
        if got is None:
            raise ProofError(f"record references unknown label {ref!r} ({field})")
        return got

    loaded = LoadedProofs()
    loaded.pool = pool
    topo = doc.get("topology") or {}
    loaded.topology_name = str(topo.get("name", ""))
    loaded.topology_fp = str(topo.get("fingerprint", ""))
    loaded.stats = dict(doc.get("stats") or {})
    covered = doc.get("covered") or {}
    loaded.covered_ports = {int(p) for p in covered.get("ports", ())}
    loaded.covered_tasks = {str(t) for t in covered.get("tasks", ())}
    loaded.expected_realms = {str(t) for t in covered.get("realms", ())}
    for handle_str, fps in (covered.get("port_labels") or {}).items():
        ids = loaded.port_labels.setdefault(int(handle_str), set())
        for fp in fps:
            got = pool.get(fp)
            if got is None:
                raise ProofError(f"port_labels references unknown label {fp!r}")
            ids.add(got.intern_id)
    for record in doc.get("delivers", ()):
        es, pl, qr = label(record, "es"), label(record, "pl"), label(record, "qr")
        v, dr = label(record, "v"), label(record, "dr")
        qs, ds = label(record, "qs"), label(record, "ds")
        cplan = check_plan(table, es, qr, dr, v, pl)
        if cplan.abstracted:  # pragma: no cover - emitter never writes these
            continue
        eplan = effects_plan(table, qs, es, ds)
        rplan = raise_plan(table, qr, dr)
        try:
            port = int(record["port"])
        except (KeyError, TypeError, ValueError) as err:
            raise ProofError(f"malformed deliver record: {err}") from err
        key = (port, cplan.key, eplan.key, rplan.key)
        loaded.pinned.append((cplan, eplan, rplan))
        loaded.deliver[key] = DeliverStub(
            edge=str(record.get("edge", "")),
            sender=str(record.get("sender", "")),
            receiver=str(record.get("receiver", "")),
            port=port,
            new_qs_core=label(record, "new_qs_core"),
            new_qr_core=label(record, "new_qr_core"),
        )
        receiver_cores = loaded.assumed_cores.setdefault(
            str(record.get("receiver", "")), set()
        )
        receiver_cores.add(table.star_core(qs).intern_id)
        receiver_cores.add(table.star_core(qr).intern_id)
        loaded.port_labels.setdefault(port, set()).add(pl.intern_id)
    for record in doc.get("sends", ()):
        ps, cs = label(record, "ps"), label(record, "cs")
        splan = raise_plan(table, ps, cs)
        loaded.pinned.append(splan)
        loaded.send[splan.key] = SendStub(
            edge=str(record.get("edge", "")),
            sender=str(record.get("sender", "")),
            es_core=label(record, "es_core"),
        )
        loaded.assumed_cores.setdefault(
            str(record.get("sender", "")), set()
        ).add(table.star_core(ps).intern_id)
    return loaded
