"""proofs/v1 — compiling asbcheck explorations into verified flow stubs.

asbcheck (:mod:`repro.analysis.check`) already decides, offline, whether
an edge can ever be dropped: the fully-eager exploration fires every
send edge in every reachable label state.  An edge that *delivers in
every reachable state* is a proven flow — at runtime the Figure 4 checks
on it are re-computation of a result the exploration has already
established.  This module compiles those edges into a ``proofs/v1``
document the kernel's :class:`~repro.kernel.elide.VerifiedFlowTable`
loads, so a proven edge is billed as the verified fastpath a trusting
kernel would take (DESIGN.md §15).

**What one stub claims.**  A deliver stub names the operand labels of
one proven delivery — ``ES``, ``pR``, ``QR``, ``V``, ``DR``, ``QS``,
``DS`` — plus the receiving port handle, and claims the ⋆-free cores of
the post-effect ``QS`` and ``QR``.  A send stub names ``PS`` and ``CS``
and claims the core of ``ES = PS ⊔ CS``.  The loader keys each stub on
the ⋆-factored operand keys of :mod:`repro.core.interning` (the keys the
label-op cache bills hits on), so a stub hits exactly when the live
operand values match the proof's up to what Figure 4 provably ignores.
T4 pin-abstracted check keys are never emitted: they name fresh
per-connection handles only through their levels.

**Why the emitter is trusted and the loader is not.**  The emitter
re-derives every verdict and result with :mod:`repro.core.labelops`.
The loader treats the document as untrusted input: every label body is
re-interned through :meth:`~repro.core.interning.InternTable.from_wire`,
which verifies its content fingerprint, so a corrupted body, a dangling
reference or a mis-shaped record fails the load with
:class:`ProofError`.  The claimed result cores are not
recomputed at load; the flow table compares them with what Figure 4
computes on each stub key's first use and quarantines itself on a
mismatch.  Since the kernel's labels always come from Figure 4, a wrong
claim costs bill accuracy, never a label.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Set, Tuple, Union

from repro.core import labelops
from repro.core.chunks import ChunkedLabel
from repro.core.interning import InternTable, check_key, delivery_keys, label_body, raise_key
from repro.core.labels import Label

from repro.analysis.check import Engine, Exploration
from repro.analysis.model import Topology

__all__ = [
    "ProofError",
    "compile_proofs",
    "load_proofs",
    "write_proofs",
    "LoadedProofs",
    "DeliverStub",
    "SendStub",
    "stub_key",
]

SCHEMA = "proofs/v1"


class ProofError(ValueError):
    """A malformed, corrupt, or unusable proofs document."""


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
    space cannot support an "always allowed" claim.  The document names
    labels by content fingerprint only.
    """
    engine = Engine(topology)
    live = Exploration(engine, set(), exact=False, max_states=max_states)
    if live.truncated:
        raise ProofError(
            "state space truncated at the max-states cap; "
            "refusing to emit proofs from a partial exploration"
        )
    chunk = engine.store.chunked
    pool = _Pool(InternTable())
    delivers: List[Dict[str, Any]] = []
    sends: List[Dict[str, Any]] = []
    send_seen: Set[Tuple[int, int]] = set()
    proven_edges = 0
    skipped_abstract = 0

    for edge in engine.edges:
        firings = [engine.fire(state, edge) for state in live.order]
        if not all(f.delivered for f in firings):
            continue
        proven_edges += 1
        port_handle = topology.ports[edge.port].handle
        pl = chunk(edge.pr)
        # The pool names every proven edge's pR, whether or not any of
        # its stubs survives the T4 skip below.
        pool.ref(pl)
        cs, ds, v, dr = chunk(edge.cs), chunk(edge.ds), chunk(edge.v), chunk(edge.dr)
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
            es = labelops.raise_receive(ps, cs, None)
            # The exploration proved this instance delivers; re-derive the
            # verdicts with the fused operators so the emitted claim never
            # rests on the model alone.
            if not dr.leq(pl, None) or not labelops.check_send(es, qr, dr, v, pl, None):
                raise ProofError(
                    f"edge {edge.name!r}: exploration and reference "
                    "semantics disagree on a proven delivery"
                )
            if check_key(es, qr, dr, v, pl)[1]:
                skipped_abstract += 1
                continue
            new_qs = labelops.apply_send_effects(qs, es, ds, None)
            new_qr = labelops.raise_receive(qr, dr, None)
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
                    "new_qs_core": pool.ref(new_qs.without_stars()),
                    "new_qr_core": pool.ref(new_qr.without_stars()),
                }
            )
            # One send stub per distinct (PS, CS): the ES = PS ⊔ CS join
            # at send time is the same proven math.
            if (ps_id, edge.cs) not in send_seen:
                send_seen.add((ps_id, edge.cs))
                sends.append(
                    {
                        "edge": edge.name,
                        "sender": edge.sender,
                        "ps": pool.ref(ps),
                        "cs": pool.ref(cs),
                        "es_core": pool.ref(es.without_stars()),
                    }
                )
    return {
        "schema": SCHEMA,
        "tool": "asbcheck",
        "topology": {"name": topology.name},
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
    }


def write_proofs(doc: Dict[str, Any], path: Union[str, Path]) -> None:
    Path(path).write_text(
        json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


# -- loading -----------------------------------------------------------------------


def stub_key(port: int, keys: Tuple[int, int, int]) -> int:
    """A deliver stub's key: the port and the delivery's three operand
    keys (:func:`~repro.core.interning.delivery_keys`)."""
    return hash((port, *keys))


class DeliverStub:
    """One loaded deliver stub: the document's claimed result cores."""

    __slots__ = ("new_qs_core", "new_qr_core")

    def __init__(self, new_qs_core: ChunkedLabel, new_qr_core: ChunkedLabel) -> None:
        self.new_qs_core = new_qs_core
        self.new_qr_core = new_qr_core


class SendStub:
    """One loaded send stub: the claimed ``ES = PS ⊔ CS`` core."""

    __slots__ = ("es_core",)

    def __init__(self, es_core: ChunkedLabel) -> None:
        self.es_core = es_core


class LoadedProofs:
    """A verified-and-indexed ``proofs/v1`` document.

    ``deliver`` maps the :func:`stub_key` of the port and the
    :func:`~repro.core.interning.delivery_keys` of the assumed labels to
    :class:`DeliverStub`; ``send`` maps the
    :func:`raise_key` of ``(PS, CS)`` to :class:`SendStub`.  The claimed
    result cores are stored verbatim from the document, never recomputed.
    """

    def __init__(self) -> None:
        self.deliver: Dict[int, DeliverStub] = {}
        self.send: Dict[int, SendStub] = {}
        self.topology_name: str = ""
        self.stats: Dict[str, Any] = {}


def _section(doc: Dict[str, Any], key: str, kind: type) -> Any:
    """``doc[key]`` checked to be a JSON object (``dict``) or array
    (``list``); absent or ``null`` reads as empty."""
    value = doc.get(key)
    if value is None:
        return kind()
    if not isinstance(value, kind):
        raise ProofError(f"{key!r} must be a JSON {'object' if kind is dict else 'array'}")
    return value


def _records(doc: Dict[str, Any], key: str) -> List[Dict[str, Any]]:
    records = _section(doc, key, list)
    for record in records:
        if not isinstance(record, dict):
            raise ProofError(f"{key!r} holds a non-object record: {record!r}")
    return records


def _pool_from_json(doc: Dict[str, Any], table: InternTable) -> Dict[str, ChunkedLabel]:
    pool: Dict[str, ChunkedLabel] = {}
    labels = doc.get("labels")
    if not isinstance(labels, dict):
        raise ProofError("proofs document has no label pool")
    for fp_hex, body in labels.items():
        try:
            fp = int(fp_hex, 16)
            entries = {int(h): int(lvl) for h, lvl in body["entries"]}
            label = ChunkedLabel.from_label(Label(entries, int(body["default"])))
        except (KeyError, TypeError, ValueError) as err:
            raise ProofError(f"malformed label {fp_hex!r}: {err}") from err
        try:
            pool[fp_hex] = table.from_wire(fp, label_body(label))
        except (KeyError, ValueError) as err:
            raise ProofError(str(err)) from err
    return pool


def load_proofs(
    source: Union[str, Path, Dict[str, Any]], table: InternTable
) -> LoadedProofs:
    """Load and index a ``proofs/v1`` document, verifying every label
    body against its content fingerprint through *table*
    (:meth:`InternTable.from_wire`).  Stub keys are computed from the
    assumed labels; the claimed result cores are resolved from the
    (verified) pool but deliberately not re-derived — see the class
    docstring.
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
        got = pool.get(ref) if isinstance(ref, str) else None
        if got is None:
            raise ProofError(f"record references unknown label {ref!r} ({field})")
        return got

    # Any other key is ignored: older documents also carry the worldview
    # the proofs assumed and a topology fingerprint, and still load.
    loaded = LoadedProofs()
    loaded.topology_name = str(_section(doc, "topology", dict).get("name", ""))
    loaded.stats = dict(_section(doc, "stats", dict))
    for record in _records(doc, "delivers"):
        es, pl, qr = label(record, "es"), label(record, "pl"), label(record, "qr")
        v, dr = label(record, "v"), label(record, "dr")
        qs, ds = label(record, "qs"), label(record, "ds")
        try:
            port = int(record["port"])
        except (KeyError, TypeError, ValueError) as err:
            raise ProofError(f"malformed deliver record: {err}") from err
        loaded.deliver[stub_key(port, delivery_keys(es, pl, qr, v, dr, qs, ds))] = DeliverStub(
            label(record, "new_qs_core"), label(record, "new_qr_core")
        )
    for record in _records(doc, "sends"):
        ps, cs = label(record, "ps"), label(record, "cs")
        loaded.send[raise_key(ps, cs)] = SendStub(label(record, "es_core"))
    return loaded
