"""Kernel-side verified-flow table: the bill of proof-guided check elision.

The :class:`VerifiedFlowTable` holds a loaded ``proofs/v1`` document
(:mod:`repro.analysis.proofs`) indexed by stub key.  Before the Figure 4
machinery, delivery probes the table with the receiving port handle and
the ⋆-factored operand keys of :mod:`repro.core.interning`; a hit means
asbcheck proved this (port, label-values) instance always-allowed, and a
kernel that trusted the proof would have skipped requirements (4) and
(1) and applied the proof's effect cores.  Send probes work the same way
for the ``ES = PS ⊔ CS`` join.

A stub changes the bill, never a label.  On a hit the table still runs
the plain fused :mod:`repro.core.labelops` operations on the full live
operands (with no :class:`~repro.core.chunks.OpStats`: the work a
trusting kernel skipped), and the engine bills the flat verified
fastpath instead.  On the first use of every stub key the table compares
the document's claimed cores with the cores of what Figure 4 computed,
and a mismatch — or a claimed delivery that drops — quarantines the
whole table for the rest of the run.  So a bad proof can cost bill
accuracy, never a label, and keys are value digests, so a proof compiled
for a different world simply never hits.  Nothing else about the run
concerns the table: a relabel, a port passage or a new realm that leaves
the proven values changes the operand digests, and the next probe
misses; one that lands on proven values hits a key whose claim is
already confirmed, and the bill is the same math (DESIGN.md §15.3).

Consecutive probes with the same stub key are counted as a batch
(``batch_drains``, ``batched_messages``): the streak a kernel could
amortize into one probe.  Billing is per message either way.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Set, Tuple, Union

from repro.analysis.proofs import LoadedProofs, load_proofs, stub_key
from repro.core import labelops
from repro.core.chunks import ChunkedLabel
from repro.core.interning import InternTable, raise_key

__all__ = ["VerifiedFlowTable"]

#: Ops a deliver-stub hit elides vs the plain path: the req-(4)
#: ``DR ⊑ pR`` walk, the req-(1) check, the QS effects, the QR raise.
OPS_PER_DELIVER = 4
#: Ops a send-stub hit elides: the ``ES = PS ⊔ CS`` join.
OPS_PER_SEND = 1


class VerifiedFlowTable:
    """Loaded proofs plus runtime state (counters, batch streak)."""

    def __init__(self, proofs: LoadedProofs) -> None:
        self.proofs = proofs
        self.valid = True
        self.deliver_hits = 0
        self.send_hits = 0
        self.misses = 0
        self.ops_elided = 0
        self.quarantines = 0
        self.batch_drains = 0
        self.batched_messages = 0
        self.first_use_checks = 0
        self.quarantine_reason: Optional[str] = None
        self._seen_keys: Set[int] = set()
        self._last_key: Optional[int] = None
        self._streak = 0

    @classmethod
    def load(
        cls, source: Union[str, Dict[str, Any]], table: InternTable
    ) -> "VerifiedFlowTable":
        """Load a ``proofs/v1`` file (or parsed dict), verifying every
        label body against its fingerprint through *table*."""
        return cls(load_proofs(source, table))

    # -- probing ------------------------------------------------------------

    def plan_deliver(
        self,
        port_handle: int,
        es: ChunkedLabel,
        pl: ChunkedLabel,
        qr: ChunkedLabel,
        v: ChunkedLabel,
        dr: ChunkedLabel,
        qs: ChunkedLabel,
        ds: ChunkedLabel,
        keys: Tuple[int, int, int],
    ) -> Optional[Tuple[ChunkedLabel, ChunkedLabel]]:
        """Probe for a deliver stub on the live operands, whose
        :func:`~repro.core.interning.delivery_keys` the caller computed
        (the label-op cache reuses them on a miss).

        Returns the receiver's post-effect ``(QS, QR)`` — Figure 4's, run
        unbilled — on a hit, ``None`` on a miss (the caller runs the
        billed path).
        """
        if not self.valid:
            return None
        key = stub_key(port_handle, keys)
        if key == self._last_key:
            self._streak += 1
            if self._streak == 2:
                self.batch_drains += 1
                self.batched_messages += 2
            else:
                self.batched_messages += 1
        else:
            self._last_key = key
            self._streak = 1
        stub = self.proofs.deliver.get(key)
        if stub is None:
            self.misses += 1
            return None
        new = None
        if dr.leq(pl) and labelops.check_send(es, qr, dr, v, pl):
            new = labelops.apply_send_effects(qs, es, ds), labelops.raise_receive(qr, dr)
        if not self._confirmed(key, new, (stub.new_qs_core, stub.new_qr_core)):
            self.quarantine(f"deliver stub on {port_handle:#x} diverged from its claim")
            self.misses += 1
            return None
        self.deliver_hits += 1
        self.ops_elided += OPS_PER_DELIVER
        return new

    def plan_send(
        self, ps: ChunkedLabel, cs: ChunkedLabel
    ) -> Optional[ChunkedLabel]:
        """Probe for a send stub: ``ES = PS ⊔ CS`` (run unbilled) on a
        hit, ``None`` on a miss."""
        if not self.valid:
            return None
        key = raise_key(ps, cs)
        stub = self.proofs.send.get(key)
        if stub is None:
            self.misses += 1
            return None
        es = labelops.raise_receive(ps, cs)
        if not self._confirmed(key, (es,), (stub.es_core,)):
            self.quarantine("send stub diverged from its claim")
            self.misses += 1
            return None
        self.send_hits += 1
        self.ops_elided += OPS_PER_SEND
        return es

    def _confirmed(
        self, key: int, got: Optional[Tuple[ChunkedLabel, ...]],
        claimed: Tuple[ChunkedLabel, ...],
    ) -> bool:
        """Whether a stub hit stands: Figure 4 delivered, and on the key's
        first use its result cores are the document's claim."""
        if got is None:
            return False
        if key in self._seen_keys:
            return True
        self._seen_keys.add(key)
        self.first_use_checks += 1
        return all(g.core_digest() == c.digest() for g, c in zip(got, claimed))

    def quarantine(self, reason: str) -> None:
        """A stub's claim failed its first-use check: stop billing stubs
        for the rest of the run (a fresh load resets)."""
        self.quarantines += 1
        self.quarantine_reason = reason
        self.valid = False

    # -- reporting ----------------------------------------------------------

    def counters(self) -> Dict[str, Any]:
        return {
            "valid": self.valid,
            "deliver_stubs": len(self.proofs.deliver),
            "send_stubs": len(self.proofs.send),
            "deliver_hits": self.deliver_hits,
            "send_hits": self.send_hits,
            "misses": self.misses,
            "ops_elided": self.ops_elided,
            "quarantines": self.quarantines,
            "batch_drains": self.batch_drains,
            "batched_messages": self.batched_messages,
            "first_use_checks": self.first_use_checks,
            "topology": self.proofs.topology_name,
        }
