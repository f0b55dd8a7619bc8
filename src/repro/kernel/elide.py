"""Kernel-side verified-flow table: proof-guided check elision.

The :class:`VerifiedFlowTable` holds a loaded ``proofs/v1`` document
(:mod:`repro.analysis.proofs`) indexed for O(1) probing on the kernel's
hot path.  Before running the full Figure 4 machinery, delivery probes
the table with the receiving port handle and the ⋆-factored plan keys of
the *live* operands; a hit means asbcheck proved this exact
(port, label-values) instance always-allowed, so the kernel skips the
requirement (4) and requirement (1) checks and applies the precomputed
QS/QR effect cores instead.  Send probes work the same way for the
``ES = PS ⊔ CS`` join.

Soundness comes from content addressing, not trust in the document:

* A stub can only hit when the live operand intern ids equal the ids of
  the labels the proof assumed (plan keys are tuples of intern ids), so
  a proof compiled for different label values — a different topology, a
  stale world — simply never matches and the kernel falls back to the
  PR 5 interned path.  Failing *open to checking* is the safe direction.
* The factoring side conditions (T1–T4) are re-established on the live
  operands when the plans are built at probe time, so the ⋆-overlay
  tails are always computed from live state.
* The claimed result cores come verbatim from the document; the sampled
  sanitizer re-derives every elided decision from reference semantics,
  and the kernel forces a sanitized replay on the **first** use of every
  distinct stub key.  A mismatch quarantines the whole table
  (``valid=False`` for the rest of the run) — fail closed.

The epoch is belt and braces on top of that: system-level events that
could make the proof's worldview stale — a covered port's label being
rewritten, a covered port passed between tasks, a covered task's ⋆-free
label core leaving the proof's assumed set, an EP checkpoint by a
covered task the proofs did not expect to be a realm — bump it, which
permanently quarantines the table for this run (a fresh load resets).
Per-connection churn (new handles, new ports, EP activations on
expected realms) deliberately does not bump: content addressing already
keys every stub on the exact label values in play.

Batched delivery rides on the probe: consecutive deliveries whose
(port, operand ids, epoch) signature is unchanged reuse the previous
probe's plans and stub outright — one amortized lookup for the whole
streak, with per-message billing identical to single deliveries.  Any
operand change or epoch bump resets the streak (a mid-batch
invalidation splits the batch).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Dict, List, NamedTuple, Optional, Tuple, Union

from repro.analysis.proofs import LoadedProofs, SendStub, load_proofs
from repro.core.chunks import ChunkedLabel
from repro.core.interning import (
    InternTable,
    apply_effects_tail,
    apply_raise_tail,
    check_plan,
    effects_plan,
    raise_plan,
)

__all__ = ["DeliverHit", "VerifiedFlowTable"]

#: Ops a deliver-stub hit elides vs the plain path: the req-(4)
#: ``DR ⊑ pR`` walk, the req-(1) check, the QS effects, the QR raise.
OPS_PER_DELIVER = 4
#: Ops a send-stub hit elides: the ``ES = PS ⊔ CS`` join.
OPS_PER_SEND = 1


class DeliverHit(NamedTuple):
    """A successful deliver probe, ready to apply."""

    key: Tuple[Any, ...]
    new_qs: ChunkedLabel
    new_qr: ChunkedLabel
    #: True the first time this stub key is used — the sanitizing engine
    #: must replay it regardless of the sampling period.
    first_use: bool
    #: True when this hit reused the previous probe's plans (batching).
    batched: bool


class VerifiedFlowTable:
    """Loaded proofs plus runtime state (epoch, counters, batch streak)."""

    def __init__(self, proofs: LoadedProofs, table: InternTable) -> None:
        self.proofs = proofs
        self.table = table
        self.valid = True
        self.epoch = 0
        self.deliver_hits = 0
        self.send_hits = 0
        self.misses = 0
        self.ops_elided = 0
        self.invalidations = 0
        self.quarantines = 0
        self.batch_drains = 0
        self.batched_messages = 0
        self.first_use_checks = 0
        self.invalidation_reasons: List[str] = []
        self._seen_keys: set = set()
        # Batch streak: signature of the last probe and its outcome.
        self._last_sig: Optional[Tuple[Any, ...]] = None
        self._last_hit: Optional[DeliverHit] = None
        self._streak = 0
        # Strong refs to probe-time plans, hit or miss.  The canonical
        # intern table is weak: without these, a probed key's ⋆-core
        # operands can be collected between probes and re-interned under
        # fresh ids, which silently churns every id-keyed cache downstream
        # (the labelop cache re-misses on values it already knew).
        self._plan_pins: "OrderedDict[Tuple[Any, ...], Tuple[Any, ...]]" = (
            OrderedDict()
        )
        self._plan_pin_limit = 8192

    @classmethod
    def load(
        cls, source: Union[str, Dict[str, Any]], table: InternTable
    ) -> "VerifiedFlowTable":
        """Load a ``proofs/v1`` file (or parsed dict) against *table*.

        The intern table must be the same one the kernel interns live
        labels into — stub keys are intern-id tuples and only compare
        within one table.
        """
        return cls(load_proofs(source, table), table)

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
    ) -> Optional[DeliverHit]:
        """Probe for a deliver stub on the live operands.

        Returns ``None`` on a miss — the caller falls back to the full
        interned path.  The operands are interned here (one attribute
        test each in the steady state: every kernel-resident label is
        canonicalised where it is created), because the batch signature
        and the stub keys are intern-id tuples.
        """
        if not self.valid:
            return None
        intern = self.table.intern
        es, pl, qr, v = intern(es), intern(pl), intern(qr), intern(v)
        dr, qs, ds = intern(dr), intern(qs), intern(ds)
        sig = (
            port_handle,
            es.intern_id,
            pl.intern_id,
            qr.intern_id,
            v.intern_id,
            dr.intern_id,
            qs.intern_id,
            ds.intern_id,
            self.epoch,
        )
        if sig == self._last_sig:
            # Same port, same label key, no invalidation in between:
            # this message continues the batch.  Reuse the previous
            # probe's plans/stub; bill per message exactly as a single
            # delivery would (the caller charges, not us).
            self._streak += 1
            if self._streak == 2:
                self.batch_drains += 1
                self.batched_messages += 2
            elif self._streak > 2:
                self.batched_messages += 1
            hit = self._last_hit
            if hit is None:
                self.misses += 1
                return None
            self.deliver_hits += 1
            self.ops_elided += OPS_PER_DELIVER
            return hit._replace(first_use=False, batched=True)
        self._last_sig = sig
        self._streak = 1
        cplan = check_plan(self.table, es, qr, dr, v, pl)
        hit: Optional[DeliverHit] = None
        if not cplan.abstracted:
            eplan = effects_plan(self.table, qs, es, ds)
            rplan = raise_plan(self.table, qr, dr)
            key = (port_handle, cplan.key, eplan.key, rplan.key)
            self._plan_pins[key] = (cplan, eplan, rplan)
            self._plan_pins.move_to_end(key)
            if len(self._plan_pins) > self._plan_pin_limit:
                self._plan_pins.popitem(last=False)
            stub = self.proofs.deliver.get(key)
            if stub is not None:
                # The ⋆-overlay tails are recomputed from the live
                # plans; only the cores come from the document.
                hit = DeliverHit(
                    key=key,
                    new_qs=apply_effects_tail(self.table, eplan, stub.new_qs_core),
                    new_qr=apply_raise_tail(self.table, rplan, stub.new_qr_core),
                    first_use=key not in self._seen_keys,
                    batched=False,
                )
        self._last_hit = hit
        if hit is None:
            self.misses += 1
            return None
        if hit.first_use:
            self._seen_keys.add(hit.key)
            self.first_use_checks += 1
        self.deliver_hits += 1
        self.ops_elided += OPS_PER_DELIVER
        return hit

    def plan_send(
        self, ps: ChunkedLabel, cs: ChunkedLabel
    ) -> Optional[ChunkedLabel]:
        """Probe for a send stub: the proven ``ES = PS ⊔ CS`` result.

        Returns the effective send label, or ``None`` on a miss.
        """
        if not self.valid:
            return None
        splan = raise_plan(self.table, ps, cs)
        stub: Optional[SendStub] = self.proofs.send.get(splan.key)
        if stub is None:
            return None
        self.send_hits += 1
        self.ops_elided += OPS_PER_SEND
        return apply_raise_tail(self.table, splan, stub.es_core)

    # -- invalidation -------------------------------------------------------

    def invalidate(self, reason: str) -> None:
        """System-level invalidating event: quarantine the whole table.

        Bumping the epoch also splits any in-flight delivery batch.
        """
        self.epoch += 1
        self.invalidations += 1
        if len(self.invalidation_reasons) < 32:
            self.invalidation_reasons.append(reason)
        self.valid = False
        self._last_sig = None
        self._last_hit = None
        self._streak = 0

    def quarantine(self, reason: str) -> None:
        """Sanitizer caught an elided decision diverging: fail closed."""
        self.quarantines += 1
        self.invalidate(f"sanitizer: {reason}")

    # -- invalidation events ------------------------------------------------
    # The kernel reports what happened; whether it stales the proofs'
    # worldview is decided here, beside the epoch it bumps.  All four are
    # no-ops once the table is invalid.  A port dying is deliberately not
    # an event: handle values never repeat within a boot (the allocator is
    # a cipher over a monotonic counter), so no future delivery can probe
    # a dead port's stubs — the edge simply stops being exercised.

    def port_passed(self, handle: int) -> None:
        """A port's receive rights left their owner with a message: a
        covered port changing hands is a topology change the proofs
        assumed away."""
        if self.valid and handle in self.proofs.covered_ports:
            self.invalidate(f"port passage {handle:#x}")

    def port_relabelled(self, handle: int, label: ChunkedLabel) -> None:
        """``set_port_label``.  Rewriting a covered port's label *outside
        the values the proofs assumed* invalidates them; rewriting it to
        an assumed value (boot-time bring-up replaying the recorded
        world) is exactly what the proofs describe and keeps them."""
        if not self.valid or handle not in self.proofs.covered_ports:
            return
        assumed = self.proofs.port_labels.get(handle, ())
        if self.table.intern(label).intern_id not in assumed:
            self.invalidate(f"set_port_label {handle:#x}")

    def task_relabelled(
        self,
        name: str,
        old_qs: ChunkedLabel,
        old_qr: ChunkedLabel,
        new_qs: ChunkedLabel,
        new_qr: ChunkedLabel,
    ) -> None:
        """A committed ``change_label``.  Proofs only assumed the label
        values the exploration saw; a covered task writing its labels
        *outside* that set is an invalidating event (writes inside it —
        e.g. reasserting the fixed point — are exactly what the proofs
        describe)."""
        if not self.valid or name not in self.proofs.covered_tasks:
            return
        assumed = self._core_assumed
        if (assumed(name, old_qs) and not assumed(name, new_qs)) or (
            assumed(name, old_qr) and not assumed(name, new_qr)
        ):
            self.invalidate(f"change_label {name}")

    def realm_created(self, name: str) -> None:
        """``ep_checkpoint``.  A covered task becoming an EP realm the
        proofs did not observe is a topology change; realms the proofs
        expected (their fork-marked ports) are the normal EP mechanism
        and do not bump."""
        if (
            self.valid
            and name in self.proofs.covered_tasks
            and name not in self.proofs.expected_realms
        ):
            self.invalidate(f"ep_checkpoint {name}")

    def _core_assumed(self, task_name: str, label: ChunkedLabel) -> bool:
        """Whether *label*'s ⋆-free core is among the QS/QR values the
        proofs assumed for *task_name* specifically."""
        assumed = self.proofs.assumed_cores.get(task_name)
        if not assumed:
            return False
        core = self.table.star_core(self.table.intern(label))
        return core.intern_id in assumed

    # -- reporting ----------------------------------------------------------

    def counters(self) -> Dict[str, Any]:
        return {
            "valid": self.valid,
            "epoch": self.epoch,
            "deliver_stubs": len(self.proofs.deliver),
            "send_stubs": len(self.proofs.send),
            "deliver_hits": self.deliver_hits,
            "send_hits": self.send_hits,
            "misses": self.misses,
            "ops_elided": self.ops_elided,
            "invalidations": self.invalidations,
            "quarantines": self.quarantines,
            "batch_drains": self.batch_drains,
            "batched_messages": self.batched_messages,
            "first_use_checks": self.first_use_checks,
            "topology": self.proofs.topology_name,
        }
