"""Kernel configuration — the single place run-mode options live.

:class:`KernelConfig` is a frozen dataclass that is validated once, read
everywhere, and constructed either explicitly
(``Kernel(config=KernelConfig(metrics=True))``) or from the environment
(:meth:`KernelConfig.from_env`, which is what a bare ``Kernel()`` does).
It is the only way to configure a kernel.

Environment variables (all optional; explicit arguments win):

======================= ==============================================
``REPRO_SANITIZE``       enable the differential label sanitizer
``REPRO_STORE``          path to ok-dbproxy's ``wal/v1`` store file
``REPRO_INTERN_LABELS``  bill repeated Figure 4 hot ops as cache hits
``REPRO_ELIDE``          bill proven edges as the verified fastpath
``REPRO_PROOFS``         path to the ``proofs/v1`` document to load
======================= ==============================================

Every other option (``sanitize_strict``, ``sanitize_sample``,
``labelop_cache_size``, ...) is set in code.
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass
from typing import Any, Dict, Mapping, Optional, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.faults.plan import FaultPlan

#: Valid values for ``label_cost_mode``.
LABEL_COST_MODES = ("paper", "fused")

_TRUTHY_OFF = ("", "0", "false", "no", "off")


def _env_bool(env: Mapping[str, str], name: str) -> Optional[bool]:
    """Tri-state: None when unset, else the usual truthiness convention."""
    if name not in env:
        return None
    return env[name].strip().lower() not in _TRUTHY_OFF


@dataclass(frozen=True)
class KernelConfig:
    """Immutable run-mode options for one :class:`~repro.kernel.Kernel`.

    Groups (see DESIGN.md §8 for the observability half):

    - simulation shape: ``ram_bytes``, ``boot_key``;
    - diagnostics: ``trace`` (debug log + re-raise crashed bodies),
      ``sanitize``/``sanitize_strict`` (the differential label sanitizer)
      and ``sanitize_sample`` (check only every Nth IPC — the sampled
      per-shard safety net ``repro.cluster`` runs with, ``1`` = every IPC);
    - cycle billing: ``label_cost_mode`` — ``"paper"`` bills label work as
      the 2005 implementation would pay it (reproduces Figure 9),
      ``"fused"`` bills the sparsity-aware operations actually executed;
    - observability: ``metrics`` (the :class:`~repro.obs.MetricsRegistry`
      wired through the kernel hot paths), ``spans`` (message/activation
      span recording, exportable as Chrome ``trace_event`` JSON),
      ``span_limit`` (ring-buffer bound on recorded span events);
    - fault injection: ``faults`` (a :class:`~repro.faults.plan.FaultPlan`
      the kernel consults at its choke points) and ``fault_seed`` (the
      dedicated PRNG seed — the same (plan, seed) pair reproduces the
      identical fault event sequence);
    - durable storage (DESIGN.md §14): ``store_path`` — when set,
      ok-dbproxy backs its tables with a write-ahead-logged
      :class:`~repro.store.store.LabeledStore` at that path (recovering
      it at boot); ``None`` (the default) keeps the bit-identical
      in-memory path and never imports :mod:`repro.store`;
    - the interned-label bill (DESIGN.md §11): ``intern_labels`` bills
      the three Figure 4 hot operations as a kernel with hash-consed
      labels would — a :class:`~repro.core.interning.LabelOpCache` of
      ``labelop_cache_size`` ⋆-factored operand digests prices a
      repeated operation as one flat probe.  The labels are the plain
      kernel's: every operation still runs on the full operands;
    - the proof-guided elision bill (DESIGN.md §15): ``elide_checks``
      loads the ``proofs/v1`` document at ``proof_path`` into a
      :class:`~repro.kernel.elide.VerifiedFlowTable` probed before the
      Figure 4 operations — a delivery or send on a proven edge is
      billed as the verified fastpath, and its labels are still
      Figure 4's; implies ``intern_labels`` (a stub miss is billed by
      the cache).  ``elide_checks`` without a ``proof_path`` is valid
      and simply never hits (an empty table).
    """

    ram_bytes: Optional[int] = None
    boot_key: bytes = b"asbestos-boot-key"
    trace: bool = False
    label_cost_mode: str = "paper"
    sanitize: bool = False
    sanitize_strict: bool = True
    sanitize_sample: int = 1
    metrics: bool = False
    spans: bool = False
    span_limit: int = 250_000
    faults: Optional["FaultPlan"] = None
    fault_seed: int = 0
    store_path: Optional[str] = None
    intern_labels: bool = False
    labelop_cache_size: int = 4096
    elide_checks: bool = False
    proof_path: Optional[str] = None

    def __post_init__(self) -> None:
        if self.label_cost_mode not in LABEL_COST_MODES:
            raise ValueError(
                f"unknown label_cost_mode: {self.label_cost_mode!r} "
                f"(expected one of {LABEL_COST_MODES})"
            )
        if self.ram_bytes is not None and self.ram_bytes <= 0:
            raise ValueError(f"ram_bytes must be positive, got {self.ram_bytes}")
        if self.sanitize_sample <= 0:
            raise ValueError(
                f"sanitize_sample must be positive, got {self.sanitize_sample}"
            )
        if self.span_limit <= 0:
            raise ValueError(f"span_limit must be positive, got {self.span_limit}")
        if self.labelop_cache_size <= 0:
            raise ValueError(
                f"labelop_cache_size must be positive, got {self.labelop_cache_size}"
            )

    @classmethod
    def from_env(
        cls,
        env: Optional[Mapping[str, str]] = None,
        **overrides: Any,
    ) -> "KernelConfig":
        """Build a config from the environment.

        Precedence: explicit ``overrides`` > environment variables >
        dataclass defaults.  ``overrides`` whose value is ``None`` are
        treated as "unset" for the tri-state options: ``sanitize=None``
        means "consult the environment", not "off".
        """
        env = os.environ if env is None else env
        values: Dict[str, Any] = {}
        sanitize = _env_bool(env, "REPRO_SANITIZE")
        if sanitize is not None:
            values["sanitize"] = sanitize
        store_path = env.get("REPRO_STORE", "").strip()
        if store_path:
            values["store_path"] = store_path
        intern = _env_bool(env, "REPRO_INTERN_LABELS")
        if intern is not None:
            values["intern_labels"] = intern
        elide = _env_bool(env, "REPRO_ELIDE")
        if elide is not None:
            values["elide_checks"] = elide
        proof_path = env.get("REPRO_PROOFS", "").strip()
        if proof_path:
            values["proof_path"] = proof_path
        for key, value in overrides.items():
            if value is None:
                continue  # "unset": keep the env/default resolution
            values[key] = value
        return cls(**values)

    def replace(self, **changes: Any) -> "KernelConfig":
        """A copy with *changes* applied (``dataclasses.replace``)."""
        return dataclasses.replace(self, **changes)
