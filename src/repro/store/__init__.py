"""repro.store: the labeled, write-ahead-logged store behind ok-dbproxy.

DESIGN.md §14.  The package is import-gated: a kernel with
``store_path=None`` (the default) never imports it, keeping the in-memory
path bit-identical to the pre-store tree.

- :mod:`repro.store.wal` — the ``wal/v1`` record format (CRC-framed
  begin/write/commit/checkpoint records, torn-tail scanning);
- :mod:`repro.store.store` — :class:`LabeledStore` (engine-coupled append
  path, label-checked recovery, crash injection via ``crash_at_io``);
- :mod:`repro.store.crashcheck` — the exhaustive crash-consistency
  checker behind ``python -m repro crashcheck``.
"""

from repro.store.store import (
    LabeledStore,
    LabelViolation,
    RecoveryReport,
    StoreCrash,
    image_digest,
    policy_problem,
    replay_image,
)
from repro.store.wal import RowTaint, WalError, scan, scan_file

__all__ = [
    "LabeledStore",
    "LabelViolation",
    "RecoveryReport",
    "StoreCrash",
    "image_digest",
    "policy_problem",
    "replay_image",
    "RowTaint",
    "WalError",
    "scan",
    "scan_file",
]
