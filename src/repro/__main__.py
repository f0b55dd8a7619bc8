"""``python -m repro`` — the command line.

Bare invocation runs the two-minute guided tour; ``analyze`` runs the
asblint static label-flow checker; ``check`` the asbcheck whole-system
model checker; ``explore`` the asbsched schedule-space explorer (DPOR
over scheduler, timer and fault nondeterminism with counterexample
shrinking); ``run`` drives the OKWS demo workload (optionally under the
runtime sanitizer); ``chaos`` runs seeded fault-injection campaigns;
``bench`` regenerates the paper's numbers (``--only scale`` selects the
sharded ``repro.cluster`` scaling bench).  All subcommands share one option
surface — ``--format text|json|sarif``, ``--out PATH``, ``--seed N`` —
and one exit-code convention (0 clean, 1 violation or regression,
2 usage error).  See :mod:`repro.analysis.cli`.
"""

from __future__ import annotations

from repro.analysis.cli import main

if __name__ == "__main__":
    raise SystemExit(main())
