"""Label policy recipes.

Asbestos labels are a mechanism; this package packages the paper's policy
*idioms* as reusable recipes:

- :mod:`repro.policies.mls` — traditional hierarchical multi-level
  security (unclassified/secret/top-secret) emulated with compartments
  (Section 5.2, "The four levels");
- :mod:`repro.policies.capabilities` — port labels as capability-style
  send rights (Section 5.5);
- :mod:`repro.policies.integrity` — grant handles, verification labels,
  and mandatory integrity (Section 5.4);
- :mod:`repro.policies.assertions` — whole-system policy *assertions*
  (isolation, mandatory declassification, capability confinement, edge
  liveness), each kind the one judge of its own breaches for the asbcheck
  model checker (:mod:`repro.analysis.check`) and the asbsched schedule
  explorer (:mod:`repro.analysis.sched`).
"""

from repro.policies.assertions import (
    CapabilityConfinement,
    DeadEdges,
    Isolation,
    MandatoryDeclassifier,
    Policy,
    policies_from_json,
    policy_from_json,
    policy_to_json,
)
from repro.policies.mls import MlsPolicy
from repro.policies.capabilities import (
    grant_send_right,
    open_port_label,
    sealed_port_label,
)
from repro.policies.integrity import speaks_for, write_verify_label

__all__ = [
    "CapabilityConfinement",
    "DeadEdges",
    "Isolation",
    "MandatoryDeclassifier",
    "MlsPolicy",
    "Policy",
    "grant_send_right",
    "open_port_label",
    "policies_from_json",
    "policy_from_json",
    "policy_to_json",
    "sealed_port_label",
    "speaks_for",
    "write_verify_label",
]
