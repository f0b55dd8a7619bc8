"""Differential verification: every label decision the production kernel
makes during a full OKWS workload is re-checked against the naive
Figure 4 spec (:func:`repro.analysis.sanitizer.spec_send` and
:func:`~repro.analysis.sanitizer.spec_deliver`) by the strict sanitizer.

This catches any divergence between the fused/sparse fast paths the
kernel executes and the paper's definitional rules, under exactly the
label shapes a real workload produces (huge starry labels, port labels,
verification labels, decontamination grants...).
"""

import pytest

from repro.kernel.config import KernelConfig
from repro.kernel.kernel import Kernel
from tests.test_conformance import _run_okws_workload


@pytest.mark.parametrize("network", ["classic", "decomposed"])
def test_full_okws_workload_matches_reference_semantics(network):
    kernel = Kernel(config=KernelConfig(sanitize=True, sanitize_strict=True))
    _run_okws_workload(kernel, network)
    assert kernel.sanitizer.violations == []
    # Both halves of every IPC in the entire run were double-checked.
    assert kernel.sanitizer.checked_sends > 0
    assert kernel.sanitizer.checked_deliveries > 300
