"""Label-operation microbenchmarks and the implementation ablation
(paper Sections 5.6 and 9.3).

Two questions:

1. **Scaling** — the paper: "In the worst case, of course, operations
   like ⊑, ⊓, and ⊔ are linear in the size of their input labels", and
   the min/max chunk hints short-circuit the easy cases.  Measured here
   on labels from 64 to 16,384 entries.

2. **Ablation: 2005 costs vs the fused operations.**  The paper lists the
   key optimisation as future work: "Optimization opportunities remain,
   for example when most of a label's handle levels are ⋆".  Our fused
   operations (repro.core.labelops) implement exactly that.  The ablation
   reruns the end-to-end session sweep with the kernel billing the fused
   costs (``label_cost_mode="fused"``) instead of the modelled 2005 costs,
   showing how much of Figure 9's Kernel IPC growth the optimisation
   removes.
"""

import pytest

from benchmarks.conftest import FULL
from repro.core.chunks import ChunkedLabel, OpStats
from repro.core.labels import Label
from repro.core.levels import L1, L2, L3, STAR
from repro.kernel.clock import KERNEL_IPC
from repro.kernel.config import KernelConfig


def _big(n, level=L3, default=L1):
    return ChunkedLabel.from_label(Label({i * 3 + 1: level for i in range(n)}, default))


SIZES = [64, 512, 4096, 16384]


@pytest.mark.parametrize("size", SIZES)
def test_scaling_lub_worst_case(benchmark, size):
    # Interleaved levels: no short-circuit applies, full merge.
    a = ChunkedLabel.from_label(Label({i * 2: L3 if i % 2 else L1 for i in range(size)}, L2))
    b = ChunkedLabel.from_label(Label({i * 2 + 1: L1 if i % 2 else L3 for i in range(size)}, L2))
    result = benchmark(lambda: a.lub(b, OpStats()))
    # Half of each label's entries rise to 3; the other half normalise
    # into the default — the merge still walked all 2*size inputs.
    assert len(result) == size


@pytest.mark.parametrize("size", SIZES)
def test_scaling_lub_short_circuit_is_o1(benchmark, size):
    big = _big(size, level=L2, default=L2)
    low = ChunkedLabel.from_label(Label.bottom())
    stats = OpStats()
    result = benchmark(lambda: big.lub(low, stats))
    assert result is big   # the paper's min/max hint

def test_short_circuit_constant_work():
    # The skip does not touch entries, at any size.
    for size in SIZES:
        stats = OpStats()
        _big(size, level=L2, default=L2).lub(ChunkedLabel.from_label(Label.bottom()), stats)
        assert stats.entries_scanned == 0


@pytest.mark.parametrize("size", SIZES)
def test_scaling_fused_contamination_on_starry_label(benchmark, size):
    # The future-work case: a receiver whose label is almost all ⋆ (netd
    # with one star per user).  The fused effect touches only the small
    # message labels.
    from repro.core.labelops import apply_send_effects

    qs = _big(size, level=STAR)
    es = ChunkedLabel.from_label(Label({999999999: L3}, L1))
    ds = ChunkedLabel.from_label(Label.top())
    stats = OpStats()
    benchmark(lambda: apply_send_effects(qs, es, ds, stats))


def test_ablation_paper_vs_fused_costs(benchmark, report):
    """End to end: the same workload billed both ways."""
    from repro.sim.runner import run_session_sweep

    grid = [100, 1000] if not FULL else [100, 1000, 5000]
    paper_mode, fused_mode = (
        run_session_sweep(grid, config=KernelConfig.from_env(label_cost_mode=mode))
        for mode in ("paper", "fused")
    )

    report.header("Ablation — Kernel IPC Kcycles/connection: 2005 costs vs fused ops")
    report.line(f"\n  {'sessions':>8} {'paper-mode':>12} {'fused-mode':>12} {'saved':>8}")
    for p, f in zip(paper_mode, fused_mode):
        ipc_p = p.components_kcycles[KERNEL_IPC]
        ipc_f = f.components_kcycles[KERNEL_IPC]
        report.line(
            f"  {p.sessions:>8} {ipc_p:>12.0f} {ipc_f:>12.0f} "
            f"{(1 - ipc_f / ipc_p) * 100:>7.0f}%"
        )
    # The optimisation kills the *growth*: fused IPC cost is nearly flat.
    growth_paper = (
        paper_mode[-1].components_kcycles[KERNEL_IPC]
        - paper_mode[0].components_kcycles[KERNEL_IPC]
    )
    growth_fused = (
        fused_mode[-1].components_kcycles[KERNEL_IPC]
        - fused_mode[0].components_kcycles[KERNEL_IPC]
    )
    assert growth_fused < 0.5 * growth_paper
    report.line(
        f"\n  IPC growth over the grid: paper-mode +{growth_paper:.0f}K, "
        f"fused +{growth_fused:.0f}K per connection"
    )
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)


def test_sparse_update_is_chunk_local(benchmark):
    from repro.core.labelops import sparse_update

    big = _big(16384)
    benchmark(lambda: sparse_update(big, {5: STAR}, OpStats()))
    # One fresh run touches far fewer entries than the label holds.
    stats = OpStats()
    sparse_update(big, {5: STAR}, stats)
    assert stats.entries_scanned < len(big) / 10
