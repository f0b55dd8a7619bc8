"""Every workload at ~1/10 size: exits 0, emits exactly its listed
metrics, and bills the same simulated cycles for the same seed."""

import json
import os
import subprocess
import sys

import pytest

from hostbench import spec

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def bench(tmp_path, workload, trace=0, seed=3):
    detail = tmp_path / f"{workload}-{trace}-{seed}.json"
    done = subprocess.run(
        [sys.executable, "-m", "hostbench", "bench", "--workload", workload, "--smoke",
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--detail", str(detail)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stdout
    line = json.loads(done.stdout.rstrip("\n").rsplit("\n", 1)[-1])
    return line, json.loads(detail.read_text())


@pytest.mark.parametrize("workload", spec.ALL)
def test_untraced_emits_exactly_the_listed_metrics(tmp_path, workload):
    line, detail = bench(tmp_path, workload)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    assert set(line["metrics"]) == {m.name for m in spec.DENSE}
    assert all(entry["value"] > 0 for entry in line["metrics"].values())
    listed = {m.name for m in spec.END_TO_END if workload in m.workloads}
    assert set(detail["metrics"]) == listed
    assert detail["metrics"]["failed_share"]["value"] == 0


def test_simulated_cycles_depend_on_the_inputs_only(tmp_path):
    _, first = bench(tmp_path, "echo_s300", seed=5)
    (tmp_path / "echo_s300-0-5.json").unlink()
    _, again = bench(tmp_path, "echo_s300", seed=5)
    key = "sim_kcycles_per_conn"
    assert first["metrics"][key]["value"] == again["metrics"][key]["value"]


@pytest.mark.parametrize("workload", spec.ALL)
def test_traced_emits_the_full_per_layer_grid(tmp_path, workload):
    line, detail = bench(tmp_path, workload, trace=1)
    assert line["correct"] is True
    assert set(line["metrics"]) == {m.name for m in spec.SPARSE + spec.PER_LAYER}
    listed = {m.name for m in spec.SPARSE + spec.PER_LAYER if workload in m.workloads}
    assert set(detail["metrics"]) <= listed
    assert detail["missing_boundaries"] == []
    if workload in ("oracles", "cluster2_s600"):  # the shards' clients are out of reach
        assert "HttpClient.run_batch" not in detail["spans"]
    else:
        assert detail["spans"]["HttpClient.run_batch"]["calls"] > 0


def test_no_program_no_result(tmp_path):
    """Beside only BENCHMARK.json and hostbench/, the command fails without a result."""
    import shutil

    shutil.copytree(os.path.join(ROOT, "hostbench"), tmp_path / "hostbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".scratch", "results"))
    done = subprocess.run(
        [sys.executable, "-m", "hostbench", "bench", "--workload", "echo_s300",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert done.returncode != 0 and '"metrics"' not in done.stdout
