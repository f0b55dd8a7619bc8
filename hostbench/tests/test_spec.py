"""The fixed vocabulary obeys the driver's contract, and BENCHMARK.json
is exactly what spec.py says."""

import json
import os
import re

from hostbench import spec

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
# The driver's contract: a name is 1-64 of these and starts with a letter
# or digit; a unit is 1-16 of those.
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def _names():
    return ([w.name for w in spec.WORKLOADS]
            + [m.name for m in spec.END_TO_END + spec.PER_LAYER])


def test_names_are_unique_and_well_formed():
    names = _names()
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name


def test_units_and_directions():
    for metric in spec.END_TO_END + spec.PER_LAYER:
        assert UNIT.fullmatch(metric.unit), metric
        assert metric.better in ("higher", "lower"), metric
        assert metric.currency in ("host", "simulated", "count"), metric
        assert set(metric.workloads) <= set(spec.ALL), metric


def test_workload_reasons_fit_one_line():
    assert 2 <= len(spec.WORKLOADS) <= 8
    for workload in spec.WORKLOADS:
        assert "\n" not in workload.why and len(workload.why) <= 200, workload.name


def test_counts_and_bounds():
    assert len(spec.END_TO_END) == 16  # the issue's 14 + the dense ops_per_s, rep_s
    assert 1 <= len(spec.DENSE) <= 16
    assert 1 <= len(spec.SPARSE + spec.PER_LAYER) <= 128
    for metric in spec.DENSE:
        assert metric.workloads == spec.ALL and 0 < metric.bound <= 0.25, metric
    setup = spec.metric("setup_s")
    assert (setup.unit, setup.better) == ("s", "lower")
    assert setup.bound == max(m.bound for m in spec.DENSE)
    for metric in spec.PER_LAYER:
        assert metric.bound is None and metric.moves, metric


def test_benchmark_json_matches_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        committed = json.load(handle)
    assert committed == spec.benchmark_manifest()
    assert set(committed) == {"command", "paths", "run_seconds", "workloads",
                              "end_to_end", "per_layer"}
    assert committed["paths"] == ["hostbench"]
