"""The ``python -m repro bench`` harness: schema validation and a real
(tiny) end-to-end document write."""

import json

import pytest

from repro.obs import bench


def _minimal_doc():
    return {
        "schema": bench.SCHEMA,
        "figure": "fig6",
        "title": "t",
        "quick": True,
        "series": {"s": {"x": [1, 2], "y": [3, 4], "unit": "u"}},
        "comparisons": [
            {"name": "n", "paper": 1.0, "measured": 2.0, "ratio": 2.0, "unit": "x"}
        ],
        "metrics": None,
        "meta": {},
    }


def test_validate_accepts_minimal():
    assert bench.validate(_minimal_doc()) == []


@pytest.mark.parametrize(
    "mutate",
    [
        lambda d: d.pop("schema"),
        lambda d: d.update(schema="repro-bench/v0"),
        lambda d: d.update(figure="fig99"),
        lambda d: d.update(title=""),
        lambda d: d.update(quick="yes"),
        lambda d: d.update(series={"s": {"x": [1], "y": [1, 2]}}),
        lambda d: d.update(comparisons=[]),
        lambda d: d.update(comparisons=[{"name": "n"}]),
        lambda d: d.update(metrics=7),
    ],
)
def test_validate_rejects_malformed(mutate):
    doc = _minimal_doc()
    mutate(doc)
    assert bench.validate(doc)


def test_comparison_ratio():
    row = bench.comparison("x", 2.0, 3.0, "u")
    assert row["ratio"] == 1.5
    assert bench.comparison("x", "n/a", 3.0)["ratio"] is None
    assert bench.comparison("x", 0, 3.0)["ratio"] is None
    assert bench.comparison("ok", True, True)["ratio"] == 1.0


def test_run_bench_unknown_figure(tmp_path):
    with pytest.raises(ValueError):
        bench.run_bench(out_dir=str(tmp_path), quick=True, only=["fig99"])


def test_run_bench_writes_valid_fig6(tmp_path):
    paths = bench.run_bench(
        out_dir=str(tmp_path), quick=True, only=["fig6"], echo=lambda _: None
    )
    assert len(paths) == 1
    with open(paths[0]) as fh:
        doc = json.load(fh)
    assert bench.validate(doc) == []
    assert doc["figure"] == "fig6"
    assert doc["quick"] is True
    # The instrumented snapshot rode along and has the counters wired
    # through the kernel hot paths.
    metrics = doc["metrics"]
    assert metrics["metrics"]["kernel.ipc.sends"] > 0
    assert metrics["label_ops"]["fast_path"] > 0
    assert metrics["spans_recorded"] > 0
    # Slopes landed in the calibrated bands (same claim bench_fig6 makes).
    by_name = {row["name"]: row for row in doc["comparisons"]}
    assert 1.2 <= by_name["pages per cached session"]["measured"] <= 1.8
    # validate_files agrees with validate.
    assert bench.validate_files(paths) == {paths[0]: []}


def test_validate_files_reports_bad_json(tmp_path):
    bad = tmp_path / "BENCH_broken.json"
    bad.write_text("{not json")
    results = bench.validate_files([str(bad)])
    assert results[str(bad)]


# -- guard_files: one-sided in the *good* direction, per series unit ----------


def _guard_pair(tmp_path, name, base_series, fresh_series):
    """Write a baseline doc and a fresh doc and run the guard on them."""

    def doc(series):
        d = _minimal_doc()
        d["series"] = series
        return d

    base = tmp_path / name
    fresh_dir = tmp_path / "fresh"
    fresh_dir.mkdir(exist_ok=True)
    base.write_text(json.dumps(doc(base_series)))
    (fresh_dir / name).write_text(json.dumps(doc(fresh_series)))
    return bench.guard_files([str(base)], str(fresh_dir), tolerance=0.02)


def test_guard_catches_labelops_slowdown(tmp_path):
    """A label-op cost regression in BENCH_labelops.json must fail the
    guard: cost units get a ceiling, so a slowdown can't land silently."""
    base = {"kernel_ipc": {"x": [50, 200], "y": [212.1, 220.7], "unit": "Kcycles/conn"}}
    slower = {"kernel_ipc": {"x": [50, 200], "y": [212.1, 260.0], "unit": "Kcycles/conn"}}
    problems = _guard_pair(tmp_path, "BENCH_labelops.json", base, slower)
    assert len(problems) == 1
    assert "kernel_ipc@x=200" in problems[0]


def test_guard_never_fails_a_cost_improvement(tmp_path):
    """The old floor guard rewarded slowdowns and punished improvements
    on cost series; pin the flipped direction."""
    base = {"lat": {"x": [1], "y": [100.0], "unit": "us"}}
    faster = {"lat": {"x": [1], "y": [40.0], "unit": "us"}}
    assert _guard_pair(tmp_path, "BENCH_labelops.json", base, faster) == []


def test_guard_keeps_the_floor_for_benefit_series(tmp_path):
    base = {"tput": {"x": [1, 2], "y": [100.0, 200.0], "unit": "conn/s"}}
    slower = {"tput": {"x": [1, 2], "y": [100.0, 150.0], "unit": "conn/s"}}
    problems = _guard_pair(tmp_path, "BENCH_fig7.json", base, slower)
    assert len(problems) == 1
    assert "tput@x=2" in problems[0]
    faster = {"tput": {"x": [1, 2], "y": [110.0, 300.0], "unit": "conn/s"}}
    assert _guard_pair(tmp_path, "BENCH_fig7.json", base, faster) == []


def test_guard_flags_missing_series_and_grid_changes(tmp_path):
    base = {"a": {"x": [1], "y": [1.0], "unit": "x"}, "b": {"x": [1], "y": [1.0], "unit": "x"}}
    fresh = {
        "a": {"x": [1, 2], "y": [1.0, 1.0], "unit": "x"},
        "c": {"x": [1], "y": [1.0], "unit": "x"},  # emitted, never guarded: stale baseline
    }
    problems = _guard_pair(tmp_path, "BENCH_fig7.json", base, fresh)
    assert len(problems) == 3
    assert any("x-grid changed" in p for p in problems)
    assert any("'b' missing from fresh run" in p for p in problems)
    assert any("'c' is not in the baseline" in p for p in problems)
