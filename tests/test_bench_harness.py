"""The ``python -m repro bench`` harness: schema validation, a real (tiny)
end-to-end document write, the paper's shapes on the committed baselines,
and the equality guard."""

import json
from pathlib import Path

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


@pytest.fixture(scope="module")
def quick_docs(tmp_path_factory):
    """One real quick run of the two cheapest figures: {figure: (path, doc)}."""
    out = tmp_path_factory.mktemp("bench")
    paths = bench.run_bench(
        out_dir=str(out), quick=True, only=["fig6", "eventproc"], echo=lambda _: None
    )
    return {
        figure: (path, json.loads(Path(path).read_text()))
        for figure, path in zip(("fig6", "eventproc"), paths)
    }


def _measured(doc):
    return {row["name"]: row["measured"] for row in doc["comparisons"]}


def test_run_bench_writes_valid_fig6(quick_docs):
    path, doc = quick_docs["fig6"]
    assert bench.validate(doc) == []
    assert doc["figure"] == "fig6"
    assert doc["quick"] is True
    # The instrumented snapshot rode along and has the counters wired
    # through the kernel hot paths.
    metrics = doc["metrics"]
    assert metrics["metrics"]["kernel.ipc.sends"] > 0
    assert metrics["label_ops"]["fast_path"] > 0
    assert metrics["spans_recorded"] > 0
    # Slopes landed in the calibrated bands: ~1.5 pages per cached
    # session, eight more (stack, message queue, heap) per active one.
    measured = _measured(doc)
    assert 1.2 <= measured["pages per cached session"] <= 1.8
    assert 8.5 <= measured["pages per active session"] <= 10.5
    assert 7.0 <= measured["extra pages per active session"] <= 9.0
    # validate_files agrees with validate.
    assert bench.validate_files([path]) == {path: []}


def test_run_bench_is_byte_deterministic(quick_docs, tmp_path):
    """A document is a pure function of the tree: a second run writes
    the same bytes, which is what lets the guard be equality."""
    again = bench.run_bench(
        out_dir=str(tmp_path), quick=True, only=["fig6", "eventproc"], echo=lambda _: None
    )
    for (first, _), second in zip(quick_docs.values(), again):
        assert Path(first).read_bytes() == Path(second).read_bytes()


def test_eventproc_document_carries_the_section_6_rows(quick_docs):
    _, doc = quick_docs["eventproc"]
    assert bench.validate(doc) == []
    measured = _measured(doc)
    assert measured["event process struct"] == 44
    assert measured["minimal process struct"] == 320
    assert measured["modelled spawn / ep_create"] > 10
    # Dormant event processes cost exactly their session page, and a
    # resumed one is the same event process (one per session, not one
    # per message) with its state intact.
    assert measured["event processes after 100 first connections"] == 100
    assert measured["user pages held by 100 dormant EPs"] == 100
    assert measured["counter survives 50 resumes"] is True
    assert measured["event processes after 50 resumes"] == 100
    # The forked server Section 6 argues against: several times heavier
    # in memory and creation cost, and one schedulable process per user.
    assert measured["pages per session, event processes"] < 2.0
    assert measured["memory, forked / EP"] > 2.0
    assert measured["creation cycles, forked / EP"] > 3.0
    assert measured["processes, forked server"] >= doc["meta"]["sessions"]
    assert measured["processes, event-process server"] < 5


# -- the committed baselines ----------------------------------------------------
#
# CI's guard holds a fresh quick run equal to these files, so a shape
# asserted here is asserted of every fresh quick document too.

ROOT = Path(__file__).resolve().parent.parent


def _committed(figure):
    return json.loads((ROOT / f"BENCH_{figure}.json").read_text())


def test_every_committed_document_validates():
    paths = sorted(str(p) for p in ROOT.glob("BENCH_*.json"))
    assert len(paths) == len(bench.FIGURES)
    assert bench.validate_files(paths) == {path: [] for path in paths}


def test_committed_fig7_and_labelops_shapes():
    fig7 = _committed("fig7")
    measured = _measured(fig7)
    assert measured["OKWS(1) / Apache (paper: better, i.e. > 1)"] > 1
    assert 0.4 <= measured["OKWS(1) / Mod-Apache"] <= 0.7
    assert measured["throughput degrades monotonically"] is True
    growth = _measured(_committed("labelops"))
    assert growth["fused/paper IPC growth (paper: well under half)"] < 0.5


def test_committed_fig8_shapes():
    doc = _committed("fig8")
    median = {name: ser["y"][0] for name, ser in doc["series"].items()}
    spread = {name: ser["y"][1] / ser["y"][0] for name, ser in doc["series"].items()}
    big = f"OKWS, {doc['meta']['big_sessions']} sessions"
    # The orderings the paper draws conclusions from.
    assert median["Mod-Apache"] < median["OKWS, 1 session"] < median["Apache"]
    assert spread["OKWS, 1 session"] < spread["Apache"]
    assert median[big] > median["OKWS, 1 session"]
    # Absolute calibration sanity (test_baselines.py bands the Apaches).
    assert 1100 <= median["OKWS, 1 session"] <= 2600


def test_committed_fig9_shapes():
    doc = _committed("fig9")
    ys = {name: ser["y"] for name, ser in doc["series"].items()}
    # With one session, OKWS code and the network stack dominate.
    assert ys["kcycles_Network"][0] + ys["kcycles_OKWS"][0] > 0.6 * ys["kcycles_total"][0]
    # Per-connection authentication and label work grow with sessions.
    assert ys["kcycles_OKDB"] == sorted(set(ys["kcycles_OKDB"]))
    measured = _measured(doc)
    assert measured["kernel IPC cost grows with sessions"] is True
    # Section 9.3's label growth, on live kernel state.
    assert measured["idd send-label entries per user"] >= 2
    assert measured["ok-dbproxy send-label entries per user"] >= 2
    assert measured["netd receive-label entries per user"] >= 1


# -- figures from a stub sweep: the rows only the paper's grid produces --------

#: EXPERIMENTS.md's Figure 9 table: sessions, then Kcycles/connection for
#: OKDB, OKWS, Kernel IPC, Network, Other.
PAPER_GRID_ROWS = [
    (1, 28, 505, 183, 619, 63),
    (100, 38, 513, 204, 619, 70),
    (1000, 128, 588, 322, 619, 70),
    (3000, 328, 754, 584, 619, 70),
    (5000, 528, 920, 847, 619, 70),
    (7500, 778, 1128, 1174, 619, 70),
    (10000, 1028, 1336, 1503, 619, 70),
]


def _stub_sweep(rows):
    from repro.kernel.clock import CATEGORIES, CPU_HZ
    from repro.sim.runner import SweepPoint

    points = [
        SweepPoint(n, 4 * n, CPU_HZ / (sum(kcyc) * 1000), dict(zip(CATEGORIES, kcyc)), sum(kcyc))
        for n, *kcyc in rows
    ]
    return [n for n, *_ in rows], points


@pytest.fixture
def cheap_fig7(monkeypatch):
    """fig7's three expensive helpers replaced by constants."""
    for helper in ("_interning_speedup", "_elision_speedup"):
        monkeypatch.setattr(bench, helper, lambda n: {"sessions": n, "speedup": 1.5})
    monkeypatch.setattr(bench, "_cluster_single_shard_point", lambda n: 1900.0)


def test_fig7_has_no_wall_clock_probe(cheap_fig7):
    doc = bench.run_fig7(True, _stub_sweep(PAPER_GRID_ROWS[:3]))
    assert bench.validate(doc) == []
    assert not [key for key in doc["metrics"] if key.startswith("obs_")]
    assert not hasattr(bench, "time")
    # Quick warm windows follow the reduced grid.
    assert doc["series"]["interning_speedup"]["x"] == [1000]


def test_paper_grid_rows_of_fig7_and_fig9(cheap_fig7):
    """The claims about the far end of the paper's grid, which a quick
    run cannot make: built from a sweep carrying EXPERIMENTS.md's table."""
    sweep = _stub_sweep(PAPER_GRID_ROWS)
    fig7 = bench.run_fig7(False, sweep)
    measured = _measured(fig7)
    # The crossover happened, and OKWS(10,000) is "approximately half".
    assert 0.35 < measured["OKWS(10000) / Apache (paper: approximately half)"] < 1
    assert 1000 < measured["sessions where OKWS falls below Apache"] < 5000
    # The warm windows stay at 3,000 sessions by name, not grid[-1].
    assert fig7["series"]["interning_speedup"]["x"] == [bench.WARM_SESSIONS]
    assert fig7["series"]["elision_speedup"]["x"] == [bench.WARM_SESSIONS]
    measured = _measured(bench.run_fig9(False, sweep))
    assert 2000 <= measured["sessions where Kernel IPC passes Network"] <= 4500
    assert measured["sessions where Kernel IPC meets OKWS"] >= 5500
    assert measured["worst deviation from a line, 100+ sessions (paper: linear)"] < 0.25


def test_validate_files_reports_bad_json(tmp_path):
    bad = tmp_path / "BENCH_broken.json"
    bad.write_text("{not json")
    results = bench.validate_files([str(bad)])
    assert results[str(bad)]


# -- guard_files: equality, naming what differs ---------------------------------


def _guard_pair(tmp_path, name, base_series, fresh_series, fresh_quick=True):
    """Write a baseline doc and a fresh doc and run the guard on them."""

    def doc(series, quick=True):
        d = _minimal_doc()
        d["series"] = series
        d["quick"] = quick
        return d

    base = tmp_path / name
    fresh_dir = tmp_path / "fresh"
    fresh_dir.mkdir(exist_ok=True)
    base.write_text(json.dumps(doc(base_series)))
    (fresh_dir / name).write_text(json.dumps(doc(fresh_series, fresh_quick)))
    return bench.guard_files([str(base)], str(fresh_dir))


@pytest.mark.parametrize("factor", [0.999, 1.001], ids=["down", "up"])
def test_guard_fails_a_point_moved_in_either_direction(tmp_path, factor):
    """Simulated numbers are deterministic: a 0.1% move of one point, up
    or down, in a cost or a benefit series, is a change in what the
    kernel bills, and the guard names the series and the x."""
    for unit in ("Kcycles/conn", "conn/s"):
        base = {"kernel_ipc": {"x": [50, 200], "y": [212.1, 220.7], "unit": unit}}
        moved = {"kernel_ipc": {"x": [50, 200], "y": [212.1, 220.7 * factor], "unit": unit}}
        problems = _guard_pair(tmp_path, "BENCH_labelops.json", base, moved)
        assert len(problems) == 1
        assert "kernel_ipc@x=200" in problems[0]


def test_guard_passes_identical_documents_and_names_other_paths(tmp_path):
    series = {"tput": {"x": [1, 2], "y": [100.0, 200.0], "unit": "conn/s"}}
    assert _guard_pair(tmp_path, "BENCH_fig7.json", series, series) == []
    # Outside the series, a difference is named by its path.
    fresh = _minimal_doc()
    fresh["series"] = series
    fresh["comparisons"][0]["measured"] = 2.5
    fresh["metrics"] = {"steps": 7}
    (tmp_path / "fresh" / "BENCH_fig7.json").write_text(json.dumps(fresh))
    problems = bench.guard_files([str(tmp_path / "BENCH_fig7.json")], str(tmp_path / "fresh"))
    assert len(problems) == 2
    assert "comparisons[0].measured: baseline 2.0, fresh 2.5" in problems[0]
    assert "metrics: baseline None" in problems[1]


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
    # A quick run is never compared with a full-grid baseline: said once,
    # before any series is looked at.
    problems = _guard_pair(tmp_path, "BENCH_scale.json", base, fresh, fresh_quick=False)
    assert problems == ["BENCH_scale.json: baseline is quick, fresh run is full-grid"]
