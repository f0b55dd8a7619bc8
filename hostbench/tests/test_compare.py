"""compare: bounds applied per direction, exact metrics, noise-aware verdicts."""

from hostbench import compare, spec


def _run(**metrics):
    return {"workloads": {"echo_s300": {"metrics": {
        name: {"value": value, "unit": spec.metric(name).unit}
        for name, value in metrics.items()}}}}


def test_worsening_respects_direction():
    rate, setup = spec.metric("conn_per_s"), spec.metric("setup_s")
    assert compare.worsening(rate, 100.0, 80.0) == 0.2
    assert compare.worsening(rate, 100.0, 120.0) < 0
    assert compare.worsening(setup, 1.0, 1.5) == 0.5


def test_verdicts():
    rate = spec.metric("conn_per_s")
    assert compare.verdict(rate, 100.0, 95.0, noise=0.02) == "unchanged"
    assert compare.verdict(rate, 100.0, 85.0, noise=0.02) == "regressed"
    assert compare.verdict(rate, 100.0, 95.0, noise=0.2) == "unresolved"
    assert compare.verdict(rate, 100.0, 85.0, noise=0.08) == "unresolved"
    assert compare.verdict(rate, 100.0, 55.0, noise=0.2) == "regressed"
    exact = spec.metric("sim_kcycles_per_conn")
    assert compare.verdict(exact, 1500.0, 1500.0, None) == "unchanged"
    assert compare.verdict(exact, 1500.0, 1499.9, None) == "regressed"


def test_setup_slack_is_absolute():
    setup = spec.metric("setup_s")
    assert compare.verdict(setup, 0.14, 0.19, noise=0.05) == "unchanged"   # +36%, +0.05 s
    assert compare.verdict(setup, 4.0, 5.5, noise=0.05) == "regressed"     # +37%, +1.5 s


def test_median_of_passes():
    def result(rate, cycles, ok=True):
        doc = _run(conn_per_s=rate, sim_kcycles_per_conn=cycles)["workloads"]
        doc["echo_s300"].update(correct=ok, attempted=10, failed=0 if ok else 1,
                                failures=[] if ok else ["echo reply for u1"])
        return doc

    merged = compare.median_of([result(100.0, 1500.0), result(300.0, 1500.0),
                                result(110.0, 1500.0)])["echo_s300"]
    assert merged["metrics"]["conn_per_s"]["value"] == 110.0
    assert merged["metrics"]["conn_per_s"]["passes"] == [100.0, 300.0, 110.0]
    assert merged["correct"] and merged["attempted"] == 30
    drifted = compare.median_of([result(100.0, 1500.0), result(100.0, 1500.5)])["echo_s300"]
    assert not drifted["correct"] and "sim_kcycles_per_conn" in drifted["failures"][0]
    failed = compare.median_of([result(100.0, 1500.0), result(100.0, 1500.0, ok=False)])
    assert not failed["echo_s300"]["correct"] and failed["echo_s300"]["failed"] == 1


def test_report_exit_codes(capsys, monkeypatch):
    monkeypatch.setattr(compare, "recorded_spread", dict)
    base = _run(conn_per_s=500.0, sim_kcycles_per_conn=1500.0, failed_share=0.0)
    assert compare.report(base, base) == 0
    slower = _run(conn_per_s=400.0, sim_kcycles_per_conn=1500.0, failed_share=0.0)
    assert compare.report(base, slower) == 1
    drifted = _run(conn_per_s=500.0, sim_kcycles_per_conn=1500.5, failed_share=0.0)
    assert compare.report(base, drifted) == 1
    out = capsys.readouterr().out
    assert "regressed: 1" in out and "0.800" in out


def test_spread_is_iqr_over_median(capsys):
    runs = [_run(conn_per_s=value) for value in (90.0, 100.0, 100.0, 110.0)]
    table = compare.spread(runs)
    assert 0 < table["echo_s300"]["conn_per_s"] < 0.25
