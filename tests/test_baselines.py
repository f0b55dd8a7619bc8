"""Baseline model tests: Figure 8's latency table and Figure 7's
throughput plateaus for Apache+CGI and Mod-Apache."""

import pytest

from repro.baselines import ApacheCgiModel, ModApacheModel
from repro.sim.stats import percentile


@pytest.fixture(scope="module")
def apache4():
    return ApacheCgiModel().run(2000, concurrency=4)


@pytest.fixture(scope="module")
def mod4():
    return ModApacheModel().run(2000, concurrency=4)


def test_mod_apache_latency_matches_figure8(mod4):
    # Paper: median 999 µs, 90th percentile 1,015 µs.
    median = percentile(mod4.latencies_us, 50)
    p90 = percentile(mod4.latencies_us, 90)
    assert 900 <= median <= 1100
    assert 920 <= p90 <= 1150
    assert p90 / median < 1.1    # in-process handlers are near-deterministic


def test_apache_cgi_latency_matches_figure8(apache4):
    # Paper: median 3,374 µs, 90th percentile 5,262 µs.
    median = percentile(apache4.latencies_us, 50)
    p90 = percentile(apache4.latencies_us, 90)
    assert 3000 <= median <= 3900
    assert 4300 <= p90 <= 6200
    assert p90 / median > 1.3    # fork+exec makes CGI long-tailed


def test_relative_ordering(apache4, mod4):
    # Mod-Apache responds "with three to five times" lower latency.
    ratio = percentile(apache4.latencies_us, 50) / percentile(mod4.latencies_us, 50)
    assert 3.0 <= ratio <= 5.0


def test_throughput_plateaus():
    cgi = ApacheCgiModel().run(4000, concurrency=400)
    mod = ModApacheModel().run(4000, concurrency=16)
    # Paper Figure 7: Apache ~1,000 conn/s; Mod-Apache ~3,000-4,000.
    assert 900 <= cgi.throughput <= 1300
    assert 2800 <= mod.throughput <= 4500
    assert mod.throughput > 2.5 * cgi.throughput


def test_concurrency_increases_latency_not_throughput():
    low = ModApacheModel().run(1000, concurrency=1)
    high = ModApacheModel().run(1000, concurrency=16)
    assert percentile(high.latencies_us, 50) > percentile(low.latencies_us, 50)
    assert high.throughput >= low.throughput * 0.9


def test_deterministic_given_seed():
    a = ApacheCgiModel(seed=7).run(500, concurrency=4)
    b = ApacheCgiModel(seed=7).run(500, concurrency=4)
    assert a.latencies_us == b.latencies_us


def test_invalid_args_rejected():
    with pytest.raises(ValueError):
        ModApacheModel().run(0, concurrency=4)
    with pytest.raises(ValueError):
        ModApacheModel().run(10, concurrency=0)


# -- stats helpers ------------------------------------------------------------------


def test_percentile_basics():
    values = list(range(1, 101))
    assert percentile(values, 50) == 50.5
    assert percentile(values, 0) == 1
    assert percentile(values, 100) == 100
    assert percentile([7], 90) == 7


def test_percentile_errors():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1], 150)


