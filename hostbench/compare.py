"""``compare``: two run documents under the benchmark's bounds.
``spread``: what N runs of the same code say about those bounds."""

from __future__ import annotations

import json
import os
import statistics
from typing import Any, Dict, List, Optional

from hostbench import spec

SPREAD_FILE = os.path.join(os.path.dirname(__file__), "results", "spread.json")


def _value(run: Dict[str, Any], workload: str, metric: str) -> Optional[float]:
    entry = run["workloads"].get(workload, {}).get("metrics", {}).get(metric)
    return None if entry is None else entry["value"]


def recorded_spread() -> Dict[str, Dict[str, float]]:
    """The committed run-to-run spread (interquartile range over median),
    per workload and metric; empty if none was recorded."""
    try:
        with open(SPREAD_FILE) as handle:
            return json.load(handle)["spread"]
    except (OSError, KeyError, ValueError):
        return {}


def median_of(passes: List[Dict[str, Any]]) -> Dict[str, Any]:
    """The workloads of one run document from several passes over the same
    seed: each metric's median (every pass's value kept beside it).  An
    exact metric that differs between passes is a failed check."""
    merged: Dict[str, Any] = {}
    for name, first in passes[0].items():
        results = [one[name] for one in passes]
        failures = [message for result in results for message in result["failures"]]
        metrics = {}
        for metric_name, entry in first["metrics"].items():
            values = [r["metrics"][metric_name]["value"] for r in results
                      if metric_name in r["metrics"]]
            if spec.metric(metric_name).bound == 0.0 and len(set(values)) > 1:
                failures.append(f"{metric_name} differs between passes: {values}")
            metrics[metric_name] = {"value": statistics.median(values),
                                    "unit": entry["unit"], "passes": values}
        merged[name] = dict(
            first, metrics=metrics, failures=failures,
            correct=all(r["correct"] for r in results) and not failures,
            attempted=sum(r["attempted"] for r in results),
            failed=sum(r["failed"] for r in results),
        )
    return merged


def worsening(metric: spec.Metric, base: float, change: float) -> float:
    """By what share of the base *change* is worse (negative = better)."""
    if base == 0:
        return 0.0 if change == 0 else float("inf")
    delta = (base - change) if metric.better == "higher" else (change - base)
    return delta / abs(base)


def verdict(metric: spec.Metric, base: float, change: float, noise: Optional[float]) -> str:
    """*noise* is the recorded run-to-run spread (interquartile range over
    median).  Two single runs of the same code differ by up to about
    twice that, so a worsening beyond the bound but within twice the
    spread is ``unresolved``, as is anything under a spread wider than
    the bound; neither is ever ``unchanged``."""
    if metric.bound == 0.0:
        return "unchanged" if base == change else "regressed"
    if abs(change - base) <= metric.slack:
        return "unchanged"
    worse = worsening(metric, base, change)
    if worse > max(metric.bound, 2 * (noise or 0.0)):
        return "regressed"
    if worse > metric.bound or (noise or 0.0) > metric.bound:
        return "unresolved"
    return "unchanged"


def report(base: Dict[str, Any], change: Dict[str, Any]) -> int:
    """Print workload x metric rows (each ratio with its base); return 1
    on any regression or any exact metric differing."""
    noise = recorded_spread()
    counts = {"regressed": 0, "unresolved": 0, "unchanged": 0}
    print(f"{'workload':22} {'metric':28} {'base':>12} {'change':>12} "
          f"{'ratio':>7} {'bound':>6} {'spread':>7}  verdict")
    for workload in spec.ALL:
        for metric in spec.END_TO_END:
            a = _value(base, workload, metric.name)
            b = _value(change, workload, metric.name)
            if a is None or b is None:
                continue
            spread_share = noise.get(workload, {}).get(metric.name)
            result = verdict(metric, a, b, spread_share)
            counts[result] += 1
            ratio = f"{b / a:7.3f}" if a else "      -"
            bound = "exact" if metric.bound == 0.0 else f"{metric.bound:.0%}"
            shown = "      -" if spread_share is None else f"{spread_share:7.1%}"
            print(f"{workload:22} {metric.name:28} {a:12.6g} {b:12.6g} "
                  f"{ratio} {bound:>6} {shown}  {result}")
    print("  ".join(f"{name}: {count}" for name, count in counts.items()))
    return 1 if counts["regressed"] else 0


def spread(runs: List[Dict[str, Any]]) -> Dict[str, Dict[str, float]]:
    """Interquartile range over median of every end-to-end metric across
    *runs* (the procedure the PR driver applies), printed beside its bound."""
    table: Dict[str, Dict[str, float]] = {}
    print(f"{'workload':22} {'metric':28} {'median':>12} {'spread':>7} {'bound':>6}")
    for workload in spec.ALL:
        for metric in spec.END_TO_END:
            values = [v for v in (_value(run, workload, metric.name) for run in runs)
                      if v is not None]
            if len(values) < 2:
                continue
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            share = (q3 - q1) / abs(median) if median else 0.0
            table.setdefault(workload, {})[metric.name] = share
            bound = "exact" if metric.bound == 0.0 else f"{metric.bound:.0%}"
            flag = "" if not metric.bound or share <= metric.bound / 3 else "  > bound/3"
            print(f"{workload:22} {metric.name:28} {median:12.6g} {share:7.1%} "
                  f"{bound:>6}{flag}")
    return table
