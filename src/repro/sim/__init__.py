"""Experiment machinery: workload generation, statistics, and the
end-to-end experiment drivers that regenerate the paper's figures."""

from repro.sim.workload import HttpClient, HttpResponse
from repro.sim.stats import percentile
from repro.sim.trace import FlowEvent, FlowTracer

__all__ = [
    "HttpClient",
    "HttpResponse",
    "percentile",
    "FlowEvent",
    "FlowTracer",
]
