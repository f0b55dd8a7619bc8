"""hostbench — the host-time benchmark for the Asbestos reproduction.

Two currencies, never mixed: **host time** is what the Python costs on
this machine; **simulated time** is the paper's cycle clock.  Every
metric says which it is (see README.md).

Entry points (``python -m hostbench <command>``):

- ``bench``   — one workload, one process; the line the PR driver reads;
- ``run``     — every workload, tracing off, each in a fresh interpreter;
- ``trace``   — every workload, the traced per-layer run;
- ``compare`` — two ``run`` documents, with the bounds applied;
- ``spread``  — N seeds per workload; the observed run-to-run spread;
- ``manifest`` — print ``BENCHMARK.json`` as ``spec.py`` defines it.
"""
