"""The perf ledger: end-to-end and per-layer cost of ``run_experiment`` calls.

``python3 benchmarks/perf/run.py`` is the pipeline's entry point (one
workload, one seed, see ``BENCHMARK.json``); ``python -m benchmarks.perf`` is
the same measurement for a person: all five workloads, every metric printed,
and ``compare`` for two recorded ledgers.  See ``README.md`` in this
directory for the glossary and the caveats.
"""
