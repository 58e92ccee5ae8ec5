"""Shared helpers for the benchmark harness.

Every benchmark regenerates one of the paper's tables/figures and writes
the rendered result to ``benchmarks/results/<name>.txt`` (also echoed to
stdout, visible with ``pytest -s``).  EXPERIMENTS.md records the
paper-vs-measured comparison these files feed.  Host-time reports
(``BENCH_*.json``) are written only by ``repro bench``.
"""

from __future__ import annotations

import pathlib

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def write_report(name: str, text: str) -> pathlib.Path:
    """Persist a rendered experiment report and echo it."""
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{name}.txt"
    path.write_text(text + "\n")
    print(f"\n=== {name} ===\n{text}\n")
    return path


def run_once(benchmark, fn):
    """Execute one experiment under pytest-benchmark accounting.

    Report-generating tests use this so they run (and are timed) in
    ``--benchmark-only`` mode: regenerating a paper table *is* the
    experiment.
    """
    return benchmark.pedantic(fn, rounds=1, iterations=1)
