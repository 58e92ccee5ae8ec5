"""Host wall-clock performance benches.

Everything in this package measures *host* time -- how long the Python
process takes to execute simulated work -- never simulated time.
:mod:`repro.perf.bench` is the one core that times, gates, checks and
writes every ``BENCH_<name>.json``; ``wallclock``, ``fleet``,
``incremental``, ``service`` and ``snapshot`` are declarations on it,
each proving with its own ``equivalence_check`` that the fast path
changes no simulated output.  See ``docs/performance.md``.
"""
