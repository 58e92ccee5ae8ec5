"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload sweep|ota|attestd \\
        --seed N --seconds S --trace 0|1

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs the
traced variant and reports the per-layer metrics.  Comment lines
(``#``) describe the environment and the workload-specific figures; the
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full result,
and in trace mode every span, is written under ``perfbench/out/``.

Exit status: 0 when every check passed, 1 when a check failed (the JSON
line then reports ``correct: false`` and no timings), 2 when the run
could not start (bad environment, program sources missing).
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent

#: Environment variables that silently change which program runs.
GUARDED_ENV = ("REPRO_FAST_PATH", "REPRO_INCREMENTAL", "REPRO_FLEET_WORKERS")

#: ``(name, unit)`` of the end-to-end metrics, as in BENCHMARK.json.
END_TO_END = (("setup_s", "s"), ("attest_per_s", "1/s"), ("rss_mb", "MB"),
              ("round_ms", "ms"))


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("sweep", "ota", "attestd"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _fail_to_start(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def main(argv=None) -> int:
    args = _parse(argv)
    guarded = [name for name in GUARDED_ENV if name in os.environ]
    if guarded:
        return _fail_to_start(
            f"{', '.join(guarded)} set: each selects a different program "
            "than the one this benchmark measures; unset it")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        return _fail_to_start(f"program sources not found under {ROOT}/src")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    from repro import fastpath

    from perfbench import layers, workloads
    from perfbench.tracer import Tracer

    env = {"workload": args.workload, "seed": args.seed,
           "seconds": args.seconds, "trace": args.trace,
           "cpus": os.cpu_count(), "python": platform.python_version(),
           "engine": fastpath.engine(),
           "incremental": fastpath.incremental_enabled()}
    print("# env " + json.dumps(env))

    tracer = layers.instrument(Tracer()) if args.trace else None
    result = workloads.WORKLOADS[args.workload](args.seed, args.seconds,
                                                tracer=tracer)
    if args.seed == workloads.DEFAULT_SEED:
        stored = json.loads((HERE / "fingerprints.json").read_text())
        expected = stored[args.workload]
        actual = json.loads(json.dumps(result["fingerprint"]))
        if actual != expected:
            result["failed"] += 1
            result["errors"].append(
                f"fingerprint for seed {args.seed} differs from "
                f"fingerprints.json: {json.dumps(actual, sort_keys=True)}")
    correct = result["failed"] == 0 and result["fingerprint"] is not None

    values = {"setup_s": result["setup_s"], "rss_mb": result["rss_mb"],
              **result["metrics"]}
    detail = dict(result["detail"])
    if args.trace:
        layer_values = layers.layer_metrics(tracer, result["counters"])
        metrics = {name: {"value": layer_values[name], "unit": unit}
                   for name, unit, _ in layers.PER_LAYER}
    else:
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END}
    detail["failed_frac"] = result["failed"] / max(result["attempted"], 1)
    print("# " + args.workload + " "
          + " ".join(f"{key}={value:.6g}" if isinstance(value, float)
                     else f"{key}={value}" for key, value in detail.items()))
    for error in result["errors"]:
        print(f"perfbench: check failed: {error}", file=sys.stderr)

    out = HERE / "out"
    out.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer is not None:
        tracer.write_jsonl(out / f"{stem}.spans.jsonl")
    (out / f"{stem}.json").write_text(json.dumps(
        {"env": env, "correct": correct, "attempted": result["attempted"],
         "failed": result["failed"], "errors": result["errors"],
         "fingerprint": result["fingerprint"], "metrics": metrics,
         "detail": detail, "samples": result["samples"]}, indent=2) + "\n")

    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics if correct else {}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
