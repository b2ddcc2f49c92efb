"""Run one benchmark workload and print its metrics as one JSON line.

Usage, from the repository root::

    python3 perfbench/run.py --workload campaign --seed 1 --seconds 20 --trace 0

Each pass builds the world from scratch (timed as set-up), then runs the
workload's timed region once. Passes repeat until ``--seconds`` of wall
time have gone by and at least ``MIN_PASSES`` have run; every figure
reported is the median over passes. Set-up is then repeated until it has
been timed ``MIN_SETUPS`` times. With ``--trace 1`` each untraced pass
is followed by a traced one, and the per-layer metrics of the traced
passes are printed instead of the end-to-end ones.

Outputs are checked: every pass's digest must equal the reference recorded
in ``references.json`` for this workload and seed (or, for a seed with no
recorded reference, the first pass's digest). A mismatching pass counts all
its operations as failed; the run then prints ``"correct": false`` and
exits with status 1.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

MIN_PASSES = 2
#: Set-up timings per end-to-end run; a workload with long passes builds
#: extra worlds after its passes and discards them.
MIN_SETUPS = 7
WORKLOAD_NAMES = ("campaign", "serve_hot", "serve_cold")
REFERENCES = HERE / "references.json"


def _import_program():
    """Put the checkout's ``src`` on the path and load the benchmark."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program source at {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import layers
    import workloads
    return layers, workloads


def _timed_setup(spec, inputs):
    gc.collect()
    started = time.perf_counter()
    system = spec.setup(inputs)
    return system, time.perf_counter() - started


def _end_to_end(passes, setup_times) -> dict:
    rows = [p for p in passes if not p.traced]
    attempted = sum(p.attempted for p in rows)
    failed = sum(p.failed for p in rows)
    latencies = np.concatenate([p.latencies for p in rows])

    def median(values):
        return float(statistics.median(values))

    return {
        "setup_s": (median(setup_times), "s"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"
        ),
        "ok_frac": (1.0 - failed / attempted, "ratio"),
        "full_verdict_frac": (
            1.0 - sum(p.degraded for p in rows) / max(1, sum(p.verdicts for p in rows)),
            "ratio",
        ),
        "throughput_per_s": (median([p.work / p.elapsed_s for p in rows]), "1/s"),
        "latency_p99_us": (float(np.percentile(latencies, 99)) * 1e6, "us"),
    }


def _per_layer(passes, tracers, layers) -> dict:
    traced = [p for p in passes if p.traced]
    untraced = [p for p in passes if not p.traced]
    per_tracer = [tracer.metrics() for tracer in tracers]
    metrics = {
        name: (statistics.fmean(values[name][0] for values in per_tracer), unit)
        for name, (_value, unit) in per_tracer[0].items()
    }
    # Layer shares are taken of the program's own (untraced) run time, not
    # of the traced pass, whose wrappers lengthen it. Traced self times
    # still carry some wrapper cost, so a share is an upper bound.
    base_s = statistics.median(p.elapsed_s for p in untraced)
    metrics["trace.untraced_run.s"] = (base_s, "s")
    metrics["trace.preprocess_classify_share"] = (
        statistics.fmean(
            tracer.self_seconds(layers.PREPROCESS_CLASSIFY) for tracer in tracers
        ) / base_s,
        "ratio",
    )
    metrics["trace.overhead_ratio"] = (
        statistics.median(p.work / p.elapsed_s for p in traced)
        / statistics.median(p.work / p.elapsed_s for p in untraced),
        "ratio",
    )
    return metrics


def run(workload: str, seed: int, seconds: float, trace: bool, size: str) -> dict:
    layers, workloads = _import_program()
    spec = workloads.WORKLOADS[workload]
    inputs = spec.make_inputs(seed, size)
    passes, tracers = [], []
    started = time.perf_counter()
    while len(passes) < MIN_PASSES * (2 if trace else 1) or (
        time.perf_counter() - started < seconds
    ):
        for traced in (False, True) if trace else (False,):
            system, setup_s = _timed_setup(spec, inputs)
            gc.collect()
            tracer = layers.LayerTracer() if traced else None
            if tracer is not None:
                tracer.install()
            try:
                result = spec.measure(system, inputs)
            finally:
                if tracer is not None:
                    tracer.uninstall()
            result.setup_s, result.traced = setup_s, traced
            print(f"pass traced={int(traced)} setup_s={setup_s:.4f} "
                  f"elapsed_s={result.elapsed_s:.4f} work={result.work}",
                  file=sys.stderr)
            passes.append(result)
            if tracer is not None:
                tracers.append(tracer)
            del system
    setup_times = [p.setup_s for p in passes if not p.traced]
    while not trace and len(setup_times) < MIN_SETUPS:
        setup_times.append(_timed_setup(spec, inputs)[1])

    references = json.loads(REFERENCES.read_text()) if REFERENCES.is_file() else {}
    expected = references.get(f"{workload}/{size}", {}).get(str(seed), passes[0].digest)
    for result in passes:
        if result.digest != expected:
            result.failed = result.attempted
    metrics = (
        _per_layer(passes, tracers, layers) if trace
        else _end_to_end(passes, setup_times)
    )
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
        "digest": expected,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help="smoke: tiny inputs for the benchmark's own tests")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), args.size)
    digest = result.pop("digest")
    print(f"digest {digest}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
