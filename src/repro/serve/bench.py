"""Shared serve-benchmark runner behind ``repro serve-bench`` and
``benchmarks/bench_serve_throughput.py``.

The benchmark answers the serving subsystem's headline questions with one
world and one replayed workload:

* how much faster is the batched + cached request path than the naive
  per-navigation ``process`` + ``classify_page`` loop the extension used
  to run (the ≥ 3× acceptance bar);
* where do verdicts come from (per-tier cache hit rates, feed, model,
  degraded fast path);
* what does overload do (degraded-mode fraction, queue depth).

Wall-clock numbers come from :func:`repro.obs.tracing.wall_clock` — the
library's one sanctioned real-time reader — and only shape the benchmark
payload, never verdicts. Run with ``mode="sim"`` and the payload's
``telemetry`` is a pure function of the seed.
"""

from __future__ import annotations

from typing import List, Tuple

from ..config import SeedBank
from ..core.classifier import FreePhishClassifier
from ..core.preprocess import Preprocessor
from ..ml import RandomForestClassifier
from ..obs.instrument import Instrumentation
from ..obs.tracing import wall_clock
from ..sim.groundtruth import build_ground_truth
from ..simnet.url import URL
from ..simnet.web import Web
from .admission import FastPathModel
from .service import ServedFrom, VerdictService
from .workload import NavigationWorkload

#: Payload schema identifier for ``BENCH_serve.json``.
BENCH_SCHEMA = "repro.serve/bench.v1"


def _build_serving_world(
    seed: int, n_sites_per_class: int
) -> Tuple[Web, List[URL], SeedBank, FastPathModel, FreePhishClassifier]:
    """Ground-truth world + trained full and fast-path models."""
    seeds = SeedBank(seed)
    dataset = build_ground_truth(
        n_per_class=n_sites_per_class, seed=seeds.child_seed("serve.groundtruth")
    )
    classifier = FreePhishClassifier(
        model=RandomForestClassifier(
            n_estimators=30, random_state=seeds.child_seed("serve.model")
        )
    )
    classifier.fit_pages(dataset.pages, dataset.labels)
    fast_path = FastPathModel().fit_urls(
        [page.url for page in dataset.pages], dataset.labels
    )
    population = [page.url for page in dataset.pages]
    return dataset.web, population, seeds, fast_path, classifier


def run_serve_bench(
    seed: int = 20231024,
    n_sites_per_class: int = 60,
    n_minutes: int = 120,
    requests_per_minute: float = 60.0,
    zipf_exponent: float = 1.1,
    diurnal_amplitude: float = 0.6,
    max_batch_size: int = 32,
    max_wait_minutes: int = 2,
    max_queue_depth: int = 256,
    max_batches_per_tick: int = 4,
    baseline_requests: int = 200,
    mode: str = "wall",
    include_telemetry: bool = False,
) -> dict:
    """Replay one seeded workload through the serving stack; report.

    ``mode="wall"`` (the default) profiles real seconds for the
    throughput/latency numbers. ``mode="sim"`` skips wall timing entirely
    so the returned telemetry is byte-reproducible across same-seed runs
    (the determinism tests use this).
    """
    web, population, seeds, fast_path, classifier = _build_serving_world(
        seed, n_sites_per_class
    )
    workload = NavigationWorkload(
        population,
        seeds,
        zipf_exponent=zipf_exponent,
        requests_per_minute=requests_per_minute,
        diurnal_amplitude=diurnal_amplitude,
    )
    stream = list(workload.iter_minutes(0, n_minutes))
    n_requests = sum(len(requests) for _minute, requests in stream)
    clock = wall_clock()  # reprolint: disable=RP105 — the serve bench measures real latency; verdicts stay seed-pure

    # -- baseline: the pre-serve extension hot path, one URL at a time ------
    flat = [url for _minute, requests in stream for url in requests]
    baseline_sample = flat[: min(baseline_requests, len(flat))]
    baseline_pre = Preprocessor(web)
    baseline_start = clock()
    for url in baseline_sample:
        page = baseline_pre.process(url, 0)
        if page is not None:
            classifier.classify_page(page)
    baseline_elapsed = clock() - baseline_start
    baseline_rps = (
        len(baseline_sample) / baseline_elapsed if baseline_elapsed > 0 else 0.0
    )

    # -- served: batched + cached + admission-controlled --------------------
    instrumentation = (
        Instrumentation.profiling() if mode == "wall" else Instrumentation(mode=mode)
    )
    service = VerdictService(
        web,
        classifier,
        fast_path=fast_path,
        max_batch_size=max_batch_size,
        max_wait_minutes=max_wait_minutes,
        max_queue_depth=max_queue_depth,
        max_batches_per_tick=max_batches_per_tick,
        instrumentation=instrumentation,
    )
    n_immediate = n_degraded = n_blocked = 0
    served_start = clock()
    for minute, requests in stream:
        instrumentation.set_time(minute)
        for url in requests:
            verdict = service.submit(url, minute)
            if verdict is not None:
                n_immediate += 1
                n_blocked += int(verdict.blocked)
        for verdict in service.pump(minute):
            n_degraded += int(verdict.degraded)
            n_blocked += int(verdict.blocked)
    for verdict in service.drain(n_minutes):
        n_degraded += int(verdict.degraded)
        n_blocked += int(verdict.blocked)
    served_elapsed = clock() - served_start
    served_rps = n_requests / served_elapsed if served_elapsed > 0 else 0.0

    counters = instrumentation.metrics.snapshot()["counters"]
    hits = {
        tier: counters.get(f"serve.cache.hit.{tier}", 0)
        for tier in ("exact", "domain", "negative")
    }
    n_lookups = sum(hits.values()) + counters.get("serve.cache.miss", 0)
    latency = instrumentation.metrics.histogram(
        "serve.request.wall_seconds"
    ).snapshot()
    batch_sizes = instrumentation.metrics.histogram("serve.batch.size").snapshot()
    sim_latency = instrumentation.metrics.histogram(
        "serve.latency_minutes"
    ).snapshot()
    preprocess_hits = counters.get("preprocess.cache.hit", 0)
    preprocess_misses = counters.get("preprocess.cache.miss", 0)
    preprocess_lookups = preprocess_hits + preprocess_misses

    payload = {
        "schema": BENCH_SCHEMA,
        "config": {
            "seed": seed,
            "mode": mode,
            "n_sites_per_class": n_sites_per_class,
            "n_minutes": n_minutes,
            "requests_per_minute": requests_per_minute,
            "zipf_exponent": zipf_exponent,
            "diurnal_amplitude": diurnal_amplitude,
            "max_batch_size": max_batch_size,
            "max_wait_minutes": max_wait_minutes,
            "max_queue_depth": max_queue_depth,
            "max_batches_per_tick": max_batches_per_tick,
        },
        "workload": {
            "n_requests": n_requests,
            "n_unique_urls": len(population),
        },
        "baseline": {
            "n_requests": len(baseline_sample),
            "elapsed_seconds": baseline_elapsed,
            "requests_per_second": baseline_rps,
        },
        "served": {
            "n_requests": n_requests,
            "elapsed_seconds": served_elapsed,
            "requests_per_second": served_rps,
            "n_blocked": n_blocked,
            "latency_wall_seconds": {
                "p50": latency["p50"],
                "p99": latency["p99"],
            },
            "latency_sim_minutes": {
                "p50": sim_latency["p50"],
                "p99": sim_latency["p99"],
            },
        },
        "cache": {
            "lookups": n_lookups,
            "hit_rate": {
                tier: (count / n_lookups if n_lookups else 0.0)
                for tier, count in hits.items()
            },
            "stale_allow": counters.get("serve.cache.stale_allow", 0),
            "stale_block": counters.get("serve.cache.stale_block", 0),
        },
        "admission": {
            "admitted": counters.get("serve.admission.admitted", 0),
            "degraded": counters.get("serve.admission.degraded", 0),
            "degraded_fraction": (
                n_degraded / n_requests if n_requests else 0.0
            ),
        },
        "batching": {
            "flushes": counters.get("serve.batch.flushes", 0),
            "dedup_saved": counters.get("serve.batch.dedup_saved", 0),
            "mean_batch_size": (
                batch_sizes["sum"] / batch_sizes["count"]
                if batch_sizes["count"]
                else 0.0
            ),
        },
        "feature_cache": {
            "hits": preprocess_hits,
            "misses": preprocess_misses,
            "evicted": counters.get("preprocess.cache.evicted", 0),
            "hit_rate": (
                preprocess_hits / preprocess_lookups
                if preprocess_lookups
                else 0.0
            ),
        },
        "speedup_vs_single_url": (
            served_rps / baseline_rps if baseline_rps > 0 else 0.0
        ),
    }
    if include_telemetry:
        payload["telemetry"] = instrumentation.telemetry(include_events=False)
    return payload


def smoke_parameters() -> dict:
    """Small-but-representative settings for the CI smoke run."""
    return {
        "n_sites_per_class": 24,
        "n_minutes": 45,
        "requests_per_minute": 40.0,
        "max_queue_depth": 48,
        "max_batches_per_tick": 2,
        "baseline_requests": 60,
    }
