"""Per-layer tracing, done from outside the program.

:class:`LayerTracer` replaces each layer's public functions with a wrapper
that times the call and keeps a stack of open spans, so every layer gets a
call count and its self time (the span's duration minus the time its
child layers covered). Spans are aggregated per layer in memory; nothing
is written while a pass runs. The wrappers are installed only around the
traced pass and removed afterwards, so untraced passes run the library as
shipped.

A layer in :data:`OPAQUE` owns everything it calls: while its span is open
no other layer is traced, so the page loads behind an intel gather count as
intel time and not as ``browser``/``parser`` time.
"""

from __future__ import annotations

import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

import numpy as np

import repro.core.features as features_module
import repro.ecosystem.intel as intel_module
import repro.simnet.browser as browser_module
from repro.core.classifier import FreePhishClassifier
from repro.core.features import FeatureExtractor
from repro.core.monitor import AnalysisModule
from repro.core.preprocess import Preprocessor
from repro.core.reporting import ReportingModule
from repro.core.streaming import StreamingModule
from repro.ecosystem.blocklists import Blocklist
from repro.ecosystem.intel import IntelService
from repro.ecosystem.takedown import AbuseDesk, RegistrarDesk
from repro.ecosystem.virustotal import VirusTotal
from repro.serve import (
    AdmissionController,
    AdmissionDecision,
    FastPathModel,
    MicroBatcher,
    TieredVerdictCache,
    VerdictService,
)
from repro.sim import AttackerModel, BenignUserModel
from repro.simnet.browser import Browser
from repro.social.platform import SocialPlatform

clock = time.perf_counter

#: Observer called after a wrapped call returns: ``(tracer, args, result)``.
Observer = Callable[["LayerTracer", tuple, object], None]


def _count(name: str, amount_of: Callable[[tuple, object], float]) -> Observer:
    def observe(tracer: "LayerTracer", args: tuple, result: object) -> None:
        tracer.counts[name] += amount_of(args, result)
    return observe


def _observe_lookup(tracer: "LayerTracer", args: tuple, result) -> None:
    if result is not None:
        tracer.counts[f"lookup.{result.tier}"] += 1


def _observe_flush(tracer: "LayerTracer", args: tuple, result) -> None:
    tracer.counts["flush.rows"] += len(result)
    tracer.counts["flush.unique"] += len({verdict.key for verdict in result})
    tracer.queue_waits.extend(verdict.queued_minutes for verdict in result)


#: (owner, attribute, layer, observer). Owners are classes (every instance
#: is traced) or modules (for functions imported by name).
TARGETS = [
    (AttackerModel, "launch_fwb_attack", "sim.launch", None),
    (AttackerModel, "launch_self_hosted_attack", "sim.launch", None),
    (BenignUserModel, "post_benign_site", "sim.launch", None),
    (StreamingModule, "poll", "streaming.poll",
     _count("poll.urls", lambda args, result: len(result))),
    (Preprocessor, "process", "preprocess.process",
     _count("process.pages", lambda args, result: result is not None)),
    (Browser, "snapshot_from", "browser.snapshot_from", None),
    (browser_module, "parse_html", "parser.parse_html", None),
    (features_module, "parse_html", "parser.parse_html", None),
    (FeatureExtractor, "extract", "features.extract", None),
    (FreePhishClassifier, "classify_pages", "classify.pages", None),
    (FreePhishClassifier, "predict_proba", "classify.predict_proba",
     _count("predict.rows", lambda args, result: len(result))),
    (ReportingModule, "report", "reporting.report", None),
    (AnalysisModule, "track", "monitor.track", None),
    (AnalysisModule, "resolve_all", "monitor.resolve_all", None),
    (VirusTotal, "scan", "vt.scan", None),
    (IntelService, "intel_for", "intel.intel_for", None),
    (intel_module, "gather_intel", "intel.gather", None),
    (Blocklist, "observe", "blocklists.observe", None),
    (AbuseDesk, "apply_takedowns", "housekeeping", None),
    (RegistrarDesk, "apply_takedowns", "housekeeping", None),
    (SocialPlatform, "apply_moderation", "housekeeping", None),
    (VerdictService, "submit", "serve.submit", None),
    (TieredVerdictCache, "lookup", "serve.cache.lookup", _observe_lookup),
    (TieredVerdictCache, "invalidate_blocked", "serve.cache.invalidate",
     _count("stale_allow", lambda args, result: result)),
    (TieredVerdictCache, "invalidate_takedown", "serve.cache.invalidate",
     _count("stale_block", lambda args, result: result)),
    (TieredVerdictCache, "store", "serve.cache.store", None),
    (MicroBatcher, "flush", "serve.batch.flush", _observe_flush),
    (AdmissionController, "admit", "serve.admission",
     _count("admission.degraded",
            lambda args, result: result is AdmissionDecision.DEGRADE)),
    (FastPathModel, "verdicts", "serve.fast_path.verdicts", None),
]

#: Layers whose callees are not traced separately (see the module doc).
OPAQUE = frozenset({"intel.gather"})

#: The preprocess and classify layers, whose summed self time the traced
#: run reports as a share of the untraced run.
PREPROCESS_CLASSIFY = (
    "preprocess.process", "browser.snapshot_from", "parser.parse_html",
    "features.extract", "classify.pages", "classify.predict_proba",
)


class LayerStats:
    __slots__ = ("calls", "self_s")

    def __init__(self) -> None:
        self.calls = 0
        self.self_s = 0.0


class LayerTracer:
    """Aggregates wall-clock spans per layer while installed."""

    def __init__(self) -> None:
        self.layers: Dict[str, LayerStats] = defaultdict(LayerStats)
        #: Calls of a layer made directly under another: ``(parent, child)``.
        self.edges: Dict[tuple, int] = defaultdict(int)
        self.counts: Dict[str, float] = defaultdict(float)
        self.queue_waits: List[int] = []
        #: Open spans: ``[layer, child seconds]``, innermost last.
        self._stack: List[list] = []
        #: How many :data:`OPAQUE` spans are open.
        self._opaque_depth = [0]
        self._patches: List[tuple] = []

    def install(self) -> None:
        for owner, attribute, layer, observer in TARGETS:
            original = owner.__dict__[attribute]
            self._patches.append((owner, attribute, original))
            setattr(owner, attribute, self._wrap(original, layer, observer))

    def uninstall(self) -> None:
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    def _wrap(self, original, layer: str, observer: Optional[Observer]):
        stack = self._stack
        stats = self.layers[layer]
        edges = self.edges
        opaque_depth = self._opaque_depth
        opaque = layer in OPAQUE

        def traced(*args, **kwargs):
            if opaque_depth[0]:
                return original(*args, **kwargs)
            parent = stack[-1][0] if stack else None
            frame = [layer, 0.0]
            stack.append(frame)
            if opaque:
                opaque_depth[0] += 1
            started = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = clock() - started
                if opaque:
                    opaque_depth[0] -= 1
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                stats.calls += 1
                stats.self_s += elapsed - frame[1]
                edges[(parent, layer)] += 1
            if observer is not None:
                observer(self, args, result)
            return result

        return traced

    # -- per-layer metrics ----------------------------------------------------

    def self_seconds(self, names) -> float:
        return sum(self.layers[name].self_s for name in names)

    def metrics(self) -> Dict[str, tuple]:
        """Every per-layer metric as ``(value, unit)``; times are self
        times in seconds, and a ratio with no attempts reads 0."""
        layer, counts = self.layers, self.counts

        def ratio(numerator: float, denominator: float) -> tuple:
            return (numerator / denominator if denominator else 0.0, "ratio")

        def self_s(*names: str) -> tuple:
            return (self.self_seconds(names), "s")

        def calls(name: str) -> tuple:
            return (layer[name].calls, "count")

        process_calls = layer["preprocess.process"].calls
        hits = counts["process.pages"] - self.edges[
            ("preprocess.process", "browser.snapshot_from")
        ]
        lookups = layer["serve.cache.lookup"].calls
        flushes = layer["serve.batch.flush"].calls
        waits = self.queue_waits
        return {
            "sim.launch.s": self_s("sim.launch"),
            "sim.launch.sites": calls("sim.launch"),
            "streaming.poll.s": self_s("streaming.poll"),
            "streaming.poll.urls": (counts["poll.urls"], "count"),
            "preprocess.process.s": self_s("preprocess.process"),
            "preprocess.process.calls": calls("preprocess.process"),
            "preprocess.process.cache_hit_ratio": ratio(hits, process_calls),
            "browser.snapshot_from.s": self_s("browser.snapshot_from"),
            "parser.parse_html.s": self_s("parser.parse_html"),
            "parser.parse_html.calls": calls("parser.parse_html"),
            "features.extract.s": self_s("features.extract"),
            "classify.pages.s": self_s("classify.pages"),
            "classify.predict_proba.s": self_s("classify.predict_proba"),
            "classify.predict_proba.calls": calls("classify.predict_proba"),
            "classify.rows_per_call": ratio(
                counts["predict.rows"], layer["classify.predict_proba"].calls
            ),
            "reporting.report.s": self_s("reporting.report"),
            "monitor.track.s": self_s("monitor.track"),
            "monitor.resolve_all.s": self_s("monitor.resolve_all"),
            "vt.scan.s": self_s("vt.scan"),
            "vt.scan.calls": calls("vt.scan"),
            "intel.intel_for.s": self_s("intel.intel_for", "intel.gather"),
            "intel.intel_for.calls": calls("intel.intel_for"),
            "intel.gather_ratio": ratio(
                layer["intel.gather"].calls, layer["intel.intel_for"].calls
            ),
            "blocklists.observe.s": self_s("blocklists.observe"),
            "housekeeping.s": self_s("housekeeping"),
            "serve.submit.calls": calls("serve.submit"),
            "serve.cache.lookup.s": self_s("serve.cache.lookup"),
            "serve.cache.lookup.calls": calls("serve.cache.lookup"),
            "serve.cache.hit_ratio.exact": ratio(counts["lookup.exact"], lookups),
            "serve.cache.hit_ratio.domain": ratio(counts["lookup.domain"], lookups),
            "serve.cache.hit_ratio.negative": ratio(
                counts["lookup.negative"], lookups
            ),
            "serve.cache.invalidate.s": self_s("serve.cache.invalidate"),
            "serve.cache.stale_allow": (counts["stale_allow"], "count"),
            "serve.cache.stale_block": (counts["stale_block"], "count"),
            "serve.cache.store.s": self_s("serve.cache.store"),
            "serve.batch.flush.s": self_s("serve.batch.flush"),
            "serve.batch.flushes": calls("serve.batch.flush"),
            "serve.batch.mean_size": ratio(counts["flush.rows"], flushes),
            "serve.batch.dedup_ratio": ratio(
                counts["flush.rows"] - counts["flush.unique"], counts["flush.rows"]
            ),
            "serve.queue_wait_min_p99": (
                float(np.percentile(waits, 99)) if waits else 0.0, "min"
            ),
            "serve.admission.degraded": (counts["admission.degraded"], "count"),
            "serve.fast_path.verdicts.s": self_s("serve.fast_path.verdicts"),
        }
