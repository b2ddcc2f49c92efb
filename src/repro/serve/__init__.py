"""repro.serve — the online verdict-serving subsystem.

Wraps the core detection pipeline (``Preprocessor`` +
``FreePhishClassifier``) in the shapes of a production inference stack:

* :mod:`repro.serve.cache` — tiered verdict cache (exact / FWB-subdomain
  domain / negative) with event-driven invalidation;
* :mod:`repro.serve.batching` — deterministic sim-clock request
  micro-batching into single ``predict_proba`` calls;
* :mod:`repro.serve.admission` — bounded queueing that sheds overload to
  a URL-features-only degraded fast path instead of dropping requests;
* :mod:`repro.serve.service` — :class:`VerdictService`, the layered
  request path the :class:`~repro.core.extension.FreePhishExtension`
  routes through.

perfbench (``perfbench/``, workloads ``serve_hot`` and ``serve_cold``)
is the only harness that times this subsystem.

See ``docs/SERVING.md`` for tier semantics, invalidation rules, and the
determinism policy.
"""

from .admission import AdmissionController, AdmissionDecision, FastPathModel
from .batching import BatchVerdict, MicroBatcher, PendingRequest
from .cache import CacheHit, TieredVerdictCache, cache_key, domain_key
from .service import ServedFrom, ServedVerdict, VerdictService

__all__ = [
    "AdmissionController",
    "AdmissionDecision",
    "BatchVerdict",
    "CacheHit",
    "FastPathModel",
    "MicroBatcher",
    "PendingRequest",
    "ServedFrom",
    "ServedVerdict",
    "TieredVerdictCache",
    "VerdictService",
    "cache_key",
    "domain_key",
]
