#!/usr/bin/env python
"""Validate a telemetry export against ``docs/telemetry.schema.json``.

CI runs this after the campaign smoke export, and the tier-1 serve
tests load it by path to check a served replay's telemetry. The container deliberately
has no third-party schema library, so this is a self-contained
interpreter of exactly the JSON-Schema subset the telemetry schema uses:

    type (string or list), enum, const, required, properties,
    additionalProperties (bool or schema), items, minimum

Usage::

    python scripts/validate_telemetry.py TELEMETRY.json [SCHEMA.json]

Exits 0 when the document validates, 1 with one line per violation
otherwise.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Any, List

REPO_ROOT = Path(__file__).resolve().parents[1]
DEFAULT_SCHEMA = REPO_ROOT / "docs" / "telemetry.schema.json"

#: JSON type name -> Python type check. ``bool`` is excluded from the
#: numeric types: JSON booleans are not numbers even though Python's
#: ``bool`` subclasses ``int``.
def _is_type(value: Any, name: str) -> bool:
    if name == "object":
        return isinstance(value, dict)
    if name == "array":
        return isinstance(value, list)
    if name == "string":
        return isinstance(value, str)
    if name == "integer":
        return isinstance(value, int) and not isinstance(value, bool)
    if name == "number":
        return isinstance(value, (int, float)) and not isinstance(value, bool)
    if name == "boolean":
        return isinstance(value, bool)
    if name == "null":
        return value is None
    raise ValueError(f"unsupported type name in schema: {name!r}")


def validate(instance: Any, schema: dict, path: str = "$") -> List[str]:
    """Return a list of violation messages; empty means valid."""
    errors: List[str] = []

    if "const" in schema and instance != schema["const"]:
        errors.append(f"{path}: expected {schema['const']!r}, got {instance!r}")
    if "enum" in schema and instance not in schema["enum"]:
        errors.append(f"{path}: {instance!r} not one of {schema['enum']}")

    declared = schema.get("type")
    if declared is not None:
        names = declared if isinstance(declared, list) else [declared]
        if not any(_is_type(instance, name) for name in names):
            errors.append(
                f"{path}: expected type {'/'.join(names)}, "
                f"got {type(instance).__name__}"
            )
            return errors  # Structural checks below assume the right type.

    if "minimum" in schema and _is_type(instance, "number"):
        if instance < schema["minimum"]:
            errors.append(
                f"{path}: {instance} below minimum {schema['minimum']}"
            )

    if isinstance(instance, dict):
        properties = schema.get("properties", {})
        for key in schema.get("required", []):
            if key not in instance:
                errors.append(f"{path}: missing required key {key!r}")
        additional = schema.get("additionalProperties", True)
        for key, value in instance.items():
            if key in properties:
                errors.extend(validate(value, properties[key], f"{path}.{key}"))
            elif additional is False:
                errors.append(f"{path}: unexpected key {key!r}")
            elif isinstance(additional, dict):
                errors.extend(validate(value, additional, f"{path}.{key}"))

    if isinstance(instance, list) and isinstance(schema.get("items"), dict):
        for i, element in enumerate(instance):
            errors.extend(validate(element, schema["items"], f"{path}[{i}]"))

    return errors


#: Prefix of the per-provenance serve counters (``serve.served.<tag>``).
_SERVED_PREFIX = "serve.served."


def serve_consistency(document: Any) -> List[str]:
    """Cross-counter invariants for serving-layer telemetry.

    Exports that contain serve metrics (a replay through
    ``VerdictService.submit``/``pump``/``drain``, as in
    ``tests/serve/test_service.py``) are drained before export, so the
    counters must balance exactly:

    * every request is served exactly once, from exactly one source;
    * every request does exactly one tiered-cache lookup, which either
      hits one tier or misses;
    * every model-layer request was either admitted (full model) or
      degraded (URL-only fast path).

    Campaign exports carry no serve counters and skip these checks.
    """
    counters = document.get("metrics", {}).get("counters", {})
    if "serve.requests" not in counters:
        return []
    errors: List[str] = []
    requests = counters["serve.requests"]

    served = sum(
        value for key, value in counters.items()
        if key.startswith(_SERVED_PREFIX)
    )
    if served != requests:
        errors.append(
            f"serve: {requests} requests but {served} served verdicts "
            f"(every request must be served exactly once)"
        )

    lookups = sum(
        counters.get(f"serve.cache.hit.{tier}", 0)
        for tier in ("exact", "domain", "negative")
    ) + counters.get("serve.cache.miss", 0)
    if lookups != requests:
        errors.append(
            f"serve: {requests} requests but {lookups} cache "
            f"hits+misses (every request does one tiered lookup)"
        )

    model_layer = counters.get(f"{_SERVED_PREFIX}model", 0) + counters.get(
        f"{_SERVED_PREFIX}model_degraded", 0
    )
    admissions = counters.get("serve.admission.admitted", 0) + counters.get(
        "serve.admission.degraded", 0
    )
    # check() resolves model verdicts synchronously without an admission
    # decision, so admissions can undercount — never overcount.
    if admissions > model_layer:
        errors.append(
            f"serve: {admissions} admission decisions exceed "
            f"{model_layer} model-layer verdicts"
        )
    return errors


def cache_consistency(document: Any) -> List[str]:
    """Cross-counter invariants for the page-cache / batch counters.

    The snapshot-keyed page cache (``preprocess.cache.*``) and the batched
    classify path (``classify.batch.*``) appear in both campaign and serve
    exports. Their invariants hold at any point in a run, not only after a
    drain:

    * an entry must be inserted (a miss) before it can be evicted;
    * every counted batch holds at least one row.
    """
    counters = document.get("metrics", {}).get("counters", {})
    errors: List[str] = []
    evicted = counters.get("preprocess.cache.evicted", 0)
    misses = counters.get("preprocess.cache.miss", 0)
    if evicted > misses:
        errors.append(
            f"cache: preprocess.cache.evicted={evicted} exceeds "
            f"preprocess.cache.miss={misses} (evictions require prior inserts)"
        )
    calls = counters.get("classify.batch.calls", 0)
    rows = counters.get("classify.batch.rows", 0)
    if calls > rows:
        errors.append(
            f"cache: classify.batch.calls={calls} exceeds "
            f"classify.batch.rows={rows} (batches cannot be empty)"
        )
    return errors


def main(argv: List[str]) -> int:
    if len(argv) not in (2, 3):
        print(__doc__)
        return 2
    document_path = Path(argv[1])
    schema_path = Path(argv[2]) if len(argv) == 3 else DEFAULT_SCHEMA
    document = json.loads(document_path.read_text(encoding="utf-8"))
    schema = json.loads(schema_path.read_text(encoding="utf-8"))

    errors = (
        validate(document, schema)
        + serve_consistency(document)
        + cache_consistency(document)
    )
    if errors:
        for error in errors:
            print(f"INVALID {document_path}: {error}")
        return 1
    counters = len(document.get("metrics", {}).get("counters", {}))
    histograms = len(document.get("metrics", {}).get("histograms", {}))
    emitted = document.get("events", {}).get("emitted", 0)
    print(
        f"OK {document_path}: schema={document.get('schema')} "
        f"mode={document.get('mode')} counters={counters} "
        f"histograms={histograms} events={emitted}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
