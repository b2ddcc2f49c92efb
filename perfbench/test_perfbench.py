"""Tests of the benchmark itself, on smoke-sized inputs.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]

sys.path.insert(0, str(HERE))
import run as bench  # noqa: E402


def _run_cli(workload: str, seed: int, trace: int, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", str(trace),
         "--size", "smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def _result(completed) -> dict:
    assert completed.returncode == 0, completed.stderr
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    return result


def _digest(completed) -> str:
    return completed.stderr.split("digest ")[-1].split()[0]


def _units(section: str) -> dict:
    return {metric["name"]: metric["unit"] for metric in SPEC[section]}


def test_workload_names_match_the_benchmark_spec():
    bench._import_program()
    import workloads

    assert sorted(workloads.WORKLOADS) == sorted(bench.WORKLOAD_NAMES)
    assert sorted(bench.WORKLOAD_NAMES) == sorted(WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_and_same_seed_repeat(workload):
    first, second = _run_cli(workload, 3, 0), _run_cli(workload, 3, 0)
    results = [_result(first), _result(second)]
    for result in results:
        printed = {name: value["unit"] for name, value in result["metrics"].items()}
        assert printed == _units("end_to_end")
        assert all(value["value"] > 0 for value in result["metrics"].values())
    assert _digest(first) == _digest(second)
    assert results[0]["attempted"] == results[1]["attempted"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_prints_every_layer_metric(workload):
    result = _result(_run_cli(workload, 4, 1))
    metrics = {name: value["value"] for name, value in result["metrics"].items()}
    assert {name: value["unit"] for name, value in result["metrics"].items()} == (
        _units("per_layer")
    )
    assert 0 < metrics["trace.overhead_ratio"] <= 2
    ecosystem = ("vt.scan.s", "intel.intel_for.s", "blocklists.observe.s")
    if workload == "campaign":
        assert all(metrics[name] > 0 for name in ecosystem)
        assert metrics["preprocess.process.cache_hit_ratio"] == 0
        assert metrics["serve.cache.lookup.calls"] == 0
    else:
        assert all(metrics[name] == 0 for name in ecosystem)
        assert metrics["serve.cache.lookup.calls"] == metrics["serve.submit.calls"] > 0


def test_opaque_layer_owns_the_layers_it_calls(monkeypatch):
    bench._import_program()
    import layers

    class Browser:
        def load(self):
            return "page"

    class Intel:
        def gather(self, browser):
            return browser.load()

    monkeypatch.setattr(layers, "TARGETS", [
        (Browser, "load", "browser.snapshot_from", None),
        (Intel, "gather", "intel.gather", None),
    ])
    tracer = layers.LayerTracer()
    tracer.install()
    try:
        Browser().load()
        Intel().gather(Browser())
    finally:
        tracer.uninstall()
    assert tracer.layers["browser.snapshot_from"].calls == 1
    assert tracer.layers["intel.gather"].calls == 1
    assert Browser.load.__name__ == "load"


def test_digest_mismatch_fails_the_run(tmp_path, monkeypatch, capsys):
    references = tmp_path / "references.json"
    references.write_text(json.dumps({"campaign/smoke": {"5": "0" * 64}}))
    monkeypatch.setattr(bench, "REFERENCES", references)
    status = bench.main(["--workload", "campaign", "--seed", "5",
                         "--seconds", "0", "--size", "smoke"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert status == 1
    assert result["correct"] is False
    assert result["failed"] == result["attempted"]
    assert result["metrics"]["ok_frac"]["value"] == 0.0


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    completed = _run_cli("campaign", 1, 0, cwd=tmp_path)
    assert completed.returncode != 0
    assert completed.stdout == ""
