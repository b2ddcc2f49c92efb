"""FreePhish reproduction library.

A full-stack reproduction of *"Phishing in the Free Waters: A Study of
Phishing Attacks Created using Free Website Building Services"* (IMC 2023):
the FreePhish detection framework, every substrate it depends on (simulated
web, social platforms, anti-phishing ecosystem, from-scratch ML), and the
measurement campaigns behind the paper's tables and figures.

Quick start::

    from repro import CampaignWorld, SimulationConfig

    config = SimulationConfig(seed=1, duration_days=5, target_fwb_phishing=300)
    world = CampaignWorld(config)
    result = world.run()

    from repro.analysis import build_table3, render_rows
    print(render_rows(build_table3(result.timelines)))
"""

from .config import (
    SeedBank,
    SimulationConfig,
    minutes_to_hhmm,
    hhmm_to_minutes,
)
from .errors import ReproError
from .obs import (
    EventLog,
    Instrumentation,
    MetricsRegistry,
    NULL_INSTRUMENTATION,
    NullInstrumentation,
    render_telemetry,
    write_telemetry_json,
)
from .core.classifier import FreePhishClassifier
from .core.extension import FreePhishExtension, NavigationVerdict
from .core.framework import FreePhish
from .sim.world import CampaignWorld, CampaignResult
from .sim.groundtruth import build_ground_truth, GroundTruthDataset
from .sim.scenario import HistoricalScenario
from .serve import ServedFrom, ServedVerdict, VerdictService
from .simnet.web import Web

__version__ = "1.0.0"

__all__ = [
    "SeedBank",
    "SimulationConfig",
    "minutes_to_hhmm",
    "hhmm_to_minutes",
    "ReproError",
    "EventLog",
    "Instrumentation",
    "MetricsRegistry",
    "NULL_INSTRUMENTATION",
    "NullInstrumentation",
    "render_telemetry",
    "write_telemetry_json",
    "FreePhishClassifier",
    "FreePhishExtension",
    "NavigationVerdict",
    "FreePhish",
    "CampaignWorld",
    "CampaignResult",
    "build_ground_truth",
    "GroundTruthDataset",
    "HistoricalScenario",
    "ServedFrom",
    "ServedVerdict",
    "VerdictService",
    "Web",
    "__version__",
]
