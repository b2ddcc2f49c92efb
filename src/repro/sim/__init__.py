"""Discrete-time simulation: scenarios, attacker behaviour, world assembly.

:class:`repro.sim.world.CampaignWorld` builds the full stack — simulated
web, social platforms, anti-phishing ecosystem, and the FreePhish framework
— and runs measurement campaigns mirroring the paper's six-month study.
:mod:`repro.sim.scenario` also provides the historical (Fig. 1) generator.
"""

from .attacker import AttackerModel, BenignUserModel
from .groundtruth import GroundTruthDataset, build_ground_truth
from .adaptive import AdaptiveAttackerModel, FeedbackRound, run_adaptation_experiment
from .historical import D1Dataset, HistoricalPipeline
from .scenario import HistoricalScenario, QuarterSeries
from .world import CampaignWorld, CampaignResult

__all__ = [
    "AttackerModel",
    "BenignUserModel",
    "GroundTruthDataset",
    "build_ground_truth",
    "AdaptiveAttackerModel",
    "FeedbackRound",
    "run_adaptation_experiment",
    "D1Dataset",
    "HistoricalPipeline",
    "HistoricalScenario",
    "QuarterSeries",
    "CampaignWorld",
    "CampaignResult",
]
