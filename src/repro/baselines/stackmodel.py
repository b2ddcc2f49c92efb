"""The base StackModel (Li et al. 2019) on the original feature set.

Identical architecture to the paper's final model but trained on the
original 20 features — including the two that are uninformative on FWB data
(https presence, multi-TLD count) and excluding the FWB-specific pair. The
gap between this detector and :class:`repro.core.FreePhishClassifier` is
the paper's feature-augmentation contribution (0.88 → 0.97 accuracy).
"""

from __future__ import annotations

from ..core.classifier import FreePhishClassifier
from ..core.features import BASE_FEATURE_NAMES


class BaseStackModelDetector(FreePhishClassifier):
    """Two-layer stacking on the pre-augmentation feature set."""

    feature_names = BASE_FEATURE_NAMES
