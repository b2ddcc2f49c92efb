"""Facebook simulation and the CrowdTangle API surface.

CrowdTangle is Meta's research feed of public posts; FreePhish polls it on
the same 10-minute cycle as Twitter (§4.1). Facebook deletes offending
posts outright instead of interposing a warning page (§5.4), which for the
measurement is the same observable: the post stops resolving.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from ..obs.instrument import Instrumentation
from .moderation import ModerationModel
from .platform import SocialPlatform
from .posts import Post


class FacebookPlatform(SocialPlatform):
    """Facebook with its measured moderation behaviour."""

    def __init__(
        self,
        rng: np.random.Generator,
        instrumentation: Optional[Instrumentation] = None,
    ) -> None:
        super().__init__(
            name="facebook",
            moderation=ModerationModel(
                base_removal_rate=0.80,
                median_delay_minutes=135.0,
                delay_sigma=1.3,
            ),
            rng=rng,
            instrumentation=instrumentation,
        )


class CrowdTangleAPI:
    """Research API over public Facebook posts."""

    def __init__(self, platform: FacebookPlatform) -> None:
        self._platform = platform

    def posts(self, start: int, end: int) -> List[Post]:
        return self._platform.posts_between(start, end)
