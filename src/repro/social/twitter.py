"""Twitter simulation and its two API surfaces.

The streaming module uses the standard search endpoint every 10 minutes;
the analysis module uses the Academic API to poll tweet liveness (§4.4).
Moderation parameters are calibrated to Figure 9's Twitter curves: strong,
fast action on self-hosted phishing; weak, slow action on FWB URLs —
realised through the suspicion-score pathway of
:class:`~repro.social.moderation.ModerationModel`.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from ..obs.instrument import Instrumentation
from ..simnet.url import URL
from .moderation import ModerationModel
from .platform import SocialPlatform
from .posts import Post


class TwitterPlatform(SocialPlatform):
    """Twitter with its measured moderation behaviour.

    Besides removing posts, (pre-"X") Twitter interposed a full-page
    warning when a user clicked a link it had flagged as malicious
    (Figure 10); :meth:`flag_url` / :meth:`interstitial_for` model that
    layer. Facebook deletes posts outright and has no equivalent (§5.4).
    """

    def __init__(
        self,
        rng: np.random.Generator,
        instrumentation: Optional[Instrumentation] = None,
    ) -> None:
        super().__init__(
            name="twitter",
            moderation=ModerationModel(
                base_removal_rate=0.93,
                median_delay_minutes=105.0,
                delay_sigma=1.25,
            ),
            rng=rng,
            instrumentation=instrumentation,
        )
        self._flagged_urls: set = set()

    def _on_platform_removal(self, post: Post) -> None:
        for url in post.urls:
            self.flag_url(url)

    def flag_url(self, url: URL) -> None:
        """Mark a URL as known-malicious (click-through warnings apply)."""
        self._flagged_urls.add(str(url))

    def is_flagged(self, url: URL) -> bool:
        return str(url) in self._flagged_urls

    def interstitial_for(self, url: URL) -> Optional[str]:
        """The Figure-10 warning page, or ``None`` for unflagged links."""
        if not self.is_flagged(url):
            return None
        return (
            "<!DOCTYPE html><html><head><title>Warning: this link may be "
            "unsafe</title></head><body>"
            "<h1>Warning: this link may be unsafe</h1>"
            f"<p>The link <code>{url}</code> could lead to a site that "
            "steals personal information, installs malicious software, or "
            "violates our policies.</p>"
            "<p><a href='javascript:history.back()'>Return to the previous "
            "page</a></p>"
            "<p><a id='continue' href='#'>Ignore this warning and "
            "continue</a></p>"
            "</body></html>"
        )


class TwitterAPI:
    """The official API view FreePhish polls.

    ``search_recent`` backs the streaming module's 10-minute poll. Post
    liveness is not read through this API: the analysis module reads
    :meth:`~repro.social.platform.SocialPlatform.get_post` directly.
    """

    def __init__(self, platform: TwitterPlatform) -> None:
        self._platform = platform

    def search_recent(self, start: int, end: int) -> List[Post]:
        return self._platform.posts_between(start, end)
