"""Common social-platform mechanics.

Both platforms support: publishing posts, time-windowed queries (the
streaming module's poll), per-post liveness checks (the analysis module's
poll) and moderation scheduling.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from typing import Dict, List, Optional

import numpy as np

from ..errors import StreamError
from ..obs.instrument import NULL_INSTRUMENTATION, Instrumentation
from ..simnet.url import URL
from .moderation import ModerationModel
from .posts import Post, PostStatus, compose_post_text

#: Fraction of posts whose authors delete them organically; prior work
#: (§5.4) puts this under 2%, i.e. negligible noise.
USER_DELETION_RATE = 0.015


class SocialPlatform:
    """One social network with moderation."""

    def __init__(
        self,
        name: str,
        moderation: ModerationModel,
        rng: np.random.Generator,
        instrumentation: Optional[Instrumentation] = None,
    ) -> None:
        self.name = name
        self.moderation = moderation
        self.rng = rng
        self._posts: Dict[str, Post] = {}
        self._ordered: List[Post] = []
        #: ``created_at`` of each post in ``_ordered``; sorted while posts
        #: arrive in time order, which lets ``posts_between`` bisect.
        self._created: List[int] = []
        self._in_time_order = True
        self._counter = itertools.count(1)
        #: (post_id, scheduled removal time), applied lazily.
        self._pending_removals: List[tuple] = []
        instr = self.instr = (
            instrumentation if instrumentation is not None else NULL_INSTRUMENTATION
        )
        self._c_scheduled = instr.counter(f"moderation.{name}.scheduled")
        self._c_removals = instr.counter(f"moderation.{name}.removals")
        self._c_user_deletions = instr.counter(f"moderation.{name}.user_deletions")

    # -- publishing -----------------------------------------------------------

    def publish(self, text: str, author: str, now: int) -> Post:
        post = Post(
            platform=self.name,
            post_id=f"{self.name}-{next(self._counter)}",
            author=author,
            text=text,
            created_at=now,
        )
        self._posts[post.post_id] = post
        if self._created and now < self._created[-1]:
            self._in_time_order = False
        self._ordered.append(post)
        self._created.append(now)
        return post

    def publish_url(
        self, url: URL, author: str, now: int, phishing: bool
    ) -> Post:
        """Publish a post wrapping ``url`` in platform-typical bait text."""
        return self.publish(compose_post_text(url, phishing, self.rng), author, now)

    # -- moderation -----------------------------------------------------------

    def scan(self, post: Post, suspicion: float, now: int) -> None:
        """Run the platform's URL scanner over a freshly published post.

        Schedules removal according to the moderation model; also rolls the
        small organic user-deletion chance.
        """
        if self.rng.random() < USER_DELETION_RATE:
            delay = int(self.rng.integers(60, 7 * 24 * 60))
            self._pending_removals.append((post.post_id, now + delay, True))
            self._c_user_deletions.inc()
            return
        self.instr.count("moderation.decisions")
        decision = self.moderation.decide(suspicion, self.rng)
        if decision.will_remove:
            self.instr.count("moderation.removals")
            self.instr.observe("moderation.delay_minutes", decision.delay_minutes)
            self._pending_removals.append(
                (post.post_id, now + decision.delay_minutes, False)
            )
            self._c_scheduled.inc()

    def apply_moderation(self, now: int) -> int:
        """Apply all removals due by ``now``; returns how many fired."""
        fired = 0
        remaining = []
        for post_id, due, by_user in self._pending_removals:
            if due <= now:
                post = self._posts.get(post_id)
                if post is not None and post.status is PostStatus.LIVE:
                    post.remove(due, by_user=by_user)
                    fired += 1
                    if not by_user:
                        self._c_removals.inc()
                        self._on_platform_removal(post)
            else:
                remaining.append((post_id, due, by_user))
        self._pending_removals = remaining
        return fired

    def _on_platform_removal(self, post: Post) -> None:
        """Hook for platform-specific side effects of a moderation removal
        (Twitter flags the post's URLs for click-through warnings)."""

    # -- queries ----------------------------------------------------------------

    def get_post(self, post_id: str) -> Optional[Post]:
        return self._posts.get(post_id)

    def posts_between(self, start: int, end: int) -> List[Post]:
        """Posts created in ``[start, end)`` — the streaming poll window."""
        if end < start:
            raise StreamError("query window end precedes start")
        if not self._in_time_order:
            return [p for p in self._ordered if start <= p.created_at < end]
        return self._ordered[
            bisect_left(self._created, start):bisect_left(self._created, end)
        ]

    def is_post_live(self, post_id: str, now: int) -> bool:
        self.apply_moderation(now)
        post = self._posts.get(post_id)
        return post is not None and post.is_live(now)

    def all_posts(self) -> List[Post]:
        return list(self._ordered)
