"""Heuristics for the §5.5 evasive attack vectors.

14.2% of the paper's dataset had no credential fields; qualitative review of
a 1K sample surfaced three variants, for which the authors "developed
heuristics to automatically identify these attack vectors across our
dataset". These are those heuristics, over page snapshots:

* **two-step link-out**: no credential fields, and the page's primary
  call-to-action button leads to a different domain that *does* present a
  credential interface (or is unreachable — already taken down);
* **iframe embedding**: an ``<iframe>`` whose source lives on another
  domain (client-side rendered, invisible to markup-only scanners);
* **drive-by download**: a link that triggers a file download whose
  VirusTotal score reaches the 4-detection malware threshold.
"""

from __future__ import annotations

from enum import Enum
from typing import Optional

from ..simnet.browser import Browser, PageSnapshot

#: File detections at/above which the paper marks a payload malicious.
MALWARE_DETECTION_THRESHOLD = 4


class EvasiveVector(str, Enum):
    TWO_STEP = "two_step"
    IFRAME = "iframe"
    DRIVEBY = "driveby"


def classify_evasive(
    snapshot: PageSnapshot,
    browser: Browser,
    now: Optional[int] = None,
) -> Optional[EvasiveVector]:
    """Classify a credential-field-free page into an evasive vector.

    Returns ``None`` when the page has credential fields (not evasive) or
    matches none of the three vectors.
    """
    if snapshot.facts.has_credential_fields:
        return None
    moment = snapshot.fetched_at if now is None else now

    # Drive-by: any malicious download offered by the page.
    for asset in snapshot.downloads:
        if asset.vt_detections >= MALWARE_DETECTION_THRESHOLD:
            return EvasiveVector.DRIVEBY

    # iframe: externally sourced frame.
    for src, _markup in snapshot.iframe_contents:
        if src.host != snapshot.url.host:
            return EvasiveVector.IFRAME

    # Two-step: follow the primary call-to-action to another domain.
    chain = browser.follow_workflow(snapshot.url, moment, max_hops=2)
    for hop in chain[1:]:
        if hop.url.host != snapshot.url.host and hop.facts.has_credential_fields:
            return EvasiveVector.TWO_STEP
    # The landing page may point at an already-removed external target;
    # an outbound button with a dead cross-domain target still counts.
    for anchor in snapshot.facts.anchors:
        if anchor.button and anchor.href.startswith(("http://", "https://")):
            target_host = anchor.href.split("//", 1)[1].split("/", 1)[0]
            if target_host != snapshot.url.host:
                return EvasiveVector.TWO_STEP
    return None
