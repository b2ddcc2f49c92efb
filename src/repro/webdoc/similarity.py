"""Website code similarity (paper Appendix A).

The paper measures how close FWB phishing pages sit to benign pages built on
the same service (Table 1): for every tag element ``T`` of website *A*, find
the tag of website *B* with the smallest Levenshtein distance; take the
median of those best-match distances (converted to a similarity) in each
direction; the pair similarity is the mean of the two directional medians.

High similarity (Weebly: 79.4%) means template reuse makes code-comparison
detectors ineffective against FWB attacks.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, Union

import numpy as np

from .dom import Document, Element
from .parser import parse_html


def levenshtein(a: str, b: str, cutoff: Optional[int] = None) -> int:
    """Classic edit distance with a two-row dynamic program.

    ``cutoff`` enables early abandon: once every cell of a row exceeds the
    cutoff the true distance must too, and ``cutoff + 1`` is returned. The
    best-match search in :func:`website_similarity` uses this to skip
    hopeless candidates cheaply.

    >>> levenshtein("kitten", "sitting")
    3
    """
    if a == b:
        return 0
    if not a:
        return len(b)
    if not b:
        return len(a)
    if cutoff is not None and abs(len(a) - len(b)) > cutoff:
        return cutoff + 1
    if len(a) < len(b):  # keep the inner loop over the shorter string
        a, b = b, a
    previous = list(range(len(b) + 1))
    for i, ch_a in enumerate(a, start=1):
        current = [i]
        row_min = i
        for j, ch_b in enumerate(b, start=1):
            insert = current[j - 1] + 1
            delete = previous[j] + 1
            replace = previous[j - 1] + (ch_a != ch_b)
            value = min(insert, delete, replace)
            current.append(value)
            if value < row_min:
                row_min = value
        if cutoff is not None and row_min > cutoff:
            return cutoff + 1
        previous = current
    return previous[-1]


def levenshtein_ratio(a: str, b: str) -> float:
    """Similarity in [0, 1]: ``1 - distance / max_len``."""
    if not a and not b:
        return 1.0
    return 1.0 - levenshtein(a, b) / max(len(a), len(b))


#: Tag shells are truncated to this length before comparison: edit distance
#: over the first ~100 characters of a tag is what discriminates templates,
#: and bounding the string length bounds the DP cost.
MAX_SHELL_LENGTH = 100


def tag_sequence(doc_or_markup: Union[Document, str]) -> List[str]:
    """Serialize each element of a document into a comparable string.

    Each entry is the element's own markup *shell* (tag plus attributes plus
    direct text), which is what "tag element" comparison in the appendix
    operates on.
    """
    document = (
        doc_or_markup
        if isinstance(doc_or_markup, Document)
        else parse_html(doc_or_markup)
    )
    sequence: List[str] = []
    for element in document.elements:
        attrs = "".join(
            f' {name}="{value}"' for name, value in sorted(element.attrs.items())
        )
        direct_text = "".join(
            child.text for child in element.children
            if not isinstance(child, Element)
        ).strip()
        sequence.append(f"<{element.tag}{attrs}>{direct_text}"[:MAX_SHELL_LENGTH])
    return sequence


def _best_match_ratio(tag: str, candidates: List[str],
                      candidate_lengths: np.ndarray) -> float:
    """Best similarity of ``tag`` against candidates, with pruning.

    Candidates are scanned in order of increasing length difference; the
    length-based upper bound ``1 - |la-lb| / max(la, lb)`` lets the scan stop
    as soon as no remaining candidate can beat the current best, and the
    per-comparison cutoff abandons DPs that cannot win.
    """
    n = len(tag)
    order = np.argsort(np.abs(candidate_lengths - n), kind="stable")
    best = 0.0
    for index in order:
        candidate = candidates[index]
        longest = max(n, len(candidate), 1)
        upper_bound = 1.0 - abs(n - len(candidate)) / longest
        if upper_bound <= best:
            break  # sorted by length diff: nothing later can do better
        cutoff = int((1.0 - best) * longest)
        distance = levenshtein(tag, candidate, cutoff=cutoff)
        ratio = 1.0 - distance / longest
        if ratio > best:
            best = ratio
            if best >= 1.0:
                break
    return best


def _directional_similarity(source: Sequence[str], target: Sequence[str]) -> float:
    """Median over source tags of the best-match similarity into target."""
    if not source or not target:
        return 0.0
    target_list = list(target)
    target_set = set(target_list)
    target_lengths = np.asarray([len(t) for t in target_list])
    memo = {}
    best: List[float] = []
    for tag in source:
        if tag in target_set:  # exact matches short-circuit the O(n*m) scan
            best.append(1.0)
            continue
        if tag not in memo:
            memo[tag] = _best_match_ratio(tag, target_list, target_lengths)
        best.append(memo[tag])
    return float(np.median(best))


def website_similarity(
    a: Union[Document, str], b: Union[Document, str]
) -> float:
    """Appendix-A similarity between two websites, in [0, 1].

    ``sim(A,B) = mean(median_T max-match(T→B), median_T max-match(T→A))``.
    """
    seq_a = tag_sequence(a)
    seq_b = tag_sequence(b)
    forward = _directional_similarity(seq_a, seq_b)
    backward = _directional_similarity(seq_b, seq_a)
    return (forward + backward) / 2.0


def median_pairwise_similarity(
    group_a: Iterable[Union[Document, str]],
    group_b: Iterable[Union[Document, str]],
    rng: np.random.Generator,
    max_pairs: int = 200,
) -> float:
    """Median similarity across sampled cross-group pairs (Table 1 cells).

    Comparing every phishing page against every benign page is quadratic;
    the paper's numbers are medians, which sampled pairs estimate well.
    """
    list_a = list(group_a)
    list_b = list(group_b)
    if not list_a or not list_b:
        return 0.0
    pairs = min(max_pairs, len(list_a) * len(list_b))
    sims = []
    for _ in range(pairs):
        a = list_a[int(rng.integers(len(list_a)))]
        b = list_b[int(rng.integers(len(list_b)))]
        sims.append(website_similarity(a, b))
    return float(np.median(sims))
