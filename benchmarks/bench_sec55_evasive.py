"""§5.5: automatic identification of evasive attack vectors.

Paper: 14.2% of the dataset had no credential fields; among these the
heuristics identify two-step link-outs (Google Sites ~24%, Sharepoint ~16%,
Google Forms ~21%, Blogspot ~14% of their URLs), external i-frames
(Google Sites / Blogspot dominant), and malicious drive-by downloads
(Sharepoint 54%, Google Sites 29%, Blogspot 23%).
"""

from collections import Counter

from conftest import emit

from repro.core.evasive import classify_evasive
from repro.core.preprocess import Preprocessor
from repro.errors import FetchError
from repro.simnet.url import parse_url


def _sweep(world, result):
    pages = Preprocessor(world.web)
    per_fwb = Counter()
    vectors = Counter()
    no_credentials = 0
    total = 0
    for timeline in result.fwb_timelines:
        url = parse_url(timeline.url)
        try:
            snapshot = pages.snapshot(url, timeline.first_seen)
        except FetchError:
            continue
        total += 1
        if snapshot.facts.has_credential_fields:
            continue
        no_credentials += 1
        vector = classify_evasive(snapshot, pages, timeline.first_seen)
        if vector is not None:
            vectors[vector.value] += 1
            per_fwb[(timeline.fwb_name, vector.value)] += 1
    return total, no_credentials, vectors, per_fwb


def test_sec55_evasive_vectors(benchmark, bench_campaign):
    world, result = bench_campaign
    total, no_creds, vectors, per_fwb = benchmark.pedantic(
        _sweep, args=(world, result), rounds=1, iterations=1
    )
    share = no_creds / max(total, 1)
    lines = [
        f"analysed URLs                 {total}",
        f"without credential fields     {no_creds} ({share * 100:.1f}%; paper 14.2%)",
        f"two-step link-outs            {vectors.get('two_step', 0)}",
        f"external i-frames             {vectors.get('iframe', 0)}",
        f"malicious drive-by downloads  {vectors.get('driveby', 0)}",
        "",
        "per-FWB vector counts:",
    ]
    for (fwb, vector), count in sorted(per_fwb.items(), key=lambda kv: -kv[1])[:12]:
        lines.append(f"  {fwb:14s} {vector:9s} {count}")
    emit("Section 5.5 — evasive attack vectors", "\n".join(lines))

    # A meaningful credential-free share exists (paper: 14.2%).
    assert 0.05 < share < 0.35
    # All three vectors observed.
    assert set(vectors) == {"two_step", "iframe", "driveby"}
    # The evasive mass concentrates on the §5.5 services.
    evasive_hosts = Counter()
    for (fwb, _vector), count in per_fwb.items():
        evasive_hosts[fwb] += count
    top_hosts = {fwb for fwb, _n in evasive_hosts.most_common(4)}
    assert top_hosts & {"google_sites", "sharepoint", "blogspot", "google_forms"}
    # The heuristics cover nearly every credential-free page.
    assert sum(vectors.values()) >= 0.8 * no_creds
