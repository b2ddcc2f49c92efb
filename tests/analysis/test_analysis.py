"""Statistics, coverage computation, table and figure builders."""

import itertools

import numpy as np
import pytest

from repro.analysis import (
    build_fig1,
    build_fig5,
    build_fig6,
    build_fig7,
    build_fig8,
    build_fig9,
    build_table1,
    build_table2,
    build_table3,
    build_table4,
    cohens_kappa,
    coverage_fraction,
    coverage_stats,
    coverage_over_time,
    empirical_cdf,
    median_or_none,
)
from repro.analysis.report import (
    format_table,
    render_figure,
    render_table1,
    render_table3,
    render_table4,
)
from repro.analysis.stats import min_max, survival_at
from repro.core.monitor import UrlTimeline
from repro.errors import ConfigError


_URL_COUNTER = itertools.count(1)


def _timeline(fwb, platform="twitter", gsb=None, post=None, site=None, vt=0):
    return UrlTimeline(
        url=f"https://x{next(_URL_COUNTER)}.example.com/",
        platform=platform,
        fwb_name=fwb,
        first_seen=0,
        blocklist_offsets={
            "gsb": gsb, "phishtank": None, "openphish": None, "ecrimex": None,
        },
        post_removal_offset=post,
        site_removal_offset=site,
        vt_samples=[(180, 0), (1440, vt), (7 * 1440, vt)],
    )


class TestStats:
    def test_median_or_none(self):
        assert median_or_none([]) is None
        assert median_or_none([3, 1, 2]) == 2

    def test_coverage_fraction(self):
        assert coverage_fraction([1, None, 3, None]) == 0.5
        assert coverage_fraction([]) == 0.0

    def test_empirical_cdf(self):
        cdf = empirical_cdf([1, 2, 2, 5], grid=[0, 2, 5, 10])
        assert cdf == [0.0, 0.75, 1.0, 1.0]
        assert empirical_cdf([], [1, 2]) == [0.0, 0.0]

    def test_cohens_kappa_perfect_and_chance(self):
        assert cohens_kappa([1, 0, 1, 0], [1, 0, 1, 0]) == 1.0
        # Independent labels: kappa near zero.
        rng = np.random.default_rng(0)
        a = rng.integers(0, 2, 2000)
        b = rng.integers(0, 2, 2000)
        assert abs(cohens_kappa(a, b)) < 0.1

    def test_cohens_kappa_known_value(self):
        # 2x2 example: observed .7, expected .5 -> kappa 0.4
        a = [1] * 35 + [1] * 15 + [0] * 15 + [0] * 35
        b = [1] * 35 + [0] * 15 + [1] * 15 + [0] * 35
        assert cohens_kappa(a, b) == pytest.approx(0.4)

    def test_kappa_validation(self):
        with pytest.raises(ConfigError):
            cohens_kappa([1], [1, 0])

    def test_survival_and_minmax(self):
        offsets = [60, 120, None]
        assert survival_at(offsets, 90) == pytest.approx(2 / 3)
        assert min_max(offsets) == (60, 120)
        assert min_max([None]) == (None, None)


class TestCoverage:
    def test_coverage_stats(self):
        timelines = [
            _timeline("weebly", gsb=60),
            _timeline("weebly", gsb=120),
            _timeline("weebly", gsb=None),
        ]
        stats = coverage_stats(timelines, "gsb")
        assert stats.coverage == pytest.approx(2 / 3)
        assert stats.median_minutes == 90
        assert stats.min_minutes == 60 and stats.max_minutes == 120
        assert stats.median_hhmm == "01:30"
        assert stats.min_max_hhmm == "01:00/02:00"

    def test_empty_group(self):
        stats = coverage_stats([], "gsb")
        assert stats.coverage == 0.0 and stats.median_hhmm == "n/a"

    def test_coverage_over_time_monotone(self):
        timelines = [_timeline("weebly", gsb=g) for g in (30, 90, 600, None)]
        curve = coverage_over_time(timelines, "gsb", [0.5, 1, 2, 24])
        assert curve == [0.25, 0.25, 0.5, 0.75]
        assert curve == sorted(curve)


class TestTables:
    def test_table1_similarity_ordering(self):
        rows = build_table1(seed=5, sites_per_class=6, max_pairs=20)
        by_name = {row.fwb: row.median_similarity for row in rows}
        # Heavy-boilerplate builders beat raw-HTML hosting (Table 1's point).
        assert by_name["weebly"] > by_name["github_io"]
        assert all(0 <= row.median_similarity <= 1 for row in rows)

    def test_table2_stack_models(self, ground_truth):
        rows = build_table2(
            ground_truth.pages, ground_truth.labels, ground_truth.web,
            n_estimators=5, models=("stackmodel", "ours"),
        )
        assert [row.model for row in rows] == ["Base StackModel", "Our Model"]
        for row in rows:
            assert 0.5 < row.accuracy <= 1.0
            assert all(0.0 <= v <= 1.0 for v in (row.precision, row.recall, row.f1))
            assert 0.0 < row.median_runtime_seconds <= row.total_time_seconds

    def test_table3_shape(self, campaign_result):
        rows = build_table3(campaign_result.timelines)
        assert [r.entity for r in rows] == [
            "phishtank", "openphish", "gsb", "ecrimex", "platform", "domain",
        ]
        gsb = next(r for r in rows if r.entity == "gsb")
        assert gsb.self_hosted.coverage > gsb.fwb.coverage

    def test_table4_grouping(self, campaign_result):
        rows = build_table4(campaign_result.timelines)
        assert rows, "at least one FWB should appear"
        assert rows[0].n_urls >= rows[-1].n_urls  # sorted by volume
        names = {row.fwb for row in rows}
        assert "weebly" in names
        for row in rows:
            assert set(row.entities) == {
                "domain", "platform", "phishtank", "openphish", "gsb", "ecrimex",
            }


class TestFigures:
    def test_fig1_series(self):
        figure = build_fig1()
        assert len(figure.x_values) == 11
        assert sum(figure.series["twitter"]) == 16300
        assert sum(figure.series["facebook"]) == 8900

    def test_fig5_brand_histogram(self):
        slugs = ["facebrook"] * 5 + ["paypaul"] * 3 + ["netflux"] * 1 + [None] * 4
        figure = build_fig5(slugs, top_n=2)
        assert figure.x_values == ["facebrook", "paypaul"]
        assert figure.series["attacks"] == [5.0, 3.0]
        assert figure.series["unique_brands_total"][0] == 3.0

    def test_fig6_curves_monotone(self, campaign_result):
        figure = build_fig6(campaign_result.timelines)
        for name, series in figure.series.items():
            assert series == sorted(series), name
            assert all(0 <= v <= 1 for v in series)

    def test_fig7_cdf_properties(self, campaign_result):
        figure = build_fig7(campaign_result.timelines)
        for series in figure.series.values():
            assert series == sorted(series)
            assert series[-1] == pytest.approx(1.0)

    def test_fig7_fwb_dominates_self_hosted(self, campaign_result):
        """FWB URLs accumulate fewer detections: their CDF sits above."""
        figure = build_fig7(campaign_result.timelines)
        mid = 8  # detections
        idx = figure.x_values.index(mid)
        fwb = figure.series["fwb_twitter"][idx]
        self_hosted = figure.series["self_hosted_twitter"][idx]
        assert fwb > self_hosted

    def test_fig8_shares_bounded(self, campaign_result):
        figure = build_fig8(campaign_result.timelines)
        for series in figure.series.values():
            assert all(0 <= v <= 1 for v in series)
        # Share at <=2 detections only shrinks as engines catch up.
        fwb = figure.series["fwb_le_2"]
        assert fwb[0] >= fwb[-1]

    def test_fig9_platform_gap(self, campaign_result):
        figure = build_fig9(campaign_result.timelines)
        idx = figure.x_values.index(24)
        assert (
            figure.series["twitter_self_hosted"][idx]
            > figure.series["twitter_fwb"][idx]
        )


class TestRendering:
    def test_format_table_alignment(self):
        text = format_table(["a", "bb"], [["1", "2"], ["333", "4"]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("a")

    def test_render_table1(self):
        rows = build_table1(seed=5, sites_per_class=4, max_pairs=8,
                            services=("weebly",))
        text = render_table1(rows)
        assert "weebly" in text and "%" in text

    def test_render_table3_and_4(self, campaign_result):
        text3 = render_table3(build_table3(campaign_result.timelines))
        assert "gsb" in text3 and "FWB cov" in text3
        text4 = render_table4(build_table4(campaign_result.timelines))
        assert "URLs" in text4

    def test_render_figure(self, campaign_result):
        text = render_figure(build_fig9(campaign_result.timelines))
        assert "Fig.9" in text
