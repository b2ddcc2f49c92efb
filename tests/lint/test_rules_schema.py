"""RP3xx cross-module schema rules: feature names, rng typing, dataclass drift."""

from pathlib import Path

from repro.lint import ProjectContext
from repro.lint.project import ClassInfo

from .snippets import lint_snippet, rule_ids

SCHEMA = frozenset({"url_length", "has_noindex", "obfuscated_fwb_banner"})


def schema_project():
    return ProjectContext(feature_names=SCHEMA)


class TestRP301FeatureNames:
    def test_vector_call_with_unknown_name(self):
        source = "vec = features.vector(['url_length', 'url_lenght'])\n"
        report = lint_snippet(source, project=schema_project())
        assert rule_ids(report) == ["RP301"]
        assert "url_lenght" in report.findings[0].message

    def test_index_on_feature_names_constant(self):
        source = "i = FWB_FEATURE_NAMES.index('not_a_feature')\n"
        assert rule_ids(lint_snippet(source, project=schema_project())) == ["RP301"]

    def test_membership_test_checked(self):
        source = "ok = 'nope' in BASE_FEATURE_NAMES\n"
        assert rule_ids(lint_snippet(source, project=schema_project())) == ["RP301"]

    def test_values_subscript_checked(self):
        source = "x = page.features.values['has_noindx']\n"
        assert rule_ids(lint_snippet(source, project=schema_project())) == ["RP301"]

    def test_tainted_concatenation_checked(self):
        source = (
            "base = tuple(n for n in FWB_FEATURE_NAMES if n != 'url_length')\n"
            "augmented = base + ('obfuscated_fwb_bannr',)\n"
        )
        report = lint_snippet(source, scope="benchmarks", project=schema_project())
        assert rule_ids(report) == ["RP301"]

    def test_known_names_clean(self):
        source = (
            "vec = features.vector(['url_length', 'has_noindex'])\n"
            "i = FWB_FEATURE_NAMES.index('obfuscated_fwb_banner')\n"
            "x = page.features.values['url_length']\n"
        )
        assert rule_ids(lint_snippet(source, project=schema_project())) == []

    def test_rule_inactive_without_schema(self):
        source = "vec = features.vector(['whatever'])\n"
        assert rule_ids(lint_snippet(source, project=ProjectContext())) == []

    def test_unrelated_dict_subscript_clean(self):
        source = "brand = site.metadata['brand']\n"
        assert rule_ids(lint_snippet(source, project=schema_project())) == []


class TestRP302RngAnnotation:
    def test_untyped_rng_flagged(self):
        source = "def draw(rng):\n    return rng.integers(3)\n"
        assert rule_ids(lint_snippet(source)) == ["RP302"]

    def test_wrongly_typed_rng_flagged(self):
        source = "def draw(rng: int):\n    return rng\n"
        assert rule_ids(lint_snippet(source)) == ["RP302"]

    def test_generator_annotation_clean(self):
        source = (
            "import numpy as np\n"
            "def draw(rng: np.random.Generator) -> int:\n"
            "    return int(rng.integers(3))\n"
        )
        assert rule_ids(lint_snippet(source)) == []

    def test_string_annotation_clean(self):
        source = "def draw(rng: 'np.random.Generator'):\n    return rng\n"
        assert rule_ids(lint_snippet(source)) == []

    def test_tests_exempt(self):
        source = "def helper(rng):\n    return rng\n"
        assert rule_ids(lint_snippet(source, scope="tests")) == []

    def test_examples_are_checked(self):
        source = "def helper(rng):\n    return rng\n"
        assert rule_ids(lint_snippet(source, scope="examples")) == ["RP302"]


def drift_project():
    return ProjectContext(
        classes={
            "UrlTimeline": ClassInfo(
                name="UrlTimeline",
                attrs={"url", "first_seen", "vt_final"},
                bases=["object"],
            ),
        },
    )


class TestRP303SchemaDrift:
    def test_unknown_attribute_flagged(self):
        source = (
            "def export(timeline: UrlTimeline):\n"
            "    return timeline.first_seen_minute\n"
        )
        report = lint_snippet(source, project=drift_project())
        assert rule_ids(report) == ["RP303"]
        assert "first_seen_minute" in report.findings[0].message

    def test_declared_fields_and_methods_clean(self):
        source = (
            "def export(timeline: UrlTimeline):\n"
            "    return {'u': timeline.url, 'v': timeline.vt_final()}\n"
        )
        assert rule_ids(lint_snippet(source, project=drift_project())) == []

    def test_sequence_element_binding(self):
        source = (
            "from typing import Sequence\n"
            "def export(timelines: Sequence[UrlTimeline]):\n"
            "    return [t.removed_at for t in timelines]\n"
        )
        assert rule_ids(lint_snippet(source, project=drift_project())) == ["RP303"]

    def test_rebound_parameter_exempt(self):
        source = (
            "def export(timeline: UrlTimeline):\n"
            "    timeline = wrap(timeline)\n"
            "    return timeline.whatever\n"
        )
        assert rule_ids(lint_snippet(source, project=drift_project())) == []

    def test_unknown_class_exempt(self):
        source = (
            "def export(thing: SomethingElse):\n"
            "    return thing.whatever\n"
        )
        assert rule_ids(lint_snippet(source, project=drift_project())) == []

    def test_open_class_exempt(self):
        project = ProjectContext(
            classes={
                "Mystery": ClassInfo(
                    name="Mystery", attrs={"x"}, bases=["ExternalBase"]
                ),
            },
        )
        source = "def f(m: Mystery):\n    return m.anything\n"
        assert rule_ids(lint_snippet(source, project=project)) == []

    def test_real_project_context_covers_export_module(self):
        """The real class table must know UrlTimeline well enough to keep
        analysis/export.py clean (the module that motivated the rule)."""
        package_dir = Path(__file__).resolve().parents[2] / "src" / "repro"
        project = ProjectContext.build(package_dir)
        surface = project.attribute_surface("UrlTimeline")
        assert surface is not None
        assert {"url", "platform", "blocklist_offsets", "vt_final"} <= surface
        assert "no_such_field" not in surface


SERVE_PATH = "src/repro/serve/service.py"


class TestRP304RawCacheKey:
    def test_raw_string_key_flagged(self):
        source = "hit = self.cache.lookup('https://a.weebly.com/', now)\n"
        assert rule_ids(lint_snippet(source, path=SERVE_PATH)) == ["RP304"]

    def test_fstring_key_flagged(self):
        source = "self.exact_tier.put(f'{url.host}/{url.path}', verdict, now)\n"
        assert rule_ids(lint_snippet(source, path=SERVE_PATH)) == ["RP304"]

    def test_str_call_key_flagged(self):
        source = "cache.store(str(url), verdict, now)\n"
        assert rule_ids(lint_snippet(source, path=SERVE_PATH)) == ["RP304"]

    def test_concatenation_and_keyword_flagged(self):
        source = "tier.evict(key='host' + suffix)\n"
        assert rule_ids(lint_snippet(source, path=SERVE_PATH)) == ["RP304"]

    def test_normalized_key_clean(self):
        source = (
            "self.cache.store(cache_key(url), verdict, now)\n"
            "self.negative.evict(domain_key(url))\n"
            "self.cache.invalidate_blocked(key)\n"
        )
        assert rule_ids(lint_snippet(source, path=SERVE_PATH)) == []

    def test_inactive_outside_serve_layer(self):
        source = "self.cache.lookup('https://a.weebly.com/', now)\n"
        assert rule_ids(lint_snippet(source)) == []  # canonical library path

    def test_non_cache_receiver_ignored(self):
        source = "registry.get('https://a.weebly.com/')\n"
        assert rule_ids(lint_snippet(source, path=SERVE_PATH)) == []

    def test_suppressible(self):
        source = (
            "cache.store('sentinel', verdict, now)"
            "  # reprolint: disable=RP304 — synthetic fixture key\n"
        )
        assert rule_ids(lint_snippet(source, path=SERVE_PATH)) == []


FEATURES_PATH = "src/repro/core/features.py"
PREPROCESS_PATH = "src/repro/core/preprocess.py"


class TestRP304FeatureCacheLayer:
    """The feature-cache layer (core/features.py, core/preprocess.py) is
    in RP304 scope: its keys must come from ``snapshot_key()``."""

    def test_raw_subscript_store_flagged(self):
        source = "self._cache[f'{url}:{markup}'] = features\n"
        assert rule_ids(lint_snippet(source, path=FEATURES_PATH)) == ["RP304"]

    def test_raw_key_in_preprocess_flagged(self):
        source = "self._page_cache[str(url)] = page\n"
        assert rule_ids(lint_snippet(source, path=PREPROCESS_PATH)) == ["RP304"]

    def test_raw_move_to_end_flagged(self):
        source = "self._cache.move_to_end(str(url))\n"
        assert rule_ids(lint_snippet(source, path=FEATURES_PATH)) == ["RP304"]

    def test_snapshot_key_clean(self):
        source = (
            "key = snapshot_key(url, markup)\n"
            "self._cache[key] = features\n"
            "self._cache.move_to_end(key)\n"
            "cached = self._page_cache[key]\n"
        )
        assert rule_ids(lint_snippet(source, path=FEATURES_PATH)) == []
        assert rule_ids(lint_snippet(source, path=PREPROCESS_PATH)) == []

    def test_other_core_modules_out_of_scope(self):
        source = "self._cache['raw'] = features\n"
        assert rule_ids(
            lint_snippet(source, path="src/repro/core/classifier.py")
        ) == []

    def test_serve_layer_subscript_flagged(self):
        source = "self.exact_cache['https://a.weebly.com/'] = verdict\n"
        assert rule_ids(lint_snippet(source, path=SERVE_PATH)) == ["RP304"]

    def test_non_cache_subscript_ignored(self):
        source = "self._archive['raw'] = page\n"
        assert rule_ids(lint_snippet(source, path=PREPROCESS_PATH)) == []
