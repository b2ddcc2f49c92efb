"""RP1xx determinism rules: wall clock, stdlib random, unseeded/legacy RNG."""

from .snippets import lint_snippet, rule_ids


class TestRP101WallClock:
    def test_time_time_flagged_in_library(self):
        report = lint_snippet("import time\nt = time.time()\n")
        assert rule_ids(report) == ["RP101"]
        assert report.findings[0].line == 2

    def test_datetime_now_flagged(self):
        source = (
            "from datetime import datetime\n"
            "stamp = datetime.now()\n"
        )
        assert rule_ids(lint_snippet(source)) == ["RP101"]

    def test_qualified_datetime_and_date_today(self):
        source = (
            "import datetime\n"
            "a = datetime.datetime.utcnow()\n"
            "b = datetime.date.today()\n"
        )
        assert rule_ids(lint_snippet(source)) == ["RP101", "RP101"]

    def test_from_time_import_flagged(self):
        assert rule_ids(lint_snippet(
            "from time import perf_counter\nperf_counter\n"
        )) == ["RP101"]

    def test_clean_simulated_clock(self):
        source = "def step(now: int) -> int:\n    return now + 10\n"
        assert rule_ids(lint_snippet(source)) == []

    def test_benchmarks_may_time_themselves(self):
        source = "import time\nt = time.perf_counter()\n"
        assert rule_ids(lint_snippet(source, scope="benchmarks")) == []


class TestRP102StdlibRandom:
    def test_import_random_flagged(self):
        assert rule_ids(lint_snippet("import random\nrandom\n")) == ["RP102"]

    def test_from_random_import_flagged(self):
        assert rule_ids(lint_snippet("from random import choice\nchoice\n")) == ["RP102"]

    def test_random_call_flagged(self):
        source = "import random as r\nx = random.random()\n"
        # both the import (aliased name is still `random`) and the call
        assert "RP102" in rule_ids(lint_snippet(source))

    def test_tests_may_use_stdlib_random(self):
        assert rule_ids(lint_snippet("import random\nrandom\n", scope="tests")) == []

    def test_numpy_random_attribute_not_confused(self):
        source = (
            "import numpy as np\n"
            "def draw(rng: np.random.Generator) -> float:\n"
            "    return float(rng.random())\n"
        )
        assert rule_ids(lint_snippet(source)) == []


class TestRP103UnseededDefaultRng:
    def test_unseeded_flagged_everywhere(self):
        source = "import numpy as np\nrng = np.random.default_rng()\n"
        for scope in ("library", "tests", "examples", "benchmarks"):
            assert rule_ids(lint_snippet(source, scope=scope)) == ["RP103"], scope

    def test_seeded_is_clean(self):
        source = "import numpy as np\nrng = np.random.default_rng(7)\n"
        assert rule_ids(lint_snippet(source)) == []

    def test_seed_sequence_argument_is_clean(self):
        source = (
            "import numpy as np\n"
            "rng = np.random.default_rng(np.random.SeedSequence([1, 2]))\n"
        )
        assert rule_ids(lint_snippet(source)) == []

    def test_bare_name_call_flagged(self):
        source = (
            "from numpy.random import default_rng\n"
            "rng = default_rng()\n"
        )
        assert rule_ids(lint_snippet(source)) == ["RP103"]


class TestRP104LegacyNumpyRandom:
    def test_legacy_global_calls_flagged(self):
        source = (
            "import numpy as np\n"
            "np.random.seed(0)\n"
            "x = np.random.randint(10)\n"
            "y = np.random.normal(0.0, 1.0)\n"
        )
        assert rule_ids(lint_snippet(source, scope="tests")) == [
            "RP104", "RP104", "RP104"
        ]

    def test_import_of_legacy_name_flagged(self):
        source = "from numpy.random import randint\nrandint\n"
        assert rule_ids(lint_snippet(source)) == ["RP104"]

    def test_modern_api_is_clean(self):
        source = (
            "import numpy as np\n"
            "rng = np.random.default_rng(3)\n"
            "seq = np.random.SeedSequence([1, 2])\n"
            "x = rng.integers(10)\n"
        )
        assert rule_ids(lint_snippet(source)) == []
