"""RP2xx simulation-purity rules: forbidden imports, environment access."""

from .snippets import lint_snippet, rule_ids


class TestRP201ForbiddenImport:
    def test_requests_flagged(self):
        assert rule_ids(lint_snippet("import requests\nrequests.get\n")) == ["RP201"]

    def test_socket_and_subprocess_flagged(self):
        source = "import socket\nimport subprocess\nused = socket, subprocess\n"
        assert rule_ids(lint_snippet(source)) == ["RP201", "RP201"]

    def test_urllib_request_flagged_but_parse_allowed(self):
        assert rule_ids(lint_snippet("import urllib.request\nurllib.request\n")) == ["RP201"]
        assert rule_ids(lint_snippet("from urllib.request import urlopen\nurlopen\n")) == ["RP201"]
        assert rule_ids(lint_snippet("from urllib import request\nrequest\n")) == ["RP201"]
        assert rule_ids(lint_snippet("from urllib.parse import urlsplit\nurlsplit\n")) == []

    def test_http_client_flagged(self):
        assert rule_ids(lint_snippet(
            "from http.client import HTTPConnection\nHTTPConnection\n"
        )) == ["RP201"]

    def test_tests_may_use_subprocess(self):
        assert rule_ids(lint_snippet(
            "import subprocess\nsubprocess.run\n", scope="tests"
        )) == []

    def test_simnet_style_imports_clean(self):
        source = (
            "from repro.simnet.web import Web\n"
            "from repro.simnet.browser import Browser\n"
            "used = Web, Browser\n"
        )
        assert rule_ids(lint_snippet(source)) == []


class TestRP203PrintInLibrary:
    def test_print_flagged(self):
        assert rule_ids(lint_snippet("print('progress')\n")) == ["RP203"]

    def test_print_in_function_flagged(self):
        source = "def run(verbose):\n    if verbose:\n        print('tick')\n"
        assert rule_ids(lint_snippet(source)) == ["RP203"]

    def test_report_renderer_exempt(self):
        assert rule_ids(lint_snippet(
            "print('table')\n", path="src/repro/analysis/report.py"
        )) == []

    def test_cli_exempt(self):
        assert rule_ids(lint_snippet(
            "print('usage')\n", path="src/repro/cli.py"
        )) == []

    def test_lint_package_exempt(self):
        assert rule_ids(lint_snippet(
            "print('findings')\n", path="src/repro/lint/cli.py"
        )) == []

    def test_tests_may_print(self):
        assert rule_ids(lint_snippet("print('debug')\n", scope="tests")) == []

    def test_shadowed_print_method_clean(self):
        source = "class Doc:\n    def render(self, printer):\n        printer.print('x')\n"
        assert rule_ids(lint_snippet(source)) == []


class TestRP202EnvironmentAccess:
    def test_os_environ_read_flagged(self):
        source = "import os\nlevel = os.environ['LEVEL']\n"
        assert rule_ids(lint_snippet(source)) == ["RP202"]

    def test_os_environ_get_flagged_once(self):
        source = "import os\nlevel = os.environ.get('LEVEL')\n"
        assert rule_ids(lint_snippet(source)) == ["RP202"]

    def test_os_getenv_flagged(self):
        source = "import os\nlevel = os.getenv('LEVEL', '1')\n"
        assert rule_ids(lint_snippet(source)) == ["RP202"]

    def test_scripts_may_read_environment(self):
        source = "import os\nlevel = os.getenv('LEVEL')\n"
        assert rule_ids(lint_snippet(source, scope="scripts")) == []

    def test_os_path_usage_clean(self):
        source = "import os\np = os.path.join('a', 'b')\n"
        assert rule_ids(lint_snippet(source)) == []
