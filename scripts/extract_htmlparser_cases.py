"""Extract the markup inputs of CPython's ``test_htmlparser.py`` into a fixture.

The lexer in ``repro.webdoc.lexer`` must build the same tree as
``html.parser`` on every input; CPython's own parser tests are a ready-made
list of the edge cases that parser handles. This script reads one or more
copies of ``Lib/test/test_htmlparser.py`` with :mod:`ast` and collects every
string literal that contains ``<`` or ``&``, every ``+`` concatenation of
such literals, and the concatenation of every list or tuple of string
literals (the tests feed those as chunks). The union, deduplicated and
sorted, is written as JSON.

Usage, from the repository root, one path per interpreter::

    python scripts/extract_htmlparser_cases.py \\
        --out tests/webdoc/data/cpython_htmlparser_cases.json \\
        "$(python3.9 -c 'import test, os; print(os.path.dirname(test.__file__))')/test_htmlparser.py" \\
        ...
"""

from __future__ import annotations

import argparse
import ast
import json
from pathlib import Path
from typing import Iterator, Optional


def _literal(node: ast.AST) -> Optional[str]:
    """A string literal, or a ``+`` chain of them, as its value."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
        left, right = _literal(node.left), _literal(node.right)
        if left is not None and right is not None:
            return left + right
    return None


def extract(source: str) -> Iterator[str]:
    """Yield the markup-looking strings of one test module's source."""
    for node in ast.walk(ast.parse(source)):
        value = _literal(node)
        if value is None and isinstance(node, (ast.List, ast.Tuple)) and node.elts:
            parts = [_literal(elt) for elt in node.elts]
            if all(part is not None for part in parts):
                value = "".join(parts)
        if value is not None and ("<" in value or "&" in value):
            yield value


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("paths", nargs="+", type=Path, help="copies of test_htmlparser.py")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    cases = set()
    for path in args.paths:
        cases.update(extract(path.read_text(encoding="utf-8")))
    payload = {
        # The last three path components name the interpreter's copy.
        "sources": sorted("/".join(path.parts[-3:]) for path in args.paths),
        "cases": sorted(cases),
    }
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(payload, indent=1, ensure_ascii=True) + "\n", encoding="utf-8")
    print(f"{len(cases)} cases from {len(args.paths)} files -> {args.out}")


if __name__ == "__main__":
    main()
