"""The project's Python floor (`requires-python = ">=3.10"`), checked on
the interpreter at hand.

Every `.py` file of the package, its tests and the benchmark must parse
as Python 3.10: `ast.parse(..., feature_version=(3, 10))` refuses syntax
that 3.10 lacks, such as `except*` groups (3.11) and type parameter
lists or `type` statements (3.12). The check is the parser's best effort
and covers grammar only: a call to a library function or method that
3.10 lacks still passes, and only a run on 3.10 itself finds it.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(
    path for folder in ("src", "tests", "perfbench") for path in (ROOT / folder).rglob("*.py")
)


def test_the_floor_check_sees_the_package_and_refuses_newer_syntax():
    assert ROOT / "src" / "funcdiag" / "dsl.py" in SOURCES
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=(3, 10))


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: str(path.relative_to(ROOT)))
def test_source_parses_as_python_3_10(path):
    ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))
