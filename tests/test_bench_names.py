"""The benchmark's traced run wraps library functions by name.

perfbench's own tests are not part of this suite, so renaming or removing
one of those functions would only show when a traced benchmark run fails.
"""

from __future__ import annotations

import importlib
from pathlib import Path

from funcdiag import engine
from funcdiag.store import Database

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_traced_name_is_a_library_callable(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    bench = importlib.import_module("bench")
    for name in bench.ENGINE_SPANS:
        assert callable(getattr(engine, name, None)), f"funcdiag.engine.{name}"
    for name in bench.STORE_SPANS + bench.STORE_COUNTS:
        assert callable(getattr(Database, name, None)), f"Database.{name}"
