"""The benchmark's tracer (perfbench/tracing.py) wraps functions of the
package by name. Building it resolves every name it traces, so renaming or
deleting a traced function fails here rather than in a traced benchmark run.
"""

from __future__ import annotations

import importlib
from pathlib import Path

PERFBENCH_DIR = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_patches_and_restores_every_traced_function(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH_DIR))
    tracing = importlib.import_module("tracing")
    import crisislang.cli  # noqa: F401  (loads every module the tracer patches)

    def bound():
        return {
            (module, name): getattr(importlib.import_module(f"crisislang.{module}"), name)
            for module, name, _ in tracing.TRACED
        }

    originals = bound()
    tracer = tracing.Tracer()
    tracer.patch()
    try:
        patched = bound()
        assert all(patched[key] is not originals[key] for key in originals)
        assert all(patched[key].__wrapped__ is originals[key] for key in originals)
    finally:
        tracer.unpatch()
    assert bound() == originals
