"""The benchmark's tracer finds every kvcut attribute it wraps.

``perfbench/spans.install`` looks each layer entry point up by name, so a
refactor that renames or drops one breaks the traced benchmark run.  This
catches it in the unit suite instead.
"""

from pathlib import Path

import kvcut.engine

PERFBENCH = Path(__file__).parent.parent / "perfbench"


def test_tracer_installs_and_uninstalls(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans

    original = kvcut.engine.price
    tracer = spans.Tracer()
    try:
        spans.install(tracer)  # AttributeError when a wrapped name is gone
        assert kvcut.engine.price is not original
    finally:
        tracer.uninstall()
    assert kvcut.engine.price is original
