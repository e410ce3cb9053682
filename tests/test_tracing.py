"""The benchmark's traced run wraps tada's functions and methods by name
(``perfbench/tracing.py``). Installing its tracer here fails as soon as a
wrapped name is renamed or deleted, and uninstalling must put every
original back."""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer()


def test_tracer_installs_and_restores_every_wrapped_name():
    tracer = _tracer()
    try:
        tracer.install()  # AttributeError names a wrapped attribute that is gone
        installed = [getattr(owner, attr) is not original for owner, attr, original in tracer._patches]
    finally:
        patches = list(tracer._patches)
        tracer.uninstall()
    assert patches and all(installed)
    not_restored = [
        f"{getattr(owner, '__name__', owner)}.{attr}" for owner, attr, original in patches
        if getattr(owner, attr) is not original
    ]
    assert not not_restored, not_restored
