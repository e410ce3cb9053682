"""The benchmark's traced run wraps tada's functions and methods by name
(``perfbench/tracing.py``). Installing its tracer here fails as soon as a
wrapped name is renamed or deleted, and uninstalling must put every
original back."""

import importlib.util
from pathlib import Path

import numpy as np

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


def test_traced_request_records_every_inference_span():
    """One small TTS request under the installed tracer records a span for
    each wrapped name on the request path, so a refactor that stops calling
    one of them by the name the tracer wraps fails here instead of leaving
    that metric at 0."""
    from tada import pipeline
    from test_pipeline import CODEC, tiny_models

    lm, codec, head = tiny_models()
    rng = np.random.default_rng(3)
    frames, tokens = rng.standard_normal((12, CODEC.d_frame)), rng.integers(0, 5, size=3)
    tracer = _tracer()
    tracer.install()
    try:
        # by module attribute, as the benchmark calls them, so the wrappers run
        prompt = pipeline.prepare_prompt(frames, tokens, None, codec, head, positions=np.array([3, 7, 11]))
        result = pipeline.generate(lm, codec, head, prompt, np.array([1, 2]), pipeline.GenParams(n_fm=2, seed=1))
        pipeline.stream_synthesize(result, codec)
    finally:
        tracer.uninstall()
    recorded = {span[0] for span in tracer.spans}
    wanted = {
        "pipeline.prepare_prompt", "pipeline.generate", "pipeline.stream_synthesize", "backbone.step",
        "nn.stack_step", "nn.attention", "flowhead.euler_sample", "flowhead.field", "codec.segment",
    }
    assert not wanted - recorded, sorted(wanted - recorded)
