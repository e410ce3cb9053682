"""Span recorder for the traced run, and the wrappers it installs.

The traced run replaces tada's public functions with thin wrappers at the
place where their callers look them up: a module attribute for functions
(``tada.harness.recipes.train_codec``, not ``tada.codec.train_codec``, because
the recipe bound the name at import), a class attribute for methods
(``BackboneModel.step``, ``VectorFieldModel.field_np``). Nothing inside
``src/tada`` changes. Each wrapper records one span: name, start, end, the
span that was open when it was called (its parent) and the request id.
Spans stay in memory; ``Tracer.dump`` writes them out at the end.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter
from contextlib import contextmanager

import numpy as np

# Engine primitives whose tape-node counts the result reports.
TAPE_OPS = ("matmul", "rope", "softmax_masked", "slice_cols", "concat")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, request id]
        self.counts: Counter = Counter()
        self.request: int | None = None  # id stamped on spans opened inside an operation
        self.paused = False
        self._open: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append([name, time.perf_counter(), None, parent, self.request])
        self._open.append(idx)
        try:
            yield idx
        finally:
            self.spans[idx][2] = time.perf_counter()
            self._open.pop()

    @contextmanager
    def pause(self):
        """Run a block (the output checks) without recording anything."""
        before, self.paused = self.paused, True
        try:
            yield
        finally:
            self.paused = before

    # -- patching --------------------------------------------------------------

    def wrap(self, owner, attr: str, name: str, after=None) -> None:
        """Replace ``owner.attr`` by a wrapper recording span ``name``.

        ``after(tracer, args, result)`` may add counts once the span closed.
        """
        original = getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if self.paused:
                return original(*args, **kwargs)
            with self.span(name):
                result = original(*args, **kwargs)
            if after is not None:
                after(self, args, result)
            return result

        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def wrap_generator(self, owner, attr: str, name: str, step_name: str, before=None) -> None:
        """Wrap a generator method; each item it yields is one ``step_name`` span."""
        original = getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            gen = original(*args, **kwargs)
            if self.paused:
                yield from gen
                return
            self.counts[f"{name}.calls"] += 1
            if before is not None:
                before(self, args)
            while True:
                with self.span(step_name) as idx:
                    try:
                        item = next(gen)
                    except StopIteration:
                        self.spans[idx][0] = f"{step_name}.end"
                        return
                yield item

        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        import tada.aligner
        import tada.backbone
        import tada.codec
        import tada.flowhead
        import tada.harness
        import tada.harness.recipes as recipes
        import tada.masks
        import tada.nn
        import tada.numerics
        import tada.pipeline
        from tada.numerics.engine import Tensor
        from tada.numerics.optim import Adam

        w = self.wrap
        w(Tensor, "backward", "numerics.backward", after=_count_tape)
        w(Adam, "step", "numerics.adam.step")
        w(tada.numerics, "load_arrays", "numerics.load_arrays")

        w(recipes, "train_aligner", "aligner.train_aligner")
        w(tada.aligner.AlignerModel, "align", "aligner.align")
        w(tada.aligner, "viterbi_align", "aligner.viterbi_align")

        for fn in ("encoder_mask", "decoder_stream_mask", "indicator", "segment_bounds"):
            w(tada.masks, fn, f"masks.{fn}")

        w(recipes, "train_codec", "codec.train_codec")
        w(tada.codec, "train_codec", "codec.train_codec")
        w(tada.codec.CodecModel, "encode", "codec.encode")
        w(tada.codec.CodecModel, "decode", "codec.decode", after=_count_full_decode)
        self.wrap_generator(
            tada.codec.CodecModel, "decode_streaming_segments", "codec.stream_decode",
            "codec.segment", before=_count_stream_decode,
        )

        w(tada.flowhead, "flow_loss", "flowhead.flow_loss")
        w(tada.flowhead, "euler_sample", "flowhead.euler_sample")
        w(tada.flowhead.VectorFieldModel, "field_np", "flowhead.field")

        w(tada.nn, "attention", "nn.attention")
        w(tada.nn, "stack_step", "nn.stack_step")

        w(recipes, "train_backbone", "backbone.train_backbone")
        w(tada.backbone, "train_backbone", "backbone.train_backbone")
        w(recipes, "train_base_lm", "backbone.train_base_lm")
        w(tada.backbone, "train_step", "backbone.train_step")
        w(tada.backbone.BackboneModel, "step", "backbone.step")

        w(tada.pipeline, "prepare_prompt", "pipeline.prepare_prompt")
        w(tada.pipeline, "generate", "pipeline.generate")
        w(tada.pipeline, "stream_synthesize", "pipeline.stream_synthesize")
        w(recipes, "train_speaker_head", "pipeline.train_speaker_head")
        w(tada.pipeline, "train_speaker_head", "pipeline.train_speaker_head")

        w(tada.harness, "gen_corpus", "harness.gen_corpus")
        w(recipes, "extract_alignments", "harness.extract_alignments")
        w(tada.harness, "train_full_stack", "harness.train_full_stack")

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- output ------------------------------------------------------------------

    def dump(self, path) -> None:
        with open(path, "w") as f:
            for name, start, end, parent, request in self.spans:
                f.write(json.dumps([name, start, end, parent, request]) + "\n")


def _count_tape(tracer: Tracer, args, tape) -> None:
    tracer.counts["numerics.tape.nodes"] += len(tape.nodes)
    if tracer.request is not None:
        tracer.counts["numerics.backward.op_calls"] += 1
    ops = Counter(node.op for node in tape.nodes)
    for op in TAPE_OPS:
        tracer.counts[f"numerics.tape.op.{op}"] += ops[op]


def _count_decode(tracer: Tracer, positions, T) -> None:
    if tracer.request is None:
        return  # set-up training decodes are not work an operation did
    tracer.counts["codec.frames"] += int(T)
    tracer.counts["codec.tokens"] += int(np.asarray(positions).size)


def _count_full_decode(tracer: Tracer, args, result) -> None:
    _count_decode(tracer, args[2], args[3])


def _count_stream_decode(tracer: Tracer, args) -> None:
    _count_decode(tracer, args[2], args[3])


class SpanSummary:
    """Per-name call counts, inclusive seconds and self seconds.

    A span's self time is its duration minus the durations of its direct
    children. Calls run on one thread, so children never overlap.
    """

    def __init__(self, spans: list[list]):
        self.spans = spans
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent is not None:
                child_time[parent] += end - start
        self.calls: Counter = Counter()
        self.total: Counter = Counter()
        self.self_time: Counter = Counter()
        self.durations: dict[str, list[float]] = {}
        for i, (name, start, end, _, _) in enumerate(spans):
            self.calls[name] += 1
            self.total[name] += end - start
            self.self_time[name] += end - start - child_time[i]
            self.durations.setdefault(name, []).append(end - start)
        self.child_time = child_time

    def layer_self(self, layer: str) -> float:
        return sum(v for k, v in self.self_time.items() if k.split(".", 1)[0] == layer)

    def prefix_calls(self, prefix: str) -> int:
        return sum(v for k, v in self.calls.items() if k.startswith(prefix))

    def prefix_total(self, prefix: str) -> float:
        return sum(v for k, v in self.total.items() if k.startswith(prefix))

    def median_ms(self, name: str) -> float:
        d = self.durations.get(name)
        return 1e3 * float(np.median(d)) if d else 0.0

    def coverage(self, root: str) -> float:
        """Share of the wall time of ``root`` spans that their direct
        children cover."""
        wall = covered = 0.0
        for i, (name, start, end, _, _) in enumerate(self.spans):
            if name == root:
                wall += end - start
                covered += self.child_time[i]
        return covered / wall if wall > 0 else 0.0
