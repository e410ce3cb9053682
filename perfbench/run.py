"""tada benchmark: one command per workload.

    python3 perfbench/run.py --workload tts_long --seed 1 --seconds 30 --trace 0

Run from the repository root. ``--trace 0`` measures the end-to-end metrics
with nothing patched; ``--trace 1`` is the separate traced run that gives the
per-layer metrics. The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. The exit code is 1 when an
output check failed and 2 when the command cannot run at all. See
``perfbench/README.md`` for the workloads and the metric definitions.
"""

import os

# Pin the BLAS/OpenMP pools before numpy loads. The matrices are at most a
# few hundred wide, so one thread per process is the steadiest setting.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_build" / "perfbench"


def fail(message: str):
    """Exit with code 2 and no result line."""
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(2)


def parse_args(argv):
    ap = argparse.ArgumentParser(description="tada benchmark")
    ap.add_argument("--workload", required=True, choices=("train", "tts_long", "tts_guided"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def import_tada():
    """Import tada from this checkout's ``src``, never from anywhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import tada
    except ImportError as exc:
        fail(f"cannot import tada from {src}: {exc}")
    if Path(tada.__file__).resolve().parent.parent != src.resolve():
        fail(f"tada was imported from {tada.__file__}, not from {src}")


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Runner:
    """Runs operations of one workload and counts what failed.

    The first execution of an operation gets the full output checks; every
    later execution of the same operation must reproduce its outputs exactly.
    """

    def __init__(self, wl, tracer=None):
        self.wl = wl
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.first: dict[int, object] = {}  # outputs of each operation's first execution

    def op(self, i: int):
        inputs = self.wl.op_inputs(i)
        try:
            if self.tracer is None:
                rec, outputs = self.wl.run_op(inputs)
            else:
                self.tracer.request = i
                try:
                    with self.tracer.span("bench.op"):
                        rec, outputs = self.wl.run_op(inputs)
                finally:
                    self.tracer.request = None
        except Exception:
            traceback.print_exc(file=sys.stderr)
            rec, outputs = self.wl.failed_op(), None
        if outputs is not None:
            try:
                with self.tracer.pause() if self.tracer else contextlib.nullcontext():
                    if i in self.first:
                        self.wl.check_repeat(rec, outputs, self.first[i])
                    else:
                        self.wl.check(rec, outputs)
                        self.first[i] = outputs
            except Exception:
                traceback.print_exc(file=sys.stderr)
                rec.failed.append("check raised")
        self.attempted += rec.attempted
        self.failed += min(len(rec.failed), rec.attempted)
        for reason in rec.failed:
            print(f"check failed: op {i}: {reason}", file=sys.stderr)
        return rec


def quantile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q)) if values else 0.0


def tail(values) -> tuple[str, float]:
    """The highest percentile with at least 10 values beyond it, and its label."""
    v = sorted(values)
    if len(v) < 11:
        return "max", v[-1]
    return f"p{100 * (len(v) - 10) / len(v):.0f}", v[-11]


def end_to_end(args, wl) -> tuple[dict, dict, Runner]:
    """Time the operations with nothing patched.

    Each run has a fixed, small set of distinct operations. After their
    first execution, the run replays them in shuffled order, at least twice
    and until ``--seconds`` of operation time is used up; every replay also
    checks that the outputs repeat. The gated ``op_ms_mean`` takes each
    operation's best time: the machine's speed drifts by up to 2x for
    seconds at a time, and the best of many executions spread over the run
    is much steadier than a median. The request-latency distribution
    (``request_ms_*``) uses every execution.

    The set-up runs ``wl.setup_repeats`` times: once before the first
    operation, then once after each replay pass, so that its median, too,
    samples the machine over the whole run. Set-up time does not count
    toward ``--seconds``.
    """
    setups = []

    def timed_setup():
        t0 = time.perf_counter()
        wl.setup()
        setups.append(time.perf_counter() - t0)

    timed_setup()
    runner = Runner(wl)
    t0 = time.perf_counter()
    best = [runner.op(i) for i in range(wl.n_ops)]
    runs = list(best)  # every execution
    order = np.random.default_rng(args.seed)
    replays, pass_s = 0, time.perf_counter() - t0
    used_s = pass_s
    while replays < 2 or used_s + pass_s <= args.seconds:
        t0 = time.perf_counter()
        for i in order.permutation(len(best)).tolist():
            rec = runner.op(i)
            runs.append(rec)
            if rec.wall_s > 0 and (best[i].wall_s == 0 or rec.wall_s < best[i].wall_s):
                best[i] = rec
        replays, pass_s = replays + 1, time.perf_counter() - t0
        used_s += pass_s
        if len(setups) < wl.setup_repeats:
            timed_setup()
    while len(setups) < wl.setup_repeats:
        timed_setup()

    op_ms = float(np.mean([r.wall_s * 1e3 for r in best if r.wall_s > 0]))
    metrics = {
        "setup_s": quantile(setups, 50),
        "peak_rss_mb": peak_rss_mb(),
        "ok_share": 1.0 - runner.failed / runner.attempted,
        "op_ms_mean": op_ms,
    }
    done = [r for r in runs if r.wall_s > 0]
    info = {
        "workload": wl.name,
        "seed": args.seed,
        "blas_threads": BLAS_THREADS,
        "setup_runs_s": setups,
        "distinct_ops": len(best),
        "executions": len(runs),
    }
    # The user-facing metric names, printed with their units; the result line
    # carries the gated ones under the names BENCHMARK.json lists.
    report = {
        "setup_s": (metrics["setup_s"], "s"),
        "peak_rss_mb": (metrics["peak_rss_mb"], "MB"),
        "failed_share": (runner.failed / runner.attempted, "share"),
    }
    if wl.name == "train":
        report["train_s"] = (op_ms / 1e3, "s")
    else:
        walls = [r.wall_s * 1e3 for r in done]
        label, tail_ms = tail(walls)
        report.update({
            "request_ms_mean": (op_ms, "ms"),
            "request_ms_p50": (quantile(walls, 50), "ms"),
            "request_ms_tail": (tail_ms, "ms"),
            "token_ms_p50": (quantile([r.token_s * 1e3 for r in done], 50), "ms"),
            "audio_frames_per_s": (sum(r.frames for r in done) / (sum(walls) / 1e3), "1/s"),
            "generate_unaccounted_ms_p50": (
                quantile([(r.generate_s - r.accounted_s) * 1e3 for r in done], 50), "ms"
            ),
        })
        info.update(
            requests=len(done),
            request_ms_tail_percentile=label,
            work_tokens=sum(r.tokens for r in best),
            work_frames=sum(r.frames for r in best),
            work_candidates=sum(r.candidates for r in best),
            work_rounds=sum(r.rounds for r in best),
        )
    info["report"] = {k: {"value": v, "unit": u} for k, (v, u) in report.items()}
    return metrics, info, runner


def traced(args, wl) -> tuple[dict, dict, Runner]:
    from tracing import Tracer

    tracer = Tracer()
    tracer.install()
    with tracer.span("bench.setup"):
        wl.setup()
    tracer.uninstall()

    # Each operation runs once plain and once traced, alternately, so the
    # overhead estimate compares the same inputs under the same conditions.
    plain = Runner(wl)
    runner = Runner(wl, tracer)
    runner.first = plain.first
    base, records = [], []
    for i in range(wl.n_ops):
        base.append(plain.op(i))
        tracer.install()
        try:
            records.append(runner.op(i))
        finally:
            tracer.uninstall()
    runner.attempted += plain.attempted
    runner.failed += plain.failed

    OUT_DIR.mkdir(parents=True, exist_ok=True)
    spans_path = OUT_DIR / f"spans-{wl.name}-seed{args.seed}.jsonl"
    tracer.dump(spans_path)
    metrics = per_layer(wl.name, tracer, records, base)
    info = {
        "workload": wl.name,
        "seed": args.seed,
        "blas_threads": BLAS_THREADS,
        "traced_ops": wl.n_ops,
        "spans_file": str(spans_path.relative_to(ROOT)),
        "predictions": predictions(wl.name, metrics),
    }
    # The traced run is valid only when its top-level spans cover the
    # operation; the layer-ordering predictions stay informational, since a
    # real speed-up may flip them.
    if metrics["trace.coverage"] < 0.95:
        print(f"check failed: trace coverage {metrics['trace.coverage']:.4f} < 0.95", file=sys.stderr)
        runner.attempted += 1
        runner.failed += 1
    return metrics, info, runner


def per_layer(name: str, tracer, records, base) -> dict:
    """Per-layer metrics over the traced run: one set-up plus the traced ops."""
    from tracing import SpanSummary

    s = SpanSummary(tracer.spans)
    c = tracer.counts
    tokens = sum(r.tokens for r in records)
    per_token = (lambda x: x / tokens) if tokens else (lambda x: 0.0)
    plain_ms = quantile([r.wall_s * 1e3 for r in base], 50)
    overhead_ms = quantile([(t.wall_s - p.wall_s) * 1e3 for t, p in zip(records, base)], 50)
    layers = ("numerics", "aligner", "masks", "codec", "flowhead", "nn", "backbone", "pipeline", "harness")
    candidates = sum(r.candidates for r in records)
    m = {
        "numerics.backward.calls": s.calls["numerics.backward"],
        "numerics.backward.s": s.total["numerics.backward"],
        "numerics.backward.op_calls": c["numerics.backward.op_calls"],
        "numerics.tape.nodes": c["numerics.tape.nodes"],
        **{f"numerics.tape.op.{op}": c[f"numerics.tape.op.{op}"] for op in
           ("matmul", "rope", "softmax_masked", "slice_cols", "concat")},
        "numerics.adam.step.s": s.total["numerics.adam.step"],
        "numerics.load_arrays.s": s.total["numerics.load_arrays"],
        "aligner.train_aligner.s": s.total["aligner.train_aligner"],
        "aligner.align.calls": s.calls["aligner.align"],
        "aligner.align.s": s.total["aligner.align"],
        "aligner.viterbi_align.s": s.total["aligner.viterbi_align"],
        "aligner.kept_share": sum(r.kept_share for r in records) / len(records),
        "aligner.accuracy": sum(r.align_accuracy for r in records) / len(records),
        "masks.calls": s.prefix_calls("masks."),
        "masks.s": s.prefix_total("masks."),
        "codec.train_codec.s": s.total["codec.train_codec"],
        "codec.encode.calls": s.calls["codec.encode"],
        "codec.encode.s": s.total["codec.encode"],
        "codec.decode.calls": s.calls["codec.decode"] + c["codec.stream_decode.calls"],
        "codec.decode.s": s.total["codec.decode"] + s.prefix_total("codec.segment"),
        "codec.segment.ms_p50": s.median_ms("codec.segment"),
        "codec.segments": s.calls["codec.segment"],
        "codec.frames": c["codec.frames"],
        "codec.frames_per_token": c["codec.frames"] / c["codec.tokens"] if c["codec.tokens"] else 0.0,
        "durbits.chain_rate": sum(r.chain_rate for r in records) / len(records) if tokens else 0.0,
        "flowhead.flow_loss.s": s.total["flowhead.flow_loss"],
        "flowhead.euler_sample.calls": s.calls["flowhead.euler_sample"],
        "flowhead.euler_sample.s": s.total["flowhead.euler_sample"],
        "flowhead.field.calls": s.calls["flowhead.field"],
        "flowhead.field.s": s.total["flowhead.field"],
        "flowhead.field_calls_per_token": per_token(
            sum(1 for sp in tracer.spans if sp[0] == "flowhead.field" and sp[4] is not None)
        ),
        "nn.attention.calls": s.calls["nn.attention"],
        "nn.attention.s": s.total["nn.attention"],
        "nn.stack_step.calls": s.calls["nn.stack_step"],
        "nn.stack_step.s": s.total["nn.stack_step"],
        "backbone.train_backbone.s": s.total["backbone.train_backbone"],
        "backbone.train_base_lm.s": s.total["backbone.train_base_lm"],
        "backbone.train_step.calls": s.calls["backbone.train_step"],
        "backbone.train_step.s": s.total["backbone.train_step"],
        "backbone.step.calls": s.calls["backbone.step"],
        "backbone.step.s": s.total["backbone.step"],
        "backbone.step.ms_p50": s.median_ms("backbone.step"),
        "backbone.steps_per_token": per_token(s.calls["backbone.step"]),
        "pipeline.prepare_prompt.s": s.total["pipeline.prepare_prompt"],
        "pipeline.generate.s": s.total["pipeline.generate"],
        "pipeline.generate.unaccounted_s": sum(r.generate_s - r.accounted_s for r in base),
        "pipeline.stream_synthesize.s": s.total["pipeline.stream_synthesize"],
        "pipeline.candidates": candidates,
        "pipeline.rounds": sum(r.rounds for r in records),
        "pipeline.accept_share": sum(r.accepted for r in records) / candidates if candidates else 0.0,
        "pipeline.train_speaker_head.s": s.total["pipeline.train_speaker_head"],
        "harness.gen_corpus.s": s.total["harness.gen_corpus"],
        "harness.extract_alignments.s": s.total["harness.extract_alignments"],
        "harness.train_full_stack.s": s.total["harness.train_full_stack"],
        **{f"{layer}.self_s": s.layer_self(layer) for layer in layers},
        "work.ops": len(records),
        "work.tokens": tokens,
        "work.frames": sum(r.frames for r in records),
        "trace.spans": len(tracer.spans),
        "trace.coverage": s.coverage("harness.train_full_stack" if name == "train" else "bench.op"),
        "trace.overhead_ms_p50": overhead_ms,
        "trace.overhead_share": overhead_ms / plain_ms if plain_ms else 0.0,
        "env.blas_threads": BLAS_THREADS,
    }
    return {k: float(v) for k, v in m.items()}


def predictions(name: str, m: dict) -> dict:
    """The layer separation each workload exists to show."""
    if name == "train":
        out = {"no euler_sample calls": m["flowhead.euler_sample.calls"] == 0}
    elif name == "tts_guided":
        out = {"flowhead self > backbone.step": m["flowhead.self_s"] > m["backbone.step.s"]}
    else:
        out = {"backbone.step > flowhead euler_sample": m["backbone.step.s"] > m["flowhead.euler_sample.s"]}
    if name != "train":
        out["requests make no backward calls"] = m["numerics.backward.op_calls"] == 0
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        fail("--seconds must be positive")
    import_tada()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    import workloads

    OUT_DIR.mkdir(parents=True, exist_ok=True)
    wl = workloads.make(args.workload, args.seed, OUT_DIR)
    metrics, info, runner = (traced if args.trace else end_to_end)(args, wl)

    listed = spec["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in listed if m["name"] not in metrics]
    if missing:
        fail(f"metrics not computed: {missing}")
    out = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in listed}
    for key, value in info.items():
        if key != "report":
            print(f"{key} = {value}")
    for key, entry in {**info.get("report", {}), **out}.items():
        print(f"{key} = {entry['value']:.6g} {entry['unit']}")
    correct = runner.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": out,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
