"""Umbrella command-line interface.

Subcommands: gen-data, align, codec-train, lm-train, synth, eval, bench,
graycheck, mask, fm-bench, codec-roundtrip. Global flags --seed and
--config (key=value structured text overriding defaults). The training
flags and --seed override config keys after the file's lines
(``CONFIG_FLAGS``). The training subcommands align, codec-train and
lm-train run the stages of ``harness.recipes.train_full_stack`` with its
seeds. Exit codes: 0 success, 2 validation error or unreadable path,
3 numerical abort.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

# Pin the BLAS/OpenMP pools to one thread before numpy loads. How many
# threads split a matrix product changes its rounding, so without the pin a
# checkpoint would depend on the machine's thread default. On a 2-vCPU VM
# with a 2,000-utterance corpus, `align`, `codec-train` and `lm-train` took
# no longer in wall time with one thread than with two, at half the CPU time.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

from . import durbits, flowhead, masks  # noqa: E402
from . import numerics as nx  # noqa: E402
from .aligner import AlignerModel  # noqa: E402
from .backbone import BackboneModel  # noqa: E402
from .codec import CodecModel, codec_loss  # noqa: E402
from .config import load_config  # noqa: E402
from .errors import NumericalAbort, ValidationError  # noqa: E402
from .harness import (  # noqa: E402
    OracleDecoder,
    TemplateBank,
    benchmark,
    edit_distance,
    evaluate,
    gen_corpus,
    load_corpus,
    recipes,
    run_tts_cases,
    sample_eval_texts,
    save_corpus,
)
from .pipeline import GenParams, generate, load_lm_checkpoint, save_lm_checkpoint, stream_synthesize  # noqa: E402


# The config key each subcommand's training flag sets; the global --seed
# sets budget.seed and synth.seed.
CONFIG_FLAGS = {
    "codec-train": {"--steps": "budget.codec_steps", "--stream-steps": "budget.codec_stream_steps"},
    "lm-train": {"--k": "backbone.k_shift", "--dropout": "backbone.dropout_rate", "--steps": "budget.backbone_steps"},
}

# ``mask`` prints a T x T grid; past this width it is unreadable, and the
# mask itself takes T^2 bytes.
MASK_MAX_FRAMES = 1000


def _at_least_one(args, *flags: str) -> None:
    """Refuse an integer flag below 1, before any file is read."""
    for flag in flags:
        value = getattr(args, flag.lstrip("-").replace("-", "_"))
        if value < 1:
            raise ValidationError(f"{args.command}: {flag} must be >= 1, got {value}")


def _kept(manifest, cfg):
    """The records whose gaps fit in ``backbone.bits`` duration bits."""
    bits = cfg.backbone.bits
    kept, dropped = recipes.filter_by_bits(manifest, bits)
    print(f"kept {len(kept.records)} alignments, dropped {dropped} (gaps must fit in {bits} duration bits)")
    return kept


def _int_list(text: str, flag: str) -> list[int]:
    """A comma-separated list of integers >= 1, as a flag gives it."""
    try:
        values = [int(x) for x in text.split(",")]
    except ValueError:
        raise ValidationError(f"{flag}: expected comma-separated integers, got {text!r}") from None
    if min(values) < 1:
        raise ValidationError(f"{flag}: every value must be >= 1, got {text!r}")
    return values


def cmd_gen_data(args, cfg) -> int:
    _at_least_one(args, "--utterances")
    manifest, arrays = gen_corpus(cfg.synth, args.utterances)
    save_corpus(manifest, arrays, args.manifest, args.arrays)
    print(f"wrote {len(manifest.records)} utterances to {args.manifest} / {args.arrays}")
    return 0


def cmd_align(args, cfg) -> int:
    manifest, arrays = load_corpus(args.manifest, args.arrays)
    model = AlignerModel.load(args.model) if args.model else None
    model, aligned, accuracy = recipes.align_stage(manifest, arrays, cfg.aligner, cfg.budget, model)
    if args.save_model:
        model.save(args.save_model)
    aligned.save(args.out)
    print(f"aligned {len(aligned.records)} utterances, align_accuracy={accuracy:.6g} -> {args.out}")
    return 0


def cmd_codec_train(args, cfg) -> int:
    manifest, arrays = load_corpus(args.manifest, args.arrays)
    kept = _kept(manifest, cfg)
    model = recipes.codec_stage(kept, recipes.codec_corpus(kept, arrays), cfg.codec, cfg.budget)
    model.save(args.out)
    print(f"codec checkpoint -> {args.out}")
    return 0


def cmd_lm_train(args, cfg) -> int:
    manifest, arrays = load_corpus(args.manifest, args.arrays)
    codec_model = CodecModel.load(args.codec)
    base_lm = BackboneModel.load(args.base_lm) if args.base_lm else None
    corpus = recipes.codec_corpus(_kept(manifest, cfg), arrays)
    latents = recipes.latent_stage(codec_model, corpus, TemplateBank(manifest.config), cfg.budget)
    head, base_lm, model = recipes.lm_stage(manifest, latents, cfg.backbone, cfg.budget, base_lm)
    if args.base_out:
        base_lm.save(args.base_out)
    save_lm_checkpoint(args.out, model, head)
    print(f"lm checkpoint -> {args.out}")
    return 0


def _gen_params(args) -> GenParams:
    """The sampling settings of the --nfm, --cfg, --neg and --reject flags."""
    return GenParams(
        n_fm=args.nfm, cfg_scale=args.cfg, neg_mode=args.neg,
        candidates=args.reject, seed=args.seed or 0,
    )


def _load_models(args):
    """The corpus, the LM with its speaker head, the codec and the aligner
    (``None`` without --aligner) that the flags name."""
    manifest, arrays = load_corpus(args.manifest, args.arrays)
    model, head = load_lm_checkpoint(args.lm)
    codec_model = CodecModel.load(args.codec)
    aligner = AlignerModel.load(args.aligner) if args.aligner else None
    return manifest, arrays, model, head, codec_model, aligner


def _held_out(args):
    """The models, prompts from the last --prompts utterances of the
    manifest, one sampled text per prompt, and the corpus's template bank."""
    manifest, arrays, model, head, codec_model, aligner = _load_models(args)
    ids = [rec.utt_id for rec in manifest.records[-args.prompts:]]
    prompts = recipes.build_prompts(manifest, arrays, ids, codec_model, head, model.config.bits, aligner)
    bank = TemplateBank(manifest.config)
    texts = sample_eval_texts(bank, len(prompts), seed=(args.seed or 0) + 17)
    return model, head, codec_model, prompts, texts, bank


def cmd_synth(args, cfg) -> int:
    try:
        text = np.array([int(x) for x in args.text.replace(",", " ").split()], dtype=np.int64)
    except (ValueError, OverflowError):
        raise ValidationError(f"--text: expected token ids, got {args.text!r}") from None
    params = _gen_params(args)
    manifest, arrays, model, head, codec_model, aligner = _load_models(args)
    (prompt,) = recipes.build_prompts(manifest, arrays, [args.prompt], codec_model, head, model.config.bits, aligner)
    result = generate(model, codec_model, head, prompt, text, params)
    audio = stream_synthesize(result, codec_model)
    toks = ",".join(map(str, result.text_tokens.tolist()))
    pos = ",".join(map(str, audio.positions.tolist()))
    record = f"id={args.prompt} speaker={prompt.speaker} T={audio.T} tokens={toks} p={pos}"
    if args.out:
        nx.save_arrays(
            args.out,
            {
                "frames": audio.frames.astype(np.float32),
                "signal": audio.signal.astype(np.float32),
                "latents": result.latents.astype(np.float32),
                "f_before": result.f_before.astype(np.float32),
                "f_after": result.f_after.astype(np.float32),
                "positions": audio.positions.astype(np.float32),
            },
        )
        with open(str(args.out) + ".record", "w") as f:
            f.write(record + "\n")
    print(record)
    print(f"chain_rate={result.chain_rate:.6g}")
    for w in result.warnings:
        print(f"warning: {w}")
    return 0


def cmd_eval(args, cfg) -> int:
    _at_least_one(args, "--prompts")
    params = _gen_params(args)
    model, head, codec_model, prompts, texts, bank = _held_out(args)
    cases = run_tts_cases(model, codec_model, head, prompts, texts, params)
    report = evaluate(cases, bank)
    print("\n".join(report.to_lines()))
    return 0


def cmd_bench(args, cfg) -> int:
    _at_least_one(args, "--prompts", "--runs")
    n_fm_list = tuple(_int_list(args.nfm_list, "--nfm-list"))
    model, head, codec_model, prompts, texts, _ = _held_out(args)
    per_n = benchmark(
        model, codec_model, head, prompts, texts,
        n_fm_list=n_fm_list, runs=args.runs, seed=args.seed or 0,
    )
    for n_fm in n_fm_list:
        line = " ".join(f"{k}={v:.6g}" for k, v in per_n[n_fm].items())
        print(f"nfm={n_fm} {line}")
    flow_times = [per_n[n_fm]["flow_time"] for n_fm in n_fm_list]
    monotone = all(b > a for a, b in zip(flow_times, flow_times[1:]))
    print(f"flow_time_monotone={int(monotone)}")
    return 0


def cmd_graycheck(args, cfg) -> int:
    b = args.b
    if not 1 <= b <= 16:
        raise ValidationError(f"graycheck: --b must be in [1, 16], got {b}")
    n = np.arange(1 << b)
    codes = durbits.gray_encode(n, b)
    bad = np.flatnonzero(durbits.gray_decode(codes) != n)
    if bad.size:
        print(f"roundtrip FAIL at {bad[0]}")
        return 2
    print(f"roundtrip: ok for all n < 2^{b}")
    flips = np.sum(codes[1:] != codes[:-1], axis=1)
    bad = np.flatnonzero(flips != 1)
    if bad.size:
        print(f"adjacency FAIL at {bad[0]}: {flips[bad[0]]} bits differ")
        return 2
    print("adjacency: consecutive codes differ in exactly 1 bit")
    rng = np.random.default_rng(args.seed or 0)
    s = rng.standard_normal((1000, 8))
    fb, fa = rng.integers(1 << b, size=(2, 1000))
    s2, fb2, fa2 = durbits.unpack(durbits.pack(s, fb, fa, b), 8, b)
    if (fb2 != fb).any() or (fa2 != fa).any() or not np.allclose(s, s2):
        print("pack/unpack FAIL")
        return 2
    print("pack/unpack: ok on 1000 random triples")
    return 0


def cmd_mask(args, cfg) -> int:
    if args.t > MASK_MAX_FRAMES:
        raise ValidationError(f"mask: --t must be <= {MASK_MAX_FRAMES}, got {args.t}")
    p = np.array(_int_list(args.p, "--p"), dtype=np.int64)
    if args.which == "enc":
        m = masks.encoder_mask(p, args.t)
    else:
        m = masks.decoder_stream_mask(p, args.t)
    print(masks.render_mask(m, p))
    return 0


def cmd_fm_bench(args, cfg) -> int:
    steps = _int_list(args.steps, "--steps")
    rng = np.random.default_rng(args.seed or 0)
    flow = cfg.backbone.flow
    d = flow.d_target
    mu_a = rng.standard_normal(d)
    mu_b = rng.standard_normal(d)
    field = flowhead.two_point_field(mu_a, mu_b, 0.5, flow.sigma_min)
    y0 = rng.standard_normal((16, d))
    ref = flowhead.euler_integrate(field, y0, 20480)
    for n in steps:
        t0 = time.perf_counter()
        y = flowhead.euler_integrate(field, y0, n)
        dt = time.perf_counter() - t0
        err = float(np.linalg.norm(y - ref, axis=1).mean())
        print(f"steps={n} wall_time={dt:.6g} oracle_error={err:.6g}")
    return 0


def cmd_codec_roundtrip(args, cfg) -> int:
    manifest, arrays = load_corpus(args.manifest, args.arrays)
    codec_model = CodecModel.load(args.ckpt)
    by_id = {rec.utt_id: rec for rec in manifest.records}
    if args.utt not in by_id:
        raise ValidationError(f"unknown utterance id {args.utt}")
    rec = by_id[args.utt]
    frames, signal = recipes._record_arrays(rec, arrays)
    with nx.no_grad():
        s_mu = codec_model.encode(frames, rec.positions)
        dec = codec_model.decode(s_mu, rec.positions, rec.T, mode="joint")
        report = codec_loss(dec, signal, rec.tokens, rec.positions, s_mu, codec_model.config)
    _, sig = dec.numpy()
    bank = TemplateBank(manifest.config)
    hyp, _pos = OracleDecoder(bank).decode(sig)
    ter = edit_distance(hyp.tolist(), rec.tokens.tolist()) / max(rec.tokens.size, 1)
    vals = report.floats()
    line = " ".join(f"{k}={v:.6g}" for k, v in vals.items())
    print(f"utt={args.utt} {line} oracle_ter={ter:.6g}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="tada", description=__doc__)
    parser.add_argument("--seed", type=int, default=None, help="global RNG seed override")
    parser.add_argument("--config", type=str, default=None, help="key=value config file")
    sub = parser.add_subparsers(dest="command", required=True)

    # Flags shared by several subcommands, declared once as parent parsers.
    corpus = argparse.ArgumentParser(add_help=False)
    corpus.add_argument("--manifest", required=True)
    corpus.add_argument("--arrays", required=True)
    models = argparse.ArgumentParser(add_help=False)
    models.add_argument("--lm", required=True)
    models.add_argument("--codec", required=True)
    models.add_argument("--aligner", default=None)
    sampling = argparse.ArgumentParser(add_help=False)
    sampling.add_argument("--nfm", type=int, default=10)
    sampling.add_argument("--cfg", type=float, default=1.8)
    sampling.add_argument("--neg", choices=["zero", "tfg"], default="zero")
    sampling.add_argument("--reject", type=int, default=1)

    p = sub.add_parser("gen-data", parents=[corpus], help="generate the synthetic corpus")
    p.add_argument("--utterances", type=int, default=2000)
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("align", parents=[corpus], help="train/load the aligner and write the manifest at its positions")
    p.add_argument("--model", default=None, help="aligner checkpoint (trains one if omitted)")
    p.add_argument("--save-model", default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_align)

    p = sub.add_parser("codec-train", parents=[corpus], help="train the variational codec")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_codec_train)

    p = sub.add_parser("lm-train", parents=[corpus], help="train the multimodal backbone + speaker head")
    p.add_argument("--codec", required=True)
    p.add_argument("--base-lm", default=None, help="frozen base LM checkpoint (pretrains one if omitted)")
    p.add_argument("--base-out", default=None, help="write the base LM as a backbone checkpoint")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_lm_train)

    p = sub.add_parser("synth", parents=[corpus, models, sampling], help="generate speech for a text given a prompt")
    p.add_argument("--prompt", type=int, required=True, help="prompt utterance id")
    p.add_argument("--text", required=True, help="token ids, e.g. '3,7,9'")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("eval", parents=[corpus, models, sampling], help="oracle evaluation over held-out prompts")
    p.add_argument("--prompts", type=int, default=100)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("bench", parents=[corpus, models], help="latency trends across flow step counts")
    p.add_argument("--prompts", type=int, default=4)
    p.add_argument("--nfm-list", default="2,4,10,20")
    p.add_argument("--runs", type=int, default=3)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("graycheck", help="exhaustive gray/analog property suite")
    p.add_argument("--b", type=int, default=8)
    p.set_defaults(func=cmd_graycheck)

    p = sub.add_parser("mask", help="print an attention mask as an ASCII grid")
    p.add_argument("--p", required=True, help="comma-separated 1-based aligned positions")
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--which", choices=["enc", "dec"], default="enc")
    p.set_defaults(func=cmd_mask)

    p = sub.add_parser("fm-bench", help="Euler wall time and oracle error per step count")
    p.add_argument("--steps", default="2,4,10,20")
    p.set_defaults(func=cmd_fm_bench)

    p = sub.add_parser("codec-roundtrip", parents=[corpus], help="reconstruction metrics for one utterance")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--utt", type=int, required=True)
    p.set_defaults(func=cmd_codec_roundtrip)

    for command, flags in CONFIG_FLAGS.items():
        for flag, key in flags.items():
            sub.choices[command].add_argument(
                flag, dest=key, metavar=flag.lstrip("-").replace("-", "_").upper(), help=f"sets {key}"
            )
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    flags = [(flag, key, getattr(args, key)) for flag, key in CONFIG_FLAGS.get(args.command, {}).items()]
    flags += [("--seed", key, args.seed) for key in ("budget.seed", "synth.seed")]
    try:
        cfg = load_config(args.config, [(flag, key, value) for flag, key, value in flags if value is not None])
        return args.func(args, cfg) or 0
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalAbort as exc:
        print(f"numerical abort: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        if exc.filename is None:
            raise
        print(f"error: {exc.filename}: {exc.strerror}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
