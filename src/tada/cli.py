"""Umbrella command-line interface.

Subcommands: gen-data, align, codec-train, lm-train, synth, eval, bench,
graycheck, mask, fm-bench, codec-roundtrip. Global flags --seed and
--config (key=value structured text overriding defaults). The training
subcommands align, codec-train and lm-train run the stages of
``harness.recipes.train_full_stack`` with its seeds. Exit codes: 0 success,
2 validation error or unreadable path, 3 numerical abort.
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from . import durbits, flowhead, masks
from . import numerics as nx
from .aligner import AlignerModel, load_alignment_cache, save_alignment_cache
from .backbone import BackboneModel
from .codec import CodecModel
from .config import load_config
from .errors import NumericalAbort, ValidationError
from .harness import (
    OracleDecoder,
    TemplateBank,
    benchmark,
    evaluate,
    gen_corpus,
    load_corpus,
    recipes,
    run_tts_cases,
    sample_eval_texts,
    utterance_arrays,
)
from .pipeline import GenParams, generate, load_lm_checkpoint, save_lm_checkpoint, stream_synthesize


def _alignments(args, manifest) -> dict:
    """The alignment cache, or the manifest's ground-truth positions."""
    if args.align_cache:
        return load_alignment_cache(args.align_cache)
    return {rec.utt_id: (rec.T, rec.positions) for rec in manifest.records}


def cmd_gen_data(args, cfg) -> int:
    synth = cfg.synth
    if args.seed is not None:
        synth.seed = args.seed
    manifest, arrays = gen_corpus(synth, args.utterances)
    manifest.save(args.manifest)
    nx.save_arrays(args.arrays, arrays)
    print(f"wrote {len(manifest.records)} utterances to {args.manifest} / {args.arrays}")
    return 0


def cmd_align(args, cfg) -> int:
    manifest, arrays = load_corpus(args.manifest, args.arrays)
    cfg.aligner.d_in = manifest.config.d_frame
    cfg.aligner.vocab_size = manifest.config.vocab_size
    bits = cfg.backbone.bits
    model = AlignerModel.load(args.model) if args.model else None
    model, kept, dropped, accuracy = recipes.align_stage(manifest, arrays, cfg.aligner, bits, cfg.budget, model)
    if args.save_model:
        model.save(args.save_model)
    save_alignment_cache(args.out, kept)
    print(
        f"aligned {len(kept)} utterances, dropped {dropped} (gaps must fit in {bits} duration bits), "
        f"align_accuracy={accuracy:.6g} -> {args.out}"
    )
    return 0


def cmd_codec_train(args, cfg) -> int:
    manifest, arrays = load_corpus(args.manifest, args.arrays)
    alignments = _alignments(args, manifest)
    ccfg = cfg.codec
    ccfg.d_frame = manifest.config.d_frame
    ccfg.vocab_size = manifest.config.vocab_size
    ccfg.samples_per_frame = manifest.config.samples_per_frame
    if args.steps is not None:
        cfg.budget.codec_steps = args.steps
    if args.stream_steps is not None:
        cfg.budget.codec_stream_steps = args.stream_steps
    model = recipes.codec_stage(recipes.codec_corpus(manifest, arrays, alignments), ccfg, cfg.budget)
    model.save(args.out)
    print(f"codec checkpoint -> {args.out}")
    return 0


def cmd_lm_train(args, cfg) -> int:
    manifest, arrays = load_corpus(args.manifest, args.arrays)
    alignments = _alignments(args, manifest)
    codec_model = CodecModel.load(args.codec)
    base_lm = BackboneModel.load(args.base_lm) if args.base_lm else None
    bcfg = cfg.backbone
    bcfg.vocab_size = manifest.config.vocab_size
    bcfg.d_latent = codec_model.config.d_latent
    if args.k is not None:
        bcfg.k_shift = args.k
    if args.dropout is not None:
        bcfg.dropout_rate = args.dropout
    bcfg.__post_init__()
    if args.steps is not None:
        cfg.budget.backbone_steps = args.steps

    # A no-op on a cache that `align` wrote with the same bits.
    alignments, dropped = recipes.filter_alignments(alignments, bcfg.bits)
    print(f"kept {len(alignments)} alignments, dropped {dropped} (gaps must fit in {bcfg.bits} duration bits)")
    corpus = recipes.codec_corpus(manifest, arrays, alignments)
    latents = recipes.latent_stage(codec_model, corpus, TemplateBank(manifest.config), cfg.budget)
    head, base_lm, model = recipes.lm_stage(manifest, latents, bcfg, cfg.budget, base_lm)
    if args.base_out:
        base_lm.save(args.base_out)
    save_lm_checkpoint(args.out, model, head)
    print(f"lm checkpoint -> {args.out}")
    return 0


def cmd_synth(args, cfg) -> int:
    params = GenParams(
        n_fm=args.nfm, cfg_scale=args.cfg, neg_mode=args.neg,
        candidates=args.reject, sfg_scale=args.sfg, seed=args.seed or 0,
    )
    manifest, arrays = load_corpus(args.manifest, args.arrays)
    model, head = load_lm_checkpoint(args.lm)
    codec_model = CodecModel.load(args.codec)
    aligner = AlignerModel.load(args.aligner) if args.aligner else None
    alignments = load_alignment_cache(args.align_cache) if args.align_cache else None
    (prompt,) = recipes.build_prompts(manifest, arrays, [args.prompt], codec_model, head, aligner, alignments)
    text = np.array([int(x) for x in args.text.replace(",", " ").split()], dtype=np.int64)
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


def _held_out_prompts(args, manifest, arrays, codec_model, head):
    """Prompts from the last ``--prompts`` utterances of the manifest."""
    ids = [rec.utt_id for rec in manifest.records[-args.prompts:]]
    aligner = AlignerModel.load(args.aligner) if args.aligner else None
    return recipes.build_prompts(manifest, arrays, ids, codec_model, head, aligner)


def cmd_eval(args, cfg) -> int:
    params = GenParams(
        n_fm=args.nfm, cfg_scale=args.cfg, neg_mode=args.neg,
        candidates=args.reject, seed=args.seed or 0,
    )
    manifest, arrays = load_corpus(args.manifest, args.arrays)
    model, head = load_lm_checkpoint(args.lm)
    codec_model = CodecModel.load(args.codec)
    bank = TemplateBank(manifest.config)
    prompts = _held_out_prompts(args, manifest, arrays, codec_model, head)
    texts = sample_eval_texts(bank, len(prompts), seed=(args.seed or 0) + 17)
    cases = run_tts_cases(model, codec_model, head, prompts, texts, params)
    report = evaluate(cases, bank)
    print("\n".join(report.to_lines()))
    return 0


def cmd_bench(args, cfg) -> int:
    manifest, arrays = load_corpus(args.manifest, args.arrays)
    model, head = load_lm_checkpoint(args.lm)
    codec_model = CodecModel.load(args.codec)
    bank = TemplateBank(manifest.config)
    prompts = _held_out_prompts(args, manifest, arrays, codec_model, head)
    texts = sample_eval_texts(bank, len(prompts), seed=(args.seed or 0) + 17)
    n_fm_list = tuple(int(x) for x in args.nfm_list.split(","))
    report, per_n = benchmark(
        model, codec_model, head, prompts, texts,
        n_fm_list=n_fm_list, runs=args.runs, seed=args.seed or 0,
    )
    for n_fm in n_fm_list:
        row = per_n[n_fm]
        line = " ".join(f"{k}={v:.6g}" for k, v in row.items())
        print(f"nfm={n_fm} {line}")
    print("\n".join(report.to_lines()))
    return 0


def cmd_graycheck(args, cfg) -> int:
    b = args.b
    if not 1 <= b <= 16:
        raise ValidationError(f"graycheck: --b must be in [1, 16], got {b}")
    for n in range(1 << b):
        bits = durbits.gray_encode(n, b)
        if durbits.gray_decode(bits) != n:
            print(f"roundtrip FAIL at {n}")
            return 2
    print(f"roundtrip: ok for all n < 2^{b}")
    for n in range((1 << b) - 1):
        d = int(np.sum(durbits.gray_encode(n, b) != durbits.gray_encode(n + 1, b)))
        if d != 1:
            print(f"adjacency FAIL at {n}: {d} bits differ")
            return 2
    print("adjacency: consecutive codes differ in exactly 1 bit")
    rng = np.random.default_rng(args.seed or 0)
    for _ in range(1000):
        s = rng.standard_normal(8)
        fb, fa = int(rng.integers(1 << b)), int(rng.integers(1 << b))
        s2, fb2, fa2 = durbits.unpack(durbits.pack(s, fb, fa, b), 8, b)
        if fb2 != fb or fa2 != fa or not np.allclose(s, s2):
            print("pack/unpack FAIL")
            return 2
    print("pack/unpack: ok on 1000 random triples")
    return 0


def cmd_mask(args, cfg) -> int:
    p = np.array([int(x) for x in args.p.split(",")], dtype=np.int64)
    if args.which == "enc":
        m = masks.encoder_mask(p, args.t)
    else:
        m = masks.decoder_stream_mask(p, args.t)
    print(masks.render_mask(m, p))
    return 0


def cmd_fm_bench(args, cfg) -> int:
    steps = [int(x) for x in args.steps.split(",")]
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
    frames, signal = utterance_arrays(arrays, rec.utt_id)
    with nx.no_grad():
        s_mu = codec_model.encode(frames, rec.positions)
        dec = codec_model.decode(s_mu, rec.positions, rec.T, mode="joint")
        from .codec import codec_loss

        report = codec_loss(dec, signal, rec.tokens, rec.positions, s_mu, codec_model.config)
    _, sig = dec.numpy()
    bank = TemplateBank(manifest.config)
    hyp, _pos = OracleDecoder(bank).decode(sig)
    from .harness import edit_distance

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

    p = sub.add_parser("gen-data", help="generate the synthetic corpus")
    p.add_argument("--manifest", required=True)
    p.add_argument("--arrays", required=True)
    p.add_argument("--utterances", type=int, default=2000)
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("align", help="train/load the aligner and write an alignment cache")
    p.add_argument("--manifest", required=True)
    p.add_argument("--arrays", required=True)
    p.add_argument("--model", default=None, help="aligner checkpoint (trains one if omitted)")
    p.add_argument("--save-model", default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_align)

    p = sub.add_parser("codec-train", help="train the variational codec")
    p.add_argument("--manifest", required=True)
    p.add_argument("--arrays", required=True)
    p.add_argument("--align-cache", default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--steps", type=int, default=None)
    p.add_argument("--stream-steps", type=int, default=None)
    p.set_defaults(func=cmd_codec_train)

    p = sub.add_parser("lm-train", help="train the multimodal backbone + speaker head")
    p.add_argument("--manifest", required=True)
    p.add_argument("--arrays", required=True)
    p.add_argument("--codec", required=True)
    p.add_argument("--align-cache", default=None)
    p.add_argument("--base-lm", default=None, help="frozen base LM checkpoint (pretrains one if omitted)")
    p.add_argument("--base-out", default=None, help="write the base LM as a backbone checkpoint")
    p.add_argument("--out", required=True)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--dropout", type=float, default=None)
    p.add_argument("--steps", type=int, default=None)
    p.set_defaults(func=cmd_lm_train)

    p = sub.add_parser("synth", help="generate speech for a text given a prompt")
    p.add_argument("--lm", required=True)
    p.add_argument("--codec", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--arrays", required=True)
    p.add_argument("--aligner", default=None)
    p.add_argument("--align-cache", default=None)
    p.add_argument("--prompt", type=int, required=True, help="prompt utterance id")
    p.add_argument("--text", required=True, help="token ids, e.g. '3,7,9'")
    p.add_argument("--nfm", type=int, default=10)
    p.add_argument("--cfg", type=float, default=1.8)
    p.add_argument("--neg", choices=["zero", "tfg"], default="zero")
    p.add_argument("--reject", type=int, default=1)
    p.add_argument("--sfg", type=float, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("eval", help="oracle evaluation over held-out prompts")
    p.add_argument("--manifest", required=True)
    p.add_argument("--arrays", required=True)
    p.add_argument("--lm", required=True)
    p.add_argument("--codec", required=True)
    p.add_argument("--aligner", default=None)
    p.add_argument("--prompts", type=int, default=100)
    p.add_argument("--nfm", type=int, default=10)
    p.add_argument("--cfg", type=float, default=1.8)
    p.add_argument("--neg", choices=["zero", "tfg"], default="zero")
    p.add_argument("--reject", type=int, default=1)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("bench", help="latency trends across flow step counts")
    p.add_argument("--manifest", required=True)
    p.add_argument("--arrays", required=True)
    p.add_argument("--lm", required=True)
    p.add_argument("--codec", required=True)
    p.add_argument("--aligner", default=None)
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

    p = sub.add_parser("codec-roundtrip", help="reconstruction metrics for one utterance")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--arrays", required=True)
    p.add_argument("--utt", type=int, required=True)
    p.set_defaults(func=cmd_codec_roundtrip)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg.budget.seed = args.seed
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
