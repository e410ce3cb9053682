"""Umbrella command-line interface.

Subcommands: gen-data, align, codec-train, lm-train, synth, eval, bench,
graycheck, mask, fm-bench, codec-roundtrip. Global flags --seed, --threads,
and --config (key=value structured text overriding defaults). Exit codes:
0 success, 2 validation error, 3 numerical abort.
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from . import durbits, flowhead, masks
from . import numerics as nx
from .aligner import AlignerModel, filter_alignment, load_alignment_cache, save_alignment_cache, train_aligner
from .backbone import BackboneModel, train_backbone, train_base_lm
from .codec import CodecModel, train_codec
from .config import load_config
from .errors import NumericalAbort, ValidationError
from .harness import (
    Manifest,
    OracleDecoder,
    TemplateBank,
    benchmark,
    build_prompts,
    evaluate,
    gen_corpus,
    run_tts_cases,
    sample_eval_texts,
    utterance_arrays,
)
from .harness.recipes import aligner_pairs, extract_alignments, filter_alignments
from .pipeline import (
    GenParams,
    SpeakerHead,
    generate,
    load_lm_checkpoint,
    prepare_prompt,
    save_lm_checkpoint,
    stream_synthesize,
    train_speaker_head,
)


def _load_corpus(args):
    manifest = Manifest.load(args.manifest)
    arrays = nx.load_arrays(args.arrays)
    return manifest, arrays


def _positions_for(manifest, cache, rec):
    if cache is not None and rec.utt_id in cache:
        return cache[rec.utt_id][1]
    return rec.positions


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
    manifest, arrays = _load_corpus(args)
    if args.model:
        model = AlignerModel.load(args.model)
    else:
        acfg = cfg.aligner
        acfg.d_in = manifest.config.d_frame
        acfg.vocab_size = manifest.config.vocab_size
        with nx.precision("float32"):
            model = train_aligner(
                aligner_pairs(manifest, arrays),
                acfg,
                steps=cfg.budget.aligner_steps,
                batch_size=cfg.budget.aligner_batch,
                seed=args.seed or 0,
            )
        if args.save_model:
            model.save(args.save_model)
    positions = extract_alignments(model, manifest, arrays, threads=args.threads)
    records = {}
    dropped = 0
    for rec in manifest.records:
        p = positions[rec.utt_id]
        if filter_alignment(p, rec.T) is not None:
            dropped += 1
            continue
        records[rec.utt_id] = (rec.T, p)
    save_alignment_cache(args.out, records)
    print(f"aligned {len(records)} utterances ({dropped} filtered) -> {args.out}")
    return 0


def cmd_codec_train(args, cfg) -> int:
    manifest, arrays = _load_corpus(args)
    cache = load_alignment_cache(args.align_cache) if args.align_cache else None
    ccfg = cfg.codec
    ccfg.d_frame = manifest.config.d_frame
    ccfg.vocab_size = manifest.config.vocab_size
    ccfg.samples_per_frame = manifest.config.samples_per_frame
    corpus = []
    for rec in manifest.records:
        p = _positions_for(manifest, cache, rec)
        if cache is not None and rec.utt_id not in cache:
            continue
        frames, signal = utterance_arrays(arrays, rec.utt_id)
        corpus.append(
            {
                "frames": frames.astype(np.float32),
                "signal": signal.astype(np.float32),
                "tokens": rec.tokens,
                "positions": p,
            }
        )
    with nx.precision("float32"):
        model = train_codec(
            corpus,
            ccfg,
            steps=args.steps or cfg.budget.codec_steps,
            stream_steps=args.stream_steps or cfg.budget.codec_stream_steps,
            batch_size=cfg.budget.codec_batch,
            seed=args.seed or 0,
        )
    model.save(args.out)
    print(f"codec checkpoint -> {args.out}")
    return 0


def cmd_lm_train(args, cfg) -> int:
    from .backbone import SequenceBatchItem
    from .codec import reparameterize

    manifest, arrays = _load_corpus(args)
    cache = load_alignment_cache(args.align_cache) if args.align_cache else None
    codec_model = CodecModel.load(args.codec, dtype=np.float32)
    bcfg = cfg.backbone
    bcfg.vocab_size = manifest.config.vocab_size
    bcfg.d_latent = codec_model.config.d_latent
    if args.k is not None:
        bcfg.k_shift = args.k
    if args.dropout is not None:
        bcfg.dropout_rate = args.dropout
    bcfg.__post_init__()
    seed = args.seed or 0
    rng = np.random.default_rng(seed)
    bank = TemplateBank(manifest.config)

    alignments, dropped = filter_alignments(
        {
            rec.utt_id: (rec.T, _positions_for(manifest, cache, rec))
            for rec in manifest.records
            if cache is None or rec.utt_id in cache
        },
        bcfg.bits,
    )
    print(f"kept {len(alignments)} alignments, dropped {dropped} (gaps must fit in {bcfg.bits} duration bits)")

    with nx.precision("float32"):
        items = []
        spk_rows, spk_tgts = [], []
        with nx.no_grad():
            for rec in manifest.records:
                if rec.utt_id not in alignments:
                    continue
                p = alignments[rec.utt_id][1]
                frames, _ = utterance_arrays(arrays, rec.utt_id)
                s_mu = codec_model.encode(frames.astype(np.float32), p)
                s = reparameterize(
                    s_mu, codec_model.config.k_sigma, seed=int(rng.integers(1 << 31)),
                    sigma0=codec_model.config.sigma0,
                ).data
                fb, fa = durbits.durations_from_positions(p, rec.T)
                items.append(
                    SequenceBatchItem(
                        tokens=rec.tokens, latents=np.asarray(s, dtype=np.float64),
                        f_before=fb, f_after=fa,
                    )
                )
                for row in np.asarray(s_mu.data):
                    spk_rows.append(row)
                    spk_tgts.append(bank.speaker_param[rec.speaker])
        if args.base_lm:
            base_lm, _head = load_lm_checkpoint(args.base_lm, dtype=np.float32)
        else:
            base_lm = train_base_lm(
                [rec.tokens for rec in manifest.records], bcfg,
                steps=cfg.budget.base_lm_steps, seed=seed + 1,
            )
            if args.base_out:
                dummy = SpeakerHead(d_latent=bcfg.d_latent, rng=np.random.default_rng(0))
                save_lm_checkpoint(args.base_out, base_lm, dummy)
        model = train_backbone(
            items, bcfg, base_lm=base_lm,
            steps=args.steps or cfg.budget.backbone_steps,
            batch_size=cfg.budget.backbone_batch, seed=seed + 2,
        )
        head = train_speaker_head(
            np.asarray(spk_rows), np.asarray(spk_tgts),
            d_latent=codec_model.config.d_latent,
            steps=cfg.budget.speaker_steps, seed=seed + 3,
        )
    save_lm_checkpoint(args.out, model, head)
    print(f"lm checkpoint -> {args.out}")
    return 0


def _prompt_from_args(args, manifest, arrays, codec_model, head):
    by_id = {rec.utt_id: rec for rec in manifest.records}
    if args.prompt not in by_id:
        raise ValidationError(f"unknown prompt utterance id {args.prompt}")
    rec = by_id[args.prompt]
    frames, _ = utterance_arrays(arrays, rec.utt_id)
    aligner_model = AlignerModel.load(args.aligner) if getattr(args, "aligner", None) else None
    cache = load_alignment_cache(args.align_cache) if getattr(args, "align_cache", None) else None
    positions = None
    if aligner_model is None:
        positions = cache[rec.utt_id][1] if cache and rec.utt_id in cache else rec.positions
    prompt = prepare_prompt(frames, rec.tokens, aligner_model, codec_model, head, positions=positions)
    prompt.speaker = rec.speaker
    prompt.utt_id = rec.utt_id
    return prompt


def cmd_synth(args, cfg) -> int:
    manifest, arrays = _load_corpus(args)
    model, head = load_lm_checkpoint(args.lm)
    codec_model = CodecModel.load(args.codec)
    prompt = _prompt_from_args(args, manifest, arrays, codec_model, head)
    text = np.array([int(x) for x in args.text.replace(",", " ").split()], dtype=np.int64)
    params = GenParams(
        n_fm=args.nfm, cfg_scale=args.cfg, neg_mode=args.neg,
        candidates=args.reject, sfg_scale=args.sfg, seed=args.seed or 0,
    )
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


def _eval_prompts(args, cfg, manifest, arrays, codec_model, head):
    n = args.prompts
    ids = [rec.utt_id for rec in manifest.records[-n:]]
    aligner_model = AlignerModel.load(args.aligner) if getattr(args, "aligner", None) else None
    prompts = []
    by_id = {rec.utt_id: rec for rec in manifest.records}
    for utt_id in ids:
        rec = by_id[utt_id]
        frames, _ = utterance_arrays(arrays, utt_id)
        positions = None if aligner_model is not None else rec.positions
        p = prepare_prompt(frames, rec.tokens, aligner_model, codec_model, head, positions=positions)
        p.speaker = rec.speaker
        p.utt_id = utt_id
        prompts.append(p)
    return prompts


def cmd_eval(args, cfg) -> int:
    manifest, arrays = _load_corpus(args)
    model, head = load_lm_checkpoint(args.lm)
    codec_model = CodecModel.load(args.codec)
    bank = TemplateBank(manifest.config)
    prompts = _eval_prompts(args, cfg, manifest, arrays, codec_model, head)
    texts = sample_eval_texts(bank, len(prompts), seed=(args.seed or 0) + 17)
    params = GenParams(
        n_fm=args.nfm, cfg_scale=args.cfg, neg_mode=args.neg,
        candidates=args.reject, seed=args.seed or 0,
    )
    cases = run_tts_cases(model, codec_model, head, prompts, texts, params)
    report = evaluate(cases, bank)
    print("\n".join(report.to_lines()))
    return 0


def cmd_bench(args, cfg) -> int:
    manifest, arrays = _load_corpus(args)
    model, head = load_lm_checkpoint(args.lm)
    codec_model = CodecModel.load(args.codec)
    bank = TemplateBank(manifest.config)
    args.prompts = min(args.prompts, len(manifest.records))
    prompts = _eval_prompts(args, cfg, manifest, arrays, codec_model, head)
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
    d = cfg.flow.d_target
    mu_a = rng.standard_normal(d)
    mu_b = rng.standard_normal(d)
    field = flowhead.two_point_field(mu_a, mu_b, 0.5, cfg.flow.sigma_min)
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
    manifest, arrays = _load_corpus(args)
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
    parser.add_argument("--threads", type=int, default=4, help="worker threads for per-utterance work")
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
    p.add_argument("--base-out", default=None)
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


if __name__ == "__main__":
    sys.exit(main())
