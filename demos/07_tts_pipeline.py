#!/usr/bin/env python3
"""Miniature end-to-end run: corpus, aligner, codec, LMs, then synthesis.

Uses reduced step counts so the whole script finishes in a few minutes;
the acceptance suite runs the full-budget version of the same flow.
"""

import numpy as np

from tada.harness import (
    SynthConfig, TrainBudget, build_prompts, evaluate, gen_corpus,
    run_tts_cases, sample_eval_texts, train_full_stack,
)
from tada.pipeline import GenParams

cfg = SynthConfig(seed=9)
manifest, arrays = gen_corpus(cfg, 300)
print(f"corpus: {len(manifest.records)} utterances")

budget = TrainBudget(
    aligner_steps=400, codec_steps=700, codec_stream_steps=500,
    base_lm_steps=300, backbone_steps=900, speaker_steps=400, seed=0,
)
print("training the full stack (several minutes at this budget)...")
stack = train_full_stack(manifest, arrays, budget)
print(f"aligner accuracy within +-1 frame: {stack.align_accuracy:.1%}")

hold = [r.utt_id for r in manifest.records[-10:]]
prompts = build_prompts(manifest, arrays, hold, stack.codec, stack.speaker_head, aligner=stack.aligner)
texts = sample_eval_texts(stack.bank, 10, seed=123)

cases = run_tts_cases(
    stack.backbone, stack.codec, stack.speaker_head, prompts, texts,
    GenParams(n_fm=10, cfg_scale=1.8, candidates=4, seed=1),
)
report = evaluate(cases, stack.bank)
print("\noracle evaluation on 10 held-out prompts:")
for line in report.to_lines():
    print(f"  {line}")

case = cases[0]
print(f"\nexample: target text {case.target_text.tolist()}")
hyp, _ = __import__("tada.harness", fromlist=["OracleDecoder"]).OracleDecoder(stack.bank).decode(case.audio_signal)
print(f"         oracle heard {hyp.tolist()}")
