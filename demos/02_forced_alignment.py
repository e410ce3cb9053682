#!/usr/bin/env python3
"""CTC training and Viterbi forced alignment on a synthetic corpus.

Trains the toy acoustic model for a few hundred steps, then extracts
token-to-frame positions with the max-sum dynamic program and compares
them to the ground truth the corpus was built with.
"""

import numpy as np

from tada import numerics as nx
from tada.aligner import AlignerConfig, alignment_accuracy, train_aligner, viterbi_align
from tada.harness import SynthConfig, gen_corpus, utterance_arrays

cfg = SynthConfig(seed=3)
manifest, arrays = gen_corpus(cfg, 150)
pairs = [(utterance_arrays(arrays, r.utt_id)[0].astype(np.float32), r.tokens) for r in manifest.records]
truth = [r.positions for r in manifest.records]

print("training CTC aligner on 120 utterances (held-out: 30)...")
with nx.precision("float32"):
    model = train_aligner(
        pairs[:120],
        AlignerConfig(d_in=cfg.d_frame, vocab_size=cfg.vocab_size),
        steps=400, batch_size=12, seed=0,
    )

predicted = [a.positions for a in model.align_batch(pairs[120:])]
acc = alignment_accuracy(predicted, truth[120:], tolerance=1)
print(f"held-out alignment accuracy within +-1 frame: {acc:.1%}")

rec = manifest.records[125]
frames, _ = utterance_arrays(arrays, rec.utt_id)
alignment = model.align(frames.astype(np.float32), rec.tokens)
print(f"\nutterance {rec.utt_id}: tokens {rec.tokens.tolist()}")
print(f"  predicted positions: {alignment.positions.tolist()}")
print(f"  ground truth:        {rec.positions.tolist()}")

# The same max-sum program on a hand-sized matrix:
y = np.array([[1.0, 0.0], [0.0, 2.0], [3.0, 1.0]])
a = viterbi_align(y, [0, 1])
print(f"\nhand example: argmax positions {a.positions.tolist()} with score {a.score}")
