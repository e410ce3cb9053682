#!/usr/bin/env python3
"""Train the variational codec briefly and reconstruct an utterance.

Encodes frames to one latent per token at the aligned positions, then
decodes with both the global-attention decoder and the streamable decoder,
checking that the streaming decode (one pass per decoder layer, each
segment attending only its two-segment window) matches the taped full
streaming pass.
"""

import numpy as np

from tada import numerics as nx
from tada.codec import CodecConfig, train_codec
from tada.harness import OracleDecoder, SynthConfig, TemplateBank, gen_corpus, utterance_arrays

cfg = SynthConfig(seed=5)
manifest, arrays = gen_corpus(cfg, 120)
corpus = []
for rec in manifest.records:
    frames, signal = utterance_arrays(arrays, rec.utt_id)
    corpus.append({
        "frames": frames.astype(np.float32), "signal": signal.astype(np.float32),
        "tokens": rec.tokens, "positions": rec.positions,
    })

print("training codec (600 joint + 400 streaming steps)...")
with nx.precision("float32"):
    model = train_codec(corpus, CodecConfig(vocab_size=cfg.vocab_size), steps=600, stream_steps=400, seed=0)

rec = manifest.records[0]
frames, signal = utterance_arrays(arrays, rec.utt_id)
with nx.no_grad():
    s_mu = model.encode(frames, rec.positions)
    joint = model.decode(s_mu, rec.positions, rec.T, mode="joint")
    stream_full = model.decode(s_mu, rec.positions, rec.T, mode="streaming")
feats_seg, sig_seg = model.decode_streaming_full(s_mu.data, rec.positions, rec.T)

print(f"tokens: {rec.tokens.tolist()}, {rec.T} frames -> {s_mu.shape[0]} latents of dim {s_mu.shape[1]}")
err = np.abs(joint.signal.data - signal).mean()
print(f"joint decoder mean |signal error|: {err:.4f}")
gap_f = np.abs(feats_seg - stream_full.features.data).max()
gap_s = np.abs(sig_seg - stream_full.signal.data).max()
print(f"windowed streaming decode vs taped full streaming pass, max gap: features {gap_f:.2e}, signal {gap_s:.2e}")

hyp, _ = OracleDecoder(TemplateBank(cfg)).decode(joint.signal.data)
print(f"oracle transcript of the reconstructed signal: {hyp.tolist()}")
