"""The key=value config line: exact round trips through every saved model
and the manifest, and a validation error for every malformed line."""

import re

import numpy as np
import pytest

from tada import configline
from tada import numerics as nx
from tada.aligner import AlignerConfig, AlignerModel
from tada.backbone import BackboneConfig, BackboneModel
from tada.codec import CodecConfig, CodecModel
from tada.errors import ValidationError
from tada.flowhead import FlowConfig
from tada.harness import Manifest, SynthConfig

ALIGNER = AlignerConfig(
    d_in=4, d_model=16, n_heads=2, d_ff=24, vocab_size=5, n_graphemes=3, lambda_inter=0.1, use_curriculum=False
)
CODEC = CodecConfig(
    d_frame=6, d_latent=3, d_model=16, n_heads=2, d_ff=24, n_layers=1, samples_per_frame=8, vocab_size=5,
    sigma0=0.3, k_sigma=1.5, kl_floor=0.4, latent_dropout=0.2, lambda_mel=0.7, lambda_sem=0.3,
    lambda_kl=0.01, noise_warmup_frac=0.5, spectral_windows=(8, 16),
)
BACKBONE = BackboneConfig(
    vocab_size=7, d_model=16, n_heads=2, n_layers=1, d_ff=24, d_cond=12, d_latent=3, bits=4, k_shift=3,
    max_context=64, lambda_flow=0.5, lambda_ce=0.1, lambda_kd=0.2, dropout_rate=0.1, dropout_mean_len=4,
    flow=FlowConfig(d_time=8, width=24, n_hidden=2, sigma_min=3e-5),
)
SYNTH = SynthConfig(vocab_size=12, n_speakers=3, dur_max=5, gap_max=2, tokens_max=6, noise=0.07, seed=11)


@pytest.mark.parametrize(
    "model_cls, config",
    [(AlignerModel, ALIGNER), (CodecModel, CODEC), (BackboneModel, BACKBONE)],
    ids=["aligner", "codec", "backbone"],
)
def test_checkpoint_config_roundtrip(tmp_path, model_cls, config):
    path = tmp_path / "model.tada"
    model_cls(config, np.random.default_rng(0)).save(path)
    assert model_cls.load(path).config == config


def test_manifest_config_roundtrip(tmp_path):
    path = tmp_path / "m.txt"
    Manifest(config=SYNTH).save(path)
    assert Manifest.load(path).config == SYNTH


@pytest.mark.parametrize(
    "edit, match",
    [
        (lambda line: line + " bogus=1", "unknown key 'bogus'"),
        (lambda line: line.replace("seed=11", ""), "missing key 'seed'"),
        (lambda line: line.replace("noise=0.07", "noise=abc"), "cannot parse noise"),
        (lambda line: line.replace("dur_min=1", "dur_min=0"), "invalid duration law"),
        (lambda line: line + " seed=3", "seed=3"),
        (lambda line: line + " seed", "'seed'"),
    ],
    ids=["unknown", "missing", "unparsable", "post_init", "repeated", "no_equals"],
)
def test_bad_line_names_where(edit, match):
    line = edit(configline.to_line(SYNTH))
    with pytest.raises(ValidationError, match=f"^somewhere: SynthConfig: .*{match}"):
        configline.from_line(SynthConfig, line, "somewhere")


def test_nested_flow_keys_are_checked():
    line = configline.to_line(BACKBONE)
    with pytest.raises(ValidationError, match="cannot parse flow.width='x'"):
        configline.from_line(BackboneConfig, line.replace("flow.width=24", "flow.width=x"), "here")
    with pytest.raises(ValidationError, match="k_shift must be >= 1"):
        configline.from_line(BackboneConfig, line.replace("k_shift=3", "k_shift=0"), "here")


def test_flow_sampling_settings_rejected():
    """Backbone lines written while FlowConfig held the sampling settings do not load."""
    line = configline.to_line(BACKBONE) + " flow.n_steps=10 flow.cfg_scale=1.8 flow.neg_mode=zero"
    with pytest.raises(ValidationError, match="unknown key 'flow.n_steps'"):
        configline.from_line(BackboneConfig, line, "old")


def test_checkpoint_without_config_line_rejected(tmp_path):
    """Checkpoints written before the config line (config/* scalars) do not load with defaults."""
    path = tmp_path / "old.tada"
    nx.save_arrays(path, {"in_proj/w": np.zeros((4, 16)), "config/d_in": np.array([4.0])})
    with pytest.raises(ValidationError, match=re.escape(f"{path}: no 'config' array")):
        AlignerModel.load(path)


@pytest.mark.parametrize("codes", [[-1.0], [256.0], [65.5], [0xFF, 0xFE]], ids=["neg", "big", "frac", "utf8"])
def test_config_array_must_hold_utf8_bytes(codes):
    with pytest.raises(ValidationError, match="^ckpt: 'config' array"):
        configline.from_array(SynthConfig, np.array(codes, dtype=np.float32), "ckpt")
