"""CLI surface: subcommands, file outputs, and exit codes."""

import argparse
import os
import re
import shlex
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import tada
from tada import configline, durbits
from tada import numerics as nx
from tada.aligner import AlignerConfig, AlignerModel, filter_alignment
from tada.backbone import BackboneConfig, BackboneModel
from tada.cli import build_parser, main
from tada.codec import CodecConfig, CodecModel
from tada.config import Defaults, load_config
from tada.errors import ValidationError
from tada.harness import Manifest, TrainBudget, recipes, train_full_stack
from tada.pipeline import SpeakerHead, load_lm_checkpoint, save_lm_checkpoint


def test_graycheck_exit_zero(capsys):
    assert main(["graycheck", "--b", "6"]) == 0
    out = capsys.readouterr().out
    assert "roundtrip: ok" in out and "adjacency" in out


def test_mask_grid(capsys):
    assert main(["mask", "--p", "2,5", "--t", "6", "--which", "enc"]) == 0
    out = capsys.readouterr().out
    assert out.count("*") >= 4  # row and column markers for both positions


def test_mask_invalid_positions_exit_code_2(capsys):
    assert main(["mask", "--p", "9", "--t", "4", "--which", "enc"]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("t", ["1001", "100000"])
def test_mask_wider_than_the_limit_exit_code_2(capsys, t):
    """A grid wider than 1,000 frames is refused, naming the flag, before
    the T x T mask is built."""
    assert main(["mask", "--p", "2", "--t", t, "--which", "enc"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "--t" in err[0], err


def test_fm_bench(capsys):
    assert main(["fm-bench", "--steps", "2,4"]) == 0
    lines = [ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("steps=")]
    assert len(lines) == 2
    assert all("oracle_error=" in ln for ln in lines)


def test_gen_data_writes_corpus(tmp_path, capsys):
    manifest_path = tmp_path / "m.txt"
    arrays_path = tmp_path / "a.tada"
    code = main([
        "--seed", "3", "gen-data",
        "--manifest", str(manifest_path), "--arrays", str(arrays_path),
        "--utterances", "5",
    ])
    assert code == 0
    manifest = Manifest.load(manifest_path)
    assert len(manifest.records) == 5
    arrays = nx.load_arrays(arrays_path)
    assert f"utt00000/frames" in arrays


def test_config_file_overrides(tmp_path):
    cfg_file = tmp_path / "conf.txt"
    cfg_file.write_text("synth.vocab_size=9\nsynth.tokens_max=4\n")
    manifest_path = tmp_path / "m.txt"
    arrays_path = tmp_path / "a.tada"
    code = main([
        "--config", str(cfg_file), "gen-data",
        "--manifest", str(manifest_path), "--arrays", str(arrays_path),
        "--utterances", "3",
    ])
    assert code == 0
    manifest = Manifest.load(manifest_path)
    assert manifest.config.vocab_size == 9
    assert all(r.tokens.size <= 4 for r in manifest.records)


def test_bad_config_key_exit_code_2(tmp_path, capsys):
    cfg_file = tmp_path / "conf.txt"
    cfg_file.write_text("synth.bogus_field=1\n")
    code = main(["--config", str(cfg_file), "graycheck", "--b", "4"])
    assert code == 2


@pytest.mark.parametrize(
    "line",
    [
        "codec.lambda_mel=abc", "gen.candidates=0", "backbone.k_shift=0", "synth.tokens_max=2,3", "flow.width=128",
        "backbone.bos_id=3", "budget.aligner_batch=0", "budget.backbone_batch=0", "budget.codec_steps=-1",
        "codec.d_latent=0", "aligner.n_graphemes=0", "budget.log_every=-1",
        "aligner.d_in=5", "aligner.vocab_size=40", "codec.d_frame=8", "codec.vocab_size=9",
        "codec.samples_per_frame=4", "backbone.vocab_size=9", "backbone.d_latent=4",
    ],
)
def test_bad_config_value_exit_code_2(tmp_path, capsys, line):
    cfg_file = tmp_path / "conf.txt"
    cfg_file.write_text(line + "\n")
    code = main(["--config", str(cfg_file), "graycheck", "--b", "4"])
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:"), err


def test_bad_backbone_width_exits_2_before_lm_train_reads_anything(tmp_path):
    """A negative backbone width is the config line's error, exit 2 with one
    ``error:`` line and no traceback, before lm-train opens its inputs."""
    (tmp_path / "conf.txt").write_text("backbone.d_ff=-1\n")
    env = {**os.environ, "PYTHONPATH": str(Path(tada.__file__).parent.parent)}
    argv = ["--config", "conf.txt", "lm-train", "--manifest", "m.txt", "--arrays", "a.tada", "--codec", "c.tada",
            "--out", "lm.tada"]
    done = subprocess.run([sys.executable, "-m", "tada.cli", *argv], cwd=tmp_path, env=env, capture_output=True,
                          text=True)
    assert done.returncode == 2 and "Traceback" not in done.stderr
    assert done.stderr.splitlines() == ["error: config line 1: BackboneConfig: d_ff must be >= 1, got -1"]


def test_config_file_of_every_default_key_loads_the_defaults(tmp_path):
    """The --config keys are the checkpoint line's keys under each section."""
    cfg_file = tmp_path / "conf.txt"
    cfg_file.write_text(configline.to_line(Defaults()).replace(" ", "\n") + "\n")
    assert "backbone.flow.width=256" in cfg_file.read_text().splitlines()
    assert load_config(str(cfg_file)) == Defaults()


def test_config_file_sets_flow_head_keys(tmp_path):
    """A flow key loads; one that follows from a backbone key loads when it agrees."""
    cfg_file = tmp_path / "conf.txt"
    cfg_file.write_text("backbone.flow.width=128\nbackbone.d_cond=64\nbackbone.flow.d_cond=64\n")
    config = load_config(str(cfg_file))
    assert config.backbone.flow.width == 128
    assert config.backbone.d_cond == config.backbone.flow.d_cond == 64


@pytest.mark.parametrize(
    "lines, bad_line",
    [("backbone.flow.d_latent=4", 1), ("backbone.d_latent=8\nbackbone.flow.d_latent=4", 2),
     ("backbone.flow.bits=4", 1), ("backbone.d_cond=64\nbackbone.flow.d_cond=128", 2)],
    ids=["d_latent", "d_latent_stale", "bits", "d_cond"],
)
def test_derived_config_key_that_disagrees_exit_code_2(tmp_path, capsys, lines, bad_line):
    """A flow key that follows from a backbone key is refused unless it agrees, not dropped."""
    cfg_file = tmp_path / "conf.txt"
    cfg_file.write_text(lines + "\n")
    assert main(["--config", str(cfg_file), "graycheck", "--b", "4"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: config line {bad_line}: backbone.flow."), err


def test_config_key_the_corpus_decides_exit_code_2(small_corpus, tmp_path, capsys):
    """``align`` takes the aligner's input width and vocabulary from the
    manifest, so a config line that sets another value is refused, naming
    the line, before anything is written."""
    manifest, arrays = small_corpus
    cfg_file = tmp_path / "conf.txt"
    cfg_file.write_text("aligner.d_in=5\naligner.vocab_size=40\n")
    out, model = tmp_path / "aligned.txt", tmp_path / "aligner.tada"
    capsys.readouterr()
    assert main(["--config", str(cfg_file), "align", "--manifest", manifest, "--arrays", arrays,
                 "--out", str(out), "--save-model", str(model)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: config line 1: aligner.d_in=5 cannot be set; the stages take aligner.d_in from the manifest"]
    assert not out.exists() and not model.exists()


def test_training_flags_override_config_keys(tmp_path):
    """A flag is an override of its key, after the file's lines; 0 means zero steps."""
    cfg_file = tmp_path / "conf.txt"
    cfg_file.write_text("budget.codec_steps=5\nbackbone.k_shift=3\nbudget.seed=4\n")
    flags = [("--steps", "budget.codec_steps", "0"), ("--k", "backbone.k_shift", "1"),
             ("--seed", "budget.seed", "7"), ("--seed", "synth.seed", "7")]
    config = load_config(str(cfg_file), flags)
    assert (config.budget.codec_steps, config.backbone.k_shift) == (0, 1)
    assert config.budget.seed == config.synth.seed == 7
    assert load_config(str(cfg_file)).budget.codec_steps == 5
    with pytest.raises(ValidationError, match=r"^--k: BackboneConfig: k_shift must be >= 1"):
        load_config(None, [("--k", "backbone.k_shift", "0")])


def test_lm_train_four_bit_backbone_drops_wide_gaps(tmp_path, capsys):
    """A 2-step aligner leaves gaps wider than four duration bits hold;
    align writes every record, and codec-train and lm-train drop those
    alignments, so lm-train does not fail in gray_encode."""
    cfg_file = tmp_path / "conf.txt"
    cfg_file.write_text(
        "backbone.bits=4\nbudget.aligner_steps=2\nbudget.base_lm_steps=2\nbudget.speaker_steps=2\n"
    )
    arrays = ["--arrays", str(tmp_path / "a.tada")]
    aligned, codec, lm = (str(tmp_path / name) for name in ("aligned.txt", "codec.tada", "lm.tada"))
    conf = ["--config", str(cfg_file)]
    assert main(["--seed", "0", "gen-data", "--manifest", str(tmp_path / "m.txt"), *arrays, "--utterances", "24"]) == 0
    assert main([*conf, "align", "--manifest", str(tmp_path / "m.txt"), *arrays, "--out", aligned]) == 0
    assert len(Manifest.load(aligned).records) == 24
    capsys.readouterr()
    assert main([*conf, "codec-train", "--manifest", aligned, *arrays, "--out", codec,
                 "--steps", "2", "--stream-steps", "2"]) == 0
    out = capsys.readouterr().out
    assert "dropped" in out and "dropped 0 " not in out
    assert main([*conf, "lm-train", "--manifest", aligned, *arrays, "--codec", codec,
                 "--out", lm, "--steps", "2"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == out.splitlines()[0]


def test_align_does_not_depend_on_the_blas_thread_count(tmp_path):
    """The CLI pins the BLAS pools to one thread before numpy loads, so
    align writes the same checkpoint and manifest whatever thread count the
    environment asks for. On a 48-utterance corpus, products split over
    two threads round differently, so without the pin the bytes differ."""
    (tmp_path / "conf.txt").write_text("budget.aligner_steps=2\n")

    def run(threads, *argv):
        env = {**os.environ, "PYTHONPATH": str(Path(tada.__file__).parent.parent)}
        env.update({var: str(threads) for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")})
        subprocess.run([sys.executable, "-m", "tada.cli", *argv], cwd=tmp_path, env=env, check=True,
                       capture_output=True)

    run(1, "--seed", "0", "gen-data", "--manifest", "m.txt", "--arrays", "a.tada", "--utterances", "48")
    for threads in (1, 2):
        run(threads, "--seed", "1", "--config", "conf.txt", "align", "--manifest", "m.txt", "--arrays", "a.tada",
            "--save-model", f"aligner{threads}.tada", "--out", f"aligned{threads}.txt")
    for name in ("aligner{}.tada", "aligned{}.txt"):
        assert (tmp_path / name.format(1)).read_bytes() == (tmp_path / name.format(2)).read_bytes()


def test_cli_stages_match_train_full_stack(tmp_path, capsys):
    """align, codec-train and lm-train write the models train_full_stack
    trains at the same seed and budget, the aligned manifest holds exactly
    the positions its align stage extracts, and synth, eval, bench and
    codec-roundtrip run on the checkpoints."""
    cfg_file = tmp_path / "conf.txt"
    cfg_file.write_text(
        "backbone.bits=4\nbudget.aligner_steps=2\nbudget.base_lm_steps=2\nbudget.speaker_steps=2\n"
    )
    m, a = str(tmp_path / "m.txt"), str(tmp_path / "a.tada")
    aligned, aligner, codec, base, lm = (
        str(tmp_path / name) for name in ("aligned.txt", "aligner.tada", "codec.tada", "base.tada", "lm.tada")
    )
    corpus = ["--manifest", aligned, "--arrays", a]
    conf = ["--seed", "5", "--config", str(cfg_file)]
    assert main(["--seed", "0", "gen-data", "--manifest", m, "--arrays", a, "--utterances", "24"]) == 0
    assert main([*conf, "align", "--manifest", m, "--arrays", a, "--save-model", aligner, "--out", aligned]) == 0
    assert main([*conf, "codec-train", *corpus, "--out", codec, "--steps", "2", "--stream-steps", "2"]) == 0
    assert main([*conf, "lm-train", *corpus, "--codec", codec, "--base-out", base, "--out", lm, "--steps", "2"]) == 0

    manifest, arrays = Manifest.load(m), nx.load_arrays(a)
    budget = TrainBudget(
        aligner_steps=2, codec_steps=2, codec_stream_steps=2, base_lm_steps=2,
        backbone_steps=2, speaker_steps=2, seed=5,
    )
    bits = 4
    stack = train_full_stack(
        manifest, arrays, budget, backbone_config=BackboneConfig(vocab_size=manifest.config.vocab_size, bits=bits)
    )
    backbone, speaker_head = load_lm_checkpoint(lm)
    loaded = {
        "aligner": AlignerModel.load(aligner),
        "codec": CodecModel.load(codec),
        "base_lm": BackboneModel.load(base),
        "backbone": backbone,
        "speaker_head": speaker_head,
    }
    for name, model in loaded.items():  # training is float32 throughout, as checkpoints store it
        ref = getattr(stack, name).params
        assert model.params.keys() == ref.keys(), name
        for key in ref:
            assert ref[key].data.dtype == model.params[key].data.dtype == np.float32, (name, key)
            assert np.array_equal(model.params[key].data, ref[key].data), (name, key)

    _, extracted, _ = recipes.align_stage(manifest, arrays, stack.aligner.config, budget, stack.aligner)
    written = Manifest.load(aligned)
    assert written.config == manifest.config
    assert [r.to_line() for r in written.records] == [r.to_line() for r in extracted.records]
    assert 0 < recipes.filter_by_bits(written, bits)[1] == stack.dropped_alignments

    # A 2-step aligner's positions fail prepare_prompt's run filter, so the
    # prompts take the ground-truth manifest's.
    truth = ["--manifest", m, "--arrays", a]
    prompt = str(manifest.records[0].utt_id)
    assert main(["synth", "--lm", lm, "--codec", codec, *truth, "--prompt", prompt, "--text", "3,7,9"]) == 0
    capsys.readouterr()
    assert main(["eval", *truth, "--lm", lm, "--codec", codec, "--prompts", "2"]) == 0
    out = capsys.readouterr().out
    assert "n_utterances=2" in out and "prefill_time=" in out
    bench = ["bench", *truth, "--lm", lm, "--codec", codec, "--prompts", "1", "--nfm-list", "2,4", "--runs", "1"]
    assert main(bench) == 0
    *rows, monotone = capsys.readouterr().out.splitlines()  # what bench measured, and nothing else
    keys = ["nfm", "flow_time", "flow_time_var", "llm_time", "llm_time_var", "steps_per_sec"]
    assert [[item.split("=")[0] for item in row.split()] for row in rows] == [keys, keys]
    assert [row.split()[0] for row in rows] == ["nfm=2", "nfm=4"]
    assert re.fullmatch(r"flow_time_monotone=[01]", monotone)
    assert main(["codec-roundtrip", "--ckpt", codec, *truth, "--utt", prompt]) == 0
    assert "oracle_ter=" in capsys.readouterr().out


def _eval_with_untrained_aligner(tmp_path, capsys, bits):
    """``eval --prompts 3`` on the 24-utterance seed-0 corpus, its prompts
    aligned by a zero-step ``--seed 1`` aligner, for an untrained LM with
    ``bits`` duration bits: the exit code, the standard output and error,
    and the aligner's records of the three prompts."""
    m, a, aligner, aligned = (str(tmp_path / name) for name in ("m.txt", "a.tada", "aligner.tada", "aligned.txt"))
    cfg_file = tmp_path / "conf.txt"
    cfg_file.write_text("budget.aligner_steps=0\n")
    assert main(["--seed", "0", "gen-data", "--manifest", m, "--arrays", a, "--utterances", "24"]) == 0
    assert main(["--seed", "1", "--config", str(cfg_file), "align", "--manifest", m, "--arrays", a,
                 "--save-model", aligner, "--out", aligned]) == 0
    rng = np.random.default_rng(0)
    codec, lm = str(tmp_path / "codec.tada"), str(tmp_path / "lm.tada")
    CodecModel(CodecConfig(d_model=16, n_heads=2, d_ff=16, n_layers=1), rng).save(codec)
    backbone = BackboneModel(BackboneConfig(d_model=16, n_heads=2, n_layers=1, d_ff=16, d_cond=16, bits=bits), rng)
    save_lm_checkpoint(lm, backbone, SpeakerHead(rng=rng))
    capsys.readouterr()
    code = main(["eval", "--manifest", m, "--arrays", a, "--lm", lm, "--codec", codec, "--aligner", aligner,
                 "--prompts", "3"])
    captured = capsys.readouterr()
    return code, captured.out, captured.err.splitlines(), Manifest.load(aligned).records[-3:]


def test_eval_prompt_wider_than_the_lm_bits_exit_code_2(tmp_path, capsys):
    """An untrained aligner places a gap wider than a four-bit LM's duration
    bits hold in the first held-out prompt; eval exits 2 naming the
    utterance and the bit count before it generates anything."""
    code, out, err, prompts = _eval_with_untrained_aligner(tmp_path, capsys, bits=4)
    first = prompts[0]  # the aligner's positions for the first prompt
    f_before, f_after = durbits.durations_from_positions(first.positions, first.T)
    assert filter_alignment(first.positions, first.T) is None and max(f_before.max(), f_after.max()) > 15
    assert code == 2 and out == ""
    assert len(err) == 1 and err[0].startswith(f"error: utterance {first.utt_id}: ") and "4 duration bits" in err[0], err


def test_eval_prompt_failing_the_alignment_filter_exit_code_2(tmp_path, capsys):
    """With eight bits the first two prompts fit, and the untrained
    aligner's third prompt fails prepare_prompt's run filter: eval exits 2
    with one error line that names that utterance and the filter."""
    code, out, err, prompts = _eval_with_untrained_aligner(tmp_path, capsys, bits=8)
    assert [filter_alignment(r.positions, r.T) for r in prompts] == [None, None, "consecutive-run"]
    assert code == 2 and out == ""
    assert err == [f"error: utterance {prompts[2].utt_id}: prepare_prompt: alignment filtered: consecutive-run"], err


@pytest.fixture(scope="module")
def small_corpus(tmp_path_factory):
    d = tmp_path_factory.mktemp("corpus")
    manifest, arrays = str(d / "m.txt"), str(d / "a.tada")
    assert main(["--seed", "0", "gen-data", "--manifest", manifest, "--arrays", arrays, "--utterances", "2"]) == 0
    return manifest, arrays


@pytest.mark.parametrize(
    "command, line",
    [
        ("gen-data", "synth.tokens_min=0"), ("gen-data", "synth.tokens_max=0"), ("gen-data", "synth.seed=-1"),
        ("align", "aligner.d_ff=-1"), ("codec-train", "codec.d_ff=-1"), ("codec-train", "codec.sigma0=-1"),
        ("codec-train", "codec.noise_warmup_frac=nan"),
    ],
)
def test_config_value_outside_its_range_exits_2_before_its_stage_runs(small_corpus, tmp_path, command, line):
    """Each setting once ended the stage it feeds in a traceback; it is the
    config line's error, exit 2 with one ``error:`` line, and nothing is written."""
    manifest, arrays = small_corpus
    (tmp_path / "conf.txt").write_text(f"{line}\nbudget.aligner_steps=1\n")
    inputs = ["--manifest", "m.txt", "--arrays", "a.tada"] if command == "gen-data" else [
        "--manifest", manifest, "--arrays", arrays]
    extra = {"gen-data": ["--utterances", "2"], "align": ["--out", "out.txt"],
             "codec-train": ["--out", "out.tada", "--steps", "1", "--stream-steps", "1"]}[command]
    env = {**os.environ, "PYTHONPATH": str(Path(tada.__file__).parent.parent)}
    done = subprocess.run([sys.executable, "-m", "tada.cli", "--config", "conf.txt", command, *inputs, *extra],
                          cwd=tmp_path, env=env, capture_output=True, text=True)
    assert done.returncode == 2 and "Traceback" not in done.stderr, done.stderr
    err = done.stderr.splitlines()
    field = line.split("=")[0].rsplit(".", 1)[1]
    assert len(err) == 1 and err[0].startswith("error: config line 1: ") and f" {field} must be" in err[0], err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["conf.txt"]


def _extent_past_the_end(raw: bytes) -> bytes:
    """An arrays file whose first array's first extent is 2**62."""
    (name_len,) = struct.unpack_from("<Q", raw, 21)
    out = bytearray(raw)
    struct.pack_into("<Q", out, 37 + name_len, 2**62)
    return bytes(out)


@pytest.mark.parametrize("which", ["config", "manifest", "arrays"])
def test_unreadable_input_file_exit_code_2(small_corpus, tmp_path, capsys, which):
    """A --config file or manifest that is not UTF-8, and an arrays file with
    an extent past its end, exit 2 with one ``error:`` line naming the file."""
    paths = dict(zip(("manifest", "arrays"), small_corpus))
    bad = tmp_path / f"bad.{which}"
    if which == "config":
        bad.write_bytes(b"synth.seed=1  # caf\xe9\n")
    elif which == "manifest":
        bad.write_bytes(Path(paths["manifest"]).read_bytes() + b"\xff\n")
    else:
        bad.write_bytes(_extent_past_the_end(Path(paths["arrays"]).read_bytes()))
    paths[which] = str(bad)
    out = tmp_path / "out.txt"
    capsys.readouterr()
    assert main(["--config", paths.get("config", os.devnull), "align", "--manifest", paths["manifest"],
                 "--arrays", paths["arrays"], "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {bad}: "), err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["codec-roundtrip", "--manifest", "MISSING", "--arrays", "A", "--ckpt", "NEVER", "--utt", "0"],
        ["codec-roundtrip", "--manifest", "M", "--arrays", "MISSING", "--ckpt", "NEVER", "--utt", "0"],
        ["codec-roundtrip", "--manifest", "M", "--arrays", "A", "--ckpt", "MISSING", "--utt", "0"],
        ["synth", "--manifest", "M", "--arrays", "A", "--lm", "MISSING", "--codec", "NEVER",
         "--prompt", "0", "--text", "1"],
        ["lm-train", "--manifest", "M", "--arrays", "A", "--codec", "MISSING", "--out", "NEVER"],
    ],
    ids=["manifest", "arrays", "ckpt", "lm", "codec"],
)
def test_missing_path_exit_code_2(small_corpus, tmp_path, capsys, argv):
    manifest, arrays = small_corpus
    missing = str(tmp_path / "missing.tada")
    paths = {"M": manifest, "A": arrays, "MISSING": missing, "NEVER": str(tmp_path / "never.tada")}
    capsys.readouterr()
    assert main([paths.get(a, a) for a in argv]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and missing in err[0], err


@pytest.mark.parametrize(
    "argv, field",
    [
        (["codec-train", "--steps", "-3"], "codec_steps"),
        (["codec-train", "--stream-steps", "-1"], "codec_stream_steps"),
        (["lm-train", "--codec", "NEVER", "--steps", "-1"], "backbone_steps"),
    ],
    ids=["codec", "codec-stream", "lm"],
)
def test_negative_steps_exit_code_2(small_corpus, tmp_path, capsys, argv, field):
    manifest, arrays = small_corpus
    never = str(tmp_path / "never.tada")
    capsys.readouterr()
    code = main([argv[0], "--manifest", manifest, "--arrays", arrays, "--out", never,
                 *(never if a == "NEVER" else a for a in argv[1:])])
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and field in err[0], err
    assert not Path(never).exists()


@pytest.mark.parametrize(
    "argv, line, key",
    [
        (["lm-train"], "backbone.dropout_rate=1.5", "dropout_rate"),
        (["lm-train", "--dropout", "-0.5"], "", "dropout_rate"),
        (["lm-train"], "backbone.dropout_mean_len=0", "dropout_mean_len"),
        (["codec-train"], "codec.spectral_windows=0", "spectral_windows"),
        (["codec-train"], "codec.spectral_windows=32,3", "spectral_windows"),
    ],
    ids=["dropout-above-one", "dropout-flag-negative", "dropout-mean-len", "spectral-window-zero",
         "spectral-window-no-hop"],
)
def test_setting_training_cannot_run_on_exit_code_2(small_corpus, wrong_kind_files, tmp_path, capsys, argv, line,
                                                   key):
    """A dropout rate outside [0, 1], a dropout segment mean below one step
    and a spectral window below 4 samples (hop window // 4 = 0) are refused,
    naming the key, before anything trains or is written."""
    manifest, arrays = small_corpus
    cfg_file = tmp_path / "conf.txt"
    cfg_file.write_text(line + "\nbudget.speaker_steps=1\n")
    out = tmp_path / "out.tada"
    extra = ["--codec", wrong_kind_files["codec.tada"]] if argv[0] == "lm-train" else ["--stream-steps", "1"]
    capsys.readouterr()
    assert main(["--config", str(cfg_file), *argv, "--manifest", manifest, "--arrays", arrays, "--out", str(out),
                 "--steps", "1", *extra]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and f"{key} must" in err[0], err
    assert not out.exists()


@pytest.fixture(scope="module")
def wrong_kind_files(small_corpus, tmp_path_factory):
    """One checkpoint of each kind, and a manifest whose header has an unknown key."""
    d = tmp_path_factory.mktemp("kinds")
    rng = np.random.default_rng(0)
    files = {name: str(d / name) for name in ("aligner.tada", "codec.tada", "base.tada", "lm.tada", "bad.txt")}
    AlignerModel(AlignerConfig(d_model=16, n_heads=2, d_ff=16), rng).save(files["aligner.tada"])
    CodecModel(CodecConfig(d_model=16, n_heads=2, d_ff=16, n_layers=1), rng).save(files["codec.tada"])
    base = BackboneModel(BackboneConfig(d_model=16, n_heads=2, n_layers=1, d_ff=16, d_cond=16), rng)
    base.save(files["base.tada"])
    save_lm_checkpoint(files["lm.tada"], base, SpeakerHead(rng=rng))
    lines = Path(small_corpus[0]).read_text().splitlines()
    Path(files["bad.txt"]).write_text("\n".join([lines[0] + " bogus=1", *lines[1:]]) + "\n")
    files["speaker9.txt"] = str(d / "speaker9.txt")
    Path(files["speaker9.txt"]).write_text("\n".join([lines[0], re.sub(r"speaker=\d+", "speaker=9", lines[1])]) + "\n")
    arrays = nx.load_arrays(files["codec.tada"])
    del arrays["enc/in_proj/b"]
    files["nobias.tada"] = str(d / "nobias.tada")
    nx.save_arrays(files["nobias.tada"], arrays)
    return files


@pytest.mark.parametrize(
    "argv, named, says",
    [
        (["codec-roundtrip", "--ckpt", "aligner.tada", "--utt", "0"], "aligner.tada", "CodecConfig"),
        (["synth", "--lm", "codec.tada", "--codec", "codec.tada", "--prompt", "0", "--text", "1"],
         "codec.tada", "BackboneConfig"),
        (["synth", "--lm", "base.tada", "--codec", "codec.tada", "--prompt", "0", "--text", "1"],
         "base.tada", "no speaker head"),
        (["synth", "--lm", "lm.tada", "--codec", "A", "--prompt", "0", "--text", "1"], "A", "no 'config' array"),
        (["codec-roundtrip", "--ckpt", "codec.tada", "--utt", "0", "--manifest", "bad.txt"],
         "bad.txt", "unknown key 'bogus'"),
        (["codec-roundtrip", "--ckpt", "nobias.tada", "--utt", "0"], "nobias.tada", "missing enc/in_proj/b"),
        (["lm-train", "--codec", "codec.tada", "--base-lm", "lm.tada", "--out", "never.tada"],
         "lm.tada", "unexpected spk/fc0/b"),
        (["eval", "--lm", "lm.tada", "--codec", "codec.tada", "--manifest", "speaker9.txt"],
         "speaker9.txt", "line 2: speaker 9"),
    ],
    ids=["aligner_as_codec", "codec_as_lm", "base_lm_as_lm", "corpus_as_codec", "manifest_header_key",
         "codec_missing_array", "lm_as_base_lm", "manifest_speaker_range"],
)
def test_wrong_kind_of_file_exit_code_2(small_corpus, wrong_kind_files, capsys, argv, named, says):
    manifest, arrays = small_corpus
    paths = {"A": arrays, **wrong_kind_files}
    argv = [paths.get(a, a) for a in argv]
    if "--manifest" not in argv:
        argv += ["--manifest", manifest]
    capsys.readouterr()
    assert main([*argv, "--arrays", arrays]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and paths[named] in err[0] and says in err[0], err


@pytest.mark.parametrize("vocab_size", [9, 35])
def test_lm_train_base_lm_of_another_vocabulary_exit_code_2(small_corpus, wrong_kind_files, tmp_path, capsys,
                                                             vocab_size):
    """A base LM trained on another vocabulary than the manifest's 32 tokens
    is refused with both sizes named, before any training."""
    manifest, arrays = small_corpus
    base, out = str(tmp_path / "base.tada"), tmp_path / "lm.tada"
    config = BackboneConfig(vocab_size=vocab_size, d_model=16, n_heads=2, n_layers=1, d_ff=16, d_cond=16)
    BackboneModel(config, np.random.default_rng(0)).save(base)
    cfg_file = tmp_path / "conf.txt"
    cfg_file.write_text("budget.speaker_steps=1\n")
    capsys.readouterr()
    assert main(["--config", str(cfg_file), "lm-train", "--manifest", manifest, "--arrays", arrays,
                 "--codec", wrong_kind_files["codec.tada"], "--base-lm", base, "--out", str(out), "--steps", "1"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:"), err
    assert f"vocab_size={vocab_size}" in err[0] and "vocab_size=32" in err[0], err
    assert not out.exists()


@pytest.mark.parametrize(
    "flag, value, says",
    [("--nfm", "0", "n_fm must be >= 1"), ("--cfg", "-1", "cfg_scale must be >= 0"),
     ("--prompt", "999", "unknown prompt utterance id 999"), ("--text", "abc", "--text: expected token ids"),
     ("--text", "1,2" + "0" * 20, "--text: expected token ids"),
     ("--text", "32", "text token ids [32] outside [0, 32)"), ("--text", "99", "text token ids [99] outside [0, 32)")],
    ids=["nfm", "cfg", "prompt", "text-word", "text-huge", "text-bos", "text-99"],
)
def test_synth_bad_setting_exit_code_2(small_corpus, wrong_kind_files, capsys, flag, value, says):
    manifest, arrays = small_corpus
    options = {
        "--lm": wrong_kind_files["lm.tada"], "--codec": wrong_kind_files["codec.tada"],
        "--manifest": manifest, "--arrays": arrays, "--prompt": "0", "--text": "1", flag: value,
    }
    capsys.readouterr()
    assert main(["synth", *(x for item in options.items() for x in item)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and says in err[0], err


@pytest.mark.parametrize(
    "line, says",
    [("codec.d_model=60", "head dimension 15 must be even"), ("codec.n_heads=0", "n_heads must be >= 1"),
     ("codec.d_model=0", "CodecConfig: d_model must be >= 1, got 0")],
    ids=["odd-head", "no-heads", "no-width"],
)
def test_codec_train_bad_transformer_shape_exit_code_2(small_corpus, tmp_path, capsys, line, says):
    manifest, arrays = small_corpus
    cfg_file = tmp_path / "conf.txt"
    cfg_file.write_text(line + "\n")
    out = tmp_path / "codec.tada"
    capsys.readouterr()
    assert main(["--config", str(cfg_file), "codec-train", "--manifest", manifest, "--arrays", arrays,
                 "--out", str(out), "--steps", "1", "--stream-steps", "1"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and says in err[0], err
    assert not out.exists()


@pytest.mark.parametrize("b", ["0", "-1", "17"])
def test_graycheck_out_of_range_exit_code_2(capsys, b):
    assert main(["graycheck", "--b", b]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""  # rejected before the exhaustive loop
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "--b" in err[0], err


@pytest.mark.parametrize(
    "argv, says",
    [
        (["mask", "--p", "a,b", "--t", "5"], "--p"),
        (["mask", "--p", "0,2", "--t", "5"], "--p"),
        (["fm-bench", "--steps", "2,x"], "--steps"),
        (["fm-bench", "--steps", "0"], "--steps"),
        (["fm-bench", "--steps", "-2"], "--steps"),
        (["bench", "--manifest", "M", "--arrays", "A", "--lm", "L", "--codec", "C", "--nfm-list", "2,0"],
         "--nfm-list"),
        (["bench", "--manifest", "M", "--arrays", "A", "--lm", "L", "--codec", "C", "--nfm-list", "4,"],
         "--nfm-list"),
        (["gen-data", "--manifest", "M", "--arrays", "A", "--utterances", "-3"], "--utterances"),
        (["gen-data", "--manifest", "M", "--arrays", "A", "--utterances", "0"], "--utterances"),
        (["eval", "--manifest", "M", "--arrays", "A", "--lm", "L", "--codec", "C", "--prompts", "0"], "--prompts"),
        (["eval", "--manifest", "M", "--arrays", "A", "--lm", "L", "--codec", "C", "--prompts", "-2"], "--prompts"),
        (["bench", "--manifest", "M", "--arrays", "A", "--lm", "L", "--codec", "C", "--prompts", "0"], "--prompts"),
        (["bench", "--manifest", "M", "--arrays", "A", "--lm", "L", "--codec", "C", "--runs", "0"], "--runs"),
    ],
    ids=["mask-word", "mask-zero", "steps-word", "steps-zero", "steps-negative", "nfm-zero", "nfm-empty",
         "utterances-negative", "utterances-zero", "eval-prompts-zero", "eval-prompts-negative",
         "bench-prompts-zero", "bench-runs-zero"],
)
def test_bad_integer_flag_exit_code_2(tmp_path, capsys, argv, says):
    """Integer flags take values >= 1; a bad one exits 2 with one error
    line before any file is read or written and before any output."""
    paths = {name: str(tmp_path / name) for name in ("M", "A", "L", "C")}
    assert main([paths.get(a, a) for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and says in err[0], err
    assert not any(Path(p).exists() for p in paths.values())


@pytest.fixture(scope="module")
def faulty_aligned_manifests(small_corpus, tmp_path_factory):
    """The manifest ``align`` writes for the small corpus, and two copies
    whose first record is short of a position or has one past its T."""
    manifest, arrays = small_corpus
    d = tmp_path_factory.mktemp("aligned")
    cfg_file = d / "conf.txt"
    cfg_file.write_text("budget.aligner_steps=0\n")
    aligned = d / "aligned.txt"
    assert main(["--config", str(cfg_file), "align", "--manifest", manifest, "--arrays", arrays,
                 "--out", str(aligned)]) == 0
    header, first, *rest = aligned.read_text().splitlines()
    record = Manifest.load(aligned).records[0]
    late = np.append(record.positions[:-1], record.T + 1)
    faults = {
        "short.txt": re.sub(r"p=\S+", "p=" + ",".join(map(str, record.positions[:-1])), first),
        "late.txt": re.sub(r"p=\S+", "p=" + ",".join(map(str, late)), first),
    }
    files = {}
    for name, line in faults.items():
        files[name] = d / name
        files[name].write_text("\n".join([header, line, *rest]) + "\n")
    n = record.tokens.size
    says = {"short.txt": f"line 2: {n} tokens but {n - 1} positions",
            "late.txt": f"line 2: positions must increase strictly within 1..{record.T}"}
    return files, says


@pytest.mark.parametrize("fault", ["short.txt", "late.txt"])
@pytest.mark.parametrize(
    "argv",
    [
        ["codec-train", "--out", "never.tada", "--steps", "1", "--stream-steps", "1"],
        ["lm-train", "--codec", "codec.tada", "--out", "never.tada", "--steps", "1"],
        ["synth", "--lm", "lm.tada", "--codec", "codec.tada", "--prompt", "0", "--text", "1"],
    ],
    ids=["codec-train", "lm-train", "synth"],
)
def test_faulty_aligned_manifest_exit_code_2(small_corpus, wrong_kind_files, faulty_aligned_manifests, tmp_path,
                                              capsys, argv, fault):
    """An aligned manifest is checked like any manifest: a record short of
    a position or with one past its T exits 2 naming the file and line."""
    files, says = faulty_aligned_manifests
    paths = {**wrong_kind_files, "never.tada": str(tmp_path / "never.tada")}
    capsys.readouterr()
    argv = [paths.get(a, a) for a in argv]
    assert main([*argv, "--manifest", str(files[fault]), "--arrays", small_corpus[1]]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0] == f"error: {files[fault]} {says[fault]}", err
    assert not (tmp_path / "never.tada").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["codec-train", "--out", "never.tada", "--steps", "1", "--stream-steps", "1"],
        ["synth", "--lm", "lm.tada", "--codec", "codec.tada", "--prompt", "0", "--text", "1", "--out", "never.tada"],
        ["codec-roundtrip", "--ckpt", "codec.tada", "--utt", "0"],
        ["align", "--out", "never.txt"],
    ],
    ids=["codec-train", "synth", "codec-roundtrip", "align"],
)
def test_record_t_past_its_frames_exit_code_2(wrong_kind_files, tmp_path, capsys, argv):
    """A record whose T is 5 past its utterance's frames, its last position
    2 past them, passes ``Manifest.load``; ``codec-train``, ``synth``,
    ``codec-roundtrip`` and ``align`` refuse it, naming the utterance,
    before they train or write anything."""
    manifest, arrays = str(tmp_path / "m.txt"), str(tmp_path / "a.tada")
    assert main(["--seed", "0", "gen-data", "--manifest", manifest, "--arrays", arrays, "--utterances", "8"]) == 0
    header, first, *rest = Path(manifest).read_text().splitlines()
    record = Manifest.load(manifest).records[0]
    frames = record.T
    positions = np.append(record.positions[:-1], frames + 2)
    line = re.sub(r"p=\S+", "p=" + ",".join(map(str, positions)), re.sub(r"T=\d+", f"T={frames + 5}", first))
    faulty = tmp_path / "faulty.txt"
    faulty.write_text("\n".join([header, line, *rest]) + "\n")
    assert Manifest.load(faulty).records[0].T == frames + 5
    paths = {**wrong_kind_files, **{name: str(tmp_path / name) for name in ("never.tada", "never.txt")}}
    capsys.readouterr()
    assert main([*(paths.get(a, a) for a in argv), "--manifest", str(faulty), "--arrays", arrays]) == 2
    err = capsys.readouterr().err.splitlines()
    says = f"error: utterance {record.utt_id}: the manifest says T={frames + 5}, the arrays hold {frames} frames"
    assert err == [says]
    assert not (tmp_path / "never.tada").exists() and not (tmp_path / "never.txt").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["align", "--out", "never.txt"],
        ["eval", "--lm", "lm.tada", "--codec", "codec.tada", "--prompts", "1"],
    ],
    ids=["align", "eval"],
)
def test_header_only_manifest_exit_code_2(small_corpus, wrong_kind_files, tmp_path, capsys, argv):
    """A manifest with no record passes ``Manifest.load``; every corpus
    subcommand refuses it, naming the file, before it trains or scores."""
    manifest, arrays = small_corpus
    empty = tmp_path / "empty.txt"
    empty.write_text(Path(manifest).read_text().splitlines()[0] + "\n")
    paths = {**wrong_kind_files, "never.txt": str(tmp_path / "never.txt")}
    capsys.readouterr()
    assert main([*(paths.get(a, a) for a in argv), "--manifest", str(empty), "--arrays", arrays]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.splitlines() == [f"error: {empty}: no utterance records"]
    assert not (tmp_path / "never.txt").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["codec-train", "--out", "never.tada", "--steps", "1", "--stream-steps", "1"],
        ["align", "--out", "never.tada"],
    ],
    ids=["codec-train", "align"],
)
def test_utterance_missing_from_arrays_exit_code_2(small_corpus, tmp_path, capsys, argv):
    """A six-utterance manifest with the two-utterance corpus's arrays is
    refused, naming the arrays file and the first utterance they lack."""
    arrays = small_corpus[1]
    manifest = str(tmp_path / "m6.txt")
    assert main(["--seed", "0", "gen-data", "--manifest", manifest, "--arrays", str(tmp_path / "a6.tada"),
                 "--utterances", "6"]) == 0
    never = tmp_path / "never.tada"
    capsys.readouterr()
    assert main([*(str(never) if a == "never.tada" else a for a in argv), "--manifest", manifest,
                 "--arrays", arrays]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: {arrays}: no frames of utterance 2, listed in {manifest}"]
    assert not never.exists()


REQUIRED = (True, None, None, None)  # (required, default, type, choices) of a required string flag
OPTIONAL = (False, None, None, None)
SAMPLING = {"--nfm": (False, 10, int, None), "--cfg": (False, 1.8, float, None),
            "--neg": (False, "zero", None, ["zero", "tfg"]), "--reject": (False, 1, int, None)}
PARSER_TABLE = {
    "tada": {"--seed": (False, None, int, None), "--config": (False, None, str, None)},
    "gen-data": {"--manifest": REQUIRED, "--arrays": REQUIRED, "--utterances": (False, 2000, int, None)},
    "align": {"--manifest": REQUIRED, "--arrays": REQUIRED, "--model": OPTIONAL, "--save-model": OPTIONAL,
              "--out": REQUIRED},
    "codec-train": {"--manifest": REQUIRED, "--arrays": REQUIRED, "--out": REQUIRED, "--steps": OPTIONAL,
                    "--stream-steps": OPTIONAL},
    "lm-train": {"--manifest": REQUIRED, "--arrays": REQUIRED, "--codec": REQUIRED, "--base-lm": OPTIONAL,
                 "--base-out": OPTIONAL, "--out": REQUIRED, "--k": OPTIONAL, "--dropout": OPTIONAL,
                 "--steps": OPTIONAL},
    "synth": {"--lm": REQUIRED, "--codec": REQUIRED, "--manifest": REQUIRED, "--arrays": REQUIRED,
              "--aligner": OPTIONAL, "--prompt": (True, None, int, None), "--text": REQUIRED, **SAMPLING,
              "--out": OPTIONAL},
    "eval": {"--manifest": REQUIRED, "--arrays": REQUIRED, "--lm": REQUIRED, "--codec": REQUIRED,
             "--aligner": OPTIONAL, "--prompts": (False, 100, int, None), **SAMPLING},
    "bench": {"--manifest": REQUIRED, "--arrays": REQUIRED, "--lm": REQUIRED, "--codec": REQUIRED,
              "--aligner": OPTIONAL, "--prompts": (False, 4, int, None), "--nfm-list": (False, "2,4,10,20", None, None),
              "--runs": (False, 3, int, None)},
    "graycheck": {"--b": (False, 8, int, None)},
    "mask": {"--p": REQUIRED, "--t": (True, None, int, None), "--which": (False, "enc", None, ["enc", "dec"])},
    "fm-bench": {"--steps": (False, "2,4,10,20", None, None)},
    "codec-roundtrip": {"--ckpt": REQUIRED, "--manifest": REQUIRED, "--arrays": REQUIRED,
                        "--utt": (True, None, int, None)},
}


def test_parser_flags_match_the_table():
    """Every subcommand keeps its flags: option strings, required-ness,
    default, type and choices, however the parser declares them."""
    parser = build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    got = {}
    for name, p in [("tada", parser), *sub.choices.items()]:
        got[name] = {
            a.option_strings[0]: (a.required, a.default, a.type, a.choices)
            for a in p._actions
            if a.option_strings and not isinstance(a, argparse._HelpAction)
        }
    assert got == PARSER_TABLE


def test_readme_cli_lines_parse():
    """Every ``tada ...`` line of README's sh blocks, its ``\\``
    continuations joined and its ``[ ... ]`` options included, parses, and
    the lines show every subcommand."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    blocks = re.findall(r"```sh\n(.*?)```", readme, re.S)
    lines = [ln for block in blocks for ln in block.replace("\\\n", " ").splitlines() if ln.startswith("tada ")]
    parser = build_parser()
    shown = set()
    for line in lines:
        try:
            args = parser.parse_args(shlex.split(line.replace("[", " ").replace("]", " "))[1:])
        except SystemExit:
            pytest.fail(f"README line does not parse: {line}")
        shown.add(args.command)
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert shown == set(sub.choices)
