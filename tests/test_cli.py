"""CLI surface: subcommands, file outputs, and exit codes."""

import re
from pathlib import Path

import numpy as np
import pytest

from tada import numerics as nx
from tada.aligner import AlignerConfig, AlignerModel, load_alignment_cache
from tada.backbone import BackboneConfig, BackboneModel
from tada.cli import main
from tada.codec import CodecConfig, CodecModel
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
        "backbone.bos_id=3",
    ],
)
def test_bad_config_value_exit_code_2(tmp_path, capsys, line):
    cfg_file = tmp_path / "conf.txt"
    cfg_file.write_text(line + "\n")
    code = main(["--config", str(cfg_file), "graycheck", "--b", "4"])
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:"), err


def test_lm_train_four_bit_backbone_drops_wide_gaps(tmp_path, capsys):
    """A 2-step aligner leaves gaps wider than four duration bits hold;
    align drops those alignments, so lm-train does not fail in gray_encode."""
    cfg_file = tmp_path / "conf.txt"
    cfg_file.write_text(
        "backbone.bits=4\nbudget.aligner_steps=2\nbudget.base_lm_steps=2\nbudget.speaker_steps=2\n"
    )
    corpus = ["--manifest", str(tmp_path / "m.txt"), "--arrays", str(tmp_path / "a.tada")]
    cache, codec, lm = (str(tmp_path / name) for name in ("al.cache", "codec.tada", "lm.tada"))
    conf = ["--config", str(cfg_file)]
    assert main(["--seed", "0", "gen-data", *corpus, "--utterances", "24"]) == 0
    capsys.readouterr()
    assert main([*conf, "align", *corpus, "--out", cache]) == 0
    out = capsys.readouterr().out
    assert "dropped" in out and "dropped 0 " not in out
    assert main([*conf, "codec-train", *corpus, "--align-cache", cache, "--out", codec,
                 "--steps", "2", "--stream-steps", "2"]) == 0
    assert main([*conf, "lm-train", *corpus, "--codec", codec, "--align-cache", cache,
                 "--out", lm, "--steps", "2"]) == 0


def test_cli_stages_match_train_full_stack(tmp_path, capsys):
    """align, codec-train and lm-train write the models train_full_stack
    trains at the same seed and budget, the alignment cache holds exactly
    the alignments it keeps, and synth and eval run on the checkpoints."""
    cfg_file = tmp_path / "conf.txt"
    cfg_file.write_text(
        "backbone.bits=4\nbudget.aligner_steps=2\nbudget.base_lm_steps=2\nbudget.speaker_steps=2\n"
    )
    m, a = str(tmp_path / "m.txt"), str(tmp_path / "a.tada")
    corpus = ["--manifest", m, "--arrays", a]
    cache, aligner, codec, base, lm = (
        str(tmp_path / name) for name in ("al.cache", "aligner.tada", "codec.tada", "base.tada", "lm.tada")
    )
    conf = ["--seed", "5", "--config", str(cfg_file)]
    assert main(["--seed", "0", "gen-data", *corpus, "--utterances", "24"]) == 0
    assert main([*conf, "align", *corpus, "--save-model", aligner, "--out", cache]) == 0
    assert main([*conf, "codec-train", *corpus, "--align-cache", cache, "--out", codec,
                 "--steps", "2", "--stream-steps", "2"]) == 0
    assert main([*conf, "lm-train", *corpus, "--codec", codec, "--align-cache", cache,
                 "--base-out", base, "--out", lm, "--steps", "2"]) == 0

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

    _, kept, dropped, _ = recipes.align_stage(manifest, arrays, stack.aligner.config, bits, budget, stack.aligner)
    assert 0 < dropped == stack.dropped_alignments
    written = load_alignment_cache(cache)
    assert written.keys() == kept.keys()
    assert all(np.array_equal(written[k][1], kept[k][1]) for k in kept)

    prompt = str(manifest.records[0].utt_id)
    assert main(["synth", "--lm", lm, "--codec", codec, *corpus, "--prompt", prompt, "--text", "3,7,9"]) == 0
    capsys.readouterr()
    assert main(["eval", *corpus, "--lm", lm, "--codec", codec, "--prompts", "2"]) == 0
    out = capsys.readouterr().out
    assert "n_utterances=2" in out and "prefill_time=" in out


@pytest.fixture(scope="module")
def small_corpus(tmp_path_factory):
    d = tmp_path_factory.mktemp("corpus")
    manifest, arrays = str(d / "m.txt"), str(d / "a.tada")
    assert main(["--seed", "0", "gen-data", "--manifest", manifest, "--arrays", arrays, "--utterances", "2"]) == 0
    return manifest, arrays


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


@pytest.mark.parametrize(
    "flag, value, says",
    [("--nfm", "0", "n_fm must be >= 1"), ("--cfg", "-1", "cfg_scale must be >= 0"),
     ("--prompt", "999", "unknown prompt utterance id 999")],
    ids=["nfm", "cfg", "prompt"],
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


@pytest.mark.parametrize("b", ["0", "-1", "17"])
def test_graycheck_out_of_range_exit_code_2(capsys, b):
    assert main(["graycheck", "--b", b]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""  # rejected before the exhaustive loop
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "--b" in err[0], err
