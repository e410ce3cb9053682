"""CLI surface: subcommands, file outputs, and exit codes."""

import numpy as np
import pytest

from tada import numerics as nx
from tada.cli import main
from tada.harness import Manifest


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
    "line", ["codec.lambda_mel=abc", "gen.candidates=0", "backbone.k_shift=0", "synth.tokens_max=2,3"]
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
    lm-train drops those alignments instead of failing in gray_encode."""
    cfg_file = tmp_path / "conf.txt"
    cfg_file.write_text(
        "backbone.bits=4\nbudget.aligner_steps=2\nbudget.base_lm_steps=2\nbudget.speaker_steps=2\n"
    )
    corpus = ["--manifest", str(tmp_path / "m.txt"), "--arrays", str(tmp_path / "a.tada")]
    cache, codec, lm = (str(tmp_path / name) for name in ("al.cache", "codec.tada", "lm.tada"))
    conf = ["--threads", "1", "--config", str(cfg_file)]
    assert main(["--seed", "0", "gen-data", *corpus, "--utterances", "24"]) == 0
    assert main([*conf, "align", *corpus, "--out", cache]) == 0
    assert main([*conf, "codec-train", *corpus, "--align-cache", cache, "--out", codec,
                 "--steps", "2", "--stream-steps", "2"]) == 0
    capsys.readouterr()
    assert main([*conf, "lm-train", *corpus, "--codec", codec, "--align-cache", cache,
                 "--out", lm, "--steps", "2"]) == 0
    out = capsys.readouterr().out
    assert "dropped" in out and "dropped 0 " not in out


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


@pytest.mark.parametrize("b", ["0", "-1", "17"])
def test_graycheck_out_of_range_exit_code_2(capsys, b):
    assert main(["graycheck", "--b", b]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""  # rejected before the exhaustive loop
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "--b" in err[0], err
