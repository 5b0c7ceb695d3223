"""Command-line workflows: synth/run/eval/graph/ae, determinism, exit codes."""
import configparser
import os
import re
import shutil
import subprocess
import sys
import textwrap
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import aegem
from aegem.autoencoder import AutoencoderConfig, save_autoencoder, train_autoencoder
from aegem.cli import main
from aegem.gcn import GcnConfig, sample_labels, save_gcn, train_gcn
from aegem.graph import build_graph
from aegem.hsi import (SceneSpec, load_cube, normalize, read_abundance_csv, read_endmember_csv,
                       save_cube, synthesize_scene)
from aegem.metrics import match_endmembers
from aegem.pipeline import (_KNOWN_KEYS, ARTIFACTS, RunConfig, _load_truth_files, parse_config,
                            read_labels_csv, run_pipeline, run_repeated, score_artifacts,
                            write_config, write_labels_csv)
from aegem.rng import SplitMix64


def tiny_run_config(out_dir, seed=0) -> RunConfig:
    return RunConfig(
        scene=SceneSpec(16, 16, 10, 2, smoothness=1.2, snr_db=float("inf")),
        ae=AutoencoderConfig(encoder_filters=(8, 4, 4, 2), encoder_kernels=(5, 3, 3, 1),
                             epochs=6, batch_size=128, learning_rate=3e-3),
        gcn=GcnConfig(hidden=32, epochs=120, label_fraction=0.15),
        kernel_a=2,
        kernel_b=2,
        out_dir=str(out_dir),
        seed=seed,
    )


@pytest.fixture(scope="module")
def completed_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    rc = tiny_run_config(out, seed=3)
    report, run_dir = run_pipeline(rc, log=None)
    return rc, report, run_dir


# -- synth ------------------------------------------------------------------------

def test_synth_writes_three_files(tmp_path):
    out = tmp_path / "scene"
    code = main(["synth", "--h", "12", "--w", "12", "--l", "8", "--p", "3",
                 "--snr", "30", "--seed", "7", "--out", str(out)])
    assert code == 0
    names = sorted(p.name for p in out.iterdir())
    assert names == ["cube.hsb", "truth_abundances.csv", "truth_endmembers.csv"]


def test_synth_deterministic_bytes(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert main(["synth", "--h", "10", "--w", "9", "--l", "6", "--p", "2",
                     "--seed", "5", "--out", str(out)]) == 0
    for name in ("cube.hsb", "truth_abundances.csv", "truth_endmembers.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_synth_rejects_too_many_endmembers(tmp_path):
    code = main(["synth", "--h", "8", "--w", "8", "--l", "12", "--p", "9",
                 "--out", str(tmp_path)])
    assert code == 1


# -- config files -------------------------------------------------------------------

def _written_keys(rc: RunConfig, path) -> dict:
    write_config(rc, path)
    cp = configparser.ConfigParser(interpolation=None)
    cp.read(path, encoding="utf-8")
    return {(section, key): value for section in cp.sections()
            for key, value in cp[section].items()}


def _assert_round_trips_with_every_key_off_default(rc, default, tmp_path):
    written = _written_keys(rc, tmp_path / "c.ini")
    # [input] holds the scene keys or the file keys, and [run] scene_seed is
    # a scene's only; every other key is written
    assert set(written) == {(section, key) for section, keys in _KNOWN_KEYS.items()
                            for key, field_path in keys.items()
                            if section != "input" and key != "scene_seed"
                            or (field_path.startswith("scene.") or key == "scene_seed")
                            == (rc.scene is not None)}
    defaults = _written_keys(default, tmp_path / "d.ini")
    assert [k for k in written if written[k] == defaults.get(k)] == []
    assert parse_config(tmp_path / "c.ini") == rc


# every autoencoder, GCN, kernel and run field away from its default; a
# zero mse_weight (pure SAD) and zero AE epochs are legal
_OFF_DEFAULT = dict(
    ae=AutoencoderConfig(encoder_filters=(8, 6, 4), encoder_kernels=(3, 3, 1), patch_size=11,
                         softmax_scale=2.5, decoder_kernel=3, epochs=0, batch_size=16,
                         learning_rate=2e-3, mse_weight=0.0),
    gcn=GcnConfig(hidden=12, epochs=7, learning_rate=5e-3, label_fraction=0.25),
    kernel_a=4, kernel_b=2, stride_r=2, stride_c=3, out_dir="o%1", seed=11, repeat=2)


def test_config_keys_name_every_config_field_once():
    # a knob added to a config dataclass without a config key fails here
    owners = {"": RunConfig, "scene.": SceneSpec, "ae.": AutoencoderConfig, "gcn.": GcnConfig}
    nested = {"scene", "ae", "gcn"}
    config_fields = {prefix + f.name for prefix, cls in owners.items() for f in fields(cls)}
    keyed = [field_path for keys in _KNOWN_KEYS.values() for field_path in keys.values()]
    assert len(keyed) == len(set(keyed))
    assert set(keyed) == config_fields - nested


def test_config_roundtrip_scene(tmp_path):
    rc = RunConfig(scene=SceneSpec(9, 7, 12, 4, smoothness=0.5, snr_db=30.0), scene_seed=11,
                   **_OFF_DEFAULT)
    _assert_round_trips_with_every_key_off_default(rc, RunConfig(scene=SceneSpec(8, 8, 6, 3)),
                                                   tmp_path)


def test_config_roundtrip_file_input(tmp_path):
    rc = RunConfig(input_path="cube.csv", input_format="csv", truth_endmembers="em.csv",
                   truth_abundances="ab.csv", **_OFF_DEFAULT)
    _assert_round_trips_with_every_key_off_default(rc, RunConfig(input_path="c.hsb"), tmp_path)


def test_config_with_a_scene_key_beside_an_input_path_names_it(tmp_path):
    cfg = tmp_path / "c.ini"
    cfg.write_text("[input]\npath = cube.hsb\nheight = 8\nbands = 6\n")
    with pytest.raises(ValueError, match=rf"{re.escape(str(cfg))}: \[input\] height is a "
                                         r"scene key, but \[input\] has a path"):
        parse_config(cfg)


@pytest.mark.parametrize("key", ["format = csv", "truth_endmembers = nowhere.csv",
                                 "truth_abundances = nowhere.csv"])
def test_config_with_a_file_key_beside_a_scene_names_it(tmp_path, key):
    # write_config leaves file keys out under a scene, so one would not round-trip
    cfg = tmp_path / "c.ini"
    cfg.write_text(f"[input]\nheight = 8\nwidth = 8\nbands = 6\nendmembers = 3\n{key}\n")
    name = key.split(" ")[0]
    with pytest.raises(ValueError, match=rf"{re.escape(str(cfg))}: \[input\] {name} is a "
                                         r"file key, but \[input\] has no path"):
        parse_config(cfg)


def test_config_without_autoencoder_keys_takes_the_dataclass_defaults(tmp_path):
    path = tmp_path / "c.ini"
    path.write_text("[input]\nheight = 8\nwidth = 8\nbands = 6\nendmembers = 3\n")
    rc = parse_config(path)
    assert rc.ae == AutoencoderConfig()
    assert rc.gcn == GcnConfig()
    assert (rc.kernel_a, rc.kernel_b) == (RunConfig.kernel_a, RunConfig.kernel_b)


def test_config_without_a_scene_key_names_it(tmp_path, capsys):
    cfg = tmp_path / "c.ini"
    cfg.write_text("[input]\nwidth = 8\nbands = 6\nendmembers = 3\n")
    assert main(["run", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert "[input] height" in err and str(cfg) in err


def test_config_with_a_malformed_value_names_its_key(tmp_path, capsys):
    cfg = tmp_path / "c.ini"
    write_config(tiny_run_config(tmp_path / "o"), cfg)
    cfg.write_text(cfg.read_text().replace("hidden = 32", "hidden = abc"))
    assert main(["run", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert "[gcn] hidden = 'abc'" in err and str(cfg) in err


def test_config_with_an_encoder_wider_than_the_patch_fails(tmp_path, capsys):
    cfg = tmp_path / "c.ini"
    write_config(tiny_run_config(tmp_path / "o"), cfg)
    cfg.write_text(cfg.read_text().replace("encoder_kernels = 5,3,3,1",
                                           "encoder_kernels = 5,5,3,1"))
    assert main(["run", "--config", str(cfg)]) == 1
    assert "9 - 2*5 = -1 is less than decoder_kernel 1" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_config_whose_patch_cannot_hold_the_decoder_fails(tmp_path, capsys):
    # radius 4 leaves a 1-pixel center in the 9x9 patch: no room for a 3x3 decoder
    cfg = tmp_path / "c.ini"
    write_config(tiny_run_config(tmp_path / "o"), cfg)
    cfg.write_text(cfg.read_text().replace("decoder_kernel = 1", "decoder_kernel = 3"))
    assert main(["run", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert "9 - 2*4 = 1 is less than decoder_kernel 3" in err and str(cfg) in err
    assert not (tmp_path / "o").exists()


def test_config_with_an_unknown_key_names_it(tmp_path, capsys):
    cfg = tmp_path / "c.ini"
    write_config(tiny_run_config(tmp_path / "o"), cfg)
    cfg.write_text(cfg.read_text().replace("epochs = 6", "epoch = 7"))
    assert main(["run", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert "[autoencoder] epoch is not a known key" in err and str(cfg) in err
    assert not (tmp_path / "o").exists()


def test_config_with_an_unknown_section_names_it(tmp_path, capsys):
    cfg = tmp_path / "c.ini"
    write_config(tiny_run_config(tmp_path / "o"), cfg)
    text = cfg.read_text()
    cfg.write_text(text + "\n[gnc]\nhidden = 16\n")
    assert main(["run", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert "unknown section [gnc]" in err and str(cfg) in err
    cfg.write_text("[DEFAULT]\nseed = 3\n" + text)
    assert main(["run", "--config", str(cfg)]) == 1
    assert "unknown section [DEFAULT]" in capsys.readouterr().err


def test_config_that_is_not_utf8_names_the_file_and_line(tmp_path, capsys):
    cfg = tmp_path / "c.ini"
    cfg.write_bytes(b"[input]\nheight = 8\n# caf\xe9\nwidth = 8\n")
    assert main(["run", "--config", str(cfg)]) == 1
    assert f"{cfg}: line 3 is not UTF-8" in capsys.readouterr().err


def test_config_path_that_cannot_be_read_names_it(tmp_path, capsys):
    # configparser's own read skips a file it cannot open without a word
    cfg = tmp_path / "dir.ini"
    cfg.mkdir()
    assert main(["run", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert "Is a directory" in err and str(cfg) in err
    assert "missing [input]" not in err


@pytest.mark.parametrize("section, line", [("gcn", "folds = 5"),
                                           ("kernel", "paper_literal_adjacency = false"),
                                           ("autoencoder", "loss = sad_plus_mse"),
                                           ("gcn", "features = abundance"),
                                           ("gcn", "pca_components = 8"),
                                           ("gcn", "paper_literal_asc = false"),
                                           ("kernel", "sad_on = spectra")],
                         ids=["folds", "paper_literal_adjacency", "loss", "features",
                              "pca_components", "paper_literal_asc", "sad_on"])
def test_config_with_the_dropped_folds_key_is_rejected(tmp_path, section, line):
    cfg = tmp_path / "c.ini"
    write_config(tiny_run_config(tmp_path / "o"), cfg)
    cfg.write_text(cfg.read_text().replace(f"[{section}]\n", f"[{section}]\n{line}\n"))
    key = line.split(" = ")[0]
    with pytest.raises(ValueError, match=rf"{re.escape(str(cfg))}: \[{section}\] {key} "
                                         "is not a known key"):
        parse_config(cfg)


@pytest.mark.parametrize("section, key, value, message", [
    ("autoencoder", "batch_size", "0", "batch_size must be >= 1, got 0"),
    ("autoencoder", "learning_rate", "-1", "autoencoder learning_rate must be > 0, got -1.0"),
    ("autoencoder", "learning_rate", "nan", "autoencoder learning_rate must be > 0, got nan"),
    ("gcn", "learning_rate", "-1", "gcn learning_rate must be > 0, got -1.0"),
    ("kernel", "a", "0", "kernel a must be >= 1, got 0"),
    ("kernel", "b", "-2", "kernel b must be >= 1, got -2"),
    ("kernel", "stride_r", "0", "kernel stride_r must be >= 1, got 0"),
    ("kernel", "stride_c", "0", "kernel stride_c must be >= 1, got 0"),
    ("input", "snr_db", "-inf", "snr_db must be finite or inf, got -inf"),
    ("input", "smoothness", "inf", "smoothness must be finite and >= 0, got inf"),
    ("input", "smoothness", "nan", "smoothness must be finite and >= 0, got nan"),
    ("autoencoder", "mse_weight", "-1", "mse_weight must be finite and >= 0, got -1.0"),
    ("autoencoder", "mse_weight", "nan", "mse_weight must be finite and >= 0, got nan"),
    ("autoencoder", "epochs", "-1", "autoencoder epochs must be >= 0, got -1"),
    ("gcn", "epochs", "-3", "gcn epochs must be >= 0, got -3"),
    ("autoencoder", "softmax_scale", "inf", "softmax_scale must be positive and finite, got inf"),
    ("autoencoder", "learning_rate", "inf", "autoencoder learning_rate must be finite, got inf"),
    ("gcn", "learning_rate", "inf", "gcn learning_rate must be finite, got inf"),
    ("autoencoder", "encoder_filters", "8,0,4,2",
     "encoder_filters must all be >= 1, got (8, 0, 4, 2)"),
    ("autoencoder", "encoder_filters", "-1,4,4,2",
     "encoder_filters must all be >= 1, got (-1, 4, 4, 2)"),
])
def test_config_with_an_out_of_range_value_fails_before_the_run(tmp_path, capsys, section,
                                                                 key, value, message):
    rc = tiny_run_config(tmp_path / "o")
    cfg = tmp_path / "c.ini"
    write_config(rc, cfg)
    cp = configparser.ConfigParser(interpolation=None)
    cp.read(cfg, encoding="utf-8")
    cp[section][key] = value
    with open(cfg, "w", encoding="utf-8") as f:
        cp.write(f)
    assert main(["run", "--config", str(cfg)]) == 1
    assert capsys.readouterr().err == f"error: {cfg}: {message}\n"
    assert not (tmp_path / "o").exists()


def test_config_with_percent_signs_round_trips(tmp_path):
    rc = replace(tiny_run_config(tmp_path / "o%1"), scene=None, input_path="cube%1.hsb",
                 truth_endmembers="em%%.csv", truth_abundances="%(ab)s.csv")
    write_config(rc, tmp_path / "c.ini")
    back = parse_config(tmp_path / "c.ini")
    assert (back.out_dir, back.input_path) == (rc.out_dir, "cube%1.hsb")
    assert (back.truth_endmembers, back.truth_abundances) == ("em%%.csv", "%(ab)s.csv")


@pytest.mark.parametrize("text", ["seed = 3\n[input]\nheight = 4\n",
                                  "[run]\nseed = 1\n[run]\nseed = 2\n",
                                  "[run]\nseed = 1\nseed = 2\n"])
def test_config_that_configparser_rejects_fails_naming_the_file(tmp_path, capsys, text):
    cfg = tmp_path / "c.ini"
    cfg.write_text(text)
    assert main(["run", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {cfg}: ")
    assert "Traceback" not in err


# a valid config the fuzz mutates, so that most drawn files reach the value checks
_BASE_CONFIG = {
    "run": {"seed": "0", "repeat": "1", "out": "o"},
    "input": {"height": "6", "width": "5", "bands": "6", "endmembers": "2",
              "smoothness": "1.2", "snr_db": "inf"},
    "autoencoder": {"encoder_filters": "8,4,4,2", "encoder_kernels": "5,3,3,1",
                    "patch_size": "9", "epochs": "6"},
    "kernel": {"a": "2", "b": "2"},
    "gcn": {"hidden": "32", "label_fraction": "0.15"},
}
_NAME = st.text(st.characters(codec="utf-8", exclude_characters="\r"), max_size=8)
_VALUE = st.sampled_from(["0", "1", "-2", "3", "8", "0.5", "1e-3", "nan", "inf", "true",
                          "no", "5,3,3,1", "8,3", "%1", "%(seed)s", "hsb", "x.csv",
                          ""]) | _NAME


@st.composite
def _config_text(draw):
    """A config file text: mostly _BASE_CONFIG with a few keys changed, or any text."""
    if draw(st.integers(0, 4)) == 0:
        return draw(st.text(max_size=60))
    sections = {name: dict(keys) for name, keys in _BASE_CONFIG.items()}
    known = [(name, key) for name, keys in _KNOWN_KEYS.items() for key in keys]
    for name, key in draw(st.lists(st.sampled_from(known), max_size=3, unique=True)):
        sections[name][key] = draw(st.none() | _VALUE)  # None leaves the key out
    if draw(st.integers(0, 4)) == 0:
        name = draw(st.sampled_from(["DEFAULT", "gnc", *_KNOWN_KEYS]) | _NAME)
        sections.setdefault(name, {})[draw(_NAME)] = draw(_VALUE)
    lines = []
    for name, keys in sections.items():
        if draw(st.integers(0, 9)):  # a section may be left out
            lines.append(f"[{name}]")
            lines += [f"{k} = {v}" for k, v in keys.items() if v is not None]
    return "\n".join(lines) + "\n"


def test_the_fuzz_base_config_parses(tmp_path):
    cfg = tmp_path / "c.ini"
    cfg.write_text("".join(f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
                           for name, keys in _BASE_CONFIG.items()))
    assert parse_config(cfg).gcn == replace(GcnConfig(), hidden=32, label_fraction=0.15)


@settings(derandomize=True, deadline=None, database=None, max_examples=300,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=_config_text())
def test_fuzzed_config_parses_or_fails_naming_the_file(tmp_path, text):
    cfg = tmp_path / "c.ini"
    cfg.write_text(text, encoding="utf-8")
    try:
        parse_config(cfg)
    except ValueError as exc:
        assert str(exc).startswith(f"{cfg}: "), str(exc)


def _file_input_config(tmp_path, truth_endmembers, truth_abundances):
    """A run config on the synth output in tmp_path/s, with the given truth files."""
    assert main(["synth", "--h", "6", "--w", "5", "--l", "6", "--p", "2",
                 "--seed", "3", "--out", str(tmp_path / "s")]) == 0
    rc = replace(tiny_run_config(tmp_path / "o"), scene=None,
                 input_path=str(tmp_path / "s" / "cube.hsb"),
                 truth_endmembers=str(truth_endmembers),
                 truth_abundances=str(truth_abundances))
    cfg = tmp_path / "c.ini"
    write_config(rc, cfg)
    return cfg


def test_truth_pixel_without_abundance_fails_in_the_load_stage(tmp_path, capsys):
    bad = tmp_path / "ab.csv"
    cfg = _file_input_config(tmp_path, tmp_path / "s" / "truth_endmembers.csv", bad)
    lines = (tmp_path / "s" / "truth_abundances.csv").read_text().splitlines(keepends=True)
    lines[8] = "1,2,0,0\n"
    bad.write_text("".join(lines))
    assert main(["run", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "stage 'load' failed" in err
    assert f"{bad}: pixel (1, 2) has no positive abundance" in err


@pytest.mark.parametrize("values, message", [
    ("1.5,-0.5", "pixel (1, 2) has em1 = -0.5 < 0"),
    ("0.6,0.6", "pixel (1, 2) abundances sum to 1.2, not 1"),
])
def test_truth_pixel_rounding_cannot_explain_fails_in_the_load_stage(
        tmp_path, capsys, values, message):
    bad = tmp_path / "ab.csv"
    cfg = _file_input_config(tmp_path, tmp_path / "s" / "truth_endmembers.csv", bad)
    lines = (tmp_path / "s" / "truth_abundances.csv").read_text().splitlines(keepends=True)
    lines[8] = f"1,2,{values}\n"
    bad.write_text("".join(lines))
    assert main(["run", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "stage 'load' failed" in err
    assert f"{bad}: {message}" in err
    assert not (tmp_path / "o" / "truth_abundances.csv").exists()


@pytest.mark.parametrize("values, held, column", [
    ("nan,1", "nan", "em0"), ("0.5,inf", "inf", "em1"), ("-inf,0.5", "-inf", "em0"),
])
def test_a_non_finite_truth_abundance_fails_naming_the_line_and_column(
        tmp_path, capsys, values, held, column):
    bad = tmp_path / "ab.csv"
    cfg = _file_input_config(tmp_path, tmp_path / "s" / "truth_endmembers.csv", bad)
    lines = (tmp_path / "s" / "truth_abundances.csv").read_text().splitlines(keepends=True)
    lines[8] = f"1,2,{values}\n"
    bad.write_text("".join(lines))
    assert main(["run", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "stage 'load' failed" in err
    assert f"{bad}: line 9 holds {held} in column '{column}'" in err


def test_truth_pixel_rounding_residue_is_renormalized(tmp_path):
    ab_csv = tmp_path / "ab.csv"
    cfg = _file_input_config(tmp_path, tmp_path / "s" / "truth_endmembers.csv", ab_csv)
    lines = (tmp_path / "s" / "truth_abundances.csv").read_text().splitlines(keepends=True)
    lines[8] = "1,2,-8e-10,1.000000004\n"
    ab_csv.write_text("".join(lines))
    rc = parse_config(cfg)
    truth = _load_truth_files(rc, load_cube(rc.input_path, rc.input_format))
    assert truth.abundances[1, 2, 0] == 0.0
    assert truth.abundances[1, 2, 1] == 1.0


def test_truth_endmembers_with_too_few_bands_fail_in_the_load_stage(tmp_path, capsys):
    bad = tmp_path / "em.csv"
    cfg = _file_input_config(tmp_path, bad, tmp_path / "s" / "truth_abundances.csv")
    lines = (tmp_path / "s" / "truth_endmembers.csv").read_text().splitlines(keepends=True)
    bad.write_text("".join(lines[:5]))
    assert main(["run", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "stage 'load' failed" in err
    assert f"{bad}: 4 bands, the cube has 6" in err


def test_truth_endmember_count_unlike_the_abundances_fails_naming_both_files(tmp_path,
                                                                             capsys):
    bad = tmp_path / "em.csv"
    ab = tmp_path / "s" / "truth_abundances.csv"
    cfg = _file_input_config(tmp_path, bad, ab)
    # keep the band column and em0 of the 2-endmember truth
    lines = (tmp_path / "s" / "truth_endmembers.csv").read_text().splitlines()
    bad.write_text("".join(line.rsplit(",", 1)[0] + "\n" for line in lines))
    assert main(["run", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "stage 'load' failed" in err
    assert f"{ab}: 2 abundance channels, but {bad}'s endmember count is 1" in err


def test_truth_file_that_is_not_utf8_fails_naming_it_in_the_load_stage(tmp_path, capsys):
    bad = tmp_path / "ab.csv"
    cfg = _file_input_config(tmp_path, tmp_path / "s" / "truth_endmembers.csv", bad)
    text = (tmp_path / "s" / "truth_abundances.csv").read_text()
    bad.write_bytes(text.replace("em0,em1", "for\xeat,eau", 1).encode("latin-1"))
    assert main(["run", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "stage 'load' failed" in err
    assert f"{bad}: line 1 is not UTF-8" in err


def test_run_keeps_the_truth_files_material_names(tmp_path):
    em, ab = tmp_path / "em.csv", tmp_path / "ab.csv"
    cfg = _file_input_config(tmp_path, em, ab)
    for name, path in (("truth_endmembers.csv", em), ("truth_abundances.csv", ab)):
        text = (tmp_path / "s" / name).read_text()
        path.write_text(text.replace("em0,em1", "tree,water", 1))
    assert main(["run", "--config", str(cfg)]) == 0
    out = tmp_path / "o"
    assert read_endmember_csv(out / "truth_endmembers.csv")[1] == ["tree", "water"]
    assert read_abundance_csv(out / "truth_abundances.csv")[1] == ["tree", "water"]
    assert read_endmember_csv(out / "ae_endmembers.csv")[1] == ["tree", "water"]
    for name in ("ae_abundances.csv", "gcn_abundances.csv", "final_abundances.csv"):
        assert read_abundance_csv(out / name)[1] == ["tree", "water"], name
    # the maps keep their numbered names, which the run's artifact list gives
    assert sorted(p.name for p in (out / "maps").glob("*.pgm")) == ["em0.pgm", "em1.pgm"]
    rows = (out / "metrics.csv").read_text().splitlines()[1:]
    assert [row.split(",")[0] for row in rows] == ["tree", "water", "mean"]
    assert score_artifacts(out, em, ab).materials == ["tree", "water"]


def test_a_synthetic_runs_final_and_maps_csvs_are_one_file(completed_run):
    _, _, run_dir = completed_run
    final = (run_dir / "final_abundances.csv").read_bytes()
    assert final == (run_dir / "maps" / "abundances.csv").read_bytes()
    assert final.startswith(b"row,col,em0,em1\n") and final.count(b"\n") == 1 + 16 * 16


def test_a_file_input_run_writes_the_final_body_under_the_truths_names(tmp_path):
    em, ab = tmp_path / "em.csv", tmp_path / "ab.csv"
    cfg = _file_input_config(tmp_path, em, ab)
    for name, path in (("truth_endmembers.csv", em), ("truth_abundances.csv", ab)):
        path.write_text((tmp_path / "s" / name).read_text().replace("em0,em1", "tree,water", 1))
    assert main(["run", "--config", str(cfg)]) == 0
    out = tmp_path / "o"
    final_header, final_body = (out / "final_abundances.csv").read_bytes().split(b"\n", 1)
    maps_header, maps_body = (out / "maps" / "abundances.csv").read_bytes().split(b"\n", 1)
    assert (final_header, maps_header) == (b"row,col,tree,water", b"row,col,em0,em1")
    assert final_body == maps_body and final_body.count(b"\n") == 6 * 5


def test_a_run_loads_no_scipy(tmp_path):
    # the whole pipeline, GCN operator included, is numpy: a fresh process
    # that imports the CLI and runs every stage never imports scipy, nor
    # numpy.ma (about 10 ms and 1.3 MiB), which np.unique without return
    # flags imports
    code = textwrap.dedent(f"""
        import sys
        import aegem.pipeline, aegem.cli
        from aegem.autoencoder import AutoencoderConfig
        from aegem.gcn import GcnConfig
        from aegem.hsi import SceneSpec
        rc = aegem.pipeline.RunConfig(
            scene=SceneSpec(8, 8, 6, 3, snr_db=float("inf")),
            ae=AutoencoderConfig(encoder_filters=(4, 3), encoder_kernels=(3, 1),
                                 patch_size=5, decoder_kernel=3, epochs=1, batch_size=32),
            gcn=GcnConfig(hidden=8, epochs=5), out_dir={str(tmp_path)!r})
        aegem.pipeline.run_pipeline(rc, log=None)
        print(sorted(m for m in sys.modules
                     if m in ("scipy", "numpy.ma") or m.startswith(("scipy.", "numpy.ma."))))
        """)
    env = {**os.environ, "PYTHONPATH": str(Path(aegem.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=env)
    assert out.stdout.strip() == "[]"
    assert (tmp_path / "final_abundances.csv").exists()


def test_config_requires_exactly_one_input():
    with pytest.raises(ValueError, match="exactly one"):
        RunConfig(scene=None, input_path=None)
    with pytest.raises(ValueError, match="exactly one"):
        RunConfig(scene=SceneSpec(8, 8, 4, 2), input_path="x.hsb")


def test_missing_config_file_exit_code():
    assert main(["run", "--config", "/nonexistent/config.ini"]) == 1


# -- run ---------------------------------------------------------------------------

def test_run_pipeline_artifacts(completed_run):
    rc, report, run_dir = completed_run
    expected = [
        "ae_abundances.csv", "ae_endmembers.csv", "ae_loss.csv", "checkpoint_ae.aew",
        "checkpoint_gcn.aew", "config.ini", "cube.hsb", "final_abundances.csv",
        "gcn_abundances.csv", "gcn_loss.csv", "graph.csv", "labels.csv",
        "metrics.csv", "metrics.txt", "run.log", "truth_abundances.csv",
        "truth_endmembers.csv",
    ]
    for name in expected:
        assert (run_dir / name).exists(), name
    assert (run_dir / "maps" / "em0.pgm").exists()
    assert report.mean_rmse < 0.5
    first = (run_dir / "metrics.csv").read_text().splitlines()[0]
    assert first == "material,rmse_ae,rmse_gcn,rmse_final,sad,source"


def test_run_gcn_log_layout(completed_run):
    _, _, run_dir = completed_run
    header = (run_dir / "gcn_loss.csv").read_text().splitlines()[0]
    assert header == "epoch,train_bce,val_bce"


_STAGE_LINE = re.compile(r"\[(\w+)\] .+ in \d+\.\ds")


def _logged_stages(run_dir) -> list[str]:
    """The stage names of run.log, in order; every line is a timed stage line."""
    lines = (Path(run_dir) / "run.log").read_text().splitlines()
    matches = [_STAGE_LINE.fullmatch(line) for line in lines]
    assert all(matches), lines
    return [m.group(1) for m in matches]


def test_run_log_holds_one_timed_line_per_stage(completed_run):
    _, _, run_dir = completed_run
    assert _logged_stages(run_dir) == ["load", "normalize", "autoencoder", "graph", "gcn",
                                       "ensemble", "score"]


def test_a_stage_failure_keeps_the_log_of_the_stages_before_it(tmp_path, capsys,
                                                                monkeypatch):
    def diverge(*args, **kwargs):
        raise RuntimeError("gcn diverged")

    monkeypatch.setattr("aegem.gcn.train_gcn", diverge)
    cfg = tmp_path / "c.ini"
    write_config(tiny_run_config(tmp_path / "o"), cfg)
    assert main(["run", "--config", str(cfg)]) == 2
    assert "error: stage 'gcn' failed: gcn diverged" in capsys.readouterr().err
    assert _logged_stages(tmp_path / "o") == ["load", "normalize", "autoencoder", "graph"]
    assert not (tmp_path / "o" / "gcn_abundances.csv").exists()


def test_a_failed_run_into_a_finished_directory_leaves_none_of_its_results(
        tmp_path, capsys, monkeypatch):
    out = tmp_path / "o"
    cfg = tmp_path / "c.ini"
    write_config(tiny_run_config(out), cfg)
    assert main(["run", "--config", str(cfg)]) == 0
    seed0_ae = (out / "ae_abundances.csv").read_bytes()

    def diverge(*args, **kwargs):
        raise RuntimeError("gcn diverged")

    monkeypatch.setattr("aegem.gcn.train_gcn", diverge)
    assert main(["run", "--config", str(cfg), "--seed", "4"]) == 2
    assert parse_config(out / "config.ini").seed == 4
    assert _logged_stages(out) == ["load", "normalize", "autoencoder", "graph"]
    for name in ("metrics.txt", "metrics.csv", "gcn_abundances.csv", "final_abundances.csv",
                 "labels.csv", "gcn_loss.csv", "checkpoint_gcn.aew", "maps/em0.pgm",
                 "maps/abundances.csv"):
        assert not (out / name).exists(), name
    assert (out / "ae_abundances.csv").read_bytes() != seed0_ae  # seed 4's
    assert (out / "graph.csv").exists()


def test_a_stage_subcommand_into_a_finished_run_clears_the_later_stages(completed_run,
                                                                          tmp_path):
    rc, _, run_dir = completed_run
    out = tmp_path / "o"
    shutil.copytree(run_dir, out)
    cfg = tmp_path / "c.ini"
    write_config(rc, cfg)
    assert main(["ae", "--config", str(cfg), "--out", str(out)]) == 0
    left = sorted(p.relative_to(out).as_posix() for p in out.rglob("*") if p.is_file())
    assert left == ["ae_abundances.csv", "ae_endmembers.csv", "ae_loss.csv",
                    "checkpoint_ae.aew", "config.ini", "cube.hsb", "run.log",
                    "truth_abundances.csv", "truth_endmembers.csv"]


def test_clearing_a_run_directory_keeps_the_input_files_in_it(tmp_path):
    # the synth files are the run's inputs and sit where its outputs go
    out = tmp_path / "o"
    assert main(["synth", "--h", "16", "--w", "16", "--l", "10", "--p", "2",
                 "--seed", "5", "--out", str(out)]) == 0
    inputs = {name: (out / name).read_bytes()
              for name in ("cube.hsb", "truth_endmembers.csv", "truth_abundances.csv")}
    rc = replace(tiny_run_config(out), scene=None, input_path=str(out / "cube.hsb"),
                 truth_endmembers=str(out / "truth_endmembers.csv"),
                 truth_abundances=str(out / "truth_abundances.csv"))
    cfg = tmp_path / "c.ini"
    write_config(rc, cfg)
    for _ in range(2):
        assert main(["ae", "--config", str(cfg)]) == 0
        for name, raw in inputs.items():
            assert (out / name).read_bytes() == raw, name


def test_run_log_reports_the_gcn_receptive_field(completed_run):
    _, _, run_dir = completed_run
    log = (run_dir / "run.log").read_text()
    found = re.search(r"on (\d+) labeled pixels \(receptive field (\d+) of 256 nodes\)", log)
    assert found, log
    labeled, field = map(int, found.groups())
    assert labeled == len(read_labels_csv(run_dir / "labels.csv", 16, 16))
    assert labeled < field < 256


def test_run_final_stack_satisfies_asc(completed_run):
    _, _, run_dir = completed_run
    final, _ = read_abundance_csv(run_dir / "final_abundances.csv")
    assert np.max(np.abs(final.sum(axis=2) - 1.0)) < 1e-6
    assert final.min() >= 0.0


def test_run_cli_deterministic_metrics(tmp_path):
    rc = tiny_run_config(tmp_path / "unused", seed=42)
    cfg_path = tmp_path / "c.ini"
    write_config(rc, cfg_path)
    outs = []
    for sub in ("r1", "r2"):
        code = main(["run", "--config", str(cfg_path), "--seed", "42",
                     "--out", str(tmp_path / sub)])
        assert code == 0
        outs.append((tmp_path / sub / "metrics.csv").read_bytes())
    assert outs[0] == outs[1]


def test_run_missing_input_names_path(tmp_path, capsys):
    rc = RunConfig(input_path=str(tmp_path / "absent.hsb"),
                   truth_endmembers="x.csv", truth_abundances="y.csv",
                   out_dir=str(tmp_path / "o"))
    cfg = tmp_path / "c.ini"
    write_config(rc, cfg)
    code = main(["run", "--config", str(cfg)])
    assert code == 1
    assert "absent.hsb" in capsys.readouterr().err


def test_run_stage_failure_exit_code(tmp_path, capsys):
    # 7 endmembers break the scene generator inside the load stage
    rc = tiny_run_config(tmp_path / "o")
    rc = replace(rc, scene=SceneSpec(16, 16, 10, 7, smoothness=1.2))
    cfg = tmp_path / "c.ini"
    write_config(rc, cfg)
    code = main(["run", "--config", str(cfg)])
    assert code == 2
    assert "load" in capsys.readouterr().err


def _quick_run_config(out_dir, seed) -> RunConfig:
    return replace(tiny_run_config(out_dir, seed),
                   ae=AutoencoderConfig(encoder_filters=(6, 4, 4, 2),
                                        encoder_kernels=(5, 3, 3, 1), epochs=2, batch_size=256),
                   gcn=GcnConfig(hidden=8, epochs=20, label_fraction=0.15))


def test_run_repeat_aggregate(tmp_path):
    rc = replace(_quick_run_config(tmp_path / "rep", seed=1), repeat=2)
    cfg = tmp_path / "c.ini"
    write_config(rc, cfg)
    assert main(["run", "--config", str(cfg)]) == 0
    base = tmp_path / "rep"
    assert (base / "run_000" / "metrics.csv").exists()
    assert (base / "run_001" / "metrics.csv").exists()
    lines = (base / "metrics_runs.csv").read_text().splitlines()
    assert lines[0] == "run,seed,material,rmse_ae,rmse_gcn,rmse_final,sad,source"
    assert any(line.startswith("mean,-,all") for line in lines)
    assert any(line.startswith("std,-,all") for line in lines)
    rows = [line.split(",") for line in lines[1:]]
    numbers = [cell for row in rows for cell in row[3:7] if cell != "-"]
    assert np.isfinite([float(cell) for cell in numbers]).all()  # no "np.float64(...)" text
    # each run's rows hold that run's metrics.csv values, material by material
    for i, run_dir in enumerate(("run_000", "run_001")):
        own = (base / run_dir / "metrics.csv").read_text().splitlines()[1:-1]
        assert [",".join(r[2:]) for r in rows if r[:2] == [str(i), str(1 + i)]] == own
    # same scene in both runs, different training seeds
    c0 = (base / "run_000" / "cube.hsb").read_bytes()
    c1 = (base / "run_001" / "cube.hsb").read_bytes()
    assert c0 == c1


def _listing(root) -> list[str]:
    return sorted(p.relative_to(root).as_posix() for p in root.rglob("*"))


def test_a_repeat_run_clears_what_an_earlier_count_left(tmp_path):
    base = tmp_path / "rep"
    rc = _quick_run_config(base, seed=1)
    single = _listing(Path(run_pipeline(replace(rc, out_dir=str(tmp_path / "one")),
                                        log=None)[1]))

    def runs(n: int) -> list[str]:
        return sorted(["metrics_runs.csv",
                       *(name for i in range(n) for name in
                         [f"run_{i:03d}", *(f"run_{i:03d}/{f}" for f in single)])])

    run_repeated(replace(rc, repeat=3), log=None)
    assert _listing(base) == runs(3)
    for name in ("notes.txt", "run_002/notes.txt"):  # not a run's files: kept
        (base / name).write_text("mine")
    run_repeated(replace(rc, repeat=1), log=None)
    assert _listing(base) == sorted([*single, "notes.txt", "run_002", "run_002/notes.txt"])
    run_repeated(replace(rc, repeat=2), log=None)
    assert _listing(base) == sorted([*runs(2), "notes.txt", "run_002", "run_002/notes.txt"])


def test_run_pipeline_clears_what_a_repeat_run_left(tmp_path):
    base = tmp_path / "rep"
    rc = _quick_run_config(base, seed=1)
    single = _listing(Path(run_pipeline(replace(rc, out_dir=str(tmp_path / "one")),
                                        log=None)[1]))
    run_repeated(replace(rc, repeat=2), log=None)
    run_pipeline(rc, log=None)
    assert _listing(base) == single


def test_a_run_writes_only_config_ini_run_log_and_its_listed_artifacts(tmp_path):
    # a file a stage writes but ARTIFACTS does not list would go uncleared
    out = Path(run_pipeline(_quick_run_config(tmp_path / "run", seed=1), log=None)[1])
    listed = {path for patterns in ARTIFACTS.values() for pattern in patterns
              for path in out.glob(pattern)}
    assert {path for path in out.rglob("*") if path.is_file()} == {
        out / "config.ini", out / "run.log", *listed}


@pytest.mark.parametrize("command", ["ae", "graph"])
def test_a_stage_subcommand_clears_what_a_repeat_run_left(tmp_path, command):
    rc = _quick_run_config(tmp_path / "rep", seed=1)
    cfg = tmp_path / "c.ini"
    write_config(replace(rc, repeat=2), cfg)
    assert main(["run", "--config", str(cfg)]) == 0
    assert main([command, "--config", str(cfg)]) == 0
    stage = "autoencoder" if command == "ae" else "graph"
    assert _listing(tmp_path / "rep") == sorted(
        ["config.ini", "run.log", *ARTIFACTS["load"], *ARTIFACTS[stage]])


def test_a_repeat_runs_config_reproduces_it(tmp_path):
    cfg = tmp_path / "c.ini"
    write_config(replace(_quick_run_config(tmp_path / "rep", seed=1), repeat=2), cfg)
    assert main(["run", "--config", str(cfg)]) == 0
    sub, again = tmp_path / "rep" / "run_001", tmp_path / "again"
    assert parse_config(sub / "config.ini").scene_seed == 1
    assert main(["run", "--config", str(sub / "config.ini"), "--out", str(again)]) == 0
    names = ["cube.hsb", *sorted(p.name for p in sub.glob("*.csv"))]
    assert len(names) == 12
    for name in names:
        assert (again / name).read_bytes() == (sub / name).read_bytes(), name


def test_each_random_stream_takes_its_seed_from_the_run_seed(tmp_path):
    # the table in RunConfig's docstring: the scene from scene_seed or else
    # seed, the AE from seed + 1, the GCN from seed + 2, the labels from seed + 3
    rc = _quick_run_config(tmp_path / "a", seed=5)
    out = run_pipeline(rc, log=None)[1]
    assert "scene_seed" not in (out / "config.ini").read_text()
    cube, truth = synthesize_scene(rc.scene, 5)
    save_cube(cube, tmp_path / "cube.hsb")
    assert (out / "cube.hsb").read_bytes() == (tmp_path / "cube.hsb").read_bytes()
    cube = normalize(cube)
    em, stack, _, model = train_autoencoder(cube, rc.ae, 6)
    save_autoencoder(model, tmp_path / "ae.aew")
    assert (out / "checkpoint_ae.aew").read_bytes() == (tmp_path / "ae.aew").read_bytes()
    idx, targets = sample_labels(truth.abundances, rc.gcn.label_fraction, SplitMix64(8))
    write_labels_csv(idx, cube.width, tmp_path / "labels.csv")
    assert (out / "labels.csv").read_bytes() == (tmp_path / "labels.csv").read_bytes()
    features = stack[:, :, match_endmembers(em, truth.endmembers).order].reshape(-1, 2)
    model, _ = train_gcn(build_graph(cube, rc.kernel_a, rc.kernel_b), features, idx, targets,
                         rc.gcn, 7)
    save_gcn(model, tmp_path / "gcn.aew")
    assert (out / "checkpoint_gcn.aew").read_bytes() == (tmp_path / "gcn.aew").read_bytes()

    # scene_seed = 9 draws the scene from 9 and leaves the other streams
    out = run_pipeline(replace(rc, scene_seed=9, out_dir=str(tmp_path / "b")), log=None)[1]
    save_cube(synthesize_scene(rc.scene, 9)[0], tmp_path / "cube.hsb")
    assert (out / "cube.hsb").read_bytes() == (tmp_path / "cube.hsb").read_bytes()
    assert (out / "labels.csv").read_bytes() == (tmp_path / "labels.csv").read_bytes()


def test_a_scene_seed_beside_an_input_path_fails_naming_the_key(tmp_path):
    cfg = tmp_path / "c.ini"
    cfg.write_text("[run]\nscene_seed = 3\n[input]\npath = cube.hsb\n")
    with pytest.raises(ValueError, match=rf"{re.escape(str(cfg))}: \[run\] scene_seed is set, "
                                         "but the input is a file"):
        parse_config(cfg)


# -- eval ---------------------------------------------------------------------------

def test_eval_truth_vs_itself_zero(tmp_path):
    out = tmp_path / "s"
    assert main(["synth", "--h", "10", "--w", "10", "--l", "6", "--p", "2",
                 "--seed", "3", "--out", str(out)]) == 0
    est = tmp_path / "est"
    est.mkdir()
    ab, _ = read_abundance_csv(out / "truth_abundances.csv")
    for name in ("ae_abundances.csv", "gcn_abundances.csv", "final_abundances.csv"):
        shutil.copy(out / "truth_abundances.csv", est / name)
    shutil.copy(out / "truth_endmembers.csv", est / "ae_endmembers.csv")
    (est / "labels.csv").write_text("row,col\n0,0\n3,4\n7,2\n")
    report = score_artifacts(est, out / "truth_endmembers.csv",
                             out / "truth_abundances.csv")
    assert np.max(report.rmse_final) < 1e-8
    assert np.max(report.sad_values) < 1e-8


def test_eval_reproduces_run_report(completed_run, tmp_path):
    rc, report, run_dir = completed_run
    again = score_artifacts(run_dir, run_dir / "truth_endmembers.csv",
                            run_dir / "truth_abundances.csv")
    assert np.array_equal(again.rmse_final, report.rmse_final)
    assert np.array_equal(again.rmse_ae, report.rmse_ae)
    assert np.array_equal(again.sad_values, report.sad_values)
    assert again.sources == report.sources
    out = tmp_path / "eval_out"
    code = main(["eval", str(run_dir), str(run_dir), "--out", str(out)])
    assert code == 0
    assert (out / "metrics.csv").read_bytes() == (run_dir / "metrics.csv").read_bytes()


def test_eval_reports_the_seed_of_the_runs_config(tmp_path, capsys):
    out = run_pipeline(_quick_run_config(tmp_path / "a", seed=5), log=None)[1]
    capsys.readouterr()
    assert main(["eval", str(out), str(out)]) == 0
    assert "seed=5 " in capsys.readouterr().out
    (out / "config.ini").unlink()  # artifacts alone: no seed to report
    assert main(["eval", str(out), str(out)]) == 0
    assert "seed=0 " in capsys.readouterr().out


def test_eval_invariant_to_channel_permutation(completed_run, tmp_path):
    _, report, run_dir = completed_run
    est = tmp_path / "perm"
    est.mkdir()
    perm = [1, 0]
    for name in ("ae_abundances.csv", "gcn_abundances.csv", "final_abundances.csv"):
        stack, names = read_abundance_csv(run_dir / name)
        from aegem.hsi import write_abundance_csv
        write_abundance_csv(stack[:, :, perm], est / name, [names[i] for i in perm])
    em, names = read_endmember_csv(run_dir / "ae_endmembers.csv")
    from aegem.hsi import write_endmember_csv
    write_endmember_csv(em[:, perm], est / "ae_endmembers.csv",
                        [names[i] for i in perm])
    shutil.copy(run_dir / "labels.csv", est / "labels.csv")
    permuted = score_artifacts(est, run_dir / "truth_endmembers.csv",
                               run_dir / "truth_abundances.csv")
    assert np.allclose(permuted.rmse_final, report.rmse_final, atol=1e-12)
    assert np.allclose(permuted.sad_values, report.sad_values, atol=1e-12)


def test_labels_outside_the_image_name_the_line(tmp_path):
    path = tmp_path / "labels.csv"
    path.write_text("row,col\n0,0\n0,99\n")
    with pytest.raises(ValueError, match=r"labels\.csv: line 3 has pixel \(0, 99\) "
                                         r"outside the 4x4 image"):
        read_labels_csv(path, 4, 4)
    path.write_text("row,col\n0,0\n3,-1\n4,0\n")
    with pytest.raises(ValueError, match=r"line 3 has pixel \(3, -1\)"):
        read_labels_csv(path, 4, 4)
    path.write_text("row,col\n3,1\n0,2\n")
    assert read_labels_csv(path, 4, 4).tolist() == [13, 2]


def test_labels_name_the_first_line_that_repeats_a_pixel(tmp_path):
    # pixel lines A, B, B, A: line 4 repeats B before line 5 repeats A
    path = tmp_path / "labels.csv"
    path.write_text("row,col\n0,0\n2,3\n2,3\n0,0\n")
    with pytest.raises(ValueError, match=r"labels\.csv: pixel \(2, 3\) appears again "
                                         r"on line 4"):
        read_labels_csv(path, 4, 4)


def _score_with_labels(run_dir, est, edit):
    """score_artifacts on a copy of run_dir whose labels.csv lines went through edit."""
    shutil.copytree(run_dir, est)
    lines = (est / "labels.csv").read_text().splitlines(keepends=True)
    (est / "labels.csv").write_text("".join(edit(lines)))
    return score_artifacts(est, est / "truth_endmembers.csv", est / "truth_abundances.csv")


def test_a_repeated_label_pixel_fails_naming_the_file_and_line(completed_run, tmp_path):
    _, _, run_dir = completed_run
    est = tmp_path / "est"
    lines = (run_dir / "labels.csv").read_text().splitlines(keepends=True)
    row, col = lines[2].strip().split(",")
    with pytest.raises(ValueError, match=rf"^{re.escape(str(est / 'labels.csv'))}: pixel "
                                         rf"\({row}, {col}\) appears again on line 5$"):
        _score_with_labels(run_dir, est, lambda lines: [*lines[:4], lines[2], *lines[4:]])


def test_an_empty_label_table_fails_naming_the_file(completed_run, tmp_path):
    _, _, run_dir = completed_run
    est = tmp_path / "est"
    with pytest.raises(ValueError, match=rf"^{re.escape(str(est / 'labels.csv'))}: "
                                         "no pixel lines$"):
        _score_with_labels(run_dir, est, lambda lines: lines[:1])


@pytest.mark.parametrize("cut", ["ae_abundances.csv", "gcn_abundances.csv",
                                 "final_abundances.csv", "ae_endmembers.csv"])
def test_eval_dimension_mismatch(tmp_path, capsys, cut):
    out = tmp_path / "s"
    assert main(["synth", "--h", "8", "--w", "8", "--l", "6", "--p", "2",
                 "--seed", "3", "--out", str(out)]) == 0
    capsys.readouterr()
    est = tmp_path / "est"
    est.mkdir()
    for name in ("ae_abundances.csv", "gcn_abundances.csv", "final_abundances.csv"):
        shutil.copy(out / "truth_abundances.csv", est / name)
    shutil.copy(out / "truth_endmembers.csv", est / "ae_endmembers.csv")
    (est / "labels.csv").write_text("row,col\n0,0\n")
    # the last pixel row or band cut: a well-formed but smaller table
    lines = (est / cut).read_text().splitlines(keepends=True)
    last = lines[-1].split(",")[0] + ","
    (est / cut).write_text("".join(line for line in lines if not line.startswith(last)))
    assert main(["eval", str(est), str(out)]) == 1
    message = ("endmembers (5, 2) do not match the truth's (6, 2)" if cut == "ae_endmembers.csv"
               else "maps (7, 8, 2) do not match the truth's (8, 8, 2)")
    assert f"{est / cut}: {message}" in capsys.readouterr().err


# -- graph / ae subcommands ------------------------------------------------------------

def test_graph_subcommand(completed_run, tmp_path):
    rc, _, run_dir = completed_run
    cfg = tmp_path / "c.ini"
    write_config(rc, cfg)
    assert main(["graph", "--config", str(cfg), "--out", str(tmp_path / "g")]) == 0
    graph_csv = (tmp_path / "g" / "graph.csv").read_bytes()
    lines = graph_csv.decode().splitlines()
    assert lines[0] == "sender_row,sender_col,recv_row,recv_col,sad"
    assert len(lines) > 10
    # the same config and seed give the graph the full run wrote
    assert graph_csv == (run_dir / "graph.csv").read_bytes()


@pytest.mark.parametrize("command, stages", [("ae", ["load", "normalize", "autoencoder"]),
                                             ("graph", ["load", "normalize", "graph"])])
def test_stage_subcommand_writes_its_config_and_a_timed_log(completed_run, tmp_path,
                                                            command, stages):
    rc, _, _ = completed_run
    cfg = tmp_path / "c.ini"
    write_config(rc, cfg)
    out = tmp_path / "o"
    assert main([command, "--config", str(cfg), "--seed", "11", "--out", str(out)]) == 0
    assert parse_config(out / "config.ini") == replace(rc, seed=11, out_dir=str(out))
    assert _logged_stages(out) == stages


def test_stage_subcommands_run_as_a_module(completed_run, tmp_path):
    # the command-line entry path in a fresh process, not main() in this one
    rc, _, run_dir = completed_run
    cfg = tmp_path / "c.ini"
    write_config(rc, cfg)
    env = {**os.environ, "PYTHONPATH": str(Path(aegem.__file__).parents[1])}

    def aegem_cli(*args):
        return subprocess.run([sys.executable, "-m", "aegem.cli", *args],
                              capture_output=True, text=True, env=env)

    for command, artifacts in (("ae", ("ae_endmembers.csv", "ae_abundances.csv")),
                               ("graph", ("graph.csv",))):
        out = tmp_path / command
        done = aegem_cli(command, "--config", str(cfg), "--out", str(out))
        assert done.returncode == 0, done.stderr
        assert f"wrote the {command} artifacts to {out}" in done.stdout
        for name in artifacts:
            assert (out / name).read_bytes() == (run_dir / name).read_bytes(), name
        assert parse_config(out / "config.ini") == replace(rc, out_dir=str(out))
        assert _logged_stages(out)[-1] == ("autoencoder" if command == "ae" else "graph")
    done = aegem_cli("graph", "--config", str(tmp_path / "absent.ini"))
    assert done.returncode == 1
    assert "config file not found" in done.stderr


def test_ae_subcommand(completed_run, tmp_path):
    rc, _, run_dir = completed_run
    cfg = tmp_path / "c.ini"
    write_config(rc, cfg)
    assert main(["ae", "--config", str(cfg), "--out", str(tmp_path / "a")]) == 0
    assert (tmp_path / "a" / "checkpoint_ae.aew").exists()
    # the same config and seed give the artifacts the full run wrote
    for name in ("ae_endmembers.csv", "ae_abundances.csv", "ae_loss.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (run_dir / name).read_bytes(), name


def test_ae_subcommand_takes_the_endmember_count_from_the_truth(tmp_path):
    # a 2-endmember scene; the configured encoder ends in 3 channels
    rc = replace(tiny_run_config(tmp_path / "a", seed=6),
                 ae=AutoencoderConfig(encoder_filters=(6, 4, 4, 3),
                                      encoder_kernels=(5, 3, 3, 1),
                                      epochs=1, batch_size=256))
    cfg = tmp_path / "c.ini"
    write_config(rc, cfg)
    assert main(["ae", "--config", str(cfg)]) == 0
    em, _ = read_endmember_csv(tmp_path / "a" / "ae_endmembers.csv")
    assert em.shape == (10, 2)


@pytest.mark.parametrize("command", ["run", "graph"])
def test_the_dropped_paper_literal_adjacency_flag_is_rejected(tmp_path, command):
    cfg = tmp_path / "c.ini"
    write_config(tiny_run_config(tmp_path / "o"), cfg)
    assert main([command, "--config", str(cfg), "--paper-literal-adjacency"]) == 1
    assert not (tmp_path / "o").exists()
