import builtins
import contextlib
import csv
import dataclasses
import errno
import gc
import hashlib
import io
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import tracemalloc
from dataclasses import is_dataclass
from pathlib import Path
from typing import get_args, get_type_hints

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import annembed
from annembed import synthgen
from annembed.cli import CONFIG_FLAGS, main
from annembed.corpus import (
    CorpusError,
    Dataset,
    DatasetManifest,
    SplitManifest,
    load_dataset,
    read_record,
    write_dataset,
    write_json,
    write_manifest,
)
from annembed.encoder import EncoderConfig
from annembed.trainer import (
    CheckpointManifest,
    EvalReport,
    TrainConfig,
    load_checkpoint,
    save_checkpoint,
)

from format1 import RETIRED_TRAIN_KEYS, to_format_1

FAST_TRAIN = [
    "--epochs", "2", "--batch-size", "16", "--lr", "2e-3",
    "--hidden", "16", "--layers", "1", "--heads", "2",
    "--max-len", "12", "--ffn-mult", "2", "--dropout", "0.0",
]


def _run(*argv):
    return main(list(argv))


@pytest.fixture()
def corpus_dir(tmp_path):
    out = tmp_path / "synth"
    assert _run("synth", "--out", str(out), "--annotators", "4", "--texts", "24",
                "--labels", "3", "--bias", "0.4", "--seed", "3", "--vocab", "30") == 0
    return out


@pytest.fixture()
def split_dir(tmp_path, corpus_dir):
    out = tmp_path / "split"
    assert _run("split", "--data", str(corpus_dir / "corpus.jsonl"),
                "--kind", "annotation", "--train-frac", "0.7",
                "--seed", "1", "--out", str(out)) == 0
    return out


@pytest.fixture()
def train_dir(tmp_path, split_dir):
    out = tmp_path / "train"
    assert _run("train", "--data", str(split_dir), "--mode", "text_plus_both",
                "--seed", "2", "--out", str(out), *FAST_TRAIN) == 0
    return out


def test_synth_writes_corpus_and_truth(corpus_dir):
    assert (corpus_dir / "corpus.jsonl").exists()
    assert (corpus_dir / "corpus.manifest.json").exists()
    truth = json.loads((corpus_dir / "truth.json").read_text())
    assert len(truth["bias_matrices"]) == 4
    assert (corpus_dir / "manifest.json").exists()


def test_synth_deterministic(tmp_path):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert _run("synth", "--out", str(out), "--annotators", "3", "--texts", "10",
                    "--labels", "2", "--seed", "7", "--vocab", "20") == 0
        outs.append((out / "corpus.jsonl").read_bytes())
    assert outs[0] == outs[1]


def test_synth_group_truth_lists_matrices(tmp_path):
    out = tmp_path / "groups"
    assert _run("synth", "--out", str(out), "--annotators", "9", "--texts", "12",
                "--labels", "3", "--groups", "3", "--bias", "0.8", "--seed", "5",
                "--vocab", "30") == 0
    truth = json.loads((out / "truth.json").read_text())
    distinct = {json.dumps(m) for m in truth["bias_matrices"].values()}
    assert len(distinct) == 3


def test_split_manifest_records_kind(split_dir):
    manifest = json.loads((split_dir / "split_manifest.json").read_text())
    assert manifest["kind"] == "annotation"
    assert manifest["train_frac"] == 0.7
    assert (split_dir / "train.jsonl").exists()
    assert (split_dir / "test.jsonl").exists()


def test_split_rerun_byte_identical(tmp_path, corpus_dir):
    outs = []
    for name in ("s1", "s2"):
        out = tmp_path / name
        assert _run("split", "--data", str(corpus_dir / "corpus.jsonl"),
                    "--seed", "9", "--out", str(out)) == 0
        outs.append(out)
    for fname in ("train.jsonl", "test.jsonl", "split_manifest.json"):
        assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()


def test_split_annotator_kind_three_way(tmp_path, corpus_dir):
    out = tmp_path / "annsplit"
    # regenerate with 3 annotators for the 2/1 rule
    synth = tmp_path / "synth3"
    assert _run("synth", "--out", str(synth), "--annotators", "3", "--texts", "12",
                "--labels", "2", "--seed", "0", "--vocab", "20") == 0
    assert _run("split", "--data", str(synth / "corpus.jsonl"), "--kind", "annotator",
                "--train-frac", "0.7", "--seed", "4", "--out", str(out)) == 0
    train = {json.loads(l)["annotator_id"]
             for l in (out / "train.jsonl").read_text().splitlines()}
    test = {json.loads(l)["annotator_id"]
            for l in (out / "test.jsonl").read_text().splitlines()}
    assert len(train) == 2 and len(test) == 1
    assert not train & test


@pytest.mark.parametrize("dev_frac", ["5", "0.2", "-1", "nan"])
def test_split_annotator_kind_with_a_dev_frac_exit_code(tmp_path, corpus_dir, capsys,
                                                        dev_frac):
    # the annotator split makes no dev part, so no --dev-frac but 0 is its own
    out = tmp_path / "annsplit"
    assert _run("split", "--data", str(corpus_dir / "corpus.jsonl"), "--kind", "annotator",
                "--dev-frac", dev_frac, "--out", str(out)) == 2
    assert ("--dev-frac must be 0 for --kind annotator, which makes no dev part, "
            f"got {float(dev_frac)}") in capsys.readouterr().err
    assert sorted(os.listdir(out)) == ["FAILED", "manifest.json"]


@pytest.mark.parametrize("dev_frac", ["1", "-0.5"])
def test_split_annotation_kind_with_a_dev_frac_out_of_range_exit_code(tmp_path, corpus_dir,
                                                                      capsys, dev_frac):
    out = tmp_path / "split"
    assert _run("split", "--data", str(corpus_dir / "corpus.jsonl"),
                "--dev-frac", dev_frac, "--out", str(out)) == 2
    assert "dev_frac must lie in [0, 1)" in capsys.readouterr().err
    assert sorted(os.listdir(out)) == ["FAILED", "manifest.json"]


def test_train_outputs(train_dir):
    assert (train_dir / "checkpoint" / "params.bin").exists()
    report = json.loads((train_dir / "report.json").read_text())
    assert 0.0 <= report["em_accuracy"] <= 1.0
    assert report["baseline_majority"] is not None
    log = json.loads((train_dir / "run_log.json").read_text())
    assert log["steps"] == len(log["loss_trace"]) > 0
    overhead = json.loads((train_dir / "overhead.json").read_text())
    assert overhead["added_parameters"] > 0


def test_train_manifest_rerun_identical(tmp_path, split_dir, train_dir):
    rerun = tmp_path / "rerun"
    assert _run("train", "--config", str(train_dir / "manifest.json"),
                "--out", str(rerun)) == 0
    for fname in ("checkpoint/params.bin", "checkpoint/manifest.json",
                  "report.json", "run_log.json"):
        assert (train_dir / fname).read_bytes() == (rerun / fname).read_bytes(), fname


def test_eval_checkpoint(tmp_path, split_dir, train_dir):
    out = tmp_path / "eval"
    assert _run("eval", "--checkpoint", str(train_dir / "checkpoint"),
                "--data", str(split_dir / "test.jsonl"), "--out", str(out)) == 0
    a = json.loads((out / "report.json").read_text())
    b = json.loads((train_dir / "report.json").read_text())
    assert a["em_accuracy"] == b["em_accuracy"]
    assert a["confusion"] == b["confusion"]


class _HalfWriter:
    """A file that takes half of its first write and then fails, as a full
    disk would."""

    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, data):
        data = memoryview(data).cast("B")
        self.fh.write(data[:len(data) // 2])
        raise OSError(errno.ENOSPC, "No space left on device")


def test_failed_params_write_leaves_the_old_checkpoint_whole(tmp_path, split_dir, train_dir,
                                                             monkeypatch):
    checkpoint = train_dir / "checkpoint"
    eval_args = ["eval", "--checkpoint", str(checkpoint), "--data", str(split_dir / "test.jsonl")]
    assert _run(*eval_args, "--out", str(tmp_path / "before")) == 0
    model = load_checkpoint(checkpoint)
    for param in model.named_parameters().values():
        param.value += 1.0   # a save that went through would change every byte
    real_open = builtins.open

    def open_failing_params(path, mode="r", *args, **kwargs):
        fh = real_open(path, mode, *args, **kwargs)
        if "w" in mode and os.path.basename(str(path)).startswith("params.bin"):
            return _HalfWriter(fh)
        return fh

    monkeypatch.setattr(builtins, "open", open_failing_params)
    with pytest.raises(OSError, match="No space left"):
        save_checkpoint(model, checkpoint)
    monkeypatch.undo()
    assert sorted(os.listdir(checkpoint)) == ["manifest.json", "params.bin"]
    assert _run(*eval_args, "--out", str(tmp_path / "after")) == 0
    assert ((tmp_path / "after" / "report.json").read_bytes()
            == (tmp_path / "before" / "report.json").read_bytes())


def test_format_1_checkpoint_and_its_format_2_resave_evaluate_alike(tmp_path, split_dir,
                                                                    train_dir):
    # the manifest of format 1 as its writer wrote it: write_json's bytes
    old = tmp_path / "format1"
    shutil.copytree(train_dir / "checkpoint", old)
    manifest = json.loads((old / "manifest.json").read_text())
    to_format_1(manifest)
    write_json(old / "manifest.json", manifest)
    resaved = tmp_path / "resaved"
    save_checkpoint(load_checkpoint(old), resaved)
    assert json.loads((resaved / "manifest.json").read_text())["format_version"] == 2
    assert (resaved / "params.bin").read_bytes() == (old / "params.bin").read_bytes()
    reports = []
    for checkpoint in (old, resaved):
        out = tmp_path / f"eval_{checkpoint.name}"
        assert _run("eval", "--checkpoint", str(checkpoint),
                    "--data", str(split_dir / "test.jsonl"), "--out", str(out)) == 0
        reports.append((out / "report.json").read_bytes())
    assert reports[0] == reports[1]


@pytest.mark.parametrize("section, key", [
    *(("train_config", key) for key in RETIRED_TRAIN_KEYS), (None, "train_label_totals")])
def test_eval_of_format_1_checkpoint_with_a_format_1_key_of_another_value_exit_code(
        tmp_path, split_dir, train_dir, capsys, section, key):
    checkpoint = train_dir / "checkpoint"
    manifest = json.loads((checkpoint / "manifest.json").read_text())
    to_format_1(manifest)
    target = manifest if section is None else manifest[section]
    target[key] = [0.5] * len(target[key]) if section is None else target[key] + 0.5
    (checkpoint / "manifest.json").write_text(json.dumps(manifest))
    assert _run("eval", "--checkpoint", str(checkpoint),
                "--data", str(split_dir / "test.jsonl"), "--out", str(tmp_path / "eval")) == 2
    name = key if section is None else f"{section}.{key}"
    assert f"error: {checkpoint / 'manifest.json'}: {name} " in capsys.readouterr().err


def test_eval_twice_identical(tmp_path, split_dir, train_dir):
    reports = []
    for name in ("e1", "e2"):
        out = tmp_path / name
        assert _run("eval", "--checkpoint", str(train_dir / "checkpoint"),
                    "--data", str(split_dir / "test.jsonl"), "--out", str(out)) == 0
        reports.append((out / "report.json").read_bytes())
    assert reports[0] == reports[1]


def test_train_mode_matches_library(tmp_path, split_dir):
    from annembed.cli import _load_split
    from annembed.embedding import CombinationMode
    from annembed.encoder import EncoderConfig
    from annembed.trainer import TrainConfig, evaluate, train

    out = tmp_path / "cli_text_only"
    assert _run("train", "--data", str(split_dir), "--mode", "text_only",
                "--seed", "5", "--out", str(out), *FAST_TRAIN) == 0
    cli_report = json.loads((out / "report.json").read_text())

    split = _load_split(str(split_dir))
    cfg = TrainConfig(mode=CombinationMode.TEXT_ONLY, epochs=2, batch_size=16,
                      learning_rate=2e-3, seed=5)
    enc = EncoderConfig(hidden=16, layers=1, heads=2, max_len=12, ffn_mult=2, dropout=0.0)
    model, _ = train(split, cfg, enc)
    lib_report = evaluate(model, split.test, with_baselines=True)
    assert cli_report["em_accuracy"] == lib_report.em_accuracy
    assert cli_report["macro_f1"] == lib_report.macro_f1
    assert cli_report["confusion"] == lib_report.confusion


def test_multi_run_summary(tmp_path, split_dir):
    out = tmp_path / "runs"
    assert _run("train", "--data", str(split_dir), "--mode", "text_only",
                "--runs", "3", "--seed", "1", "--out", str(out), *FAST_TRAIN) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["runs"] == 3
    assert len(summary["per_run_em"]) == 3
    assert summary["em_std"] >= 0.0


def test_baselines_command(tmp_path, split_dir):
    out = tmp_path / "base"
    assert _run("baselines", "--data", str(split_dir / "test.jsonl"),
                "--manifest", str(split_dir / "schema.manifest.json"),
                "--majority-from", str(split_dir / "train.jsonl"),
                "--seed", "0", "--out", str(out)) == 0
    obj = json.loads((out / "baselines.json").read_text())
    assert 0.0 <= obj["random_em"] <= 1.0
    assert 0.0 <= obj["majority_em"] <= 1.0


def test_ablate_command(tmp_path, split_dir, train_dir):
    out = tmp_path / "ablate"
    assert _run("ablate", "--checkpoint", str(train_dir / "checkpoint"),
                "--data", str(split_dir / "test.jsonl"), "--variant", "all",
                "--out", str(out)) == 0
    obj = json.loads((out / "ablation.json").read_text())
    assert set(obj) == {"embedding_only", "text_only", "combination"}


def test_analyze_command(tmp_path, split_dir, train_dir):
    out = tmp_path / "analysis"
    assert _run("analyze", "--data", str(split_dir / "train.jsonl"),
                "--manifest", str(split_dir / "schema.manifest.json"),
                "--checkpoint", str(train_dir / "checkpoint"),
                "--what", "stats,kappa,cluster,project", "--k", "2",
                "--min-overlap", "1", "--out", str(out)) == 0
    assert (out / "kappa.csv").exists()
    clusters = json.loads((out / "clusters.json").read_text())
    assert len(clusters["assignments"]) == 4
    projection = (out / "projection.csv").read_text().splitlines()
    assert projection[0] == "annotator_id,x,y"
    assert len(projection) == 5


def _csv_rows(path):
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.reader(fh))


def test_analyze_csv_cells_with_commas_quotes_and_newlines(tmp_path, corpus_dir):
    source = load_dataset(corpus_dir / "corpus.jsonl", ["L0", "L1", "L2"])
    rename = dict(zip(source.annotator_ids, ["a,0", 'b"1', "c\n2", "d"]))
    labels = ["L0", 'L1, "maybe"', "L2"]
    odd = Dataset.from_examples(
        [dataclasses.replace(ex, annotator_id=rename[ex.annotator_id])
         for ex in source.examples], labels, "odd")
    write_dataset(odd, tmp_path / "odd.jsonl")
    write_manifest(odd, tmp_path / "odd.manifest.json")
    assert _run("split", "--data", str(tmp_path / "odd.jsonl"), "--seed", "1",
                "--out", str(tmp_path / "split")) == 0
    assert _run("train", "--data", str(tmp_path / "split"), "--seed", "2",
                "--out", str(tmp_path / "train"), *FAST_TRAIN) == 0
    out = tmp_path / "analysis"
    assert _run("analyze", "--data", str(tmp_path / "odd.jsonl"),
                "--checkpoint", str(tmp_path / "train" / "checkpoint"),
                "--what", "kappa,correlation,project", "--k", "2", "--min-overlap", "1",
                "--min-examples", "1", "--out", str(out)) == 0
    ids = odd.annotator_ids
    for name, names in (("kappa.csv", ids), ("label_correlation.csv", labels)):
        rows = _csv_rows(out / name)
        assert rows[0] == ["", *names]
        assert [row[0] for row in rows[1:]] == names
        assert all(len(row) == len(names) + 1 for row in rows)
    assert _csv_rows(out / "kappa.csv")[1][1] == "1.0"
    rows = _csv_rows(out / "projection.csv")
    assert rows[0] == ["annotator_id", "x", "y"]
    assert [row[0] for row in rows[1:]] == load_checkpoint(
        str(tmp_path / "train" / "checkpoint")).annotator_ids
    assert all(len(row) == 3 for row in rows)


def test_analyze_csv_bytes_for_plain_names(tmp_path, corpus_dir):
    """Names with no comma, quote or line break are written bare, each cell
    the repr of its float and an undefined entry empty."""
    out = tmp_path / "analysis"
    # every pair shares all 24 texts: kappa is undefined off the diagonal
    assert _run("analyze", "--data", str(corpus_dir / "corpus.jsonl"),
                "--what", "kappa,correlation", "--min-overlap", "25", "--min-examples", "1",
                "--out", str(out)) == 0
    for stem, names_key in (("kappa", "annotator_ids"), ("label_correlation", "label_names")):
        matrix = json.loads((out / f"{stem}.json").read_text())
        names, values = matrix[names_key], matrix["values"]
        lines = ["," + ",".join(names)]
        lines += [name + "," + ",".join("" if v is None else repr(v) for v in row)
                  for name, row in zip(names, values)]
        assert (out / f"{stem}.csv").read_text(encoding="utf-8") == "\n".join(lines) + "\n"
        assert any(v is None for row in values for v in row) == (stem == "kappa")


def test_projection_csv_cells_read_back_as_floats(tmp_path, split_dir, train_dir):
    out = tmp_path / "analysis"
    assert _run("analyze", "--data", str(split_dir / "train.jsonl"),
                "--manifest", str(split_dir / "schema.manifest.json"),
                "--checkpoint", str(train_dir / "checkpoint"),
                "--what", "project", "--out", str(out)) == 0
    rows = _csv_rows(out / "projection.csv")
    coordinates = json.loads((out / "projection.json").read_text())["coordinates"]
    assert rows[0] == ["annotator_id", "x", "y"] and len(rows) == len(coordinates) + 1
    for row, point in zip(rows[1:], coordinates):
        assert [float(cell) for cell in row[1:]] == point


MODES = ("text_only", "text_plus_annotation", "text_plus_annotator", "text_plus_both")
# (mode, embedding) pairs whose rows the mode never trains
UNTRAINED = {("text_only", "annotation"), ("text_only", "annotator"),
             ("text_plus_annotator", "annotation"), ("text_plus_annotation", "annotator")}


@pytest.fixture(scope="module")
def mode_checkpoints(tmp_path_factory):
    root = tmp_path_factory.mktemp("modes")
    assert _run("synth", "--out", str(root / "synth"), "--annotators", "4", "--texts", "24",
                "--labels", "3", "--bias", "0.4", "--seed", "3", "--vocab", "30") == 0
    assert _run("split", "--data", str(root / "synth" / "corpus.jsonl"), "--seed", "1",
                "--out", str(root / "split")) == 0
    for mode in MODES:
        assert _run("train", "--data", str(root / "split"), "--mode", mode, "--seed", "2",
                    "--out", str(root / mode), *FAST_TRAIN) == 0
    return root


@pytest.mark.parametrize("embedding", ["annotation", "annotator"])
@pytest.mark.parametrize("mode", MODES)
def test_analyze_of_an_embedding_the_mode_never_trains_exit_code(mode_checkpoints, tmp_path,
                                                                 capsys, mode, embedding):
    out = tmp_path / "analysis"
    code = _run("analyze", "--data", str(mode_checkpoints / "synth" / "corpus.jsonl"),
                "--checkpoint", str(mode_checkpoints / mode / "checkpoint"),
                "--what", "stats,cluster,project", "--k", "2", "--embedding", embedding,
                "--out", str(out))
    if (mode, embedding) in UNTRAINED:
        assert code == 2
        err = capsys.readouterr().err
        assert f"--embedding {embedding}" in err and mode in err
        assert not (out / "stats.json").exists() and not (out / "clusters.json").exists()
    else:
        assert code == 0
        assert (out / "clusters.json").exists() and (out / "projection.csv").exists()


def test_analyze_alignment_skipped_without_demographics(tmp_path, split_dir, train_dir, capsys):
    out = tmp_path / "analysis2"
    assert _run("analyze", "--data", str(split_dir / "train.jsonl"),
                "--manifest", str(split_dir / "schema.manifest.json"),
                "--checkpoint", str(train_dir / "checkpoint"),
                "--what", "alignment", "--k", "2", "--out", str(out)) == 0
    assert not (out / "alignment.json").exists()
    assert "alignment skipped" in capsys.readouterr().out


def test_analyze_alignment_on_group_corpus(tmp_path):
    synth = tmp_path / "gsynth"
    assert _run("synth", "--out", str(synth), "--annotators", "6", "--texts", "30",
                "--labels", "3", "--groups", "2", "--bias", "0.7", "--seed", "1",
                "--vocab", "30") == 0
    split = tmp_path / "gsplit"
    assert _run("split", "--data", str(synth / "corpus.jsonl"), "--seed", "1",
                "--out", str(split)) == 0
    train = tmp_path / "gtrain"
    assert _run("train", "--data", str(split), "--mode", "text_plus_annotation",
                "--seed", "1", "--out", str(train), *FAST_TRAIN) == 0
    out = tmp_path / "galign"
    assert _run("analyze", "--data", str(split / "train.jsonl"),
                "--manifest", str(split / "schema.manifest.json"),
                "--checkpoint", str(train / "checkpoint"),
                "--what", "cluster,alignment", "--k", "2", "--out", str(out)) == 0
    alignment = json.loads((out / "alignment.json").read_text())
    assert "cohort" in alignment["tables"]


def test_report_command(tmp_path, train_dir, capsys):
    assert _run("report", str(train_dir / "report.json")) == 0
    out = capsys.readouterr().out
    assert "em_accuracy" in out


def test_validation_failure_exit_code(tmp_path):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"example_id": "e", "text": "x", "annotator_id": "a", "label": "ZZZ"}\n')
    manifest = tmp_path / "bad.manifest.json"
    manifest.write_text('{"name": "bad", "label_names": ["A", "B"]}\n')
    out = tmp_path / "out"
    assert _run("split", "--data", str(bad), "--out", str(out)) == 2
    assert (out / "FAILED").exists()


@pytest.mark.parametrize("argv, named", [
    (["eval", "--checkpoint", "{train}/checkpoint", "--data", "{split}"], "{split}"),
    (["report", "{train}"], "{train}"),
    (["analyze", "--data", "{tmp}/x.jsonl", "--manifest", "{split}/schema.manifest.json",
      "--what", "stats"], "{tmp}/x.jsonl"),
    (["train", "--data", "{corpus}/corpus.jsonl", *FAST_TRAIN], "{corpus}/corpus.jsonl"),
    (["eval", "--checkpoint", "{train}/checkpoint/params.bin", "--data", "{split}/test.jsonl"],
     "{train}/checkpoint/params.bin"),
], ids=["eval_data_dir", "report_dir", "analyze_data_dir", "train_data_file",
        "eval_checkpoint_file"])
def test_path_of_the_wrong_kind_exit_code(tmp_path, corpus_dir, split_dir, train_dir, capsys,
                                          argv, named):
    (tmp_path / "x.jsonl").mkdir()
    dirs = dict(tmp=tmp_path, corpus=corpus_dir, split=split_dir, train=train_dir)
    argv = [arg.format(**dirs) for arg in argv]
    capsys.readouterr()
    assert _run(*argv, "--out", str(tmp_path / "out")) == 2
    assert named.format(**dirs) in capsys.readouterr().err


@pytest.mark.parametrize("command, fields, labels, message", [
    ("analyze", {"label_names": "ab"}, ["a", "b"], "label_names must be a list, found 'ab'"),
    ("split", {"label_names": [0, 1]}, [0, 1], "label_names[0] must be a string, found 0"),
    ("analyze", {"label_names": [["L0"], "L1"]}, ["L1"],
     "label_names[0] must be a string, found ['L0']"),
    ("split", {"label_names": ["L0", "L0"]}, ["L0"],
     "label_names must be unique, found ['L0', 'L0']"),
    ("analyze", {"name": 5}, ["a", "b"], "name must be a string, found 5"),
], ids=["string", "integers", "nested_list", "repeated", "integer_name"])
def test_manifest_label_names_not_unique_strings_exit_code(tmp_path, capsys, command,
                                                           fields, labels, message):
    # every corpus label is one of the manifest's label_names, unless fields
    # gives label_names another value
    data = tmp_path / "corpus.jsonl"
    data.write_text("".join(
        json.dumps({"example_id": f"t{t}", "text": f"text {t}", "annotator_id": ann,
                    "label": labels[(t + k) % len(labels)]}) + "\n"
        for t in range(4) for k, ann in enumerate(("a", "b"))))
    manifest = tmp_path / "corpus.manifest.json"
    manifest.write_text(json.dumps({"name": "corpus", "label_names": labels, **fields}))
    args = ["--what", "stats"] if command == "analyze" else []
    assert _run(command, "--data", str(data), *args, "--out", str(tmp_path / "out")) == 2
    assert capsys.readouterr().err == f"error: {manifest}: {message}\n"


@pytest.mark.parametrize("stray", ["manifest", "corpus"])
def test_file_with_a_byte_that_is_not_utf8_exit_code(tmp_path, capsys, stray):
    data = tmp_path / "corpus.jsonl"
    data.write_text('{"example_id": "t0", "text": "x", "annotator_id": "a", "label": "A"}\n')
    manifest = tmp_path / "corpus.manifest.json"
    manifest.write_text('{"name": "corpus", "label_names": ["A", "B"]}\n')
    bad = manifest if stray == "manifest" else data
    bad.write_bytes(bad.read_bytes().replace(b'"A"', b'"A\xff"', 1))
    assert _run("analyze", "--data", str(data), "--what", "stats",
                "--out", str(tmp_path / "out")) == 2
    assert capsys.readouterr().err == \
        f"error: {bad}: not UTF-8 text (byte 0xff: invalid start byte)\n"


def test_corpus_with_nan_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"example_id": NaN, "text": "x", "annotator_id": "a", "label": "A"}\n')
    (tmp_path / "bad.manifest.json").write_text('{"name": "bad", "label_names": ["A", "B"]}\n')
    assert _run("split", "--data", str(bad), "--out", str(tmp_path / "out")) == 2
    assert "line 1: NaN is not a JSON value" in capsys.readouterr().err


def test_split_of_a_corpus_with_a_lone_surrogate_exit_code(tmp_path, capsys):
    """JSON can write a lone surrogate as an escape, and UTF-8 cannot encode
    it: the load refuses it, naming the line and the field, before split
    writes a part."""
    data = tmp_path / "corpus.jsonl"
    with open(data, "w", encoding="utf-8") as fh:
        for t in range(12):
            for ann in ("a", "b"):
                text = "bad \ud800" if (t, ann) == (11, "b") else f"text {t}"
                fh.write(json.dumps({"annotator_id": ann, "example_id": f"t{t}",
                                     "label": "AB"[t % 2], "text": text}) + "\n")
    (tmp_path / "corpus.manifest.json").write_text('{"name": "c", "label_names": ["A", "B"]}\n')
    out = tmp_path / "out"
    assert _run("split", "--data", str(data), "--seed", "1", "--out", str(out)) == 2
    assert capsys.readouterr().err == \
        "error: line 24: text must hold no lone surrogate, found 'bad \\ud800'\n"
    assert not (out / "train.jsonl").exists() and not (out / "test.jsonl").exists()


def test_eval_of_empty_dataset_exit_code(tmp_path, split_dir, train_dir):
    # every annotation comes from an unseen annotator, so --drop-unseen empties the set
    record = {"example_id": "t0", "text": "some words", "annotator_id": "stranger",
              "label": json.loads((split_dir / "schema.manifest.json").read_text())
              ["label_names"][0]}
    data = tmp_path / "unseen.jsonl"
    data.write_text(json.dumps(record) + "\n")
    out = tmp_path / "eval"
    assert _run("eval", "--checkpoint", str(train_dir / "checkpoint"), "--data", str(data),
                "--drop-unseen", "--out", str(out)) == 2
    assert (out / "FAILED").exists()
    assert not (out / "report.json").exists()


def test_out_required_without_env(tmp_path, monkeypatch):
    monkeypatch.delenv("ANNEMBED_OUT", raising=False)
    assert _run("synth", "--annotators", "3", "--texts", "5", "--labels", "2",
                "--vocab", "20") == 2


def test_env_output_root(tmp_path, monkeypatch):
    monkeypatch.setenv("ANNEMBED_OUT", str(tmp_path / "root"))
    assert _run("synth", "--annotators", "3", "--texts", "5", "--labels", "2",
                "--seed", "2", "--vocab", "20") == 0
    assert (tmp_path / "root" / "synth" / "corpus.jsonl").exists()


def test_report_missing_field_exit_code(tmp_path, capsys):
    path = tmp_path / "partial.json"
    path.write_text('{"em_accuracy": 0.5}\n')
    assert _run("report", str(path)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(path) in err and "macro_f1" in err


REPORT = {"em_accuracy": 0.5, "macro_f1": 0.4, "per_annotator_em": {"a": 0.5},
          "confusion": [[1, 1], [0, 2]], "n_annotations": 4, "baseline_random": 0.5,
          "baseline_majority": None, "variant": "combination", "per_class_f1": [0.5, 0.3]}


@pytest.mark.parametrize("key, value, message", [
    ("confusion", 3, "confusion must be a list, found 3"),
    ("em_accuracy", "high", "em_accuracy must be a finite number, found 'high'"),
    ("per_class_f1", None, "per_class_f1 must be a list, found None"),
    ("confusion", [[1, 1], [0, 2.0]], "confusion[1][1] must be an integer, found 2.0"),
    ("per_annotator_em", {"a": True}, "per_annotator_em['a'] must be a finite number"),
])
def test_report_field_of_wrong_type_exit_code(tmp_path, capsys, key, value, message):
    path = tmp_path / "report.json"
    path.write_text(json.dumps(REPORT))
    assert _run("report", str(path)) == 0
    path.write_text(json.dumps({**REPORT, key: value}))
    assert _run("report", str(path)) == 2
    assert f"error: {path}: {message}" in capsys.readouterr().err


def test_main_runs_with_collector_paused_and_restores_it(tmp_path, monkeypatch, caller_gc):
    seen = []
    generate = synthgen.generate_population

    def recording_generate(cfg):
        seen.append(gc.isenabled())
        return generate(cfg)

    monkeypatch.setattr(synthgen, "generate_population", recording_generate)
    assert _run("synth", "--out", str(tmp_path / "synth"), "--annotators", "3",
                "--texts", "6", "--labels", "2", "--vocab", "20") == 0
    assert seen == [False]
    assert gc.isenabled() is caller_gc
    assert _run("split", "--data", str(tmp_path / "missing.jsonl"),
                "--out", str(tmp_path / "split")) == 2
    assert gc.isenabled() is caller_gc


def test_failed_run_records_the_error(tmp_path, split_dir, train_dir):
    checkpoint = train_dir / "checkpoint"
    manifest = json.loads((checkpoint / "manifest.json").read_text())
    manifest["format_version"] = 3
    (checkpoint / "manifest.json").write_text(json.dumps(manifest))
    out = tmp_path / "eval"
    assert _run("eval", "--checkpoint", str(checkpoint),
                "--data", str(split_dir / "test.jsonl"), "--out", str(out)) == 2
    lines = (out / "FAILED").read_text().splitlines()
    assert lines[0] == "run failed; outputs may be partial"
    assert lines[1].startswith("CorpusError: ") and "format_version" in lines[1]


def test_eval_of_checkpoint_missing_manifest_key_exit_code(tmp_path, split_dir, train_dir,
                                                           capsys):
    checkpoint = train_dir / "checkpoint"
    manifest = json.loads((checkpoint / "manifest.json").read_text())
    del manifest["train_counts"]
    (checkpoint / "manifest.json").write_text(json.dumps(manifest))
    assert _run("eval", "--checkpoint", str(checkpoint),
                "--data", str(split_dir / "test.jsonl"), "--out", str(tmp_path / "eval")) == 2
    err = capsys.readouterr().err
    assert str(checkpoint) in err and "train_counts" in err


@pytest.mark.parametrize("edit, message", [
    (lambda m: m["train_counts"]["a000"].__setitem__(0, float("nan")), "NaN"),
    (lambda m: m.update(train_counts=[1, 2]), "train_counts"),
    (lambda m: m["train_counts"].__setitem__("zzz", m["train_counts"].pop("a000")),
     "(missing ['a000'], unexpected ['zzz'])"),
    (lambda m: (to_format_1(m), m.update(train_label_totals=[0.0, 0.0, 1e6])),
     "train_label_totals [0.0, 0.0, 1000000.0] differs from the column sums"),
    (lambda m: m["encoder_config"].update(hidden="16"),
     "encoder_config.hidden must be an integer, found '16'"),
    (lambda m: m["train_config"].update(epochs=1.5),
     "train_config.epochs must be an integer, found 1.5"),
], ids=["nan_literal", "list_train_counts", "renamed_annotator", "wrong_totals",
        "string_hidden", "float_epochs"])
def test_eval_of_checkpoint_with_malformed_manifest_exit_code(tmp_path, split_dir, train_dir,
                                                              capsys, edit, message):
    checkpoint = train_dir / "checkpoint"
    manifest = json.loads((checkpoint / "manifest.json").read_text())
    edit(manifest)
    (checkpoint / "manifest.json").write_text(json.dumps(manifest))
    assert _run("eval", "--checkpoint", str(checkpoint),
                "--data", str(split_dir / "test.jsonl"), "--out", str(tmp_path / "eval")) == 2
    err = capsys.readouterr().err
    assert str(checkpoint) in err and message in err


def test_ablate_all_on_text_only_skips_embedding_only(tmp_path, split_dir, capsys):
    train = tmp_path / "text_only"
    assert _run("train", "--data", str(split_dir), "--mode", "text_only",
                "--seed", "2", "--out", str(train), *FAST_TRAIN) == 0
    checkpoint, data = str(train / "checkpoint"), str(split_dir / "test.jsonl")
    out = tmp_path / "ablate"
    capsys.readouterr()
    assert _run("ablate", "--checkpoint", checkpoint, "--data", data,
                "--variant", "all", "--out", str(out)) == 0
    assert "embedding_only  skipped" in capsys.readouterr().out
    assert set(json.loads((out / "ablation.json").read_text())) == {"text_only", "combination"}
    assert _run("ablate", "--checkpoint", checkpoint, "--data", data,
                "--variant", "embedding_only", "--out", str(tmp_path / "explicit")) == 2


def test_train_on_split_manifest_without_kind_exit_code(tmp_path, split_dir, capsys):
    path = split_dir / "split_manifest.json"
    meta = json.loads(path.read_text())
    del meta["kind"]
    path.write_text(json.dumps(meta))
    assert _run("train", "--data", str(split_dir), "--out", str(tmp_path / "t"),
                *FAST_TRAIN) == 2
    err = capsys.readouterr().err
    assert str(path) in err and "kind" in err


@pytest.mark.parametrize("key, value", [("seed", "1"), ("seed", 1.5), ("seed", True),
                                        ("kind", "annotatr"), ("kind", 0)])
def test_train_on_split_manifest_of_wrong_type_exit_code(tmp_path, split_dir, capsys, key,
                                                         value):
    path = split_dir / "split_manifest.json"
    meta = json.loads(path.read_text())
    meta[key] = value
    path.write_text(json.dumps(meta))
    out = tmp_path / "t"
    assert _run("train", "--data", str(split_dir), "--out", str(out), *FAST_TRAIN) == 2
    err = capsys.readouterr().err
    assert f"{path}: {key} must be" in err
    assert not (out / "checkpoint").exists()


def test_train_select_on_dev_without_dev_split_exit_code(tmp_path, split_dir, capsys,
                                                         monkeypatch):
    assert not (split_dir / "dev.jsonl").exists()

    def no_training(*args, **kwargs):
        raise AssertionError("trained before checking --select-on-dev")

    monkeypatch.setattr("annembed.trainer.train", no_training)
    out = tmp_path / "t"
    assert _run("train", "--data", str(split_dir), "--select-on-dev", "--out", str(out),
                *FAST_TRAIN) == 2
    err = capsys.readouterr().err
    assert "--select-on-dev" in err and "dev.jsonl" in err
    assert "(split with --kind annotation --dev-frac above 0)" in err
    assert not (out / "checkpoint").exists()


@pytest.mark.parametrize("content", ["[1, 2]", '{"options": "x"}'])
def test_config_that_is_not_an_object_exit_code(tmp_path, content, capsys):
    config = tmp_path / "config.json"
    config.write_text(content)
    assert _run("synth", "--config", str(config), "--out", str(tmp_path / "s")) == 2
    assert str(config) in capsys.readouterr().err


# the options of a train manifest recorded before the flags took their
# defaults from the config dataclasses
RECORDED_TRAIN_OPTIONS = {
    "batch_size": 16, "dropout": 0.1, "epochs": 1, "ffn_mult": 2, "heads": 2, "hidden": 8,
    "layers": 1, "lr": 0.003, "max_len": 12, "mode": "text_plus_both", "out": "train",
    "runs": 1, "seed": 2, "select_on_dev": False,
}


@pytest.mark.parametrize("key, value, message", [
    ("epochs", 1.5, "option epochs must be an integer, found 1.5"),
    ("dropout", None, "option dropout must be a finite number, found None"),
    ("epochz", 3, "train has no option 'epochz'"),
    ("select_on_dev", "yes", "option select_on_dev must be true or false, found 'yes'"),
    ("lr", True, "option lr must be a finite number, found True"),
    ("mode", "text_plus_all", "option mode must be one of ['text_only', "),
], ids=["float_epochs", "null_dropout", "unknown_key", "string_bool", "bool_lr", "bad_choice"])
def test_train_config_with_bad_option_exit_code(tmp_path, split_dir, capsys, key, value,
                                                message):
    config = tmp_path / "config.json"
    options = {**RECORDED_TRAIN_OPTIONS, "data": str(split_dir), key: value}
    config.write_text(json.dumps({"command": "train", "options": options}))
    out = tmp_path / "t"
    assert _run("train", "--config", str(config), "--out", str(out)) == 2
    assert f"{config}: {message}" in capsys.readouterr().err
    assert not out.exists()


def test_split_config_with_unknown_kind_exit_code(tmp_path, corpus_dir, capsys):
    # argparse checks a choice given as a flag, not one a manifest supplies
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"command": "split", "options": {
        "data": str(corpus_dir / "corpus.jsonl"), "kind": "annotatr"}}))
    assert _run("split", "--config", str(config), "--out", str(tmp_path / "s")) == 2
    assert f"{config}: option kind must be one of ['annotation', 'annotator']" \
        in capsys.readouterr().err


def test_report_config_with_an_input_that_is_no_string_exit_code(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"command": "report", "options": {"inputs": [1]}}))
    assert _run("report", "--config", str(config)) == 2
    assert capsys.readouterr().err == \
        f"error: {config}: option inputs[0] must be a string, found 1\n"


def test_every_config_field_is_a_flag():
    # a field no flag sets would be a setting that no run can record
    others = {synthgen.PopulationConfig: {"seed"}, TrainConfig: {"seed"},
              EncoderConfig: {"vocab_size"}}
    assert set(CONFIG_FLAGS) == set(others)
    for cls, flags in CONFIG_FLAGS.items():
        fields = [f.name for f in dataclasses.fields(cls)]
        assert sorted(fields) == sorted([*flags.values(), *others[cls]]), cls


def test_config_recorded_for_another_command_names_the_file(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text('{"command": "split", "options": {}}')
    assert _run("synth", "--config", str(config), "--out", str(tmp_path / "s")) == 2
    assert capsys.readouterr().err == \
        f"error: {config}: manifest was recorded for 'split', not 'synth'\n"


def test_bare_config_object_may_name_its_command(tmp_path):
    config = tmp_path / "config.json"
    config.write_text('{"command": "synth", "annotators": 3, "texts": 5, "labels": 2, '
                      '"vocab": 20}')
    out = tmp_path / "s"
    assert _run("synth", "--config", str(config), "--out", str(out)) == 0
    assert json.loads((out / "manifest.json").read_text())["options"]["annotators"] == 3


@pytest.mark.parametrize("options, message", [
    ({"bias": 1.5}, "option bias: bias_strength must lie in [0, 1]"),
    ({"labels": 1}, "option labels: n_labels must be at least 2"),
    ({"groups": 9}, "option annotators, groups: group_count must not exceed n_annotators"),
], ids=["bias", "labels", "groups"])
def test_synth_config_with_out_of_range_option_names_file_and_key(tmp_path, capsys, options,
                                                                  message):
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"annotators": 4, "texts": 5, "labels": 2, "vocab": 20,
                                  **options}))
    assert _run("synth", "--config", str(config), "--out", str(tmp_path / "s")) == 2
    assert f"{config}: {message}" in capsys.readouterr().err


def test_out_of_range_flag_over_a_config_does_not_blame_the_file(tmp_path, capsys):
    config = tmp_path / "c.json"
    config.write_text('{"annotators": 4, "texts": 5, "labels": 2, "vocab": 20, "bias": 0.5}')
    assert _run("synth", "--config", str(config), "--bias", "1.5",
                "--out", str(tmp_path / "s")) == 2
    err = capsys.readouterr().err
    assert "bias_strength must lie in [0, 1]" in err and str(config) not in err


@pytest.mark.parametrize("runs", ["0", "-3"])
def test_train_runs_below_one_exit_code(tmp_path, split_dir, capsys, runs):
    out = tmp_path / "t"
    assert _run("train", "--data", str(split_dir), "--runs", runs, "--out", str(out),
                *FAST_TRAIN) == 2
    assert f"--runs must be at least 1, got {runs}" in capsys.readouterr().err
    assert not (out / "checkpoint").exists()


def _write_recorded(path, command, options):
    # the bytes write_json gives a run manifest
    path.write_text(json.dumps({"command": command, "options": options},
                               sort_keys=True, indent=2) + "\n")


def test_recorded_manifests_replay_byte_identically(tmp_path, monkeypatch):
    # each manifest replays with no flag but --config and writes itself again,
    # byte for byte; the corpus digest is the one the recording run wrote
    monkeypatch.chdir(tmp_path)
    recorded = {
        "synth": {"annotators": 12, "bias": 0.8, "groups": 2, "labels": 12, "out": "synth",
                  "per_text": 8, "seed": 3, "texts": 60, "vocab": 60},
        "split": {"data": "synth/corpus.jsonl", "dev_frac": 0.0, "kind": "annotation",
                  "manifest": None, "out": "split", "seed": 1, "train_frac": 0.7},
        "train": {**RECORDED_TRAIN_OPTIONS, "data": "split"},
    }
    for command, options in recorded.items():
        config = tmp_path / f"{command}.json"
        _write_recorded(config, command, options)
        assert _run(command, "--config", str(config)) == 0
        assert (tmp_path / command / "manifest.json").read_bytes() == config.read_bytes()
    corpus = (tmp_path / "synth" / "corpus.jsonl").read_bytes()
    assert hashlib.sha256(corpus).hexdigest() == \
        "6d828b35912926fc9b3ed3fecdb6e306329895b09112f9ce99e029db850cddb2"
    assert _run("train", "--data", "split", "--mode", "text_plus_both", "--epochs", "1",
                "--batch-size", "16", "--lr", "3e-3", "--hidden", "8", "--layers", "1",
                "--heads", "2", "--max-len", "12", "--ffn-mult", "2", "--dropout", "0.1",
                "--seed", "2", "--out", "flags") == 0
    for fname in ("checkpoint/params.bin", "checkpoint/manifest.json", "report.json"):
        assert (tmp_path / "train" / fname).read_bytes() == \
            (tmp_path / "flags" / fname).read_bytes(), fname


def test_analyze_unknown_what_exit_code(tmp_path, corpus_dir, capsys):
    out = tmp_path / "analysis"
    assert _run("analyze", "--data", str(corpus_dir / "corpus.jsonl"),
                "--what", "stats,kapa", "--out", str(out)) == 2
    assert "kapa" in capsys.readouterr().err
    assert not (out / "stats.json").exists()


def test_train_with_zero_heads_exit_code(tmp_path, split_dir, capsys):
    assert _run("train", "--data", str(split_dir), "--out", str(tmp_path / "t"),
                *FAST_TRAIN, "--heads", "0") == 2
    assert "heads" in capsys.readouterr().err


def test_every_json_output_is_in_the_shared_format(tmp_path, corpus_dir, split_dir, train_dir):
    from annembed.corpus import write_json

    assert _run("eval", "--checkpoint", str(train_dir / "checkpoint"),
                "--data", str(split_dir / "test.jsonl"), "--out", str(tmp_path / "eval")) == 0
    assert _run("ablate", "--checkpoint", str(train_dir / "checkpoint"),
                "--data", str(split_dir / "test.jsonl"), "--out", str(tmp_path / "ablate")) == 0
    assert _run("analyze", "--data", str(corpus_dir / "corpus.jsonl"),
                "--checkpoint", str(train_dir / "checkpoint"), "--k", "2",
                "--min-overlap", "1", "--min-examples", "1",
                "--out", str(tmp_path / "analyze")) == 0
    written = sorted(p for p in tmp_path.rglob("*.json") if p.parent != tmp_path)
    names = {p.name for p in written}
    assert {"truth.json", "split_manifest.json", "report.json", "ablation.json",
            "kappa.json", "clusters.json"} <= names
    for path in written:
        again = tmp_path / "again.json"
        write_json(again, json.loads(path.read_text(encoding="utf-8")))
        assert path.read_bytes() == again.read_bytes(), path


# ---------------------------------------------------------------------------
# mutation properties: a recorded input with one key deleted, renamed or given
# a value of another JSON type makes the command exit 0 or 2, never raise;
# exit 2 names the file and the key


@pytest.fixture(scope="module")
def recorded_run(tmp_path_factory):
    """One tiny synth -> split -> train run, built once for the properties."""
    root = tmp_path_factory.mktemp("recorded")
    assert main(["synth", "--annotators", "3", "--texts", "12", "--labels", "2",
                 "--vocab", "12", "--per-text", "2", "--seed", "1",
                 "--out", str(root / "synth")]) == 0
    assert main(["split", "--data", str(root / "synth" / "corpus.jsonl"), "--seed", "1",
                 "--out", str(root / "split")]) == 0
    assert main(["train", "--data", str(root / "split"), "--epochs", "1", "--hidden", "8",
                 "--layers", "1", "--heads", "2", "--max-len", "12", "--ffn-mult", "2",
                 "--seed", "1", "--out", str(root / "train")]) == 0
    return root


def _mutations(value, huge=()):
    """Delete, rename, or replace with one value of each other JSON type: an
    int becomes the equal float, a float its integer part, and any other value
    a small int and a small float; each number of huge is a further value."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        numbers = [float(value) if isinstance(value, int) else int(value)]
    else:
        numbers = [1, 0.5]
    others = [v for v in ("x", True, None, [], {}) if type(v) is not type(value)]
    return ["delete", "rename"] + [("replace", v) for v in others + numbers + list(huge)]


def _mutate(obj: dict, key: str, mutation) -> None:
    value = obj.pop(key)
    if mutation == "rename":
        obj[key + "_renamed"] = value
    elif mutation != "delete":
        obj[key] = mutation[1]


def _cli(argv):
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    return code, err.getvalue()


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_mutated_synth_manifest_replays_or_exits_2(recorded_run, data):
    manifest = json.loads((recorded_run / "synth" / "manifest.json").read_text())
    options = manifest["options"]
    key = data.draw(st.sampled_from(sorted(options)))
    _mutate(options, key, data.draw(st.sampled_from(_mutations(options[key]))))
    work = Path(tempfile.mkdtemp(dir=recorded_run))
    config = work / "manifest.json"
    config.write_text(json.dumps(manifest))
    code, err = _cli(["synth", "--config", str(config), "--out", str(work / "out")])
    assert code in (0, 2)
    if code == 2:
        assert str(config) in err and key in err, err


# a synth option of 10**12 is a valid request that would take forever, so only
# the checkpoint, which load refuses before it allocates, gets these numbers
HUGE = (10 ** 12, 10 ** 400)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_mutated_checkpoint_config_loads_or_exits_2(recorded_run, data):
    """Every manifest key, and every field of its two configs."""
    _check_mutated_checkpoint(recorded_run, data, lambda manifest: None)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_mutated_format_1_checkpoint_loads_or_exits_2(recorded_run, data):
    """The same property for the manifest that format 1 wrote."""
    _check_mutated_checkpoint(recorded_run, data, to_format_1)


def _check_mutated_checkpoint(recorded_run, data, rewrite):
    """Mutate one key of the recorded manifest, rewritten in place by rewrite:
    eval exits 0 or 2, and 2 names the key; a manifest that loads is saved
    again, rewritten the same way, as it was."""
    source = recorded_run / "train" / "checkpoint"
    manifest = json.loads((source / "manifest.json").read_text())
    rewrite(manifest)
    section, key = data.draw(st.sampled_from(
        [(None, key) for key in sorted(manifest)]
        + [(name, key) for name in ("encoder_config", "train_config")
           for key in sorted(manifest[name])]))
    target = manifest if section is None else manifest[section]
    mutation = data.draw(st.sampled_from(_mutations(target[key], HUGE)))
    _mutate(target, key, mutation)
    work = Path(tempfile.mkdtemp(dir=recorded_run))
    checkpoint = work / "checkpoint"
    shutil.copytree(source, checkpoint)
    (checkpoint / "manifest.json").write_text(json.dumps(manifest))
    code, err = _cli(["eval", "--checkpoint", str(checkpoint),
                      "--data", str(recorded_run / "split" / "test.jsonl"),
                      "--out", str(work / "eval")])
    assert code in (0, 2)
    if code == 2:
        assert f"{checkpoint / 'manifest.json'}: " in err and key in err, err
    else:
        # load kept every value as it was: saved again, it records the mutation,
        # type included (True == 1 == 1.0 in Python, so the JSON texts are compared)
        save_checkpoint(load_checkpoint(checkpoint), work / "again")
        again = json.loads((work / "again" / "manifest.json").read_text())
        rewrite(again)
        assert json.dumps(again, sort_keys=True) == json.dumps(manifest, sort_keys=True)


# each declared record, and a file of it that the recorded run wrote
RECORDS = {"synth/corpus.manifest.json": DatasetManifest,
           "split/split_manifest.json": SplitManifest, "train/report.json": EvalReport,
           "train/checkpoint/manifest.json": CheckpointManifest}


def _key_paths(obj: dict, kind, prefix=""):
    """(keys, name) of every key of obj and of the objects nested in it, named
    as read_record names them: name.field in a record, name['key'] in a
    mapping. kind is obj's declared type, None below an undeclared key."""
    for key, value in obj.items():
        if is_dataclass(kind):
            name, child = (f"{prefix}.{key}" if prefix else key), get_type_hints(kind).get(key)
        else:
            name, child = f"{prefix}[{key!r}]", kind and get_args(kind)[-1]
        yield (key,), name
        if isinstance(value, dict):
            for keys, inner in _key_paths(value, child, name):
                yield (key, *keys), inner


def _at(obj: dict, keys):
    for key in keys:
        obj = obj[key]
    return obj


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_mutated_record_is_refused_by_key_path_or_written_back_as_is(recorded_run, data):
    """One key path of a recorded file of each record deleted, renamed, given
    a value of another JSON type, or given an unknown key beside it."""
    relative = data.draw(st.sampled_from(sorted(RECORDS)))
    path, cls = recorded_run / relative, RECORDS[relative]
    obj = json.loads(path.read_text(encoding="utf-8"))
    paths = dict(_key_paths(obj, cls))
    if data.draw(st.booleans()):
        keys = data.draw(st.sampled_from(
            [()] + [keys for keys in paths if isinstance(_at(obj, keys), dict)]))
        _at(obj, keys)["unknown"] = 1
        keys += ("unknown",)
    else:
        keys = data.draw(st.sampled_from(list(paths)))
        parent = _at(obj, keys[:-1])
        _mutate(parent, keys[-1], data.draw(st.sampled_from(_mutations(parent[keys[-1]]))))
    # the mutated key path and each of its ancestors, as read_record names them
    named = {**paths, **dict(_key_paths(obj, cls))}
    names = [named[keys[:i]] for i in range(1, len(keys) + 1)]
    work = Path(tempfile.mkdtemp(dir=recorded_run))
    mutated = work / path.name
    mutated.write_text(json.dumps(obj), encoding="utf-8")
    try:
        record = read_record(mutated, cls)
    except CorpusError as err:
        assert any(str(err).startswith(f"{mutated}: {name} ") for name in names), (names, err)
    else:
        # read_record kept every value as it was, type included
        write_json(work / "record.json", record)
        write_json(work / "mutated.json", obj)
        assert (work / "record.json").read_text() == (work / "mutated.json").read_text()


# what a mutated JSONL line becomes: another value for a key, another text
# for an example id that other lines repeat, another dict for an annotator,
# or demographics that map no strings to strings
OTHER_TEXTS = ["another text", "", "w001 ü w001"]
OTHER_DEMOGRAPHICS = [{"cohort": "elsewhere"}, {}, {"b": "2", "a": "1"}]
BAD_DEMOGRAPHICS = ["x", 1, 0.5, True, [], [["a", "b"]], {"a": 1}, {"a": None}]


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_mutated_corpus_line_splits_trains_or_exits_2(recorded_run, data):
    """One line of the recorded corpus or of a recorded split part: a key
    deleted, renamed or given a value of another JSON type, a repeated
    example id given another text, or an annotator given another demographics
    dict or demographics that are no such dict. split of the corpus or train
    on the split exits 0 or 2; a key fault or bad demographics exit 2 naming
    the line, the other mutations break no rule and exit 0, and the parts
    that split writes reload to the mutated records."""
    target = data.draw(st.sampled_from(["synth/corpus.jsonl", "split/train.jsonl",
                                        "split/test.jsonl"]))
    lines = (recorded_run / target).read_text(encoding="utf-8").splitlines()
    records = [json.loads(line) for line in lines]
    ids = [record["example_id"] for record in records]
    repeated = [i for i, eid in enumerate(ids) if ids.count(eid) > 1]
    kind = data.draw(st.sampled_from(["key", "demographics", "bad_demographics"]
                                     + (["text"] if repeated else [])))
    i = data.draw(st.sampled_from(repeated) if kind == "text" else
                  st.integers(0, len(records) - 1))
    record = records[i]
    if kind == "key":
        key = data.draw(st.sampled_from(sorted(record)))
        _mutate(record, key, data.draw(st.sampled_from(_mutations(record[key]))))
    elif kind == "text":
        record["text"] = data.draw(st.sampled_from(OTHER_TEXTS))
    else:
        record["demographics"] = data.draw(st.sampled_from(
            OTHER_DEMOGRAPHICS if kind == "demographics" else BAD_DEMOGRAPHICS))
    mutated = "".join(json.dumps(record, ensure_ascii=False) + "\n" for record in records)
    work = Path(tempfile.mkdtemp(dir=recorded_run))
    if target.startswith("synth/"):
        shutil.copy(recorded_run / "synth" / "corpus.manifest.json", work)
        (work / "corpus.jsonl").write_text(mutated, encoding="utf-8")
        argv = ["split", "--data", str(work / "corpus.jsonl"), "--seed", "1",
                "--out", str(work / "split")]
    else:
        shutil.copytree(recorded_run / "split", work / "parts")
        (work / target.replace("split/", "parts/")).write_text(mutated, encoding="utf-8")
        argv = ["train", "--data", str(work / "parts"), "--epochs", "1", "--hidden", "8",
                "--layers", "1", "--heads", "2", "--max-len", "12", "--ffn-mult", "2",
                "--seed", "1", "--out", str(work / "train")]
    code, err = _cli(argv)
    assert code == (2 if kind in ("key", "bad_demographics") else 0), err
    if code == 2:
        assert f"error: line {i + 1}: " in err, err
    elif argv[0] == "split":
        labels = read_record(work / "corpus.manifest.json", DatasetManifest).label_names
        reloaded = []
        for part in ("train", "test"):
            for ex in load_dataset(work / "split" / f"{part}.jsonl", labels).examples:
                reloaded.append({"example_id": ex.example_id, "text": ex.text,
                                 "annotator_id": ex.annotator_id, "label": labels[ex.label]})
                if ex.demographics is not None:
                    reloaded[-1]["demographics"] = ex.demographics
        assert sorted(map(_canonical, reloaded)) == sorted(map(_canonical, records))


def _canonical(record: dict) -> str:
    return json.dumps(record, sort_keys=True)


@pytest.mark.parametrize("field, value", [("max_len", 10 ** 12), ("ffn_mult", 10 ** 9),
                                          ("layers", 10 ** 5), ("vocab_size", 10 ** 8)])
def test_checkpoint_declaring_a_huge_model_is_refused_before_it_allocates(
        recorded_run, tmp_path, capsys, field, value):
    checkpoint = tmp_path / "checkpoint"
    shutil.copytree(recorded_run / "train" / "checkpoint", checkpoint)
    manifest = json.loads((checkpoint / "manifest.json").read_text())
    manifest["encoder_config"][field] = value
    (checkpoint / "manifest.json").write_text(json.dumps(manifest))
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=re.escape(f"{checkpoint / 'manifest.json'}: ")):
            load_checkpoint(checkpoint)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5e6
    assert _run("eval", "--checkpoint", str(checkpoint),
                "--data", str(recorded_run / "split" / "test.jsonl"),
                "--out", str(tmp_path / "eval")) == 2
    assert field in capsys.readouterr().err


def test_eval_of_checkpoint_with_a_count_too_large_for_a_float_exits_2(recorded_run, tmp_path,
                                                                       capsys):
    checkpoint = tmp_path / "checkpoint"
    shutil.copytree(recorded_run / "train" / "checkpoint", checkpoint)
    manifest = json.loads((checkpoint / "manifest.json").read_text())
    annotator = sorted(manifest["train_counts"])[0]
    manifest["train_counts"][annotator][0] = 10 ** 400
    (checkpoint / "manifest.json").write_text(json.dumps(manifest))
    assert _run("eval", "--checkpoint", str(checkpoint),
                "--data", str(recorded_run / "split" / "test.jsonl"),
                "--out", str(tmp_path / "eval")) == 2
    err = capsys.readouterr().err
    assert f"{checkpoint / 'manifest.json'}: train_counts[{annotator!r}][0] must be" in err, err


# runs the pipeline in a fresh interpreter where every scipy import fails
_WITHOUT_SCIPY = """
import importlib.abc
import sys


class BlockScipy(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] == "scipy":
            raise ImportError(f"{name} is blocked")
        return None


sys.meta_path.insert(0, BlockScipy())
try:
    import scipy.special  # noqa: F401
except ImportError:
    pass
else:
    sys.exit("scipy was not blocked")

from annembed import tensor
from annembed.cli import main

train = sys.argv[1:]
codes = [
    main(["synth", "--out", "synth", "--annotators", "4", "--texts", "24", "--labels", "3",
          "--seed", "3", "--vocab", "30"]),
    main(["split", "--data", "synth/corpus.jsonl", "--seed", "1", "--out", "split"]),
]
# set-up never builds the CDF table; the first gelu of training does
codes.append(tensor._cdf_table.cache_info().currsize)
codes += [
    main(["train", "--data", "split", *train, "--seed", "2", "--out", "train"]),
    main(["eval", "--checkpoint", "train/checkpoint", "--data", "split/test.jsonl",
          "--out", "eval"]),
    main(["ablate", "--checkpoint", "train/checkpoint", "--data", "split/test.jsonl",
          "--variant", "all", "--out", "ablate"]),
]
print(codes, sorted(name for name in sys.modules if name.partition(".")[0] == "scipy"))
"""


def test_pipeline_runs_without_scipy(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(Path(annembed.__file__).parents[1]))
    env.pop("ANNEMBED_OUT", None)
    done = subprocess.run([sys.executable, "-c", _WITHOUT_SCIPY, *FAST_TRAIN], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split("\n")[-2] == "[0, 0, 0, 0, 0, 0] []"
    assert (tmp_path / "eval" / "report.json").exists()
