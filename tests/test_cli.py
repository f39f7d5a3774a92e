import json
import os

import pytest

from annembed.cli import main

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
