"""Run every annembed command on tiny synthetic corpora and keep all outputs.

    python scripts/cli_tree.py <new dir>

Each command runs as `python -m annembed.cli` against this checkout's own
`src/`, with the new directory as working directory and relative paths inside
it, so that trees made from two checkouts can be compared with `diff -r`. The
stdout, stderr and exit code of each command go to `_log/<step>.out`, `.err`
and `.code`. The bad inputs at the end are expected to exit 2. Besides the
synthetic corpora, the script writes four small corpora by hand: `quoted/`,
whose annotator ids and a label name hold a comma or a quote, `edge/`, whose
JSONL has blank and whitespace-only lines, CRLF line ends, lines padded with
no-break spaces, repeated demographics and non-ASCII text,
`string_labels/`, whose manifest gives `label_names` as one string, and
`surrogate/`, whose JSONL holds a lone surrogate as a JSON escape. After
training it copies one checkpoint to `huge_max_len/`, with `max_len` 10**12
in its manifest, the split `split_a/` to `split_seed_string/`, whose
`split_manifest.json` has `seed` "1", and one `report.json` to
`report_confusion_3/`, whose `confusion` is 3. Each of the four persisted
records (dataset manifest, split manifest, checkpoint manifest, report) thus
has one bad copy, read by an exit-2 step. Two more exit-2 steps read
`format_1/`, a copy of the same checkpoint whose manifest has
`format_version` 1, by `eval`, and `split_stale_dev/`, a copy of `split_a/`
with `split_dev/dev.jsonl` placed beside its `counts`, whose `dev` is 0, by
`train`.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
MODES = ("text_only", "text_plus_annotation", "text_plus_annotator", "text_plus_both")
TINY = ["--epochs", "1", "--batch-size", "16", "--lr", "3e-3", "--hidden", "8",
        "--layers", "1", "--heads", "2", "--max-len", "12", "--ffn-mult", "2",
        "--dropout", "0.1"]
# 12 labels and k=11 make histogram and cluster keys reach two digits, where
# string and integer key order differ
SYNTH = ["--annotators", "12", "--texts", "60", "--labels", "12", "--vocab", "60",
         "--bias", "0.8", "--per-text", "8", "--seed", "3"]

# every CSV cell that holds one of these names must come back quoted
QUOTED_ANNOTATORS = ["a,1", 'b"2', 'c,"3"', "d"]
QUOTED_LABELS = ["no", "yes, mostly"]


def write_quoted_corpus(tree):
    """12 texts, each labeled by all four annotators at their own rates."""
    os.makedirs(os.path.join(tree, "quoted"))
    with open(os.path.join(tree, "quoted", "corpus.jsonl"), "w", encoding="utf-8") as fh:
        for t in range(12):
            for k, ann in enumerate(QUOTED_ANNOTATORS):
                label = QUOTED_LABELS[(t * (k + 2)) // 5 % 2]
                fh.write(json.dumps({"annotator_id": ann, "example_id": f"t{t}",
                                     "label": label, "text": f"text {t}"}) + "\n")
    with open(os.path.join(tree, "quoted", "corpus.manifest.json"), "w",
              encoding="utf-8") as fh:
        json.dump({"label_names": QUOTED_LABELS, "name": "quoted"}, fh)


EDGE_ANNOTATORS = {"ann-é": {"région": "nord"}, "ann-日": {"région": "sud"},
                   "ann-3": {"région": "nord"}, "ann-4": {"région": "sud"}}
EDGE_LABELS = ["non", "oui"]


def write_edge_corpus(tree):
    """10 texts, each labeled by all four annotators; the line ends, padding
    and blank lines vary by line, and load_dataset must read past all of them."""
    os.makedirs(os.path.join(tree, "edge"))
    with open(os.path.join(tree, "edge", "corpus.jsonl"), "w", encoding="utf-8",
              newline="") as fh:
        for t in range(10):
            for k, (ann, demo) in enumerate(EDGE_ANNOTATORS.items()):
                record = {"annotator_id": ann, "demographics": demo, "example_id": f"t{t}",
                          "label": EDGE_LABELS[(t * (k + 1)) // 3 % 2],
                          "text": f"texte {t} café 日本 ✓"}
                pad = "\u00a0" if (t + k) % 3 == 0 else ""
                end = "\r\n" if (t + k) % 2 else "\n"
                fh.write(pad + json.dumps(record, ensure_ascii=False) + pad + end)
            fh.write(("", "\n", " \t\r\n", "\u00a0\n")[t % 4])
    with open(os.path.join(tree, "edge", "corpus.manifest.json"), "w", encoding="utf-8") as fh:
        json.dump({"label_names": EDGE_LABELS, "name": "edge"}, fh)


def write_string_labels_corpus(tree):
    """Labels a and b, under a manifest whose label_names is the string "ab"."""
    os.makedirs(os.path.join(tree, "string_labels"))
    with open(os.path.join(tree, "string_labels", "corpus.jsonl"), "w",
              encoding="utf-8") as fh:
        for t in range(4):
            for k, ann in enumerate(("p", "q")):
                fh.write(json.dumps({"annotator_id": ann, "example_id": f"t{t}",
                                     "label": "ab"[(t + k) % 2], "text": f"text {t}"}) + "\n")
    with open(os.path.join(tree, "string_labels", "corpus.manifest.json"), "w",
              encoding="utf-8") as fh:
        json.dump({"label_names": "ab", "name": "string_labels"}, fh)


def write_surrogate_corpus(tree):
    """Two annotators on four texts; the last text holds the escape \\ud800,
    a lone surrogate, which UTF-8 cannot encode and load_dataset refuses."""
    os.makedirs(os.path.join(tree, "surrogate"))
    with open(os.path.join(tree, "surrogate", "corpus.jsonl"), "w", encoding="utf-8") as fh:
        for t in range(4):
            for k, ann in enumerate(("p", "q")):
                text = "text \ud800" if t == 3 else f"text {t}"
                fh.write(json.dumps({"annotator_id": ann, "example_id": f"t{t}",
                                     "label": "ab"[(t + k) % 2], "text": text}) + "\n")
    with open(os.path.join(tree, "surrogate", "corpus.manifest.json"), "w",
              encoding="utf-8") as fh:
        json.dump({"label_names": ["a", "b"], "name": "surrogate"}, fh)


def _edit_json(path, edit):
    with open(path, encoding="utf-8") as fh:
        obj = json.load(fh)
    edit(obj)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)


def write_huge_max_len_checkpoint(tree):
    """A copy of the text_plus_both checkpoint whose manifest declares max_len
    10**12, which load must refuse before it allocates the position table."""
    target = os.path.join(tree, "huge_max_len")
    shutil.copytree(os.path.join(tree, "train_text_plus_both", "checkpoint"), target)
    _edit_json(os.path.join(target, "manifest.json"),
               lambda m: m["encoder_config"].update(max_len=10 ** 12))


def write_bad_split_and_report(tree):
    """split_a with seed "1" in its split_manifest.json, and a report.json
    whose confusion is 3."""
    target = os.path.join(tree, "split_seed_string")
    shutil.copytree(os.path.join(tree, "split_a"), target)
    _edit_json(os.path.join(target, "split_manifest.json"), lambda m: m.update(seed="1"))
    os.makedirs(os.path.join(tree, "report_confusion_3"))
    report = os.path.join(tree, "report_confusion_3", "report.json")
    shutil.copyfile(os.path.join(tree, "eval_seen", "report.json"), report)
    _edit_json(report, lambda r: r.update(confusion=3))


def write_format_1_and_stale_dev(tree):
    """The checkpoint of write_huge_max_len_checkpoint with format_version 1,
    and split_a with the dev part of split_dev."""
    target = os.path.join(tree, "format_1")
    shutil.copytree(os.path.join(tree, "train_text_plus_both", "checkpoint"), target)
    _edit_json(os.path.join(target, "manifest.json"), lambda m: m.update(format_version=1))
    target = os.path.join(tree, "split_stale_dev")
    shutil.copytree(os.path.join(tree, "split_a"), target)
    shutil.copyfile(os.path.join(tree, "split_dev", "dev.jsonl"),
                    os.path.join(target, "dev.jsonl"))


def steps(tree):
    """Each step's name and arguments. main runs a step before it asks for the
    next, so the code between two steps may read what the earlier ones wrote."""
    yield "synth", ["synth", *SYNTH, "--groups", "2", "--out", "synth"]
    yield "synth_wide", ["synth", "--annotators", "16", "--texts", "30", "--labels", "12",
                         "--vocab", "60", "--bias", "1.0", "--seed", "5", "--out", "synth_wide"]
    data = ["--data", "synth/corpus.jsonl"]
    yield "split_a", ["split", *data, "--seed", "1", "--out", "split_a"]
    yield "split_dev", ["split", *data, "--seed", "1", "--dev-frac", "0.2", "--out", "split_dev"]
    yield "split_u", ["split", *data, "--kind", "annotator", "--seed", "1", "--out", "split_u"]
    for mode in MODES:
        yield f"train_{mode}", ["train", "--data", "split_a", "--mode", mode, *TINY,
                                "--seed", "2", "--out", f"train_{mode}"]
    yield "train_runs", ["train", "--data", "split_dev", *TINY, "--runs", "2",
                         "--select-on-dev", "--seed", "4", "--out", "train_runs"]
    yield "train_replay", ["train", "--config", "train_text_plus_both/manifest.json",
                           "--out", "train_replay"]
    yield "train_u", ["train", "--data", "split_u", *TINY, "--seed", "2", "--out", "train_u"]
    yield "eval_seen", ["eval", "--checkpoint", "train_text_plus_both/checkpoint",
                        "--data", "split_a/test.jsonl", "--out", "eval_seen"]
    yield "eval_unseen", ["eval", "--checkpoint", "train_u/checkpoint",
                          "--data", "split_u/test.jsonl", "--out", "eval_unseen"]
    yield "eval_drop_unseen", ["eval", "--checkpoint", "train_u/checkpoint",
                               *data, "--drop-unseen", "--out", "eval_drop_unseen"]
    for mode in MODES:
        yield f"ablate_{mode}", ["ablate", "--checkpoint", f"train_{mode}/checkpoint",
                                 "--data", "split_a/test.jsonl", "--variant", "all",
                                 "--out", f"ablate_{mode}"]
    # the annotation run leaves some kappas undefined (overlap below 25); the
    # annotator run keeps the defaults, under which no annotator qualifies
    # for label correlation
    model = ["--checkpoint", "train_text_plus_both/checkpoint", "--what", "all", "--k", "11"]
    yield "analyze_annotation", ["analyze", *data, *model, "--embedding", "annotation",
                                 "--min-overlap", "25", "--min-examples", "10",
                                 "--out", "analyze_annotation"]
    yield "analyze_annotator", ["analyze", *data, *model, "--embedding", "annotator",
                                "--out", "analyze_annotator"]
    yield "analyze_wide", ["analyze", "--data", "synth_wide/corpus.jsonl",
                           "--what", "stats,kappa,correlation", "--min-examples", "10",
                           "--out", "analyze_wide"]
    yield "analyze_quoted", ["analyze", "--data", "quoted/corpus.jsonl",
                             "--what", "kappa,correlation", "--min-overlap", "5",
                             "--min-examples", "5", "--out", "analyze_quoted"]
    yield "split_edge", ["split", "--data", "edge/corpus.jsonl", "--seed", "1",
                         "--out", "split_edge"]
    yield "analyze_edge", ["analyze", "--data", "edge/corpus.jsonl",
                           "--what", "stats,kappa,correlation", "--min-overlap", "5",
                           "--min-examples", "5", "--out", "analyze_edge"]
    yield "baselines", ["baselines", "--data", "split_a/test.jsonl",
                        "--manifest", "split_a/schema.manifest.json",
                        "--majority-from", "split_a/train.jsonl", "--out", "baselines"]
    yield "report", ["report", "train_text_plus_both/report.json", "eval_seen/report.json",
                     "--out", "report"]
    yield "bad_what", ["analyze", *data, "--what", "stats,kapa", "--out", "bad_what"]
    yield "bad_heads", ["train", "--data", "split_a", *TINY, "--heads", "0",
                        "--out", "bad_heads"]
    yield "bad_select_on_dev", ["train", "--data", "split_a", *TINY, "--select-on-dev",
                                "--out", "bad_select_on_dev"]
    yield "bad_embedding", ["analyze", *data, "--checkpoint", "train_text_only/checkpoint",
                            "--what", "cluster", "--embedding", "annotator",
                            "--out", "bad_embedding"]
    yield "bad_label_names", ["analyze", "--data", "string_labels/corpus.jsonl",
                              "--what", "stats", "--out", "bad_label_names"]
    yield "bad_surrogate", ["split", "--data", "surrogate/corpus.jsonl", "--seed", "1",
                            "--out", "bad_surrogate"]
    yield "bad_data_dir", ["eval", "--checkpoint", "train_text_plus_both/checkpoint",
                           "--data", "split_a", "--out", "bad_data_dir"]
    write_huge_max_len_checkpoint(tree)
    yield "bad_max_len", ["eval", "--checkpoint", "huge_max_len", "--data", "split_a/test.jsonl",
                          "--out", "bad_max_len"]
    write_bad_split_and_report(tree)
    yield "bad_split_manifest", ["train", "--data", "split_seed_string", *TINY,
                                 "--out", "bad_split_manifest"]
    yield "bad_report", ["report", "report_confusion_3/report.json", "--out", "bad_report"]
    write_format_1_and_stale_dev(tree)
    yield "bad_format_version", ["eval", "--checkpoint", "format_1",
                                 "--data", "split_a/test.jsonl", "--out", "bad_format_version"]
    yield "bad_stale_dev", ["train", "--data", "split_stale_dev", *TINY,
                            "--out", "bad_stale_dev"]


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    tree = argv[1]
    os.makedirs(os.path.join(tree, "_log"))
    write_quoted_corpus(tree)
    write_edge_corpus(tree)
    write_string_labels_corpus(tree)
    write_surrogate_corpus(tree)
    env = {key: value for key, value in os.environ.items() if key != "ANNEMBED_OUT"}
    env.update(PYTHONPATH=SRC, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    for name, args in steps(tree):
        done = subprocess.run([sys.executable, "-m", "annembed.cli", *args], cwd=tree,
                              env=env, capture_output=True, text=True)
        log = os.path.join(tree, "_log", name)
        for suffix, text in ((".out", done.stdout), (".err", done.stderr),
                             (".code", f"{done.returncode}\n")):
            with open(log + suffix, "w", encoding="utf-8") as fh:
                fh.write(text)
        print(f"{name:24s} exit {done.returncode}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
