"""The benchmark's workloads: set-up, one operation, and the gate that checks
the operation's outputs.

Every input is generated from the run's seed through the public `synthgen`
API. An operation returns two timed stages:

- training workloads: stage 1 is `trainer.train` for a fixed number of
  epochs, stage 2 is `trainer.evaluate` of the checkpoint reloaded from
  disk (save and load are timed only as part of the whole operation);
- `crowd`: stage 1 is `annembed split`, stage 2 is `annembed analyze`,
  both run in-process through `cli.main`.

The gates compare the program with itself or with a brute-force recount,
never with stored numbers, so they hold under reordered arithmetic.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import time
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from annembed import cli, corpus, encoder, synthgen, trainer
from annembed.embedding import CombinationMode

from .tracer import COUNT_NAMES, SPAN_NAMES

TRAIN_FRAC = 0.7
CHECKED_LOGIT_ROWS = 32
KAPPA_TOLERANCE = 1e-9


@dataclass
class OpResult:
    stage1_ann: int
    stage1_s: float
    stage2_ann: int
    stage2_s: float
    wall_s: float
    outputs: dict = field(default_factory=dict)


@dataclass
class GateResult:
    problems: list[str]
    observations: dict[str, float] = field(default_factory=dict)


def _zero_table() -> dict[str, int]:
    return {name: 0 for name in SPAN_NAMES + COUNT_NAMES if name != "tensor.Node"}


class TrainingWorkload:
    """Train for a fixed number of epochs, save and reload the checkpoint,
    then evaluate the reloaded model on the test split."""

    def __init__(self, population: dict, encoder_config: dict, train_config: dict,
                 epochs: int, warmup_train: int):
        self.population = population
        self.encoder_config = encoder_config
        self.train_config = dict(train_config, epochs=epochs)
        self.epochs = epochs
        self.warmup_train = warmup_train
        self.mode = CombinationMode(train_config["mode"])
        # text_only hands the token embeddings through combine untouched
        self.combine_builds_nodes = self.mode != CombinationMode.TEXT_ONLY

    def setup(self, seed: int, workdir: str) -> dict:
        dataset, _ = synthgen.generate_population(
            synthgen.PopulationConfig(seed=seed, **self.population))
        split = corpus.make_annotation_split(dataset, TRAIN_FRAC, seed)
        return {"seed": seed, "split": split}

    def operation(self, state: dict, opdir: str) -> OpResult:
        split = state["split"]
        cfg = trainer.TrainConfig(seed=state["seed"], **self.train_config)
        t0 = time.perf_counter()
        model, losses = trainer.train(split, cfg, encoder.EncoderConfig(**self.encoder_config))
        t1 = time.perf_counter()
        checkpoint = os.path.join(opdir, "checkpoint")
        trainer.save_checkpoint(model, checkpoint)
        reloaded = trainer.load_checkpoint(checkpoint)
        t2 = time.perf_counter()
        report = trainer.evaluate(reloaded, split.test)
        t3 = time.perf_counter()
        return OpResult(
            stage1_ann=self.epochs * len(split.train), stage1_s=t1 - t0,
            stage2_ann=len(split.test), stage2_s=t3 - t2, wall_s=t3 - t0,
            outputs={"model": model, "reloaded": reloaded, "losses": losses, "report": report},
        )

    def warmup(self, state: dict, opdir: str) -> None:
        """One operation on a slice of the same split, untimed."""
        split = state["split"]
        train = split.train.examples[:self.warmup_train]
        seen = {ex.annotator_id for ex in train}
        test = [ex for ex in split.test.examples if ex.annotator_id in seen]
        test = test[:self.warmup_train // 4]
        labels = split.train.label_names
        small = corpus.Split(train=corpus.Dataset.from_examples(train, labels, "warmup-train"),
                             test=corpus.Dataset.from_examples(test, labels, "warmup-test"))
        self.operation({"seed": state["seed"], "split": small}, opdir)

    def gate(self, state: dict, result: OpResult, op_index: int) -> GateResult:
        split = state["split"]
        out = result.outputs
        problems = []
        losses = out["losses"]
        if not losses or not all(math.isfinite(x) for x in losses):
            problems.append("loss trace is empty or not finite")
        model, reloaded = out["model"], out["reloaded"]
        for ex in split.test.examples[:CHECKED_LOGIT_ROWS]:
            ids = encoder.tokenize(ex.text, model.vocab, model.encoder_config.max_len)
            logits = []
            for m in (model, reloaded):
                coeff = m.test_coefficients(ex.annotator_id) if m.mode.uses_annotation else None
                logits.append(m.forward(ids, ex.annotator_id, coeff).value)
            if not np.array_equal(logits[0], logits[1]):
                problems.append(f"reloaded logits differ from in-memory logits on {ex.example_id}")
                break
        report = out["report"]
        if report.n_annotations != len(split.test):
            problems.append(f"evaluated {report.n_annotations} of {len(split.test)} annotations")
        totals = np.bincount([ex.label for ex in split.train.examples],
                             minlength=split.train.n_labels)
        majority = int(np.argmax(totals))
        majority_em = float(np.mean([ex.label == majority for ex in split.test.examples]))
        if not report.em_accuracy > majority_em:
            problems.append(f"test EM {report.em_accuracy:.4f} does not beat the "
                            f"majority baseline {majority_em:.4f}")
        return GateResult(problems, {"test_em": report.em_accuracy})

    def expected_calls(self, state: dict) -> dict[str, int]:
        """Exact calls per operation for every traced function and primitive."""
        split = state["split"]
        n_train, n_test = len(split.train), len(split.test)
        seen = self.epochs * n_train
        steps = self.epochs * math.ceil(n_train / self.train_config["batch_size"])
        forward = seen + n_test
        table = _zero_table()
        table.update({
            "trainer.train": 1, "trainer.evaluate": 1,
            "trainer.save_checkpoint": 1, "trainer.load_checkpoint": 1,
            "trainer.Adam.step": steps, "tensor.backward": steps,
            "encoder.tokenize": n_train + n_test,
            "encoder.embed_tokens": forward, "encoder.encode": forward,
            "encoder.classify": forward, "embedding.combine": forward,
            "encoder.classification_loss": seen,
            "embedding.AnnotationIndex.train_coefficients":
                n_train if self.mode.uses_annotation else 0,
            "tensor.softmax_cross_entropy": seen,
        })
        positive = ["matmul", "add", "gather_rows", "layer_norm", "row_softmax", "gelu",
                    "dropout", "scalar_scale", "transpose", "concat_rows"]
        if self.mode != CombinationMode.TEXT_ONLY:
            positive += ["scalar_mul", "row_mean"]
        for name in positive:
            table[f"tensor.{name}"] = None     # some, count not fixed here
        return table


class CrowdWorkload:
    """`annembed split` and `annembed analyze --what all` on a large crowd,
    in-process through `cli.main`."""

    combine_builds_nodes = False

    def __init__(self, population: dict, k: int, checkpoint_encoder: dict):
        self.population = population
        self.k = k
        self.checkpoint_encoder = checkpoint_encoder

    def setup(self, seed: int, workdir: str) -> dict:
        """Write the corpus and an untrained checkpoint whose per-annotator
        training label counts come from the same annotation split the
        operation writes."""
        os.makedirs(workdir, exist_ok=True)
        dataset, _ = synthgen.generate_population(
            synthgen.PopulationConfig(seed=seed, **self.population))
        corpus_path = os.path.join(workdir, "corpus.jsonl")
        corpus.write_dataset(dataset, corpus_path)
        corpus.write_manifest(dataset, os.path.join(workdir, "corpus.manifest.json"))
        split = corpus.make_annotation_split(dataset, TRAIN_FRAC, seed)
        vocab = encoder.Vocabulary.build(ex.text for ex in split.train.examples)
        model = trainer.Model(
            encoder.EncoderConfig(vocab_size=vocab.size, **self.checkpoint_encoder),
            trainer.TrainConfig(seed=seed), vocab, dataset.label_names,
            split.train.annotator_ids, seed)
        counts: dict[str, np.ndarray] = {}
        for ex in split.train.examples:
            counts.setdefault(ex.annotator_id, np.zeros(dataset.n_labels))[ex.label] += 1.0
        model.train_counts = counts
        model.train_label_totals = sum(counts.values())
        checkpoint = os.path.join(workdir, "checkpoint")
        trainer.save_checkpoint(model, checkpoint)
        return {"seed": seed, "dataset": dataset, "split": split,
                "corpus": corpus_path, "checkpoint": checkpoint}

    def operation(self, state: dict, opdir: str) -> OpResult:
        seed = str(state["seed"])
        split_args = ["split", "--data", state["corpus"], "--kind", "annotation",
                      "--train-frac", str(TRAIN_FRAC), "--seed", seed,
                      "--out", os.path.join(opdir, "split")]
        analyze_args = ["analyze", "--data", state["corpus"], "--checkpoint", state["checkpoint"],
                        "--what", "all", "--k", str(self.k), "--seed", seed,
                        "--out", os.path.join(opdir, "analysis")]
        n = len(state["dataset"])
        with contextlib.redirect_stdout(io.StringIO()):
            t0 = time.perf_counter()
            split_rc = cli.main(split_args)
            t1 = time.perf_counter()
            analyze_rc = cli.main(analyze_args)
            t2 = time.perf_counter()
        return OpResult(stage1_ann=n, stage1_s=t1 - t0, stage2_ann=n, stage2_s=t2 - t1,
                        wall_s=t2 - t0,
                        outputs={"split_rc": split_rc, "analyze_rc": analyze_rc, "dir": opdir})

    def warmup(self, state: dict, opdir: str) -> None:
        self.operation(state, opdir)

    def gate(self, state: dict, result: OpResult, op_index: int) -> GateResult:
        out = result.outputs
        if out["split_rc"] != 0 or out["analyze_rc"] != 0:
            return GateResult([f"cli exit codes split={out['split_rc']} "
                               f"analyze={out['analyze_rc']}"])
        problems = self._check_split(state, os.path.join(out["dir"], "split"))
        analysis_dir = os.path.join(out["dir"], "analysis")
        problems += self._check_kappa(state, analysis_dir, op_index)
        with open(os.path.join(analysis_dir, "clusters.json"), encoding="utf-8") as fh:
            clusters = json.load(fh)
        trace = clusters["sse_trace"]
        if not trace or any(b > a * (1 + 1e-12) + 1e-12 for a, b in zip(trace, trace[1:])):
            problems.append(f"k-means SSE trace increases: {trace}")
        for name in ("stats.json", "label_correlation.json", "projection.csv", "alignment.json"):
            if not os.path.isfile(os.path.join(analysis_dir, name)):
                problems.append(f"analyze wrote no {name}")
        return GateResult(problems, {"kmeans_iterations": clusters["n_iterations"]})

    @staticmethod
    def _check_split(state: dict, split_dir: str) -> list[str]:
        problems = []
        expected = state["split"]
        labels = state["dataset"].label_names
        for part in ("train", "test"):
            loaded = corpus.load_dataset(os.path.join(split_dir, f"{part}.jsonl"), labels)
            if loaded.examples != getattr(expected, part).examples:
                problems.append(f"{part}.jsonl does not reload to the expected records")
        with open(os.path.join(split_dir, "split_manifest.json"), encoding="utf-8") as fh:
            counts = json.load(fh)["counts"]
        want = {"train": len(expected.train), "dev": 0, "test": len(expected.test)}
        if counts != want:
            problems.append(f"split counts {counts} != {want}")
        return problems

    @staticmethod
    def _check_kappa(state: dict, analysis_dir: str, op_index: int) -> list[str]:
        with open(os.path.join(analysis_dir, "kappa.json"), encoding="utf-8") as fh:
            kappa = json.load(fh)
        values, co_counts, ids = kappa["values"], kappa["co_counts"], kappa["annotator_ids"]
        n = len(ids)
        if any(values[i][i] != 1.0 for i in range(n)):
            return ["kappa diagonal is not 1"]
        defined = []
        for i in range(n):
            for j in range(i + 1, n):
                if values[i][j] != values[j][i] or co_counts[i][j] != co_counts[j][i]:
                    return [f"kappa matrix is not symmetric at ({ids[i]}, {ids[j]})"]
                if values[i][j] is not None:
                    defined.append((i, j))
        if not defined:
            return ["no annotator pair has a defined kappa"]
        i, j = random.Random(state["seed"] * 1000 + op_index).choice(defined)
        recount = brute_force_kappa(state["dataset"], ids[i], ids[j])
        if abs(recount - values[i][j]) > KAPPA_TOLERANCE:
            return [f"kappa({ids[i]}, {ids[j]}) = {values[i][j]!r}, recount gives {recount!r}"]
        return []

    def expected_calls(self, state: dict) -> dict[str, int]:
        table = _zero_table()
        table.update({
            "cli.main": 2, "corpus.load_dataset": 2, "corpus.make_annotation_split": 1,
            "corpus.write_dataset": 2, "corpus.dataset_statistics": 1,
            "trainer.load_checkpoint": 1,
            "analysis.cohen_kappa_matrix": 1, "analysis.label_pearson": 1,
            "analysis.kmeans": 1, "analysis.pca_project": 1,
            "analysis.demographic_alignment": 1, "analysis.annotation_embedding_points": 1,
        })
        return table


def brute_force_kappa(dataset, annotator_a: str, annotator_b: str) -> float:
    """Cohen's kappa of two annotators over their co-annotated examples,
    recounted with plain Python from the generated dataset."""
    labels_a, labels_b = {}, {}
    for ex in dataset.examples:
        if ex.annotator_id == annotator_a:
            labels_a[ex.example_id] = ex.label
        elif ex.annotator_id == annotator_b:
            labels_b[ex.example_id] = ex.label
    common = [e for e in labels_a if e in labels_b]
    n = len(common)
    observed = sum(labels_a[e] == labels_b[e] for e in common) / n
    freq_a = Counter(labels_a[e] for e in common)
    freq_b = Counter(labels_b[e] for e in common)
    expected = sum(freq_a[c] * freq_b[c] for c in freq_a) / (n * n)
    if expected >= 1.0:
        return 1.0
    return (observed - expected) / (1.0 - expected)


# Why each workload is here: BENCHMARK.json carries the one-line reasons.
WORKLOADS = {
    # acceptance criterion-3 configuration: 3,360 train / 1,440 test annotations
    # of 8 tokens; interpreter-bound, with the gating step doing real work
    "mech_short": TrainingWorkload(
        population=dict(n_annotators=12, n_texts=400, n_labels=3, bias_strength=0.5),
        encoder_config=dict(hidden=32, layers=1, heads=2),
        train_config=dict(mode="text_plus_both", batch_size=64, learning_rate=3e-3),
        epochs=1, warmup_train=256,
    ),
    # 400 annotators x 3,000 texts x 20 annotations per text: corpus I/O,
    # ~80k kappa pairs, k-means, PCA and alignment, with no autodiff
    "crowd": CrowdWorkload(
        population=dict(n_annotators=400, n_texts=3000, n_labels=4, group_count=8,
                        bias_strength=0.6, annotations_per_text=20),
        k=8,
        checkpoint_encoder=dict(hidden=32, layers=1, heads=2),
    ),
}
