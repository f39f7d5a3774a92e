"""Training loop, evaluation with EM/macro-F1, baselines, and checkpoints.

Every annotation is its own training and evaluation example: the same text
can carry different gold labels for different annotators. A model bundles
the encoder parameters, the embedding bank, the vocabulary, and the
annotator/label registries; checkpoints round-trip all of it bit-exactly.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import asdict, dataclass, field
from typing import Optional

import numpy as np

from . import encoder as enc
from . import tensor
from .corpus import Dataset, Split
from .embedding import (
    AnnotationIndex,
    CombinationMode,
    EmbeddingBank,
    annotation_embedding,
    combine,
    label_coefficients,
)
from .encoder import INIT_STD, EncoderConfig, EncoderParams, Vocabulary


class TrainingDiverged(RuntimeError):
    pass


@dataclass
class TrainConfig:
    mode: CombinationMode = CombinationMode.TEXT_PLUS_BOTH
    epochs: int = 20
    batch_size: int = 32
    learning_rate: float = 2e-4
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    seed: int = 0
    eval_every: int = 0
    select_on_dev: bool = False

    def __post_init__(self):
        self.mode = CombinationMode(self.mode)
        if self.epochs <= 0 or self.batch_size <= 0:
            raise ValueError("epochs and batch_size must be positive")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0.0):
            raise ValueError(
                f"learning_rate must be positive and finite, got {self.learning_rate!r}")
        if not (0.0 < self.beta1 < 1.0 and 0.0 < self.beta2 < 1.0):
            raise ValueError("Adam betas must lie strictly inside (0, 1)")

    def to_dict(self) -> dict:
        return {**asdict(self), "mode": self.mode.value}


class Model:
    """Encoder + embedding bank + registries, ready for forward passes."""

    def __init__(self, encoder_config: EncoderConfig, train_config: TrainConfig,
                 vocab: Vocabulary, label_names, annotator_ids, seed: int):
        self.encoder_config = encoder_config
        self.train_config = train_config
        self.vocab = vocab
        self.label_names = list(label_names)
        self.annotator_ids = list(annotator_ids)
        self.annotator_index = {a: i for i, a in enumerate(self.annotator_ids)}
        self.seed = seed
        # independent init streams so the bank never perturbs the encoder
        streams = np.random.SeedSequence(seed).spawn(2)
        self.params = EncoderParams(encoder_config, len(self.label_names),
                                    np.random.default_rng(streams[0]))
        self.bank = EmbeddingBank.init(len(self.annotator_ids), len(self.label_names),
                                       encoder_config.hidden, np.random.default_rng(streams[1]))
        # per-annotator training label counts, filled in by train()
        self.train_counts: dict[str, np.ndarray] = {}
        self.train_label_totals = np.zeros(len(self.label_names))

    @property
    def mode(self) -> CombinationMode:
        return self.train_config.mode

    def named_parameters(self, mode: Optional[CombinationMode] = None) -> dict[str, tensor.Node]:
        mode = self.mode if mode is None else mode
        params = self.params.named_parameters()
        params.update(self.bank.named_parameters(mode))
        return params

    def _unseen_annotator_row(self, annotator_id: str) -> np.ndarray:
        # fresh untrained row, deterministic per (model seed, annotator id)
        digest = hashlib.sha256(annotator_id.encode("utf-8")).digest()
        key = int.from_bytes(digest[:8], "little")
        rng = np.random.default_rng(np.random.SeedSequence((self.seed, key)))
        return rng.normal(0.0, INIT_STD, size=(1, self.encoder_config.hidden))

    def annotator_embedding(self, annotator_id: str) -> tensor.Node:
        idx = self.annotator_index.get(annotator_id)
        if idx is None:
            return tensor.constant(self._unseen_annotator_row(annotator_id))
        return tensor.gather_rows(self.bank.annotator_rows, [idx])

    def test_coefficients(self, annotator_id: str) -> np.ndarray:
        return label_coefficients(self.train_counts.get(annotator_id), len(self.label_names))

    def forward(self, token_ids, annotator_id: Optional[str], en_coeff: Optional[np.ndarray],
                training: bool = False, rng: Optional[np.random.Generator] = None,
                mode: Optional[CombinationMode] = None, keep_text: bool = True) -> tensor.Node:
        """Logits for one annotation. en_coeff weights the label rows for E_n;
        keep_text=False drops the text from the combined embedding."""
        mode = self.mode if mode is None else mode
        e_t = enc.embed_tokens(token_ids, self.params)
        e_n = annotation_embedding(self.bank, en_coeff) if mode.uses_annotation else None
        e_a = self.annotator_embedding(annotator_id) if mode.uses_annotator else None
        combined = combine(mode, e_t, e_n, e_a, self.bank, keep_text)
        hidden = enc.encode(combined, self.params, training, rng)
        cls_repr = tensor.gather_rows(hidden, [0])
        return enc.classify(cls_repr, self.params)

    def loss_for(self, token_ids, annotator_id, en_coeff, gold: int,
                 training: bool = False, rng=None) -> tensor.Node:
        logits = self.forward(token_ids, annotator_id, en_coeff, training, rng)
        return enc.classification_loss(logits, gold)


class Adam:
    def __init__(self, params: dict[str, tensor.Node], lr: float, beta1: float,
                 beta2: float, eps: float):
        self.params = params
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = {k: np.zeros_like(p.value) for k, p in params.items()}
        self.v = {k: np.zeros_like(p.value) for k, p in params.items()}

    def step(self):
        self.t += 1
        for key, param in self.params.items():
            g = param.grad
            self.m[key] = self.beta1 * self.m[key] + (1 - self.beta1) * g
            self.v[key] = self.beta2 * self.v[key] + (1 - self.beta2) * (g * g)
            m_hat = self.m[key] / (1 - self.beta1 ** self.t)
            v_hat = self.v[key] / (1 - self.beta2 ** self.t)
            param.value -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


def _prepare(dataset: Dataset, model: Model, index: Optional[AnnotationIndex],
             train_time: bool):
    """Tokenize once and precompute the E_n label-row coefficients."""
    items = []
    uses_annotation = model.mode.uses_annotation
    for ex in dataset.examples:
        ids = enc.tokenize(ex.text, model.vocab, model.encoder_config.max_len)
        coeff = None
        if uses_annotation:
            if train_time:
                coeff = index.train_coefficients(ex.annotator_id, ex.example_id)
            else:
                coeff = model.test_coefficients(ex.annotator_id)
        items.append((ids, ex.annotator_id, coeff, ex.label))
    return items


def train(split: Split, cfg: TrainConfig,
          encoder_config: Optional[EncoderConfig] = None) -> tuple[Model, list[float]]:
    """Mini-batch Adam over per-annotation cross-entropy.

    Returns the trained model and the per-step mean-loss trace. Fully
    deterministic for a given cfg.seed: initialization, shuffling, and
    dropout each draw from their own spawned stream.
    """
    if not split.train.examples:
        raise ValueError("empty train split")
    vocab = Vocabulary.build(ex.text for ex in split.train.examples)
    if encoder_config is None:
        encoder_config = EncoderConfig()
    encoder_config.vocab_size = vocab.size

    model = Model(encoder_config, cfg, vocab, split.train.label_names,
                  split.train.annotator_ids, cfg.seed)
    index = AnnotationIndex(split.train, split.train.n_labels)
    model.train_counts = {a: c.copy() for a, c in index.counts.items()}
    model.train_label_totals = sum(index.counts.values())

    streams = np.random.SeedSequence(cfg.seed).spawn(4)
    rng_shuffle = np.random.default_rng(streams[2])
    rng_dropout = np.random.default_rng(streams[3])

    items = _prepare(split.train, model, index, train_time=True)
    params = model.named_parameters()
    optimizer = Adam(params, cfg.learning_rate, cfg.beta1, cfg.beta2, cfg.adam_eps)

    trace: list[float] = []
    best_dev = -1.0
    best_values: Optional[dict[str, np.ndarray]] = None
    n = len(items)
    for epoch in range(cfg.epochs):
        order = rng_shuffle.permutation(n)
        for start in range(0, n, cfg.batch_size):
            batch = order[start:start + cfg.batch_size]
            losses = []
            try:
                for i in batch:
                    ids, annotator_id, coeff, gold = items[i]
                    losses.append(model.loss_for(ids, annotator_id, coeff, gold,
                                                 training=True, rng=rng_dropout))
            except FloatingPointError as err:
                raise TrainingDiverged(
                    f"non-finite activations at epoch {epoch} step {start // cfg.batch_size}: "
                    f"{err} (lr={cfg.learning_rate}, batch={cfg.batch_size})"
                ) from err
            total = losses[0]
            for extra in losses[1:]:
                total = tensor.add(total, extra)
            mean_loss = tensor.scalar_scale(total, 1.0 / len(batch))
            step_loss = float(mean_loss.value[0, 0])
            if not np.isfinite(step_loss):
                raise TrainingDiverged(
                    f"non-finite loss at epoch {epoch} step {start // cfg.batch_size}: "
                    f"{step_loss!r} (lr={cfg.learning_rate}, batch={cfg.batch_size})"
                )
            trace.append(step_loss)
            tensor.backward(mean_loss)
            optimizer.step()
        if cfg.select_on_dev and split.dev is not None and (
                cfg.eval_every == 0 or (epoch + 1) % cfg.eval_every == 0):
            report = evaluate(model, split.dev)
            if report.em_accuracy > best_dev:
                best_dev = report.em_accuracy
                best_values = {k: p.value.copy() for k, p in params.items()}
    if best_values is not None:
        for key, param in params.items():
            param.value[...] = best_values[key]
    return model, trace


@dataclass
class EvalReport:
    em_accuracy: float
    macro_f1: float
    per_annotator_em: dict[str, float]
    confusion: list[list[int]]
    n_annotations: int
    baseline_random: Optional[float] = None
    baseline_majority: Optional[float] = None
    variant: str = "combination"
    per_class_f1: list[float] = field(default_factory=list)

    def to_dict(self) -> dict:
        return asdict(self)

    def to_text(self, label_names: Optional[list[str]] = None) -> str:
        lines = [
            f"annotations     {self.n_annotations}",
            f"em_accuracy     {self.em_accuracy:.4f}",
            f"macro_f1        {self.macro_f1:.4f}",
        ]
        if self.baseline_random is not None:
            lines.append(f"random baseline {self.baseline_random:.4f}")
        if self.baseline_majority is not None:
            lines.append(f"majority        {self.baseline_majority:.4f}")
        lines.append("confusion (rows = gold):")
        names = label_names or [str(i) for i in range(len(self.confusion))]
        width = max(len(n) for n in names) if names else 4
        for name, row in zip(names, self.confusion):
            lines.append(f"  {name:<{width}} " + " ".join(f"{c:6d}" for c in row))
        return "\n".join(lines)


def macro_f1_from_confusion(confusion: np.ndarray) -> tuple[float, list[float]]:
    """Unweighted mean of per-class F1; absent classes contribute 0."""
    m = confusion.shape[0]
    scores = []
    for c in range(m):
        tp = confusion[c, c]
        fp = confusion[:, c].sum() - tp
        fn = confusion[c, :].sum() - tp
        if tp == 0:
            scores.append(0.0)
            continue
        precision = tp / (tp + fp)
        recall = tp / (tp + fn)
        scores.append(2 * precision * recall / (precision + recall))
    return float(sum(scores) / m), [float(s) for s in scores]


def classification_scores(golds, preds, n_labels: int):
    """EM accuracy, macro F1, per-class F1, and the confusion matrix."""
    confusion = np.zeros((n_labels, n_labels), dtype=np.int64)
    for gold, pred in zip(golds, preds):
        confusion[gold, pred] += 1
    total = int(confusion.sum())
    em = float(np.trace(confusion) / total)
    macro, per_class = macro_f1_from_confusion(confusion)
    return em, macro, per_class, confusion


def evaluate(model: Model, dataset: Dataset, mode: Optional[CombinationMode] = None,
             keep_text: bool = True, with_baselines: bool = False) -> EvalReport:
    """Argmax prediction per annotation; EM accuracy and macro F1.

    Test-time annotation embeddings average the annotator's full training
    annotations; annotators unseen in training get a fresh embedding row and
    the uniform label average.
    """
    if not dataset.examples:
        raise ValueError("cannot evaluate an empty dataset")
    if dataset.n_labels != len(model.label_names):
        raise ValueError("dataset label schema does not match the model")
    mode = model.mode if mode is None else mode
    golds, preds = [], []
    per_ann_hit: dict[str, int] = {}
    per_ann_total: dict[str, int] = {}
    for ex in dataset.examples:
        ids = enc.tokenize(ex.text, model.vocab, model.encoder_config.max_len)
        coeff = model.test_coefficients(ex.annotator_id) if mode.uses_annotation else None
        logits = model.forward(ids, ex.annotator_id, coeff, training=False,
                               mode=mode, keep_text=keep_text)
        pred = int(np.argmax(logits.value[0]))
        golds.append(ex.label)
        preds.append(pred)
        per_ann_total[ex.annotator_id] = per_ann_total.get(ex.annotator_id, 0) + 1
        per_ann_hit[ex.annotator_id] = per_ann_hit.get(ex.annotator_id, 0) + (pred == ex.label)
    em, macro, per_class, confusion = classification_scores(
        golds, preds, len(model.label_names))
    total = int(confusion.sum())
    report = EvalReport(
        em_accuracy=em,
        macro_f1=macro,
        per_annotator_em={a: per_ann_hit[a] / per_ann_total[a] for a in per_ann_total},
        confusion=confusion.tolist(),
        n_annotations=total,
        per_class_f1=per_class,
    )
    if with_baselines:
        majority = int(np.argmax(model.train_label_totals))
        rand_em, maj_em = baselines(dataset, seed=model.seed, majority_label=majority)
        report.baseline_random = rand_em
        report.baseline_majority = maj_em
    return report


def baselines(dataset: Dataset, seed: int, majority_label: Optional[int] = None,
              draws: int = 10) -> tuple[float, float]:
    """Uniform-random EM (mean over draws) and always-majority EM.

    majority_label defaults to the dataset's own most frequent label (ties
    resolved toward the earlier registry index).
    """
    if not dataset.examples:
        raise ValueError("empty dataset")
    golds = np.array([ex.label for ex in dataset.examples])
    m = dataset.n_labels
    rng = np.random.default_rng(seed)
    rand_scores = [
        float(np.mean(rng.integers(m, size=golds.size) == golds)) for _ in range(draws)
    ]
    if majority_label is None:
        counts = np.bincount(golds, minlength=m)
        majority_label = int(np.argmax(counts))
    majority_em = float(np.mean(golds == majority_label))
    return float(np.mean(rand_scores)), majority_em


# ablation variant -> (mode, keep_text) for evaluate; None keeps the model's mode
ABLATIONS = {
    "embedding_only": (None, False),
    "text_only": (CombinationMode.TEXT_ONLY, True),
    "combination": (None, True),
}


def ablation_eval(model: Model, dataset: Dataset, variant: str) -> EvalReport:
    """Evaluate one of the ABLATIONS variants of a model."""
    if variant not in ABLATIONS:
        raise ValueError(f"unknown variant {variant!r}")
    mode, keep_text = ABLATIONS[variant]
    report = evaluate(model, dataset, mode=mode, keep_text=keep_text)
    report.variant = variant
    return report


# ---------------------------------------------------------------------------
# checkpoint serialization: JSON manifest + raw little-endian float64 arrays

CHECKPOINT_MANIFEST = "manifest.json"
CHECKPOINT_ARRAYS = "params.bin"


def _all_arrays(model: Model) -> dict[str, np.ndarray]:
    params = model.named_parameters(CombinationMode.TEXT_PLUS_BOTH)
    return {name: node.value for name, node in params.items()}


def save_checkpoint(model: Model, directory) -> None:
    os.makedirs(directory, exist_ok=True)
    arrays = _all_arrays(model)
    index = {}
    offset = 0
    with open(os.path.join(directory, CHECKPOINT_ARRAYS), "wb") as fh:
        for name in sorted(arrays):
            arr = np.ascontiguousarray(arrays[name], dtype="<f8")
            fh.write(arr.tobytes())
            index[name] = {"offset": offset, "rows": arr.shape[0], "cols": arr.shape[1]}
            offset += arr.nbytes
    manifest = {
        "format_version": 1,
        "encoder_config": model.encoder_config.to_dict(),
        "train_config": model.train_config.to_dict(),
        "label_names": model.label_names,
        "annotator_ids": model.annotator_ids,
        "vocabulary": model.vocab.token_to_id,
        "seed": model.seed,
        "train_counts": {a: c.tolist() for a, c in sorted(model.train_counts.items())},
        "train_label_totals": model.train_label_totals.tolist(),
        "arrays": index,
    }
    with open(os.path.join(directory, CHECKPOINT_MANIFEST), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, sort_keys=True, indent=2, ensure_ascii=False)
        fh.write("\n")


def load_checkpoint(directory) -> Model:
    with open(os.path.join(directory, CHECKPOINT_MANIFEST), encoding="utf-8") as fh:
        manifest = json.load(fh)
    encoder_config = EncoderConfig(**manifest["encoder_config"])
    train_config = TrainConfig(**manifest["train_config"])
    vocab = Vocabulary(token_to_id=dict(manifest["vocabulary"]))
    model = Model(encoder_config, train_config, vocab, manifest["label_names"],
                  manifest["annotator_ids"], manifest["seed"])
    model.train_counts = {
        a: np.asarray(c, dtype=np.float64) for a, c in manifest["train_counts"].items()
    }
    model.train_label_totals = np.asarray(manifest["train_label_totals"], dtype=np.float64)
    with open(os.path.join(directory, CHECKPOINT_ARRAYS), "rb") as fh:
        blob = fh.read()
    arrays = _all_arrays(model)
    for name, meta in manifest["arrays"].items():
        count = meta["rows"] * meta["cols"]
        flat = np.frombuffer(blob, dtype="<f8", count=count, offset=meta["offset"])
        arrays[name][...] = flat.reshape(meta["rows"], meta["cols"])
    return model
