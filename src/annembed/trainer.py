"""Training loop, evaluation with EM/macro-F1, baselines, and checkpoints.

Every annotation is its own training and evaluation example: the same text
can carry different gold labels for different annotators. A model bundles
the encoder parameters, the embedding bank, the vocabulary, and the
annotator/label registries; checkpoints round-trip all of it bit-exactly.
Every parameter is a view of one float64 vector theta, laid out by
checkpoint_layout: Adam, the divergence check, dev selection, save and load
each act on theta whole.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass, field, replace
from itertools import islice
from typing import Literal, Optional

import numpy as np

from . import encoder as enc
from . import tensor
from .corpus import (
    Dataset,
    Split,
    check_fields,
    check_type,
    read_record,
    replaced_file,
    write_json,
)
from .embedding import (
    AnnotationIndex,
    CombinationMode,
    EmbeddingBank,
    annotation_embedding,
    bank_shapes,
    combine,
    label_coefficients,
)
from .encoder import INIT_STD, EncoderConfig, EncoderParams, Vocabulary, draw_parameters


class TrainingDiverged(RuntimeError):
    pass


# Adam's decay rates and epsilon, at their published values (Kingma & Ba, 2015)
BETA1, BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


@dataclass
class TrainConfig:
    mode: CombinationMode = CombinationMode.TEXT_PLUS_BOTH
    epochs: int = 20
    batch_size: int = 32
    learning_rate: float = 2e-4
    seed: int = 0
    select_on_dev: bool = False

    def __post_init__(self):
        check_fields(self)
        self.mode = CombinationMode(self.mode)
        if self.epochs <= 0 or self.batch_size <= 0:
            raise ValueError("epochs and batch_size must be positive")
        if self.learning_rate <= 0.0:
            raise ValueError(f"learning_rate must be positive, got {self.learning_rate!r}")


class Model:
    """Encoder + embedding bank + registries, ready for forward passes. Its
    parameters are views of theta, drawn from seed unless _theta, a stored
    theta that load_checkpoint read, is given."""

    def __init__(self, encoder_config: EncoderConfig, train_config: TrainConfig,
                 vocab: Vocabulary, label_names, annotator_ids, seed: int,
                 _theta: Optional[np.ndarray] = None):
        self.encoder_config = encoder_config
        self.train_config = train_config
        self.vocab = vocab
        self.label_names = list(label_names)
        self.annotator_ids = list(annotator_ids)
        self.annotator_index = {a: i for i, a in enumerate(self.annotator_ids)}
        self.seed = seed
        m, n, h = len(self.label_names), len(self.annotator_ids), encoder_config.hidden
        layout = checkpoint_layout(encoder_config, m, n)
        self.theta = (np.zeros(sum(e["rows"] * e["cols"] for e in layout.values()))
                      if _theta is None else _theta)
        self._parameters = {name: tensor.parameter(np.ndarray(
            (e["rows"], e["cols"]), buffer=self.theta, offset=e["offset"]))
            for name, e in layout.items()}
        self.params = EncoderParams(encoder_config, {
            name: self._parameters[name] for name, *_ in enc.encoder_shapes(encoder_config, m)})
        self.bank = EmbeddingBank(**{
            name: self._parameters[f"bank.{name}"] for name, *_ in bank_shapes(n, m, h)})
        if _theta is None:   # independent init streams so the bank never perturbs the encoder
            streams = np.random.SeedSequence(seed).spawn(2)
            draw_parameters(enc.encoder_shapes(encoder_config, m),
                            np.random.default_rng(streams[0]), self.params)
            draw_parameters(bank_shapes(n, m, h), np.random.default_rng(streams[1]),
                            vars(self.bank))
        # training label counts keyed by annotator_ids, filled in by train()
        self.train_counts: dict[str, np.ndarray] = {}

    @property
    def mode(self) -> CombinationMode:
        return self.train_config.mode

    def named_parameters(self) -> dict[str, tensor.Node]:
        """Every parameter of the model, whatever the mode, in theta's order;
        one the mode's loss never reaches keeps grad None, which Adam counts
        as a zero gradient."""
        return dict(self._parameters)

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
    """Adam on a vector theta whose named views, params, lie back to back in
    its order; m, v and the gathered gradient are vectors of theta's length."""

    def __init__(self, theta: np.ndarray, params: dict[str, tensor.Node], lr: float):
        self.theta = theta
        self.params = params
        self.lr = lr
        self.t = 0
        self.m = np.zeros_like(theta)
        self.v = np.zeros_like(theta)
        self.grad = np.empty_like(theta)
        self._scratch = np.empty_like(theta)

    def gather(self) -> np.ndarray:
        """The step's gradient as one vector, each parameter's grad at its
        slice and zero for one the loss did not reach (grad None)."""
        return np.concatenate([np.zeros(p.value.size) if p.grad is None else p.grad.ravel()
                               for p in self.params.values()], out=self.grad)

    def step(self) -> None:
        """One update of theta from the vector gather() filled, which then
        serves as scratch; each parameter's grad is cleared. Whole-vector steps
        in place, with the per-element rounding of Adam's per-array formula."""
        self.t += 1
        for param in self.params.values():
            param.grad = None
        grad, m, v, s = self.grad, self.m, self.v, self._scratch
        m *= BETA1                                        # b1 m + (1 - b1) g
        m += np.multiply(grad, 1 - BETA1, out=s)
        v *= BETA2                                        # b2 v + (1 - b2) g g
        v += np.multiply(np.multiply(grad, grad, out=s), 1 - BETA2, out=s)
        root = np.sqrt(np.divide(v, 1 - BETA2 ** self.t, out=grad), out=grad)
        root += ADAM_EPS                                  # sqrt(v_hat) + eps
        s = np.multiply(np.divide(m, 1 - BETA1 ** self.t, out=s), self.lr, out=s)
        self.theta -= np.divide(s, root, out=s)           # lr m_hat / (sqrt(v_hat) + eps)


def _prepare(dataset: Dataset, model: Model, mode: CombinationMode,
             index: Optional[AnnotationIndex] = None):
    """Tokenize once and precompute the E_n label-row coefficients a mode
    needs: leave-one-out from the training index when one is given, else the
    model's test-time ones."""
    items = []
    for ex in dataset.examples:
        ids = enc.tokenize(ex.text, model.vocab, model.encoder_config.max_len)
        coeff = None
        if mode.uses_annotation:
            coeff = (model.test_coefficients(ex.annotator_id) if index is None
                     else index.train_coefficients(ex.annotator_id, ex.label))
        items.append((ids, ex.annotator_id, coeff, ex.label))
    return items


def _train_step(model: Model, optimizer: Adam, batch: list, rng: np.random.Generator,
                context: str) -> float:
    """Forward, backward and one Adam update over a minibatch of prepared
    items; returns the step's mean loss. The step's graph is built and
    dropped inside this call, so no finished graph outlives its step."""
    losses = []
    try:
        for ids, annotator_id, coeff, gold in batch:
            losses.append(model.loss_for(ids, annotator_id, coeff, gold,
                                         training=True, rng=rng))
    except FloatingPointError as err:
        raise TrainingDiverged(f"non-finite activations {context}: {err}") from err
    total = losses[0]
    for extra in losses[1:]:
        total = tensor.add(total, extra)
    mean_loss = tensor.scalar_scale(total, 1.0 / len(batch))
    step_loss = float(mean_loss.value[0, 0])
    if not np.isfinite(step_loss):
        raise TrainingDiverged(f"non-finite loss {context}: {step_loss!r}")
    tensor.backward(mean_loss)
    grad = optimizer.gather()
    if not np.isfinite(grad).all():
        name = next(name for name, param in optimizer.params.items()
                    if param.grad is not None and not np.isfinite(param.grad).all())
        raise TrainingDiverged(f"non-finite gradient for {name} {context}")
    optimizer.step()
    return step_loss


@tensor.gc_paused()
def train(split: Split, cfg: TrainConfig,
          encoder_config: Optional[EncoderConfig] = None) -> tuple[Model, list[float]]:
    """Mini-batch Adam over per-annotation cross-entropy.

    Returns the trained model and the per-step mean-loss trace. Fully
    deterministic for a given cfg.seed: initialization, shuffling, and
    dropout each draw from their own spawned stream. select_on_dev keeps the
    parameters of the epoch with the best dev EM, checked after every epoch;
    ValueError if the split has no dev part.
    """
    if not split.train.examples:
        raise ValueError("empty train split")
    if cfg.select_on_dev and split.dev is None:
        raise ValueError("select_on_dev needs a dev split, and this split has none")
    vocab = Vocabulary.build(ex.text for ex in split.train.examples)
    encoder_config = replace(encoder_config or EncoderConfig(), vocab_size=vocab.size)

    model = Model(encoder_config, cfg, vocab, split.train.label_names,
                  split.train.annotator_ids, cfg.seed)
    index = AnnotationIndex(split.train)
    model.train_counts = index.counts

    streams = np.random.SeedSequence(cfg.seed).spawn(4)
    rng_shuffle = np.random.default_rng(streams[2])
    rng_dropout = np.random.default_rng(streams[3])

    items = _prepare(split.train, model, cfg.mode, index)
    optimizer = Adam(model.theta, model.named_parameters(), cfg.learning_rate)

    trace: list[float] = []
    best_dev = -1.0
    best_theta: Optional[np.ndarray] = None
    n = len(items)
    for epoch in range(cfg.epochs):
        order = rng_shuffle.permutation(n)
        for start in range(0, n, cfg.batch_size):
            batch = order[start:start + cfg.batch_size]
            context = (f"at epoch {epoch} step {start // cfg.batch_size} "
                       f"(lr={cfg.learning_rate}, batch={cfg.batch_size})")
            trace.append(_train_step(model, optimizer, [items[i] for i in batch],
                                     rng_dropout, context))
        if cfg.select_on_dev:
            report = evaluate(model, split.dev)
            if report.em_accuracy > best_dev:
                best_dev = report.em_accuracy
                best_theta = model.theta.copy()
    if best_theta is not None:
        model.theta[...] = best_theta
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
    if dataset.label_names != model.label_names:
        raise ValueError(f"dataset labels {dataset.label_names} do not match the "
                         f"model's {model.label_names}")
    mode = model.mode if mode is None else mode
    preds = []
    for ids, annotator_id, coeff, _ in _prepare(dataset, model, mode):
        logits = model.forward(ids, annotator_id, coeff, training=False,
                               mode=mode, keep_text=keep_text)
        preds.append(int(np.argmax(logits.value[0])))
    em, macro, per_class, confusion = classification_scores(
        dataset.labels, preds, len(model.label_names))
    hits = np.bincount(dataset.annotator_index, weights=np.equal(preds, dataset.labels))
    total = int(confusion.sum())
    report = EvalReport(
        em_accuracy=em,
        macro_f1=macro,
        per_annotator_em=dict(zip(dataset.annotator_ids,
                                  (hits / np.bincount(dataset.annotator_index)).tolist())),
        confusion=confusion.tolist(),
        n_annotations=total,
        per_class_f1=per_class,
    )
    if with_baselines:
        majority = int(np.argmax(sum(model.train_counts[a] for a in model.annotator_ids)))
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
    m = dataset.n_labels
    rng = np.random.default_rng(seed)
    rand_scores = [
        float(np.mean(rng.integers(m, size=len(dataset)) == dataset.labels)) for _ in range(draws)
    ]
    if majority_label is None:
        majority_label = int(np.argmax(dataset.label_counts().sum(axis=0)))
    majority_em = float(np.mean(dataset.labels == majority_label))
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
# checkpoint serialization: JSON manifest + theta as raw little-endian float64

CHECKPOINT_MANIFEST = "manifest.json"
CHECKPOINT_ARRAYS = "params.bin"


@dataclass
class CheckpointManifest:
    """A checkpoint's manifest.json as format 2 writes it, and as
    _from_format_1 reads format 1. read_record checks format_version, the
    first field, before any other; __post_init__ holds the rules that are not
    types. params_sha256, the sha256 of params.bin, is null only for format 1."""

    format_version: Literal[1, 2]
    encoder_config: EncoderConfig
    train_config: TrainConfig
    label_names: list[str]
    annotator_ids: list[str]
    vocabulary: dict[str, int]
    seed: int
    train_counts: dict[str, list[float]]
    arrays: dict[str, dict[str, int]]
    params_sha256: Optional[str]

    def __post_init__(self):
        for key in ("label_names", "annotator_ids"):
            names = getattr(self, key)
            if len(set(names)) != len(names):
                raise ValueError(f"{key} must be unique, found {names!r}")
        size = self.encoder_config.vocab_size
        if len(self.vocabulary) != size or sorted(self.vocabulary.values()) != list(range(size)):
            raise ValueError("vocabulary ids must be 0 to vocab_size - 1, each once "
                             f"(encoder_config vocab_size {size})")
        missing = sorted(set(self.annotator_ids) - set(self.train_counts))
        extra = sorted(set(self.train_counts) - set(self.annotator_ids))
        if missing or extra:
            raise ValueError("train_counts keys do not match annotator_ids "
                             f"(missing {missing}, unexpected {extra})")
        m = len(self.label_names)
        for a in self.annotator_ids:
            row = self.train_counts[a]
            if len(row) != m or min(row, default=0.0) < 0:
                raise ValueError(f"train_counts[{a!r}] must be {m} finite, non-negative "
                                 f"numbers, one per label_names entry, found {row!r}")


def _from_format_1(obj: dict, read) -> CheckpointManifest:
    """read_record's upgrade: a format-1 manifest is read with a null
    params_sha256 and without the five keys that format 2 dropped, which are
    then checked against the record; train_label_totals must be the column
    sums of train_counts. Another version is read as it is."""
    if type(obj.get("format_version")) is not int or obj["format_version"] != 1:
        return read(obj)
    if "params_sha256" in obj:
        raise ValueError("params_sha256 is not a field of format 1")
    # the train_config keys that format 2 dropped, at the one value each that
    # every format-1 checkpoint holds
    retired = {"beta1": BETA1, "beta2": BETA2, "adam_eps": ADAM_EPS, "eval_every": 0}
    config, totals = obj.get("train_config"), obj.get("train_label_totals")
    upgraded = {key: value for key, value in obj.items() if key != "train_label_totals"}
    upgraded["params_sha256"] = None
    if isinstance(config, dict):   # else the record's own check refuses it
        upgraded["train_config"] = {key: value for key, value in config.items()
                                    if key not in retired}
    record = read(upgraded)
    for key, value in retired.items():
        if key not in config:
            raise ValueError(f"train_config.{key} is missing")
        check_type(f"train_config.{key}", config[key], Literal[value])
    if "train_label_totals" not in obj:
        raise ValueError("train_label_totals is missing")
    check_type("train_label_totals", totals, list[float])
    sums = sum((np.asarray(record.train_counts[a], np.float64) for a in record.annotator_ids),
               np.zeros(len(record.label_names)))
    if not np.array_equal(totals, sums):
        raise ValueError(f"train_label_totals {totals} differs from the column sums of "
                         f"train_counts, {sums.tolist()}")
    return record


def _model_shapes(encoder_config: EncoderConfig, n_labels: int, n_annotators: int):
    """(name, rows, cols, init) of every parameter of Model.named_parameters."""
    yield from enc.encoder_shapes(encoder_config, n_labels)
    for name, rows, cols, init in bank_shapes(n_annotators, n_labels, encoder_config.hidden):
        yield f"bank.{name}", rows, cols, init


def _packed(shapes) -> dict[str, dict[str, int]]:
    layout = {}
    offset = 0
    for name, rows, cols, _ in sorted(shapes):
        layout[name] = {"offset": offset, "rows": rows, "cols": cols}
        offset += rows * cols * 8
    return layout


def checkpoint_layout(encoder_config: EncoderConfig, n_labels: int,
                      n_annotators: int) -> dict[str, dict[str, int]]:
    """Where each parameter sits in a model's theta and in params.bin: {name:
    {"offset", "rows", "cols"}} in sorted-name order, packed back to back."""
    return _packed(_model_shapes(encoder_config, n_labels, n_annotators))


def save_checkpoint(model: Model, directory) -> None:
    """Write theta to params.bin in one call, then manifest.json with its
    sha256, each replacing the old file only once it is written whole."""
    os.makedirs(directory, exist_ok=True)
    theta = model.theta.astype("<f8", copy=False)
    with replaced_file(os.path.join(directory, CHECKPOINT_ARRAYS), "wb") as fh:
        fh.write(theta)
    write_json(os.path.join(directory, CHECKPOINT_MANIFEST), CheckpointManifest(
        format_version=2, encoder_config=model.encoder_config, train_config=model.train_config,
        label_names=model.label_names, annotator_ids=model.annotator_ids,
        vocabulary=model.vocab.token_to_id, seed=model.seed, train_counts=model.train_counts,
        arrays=checkpoint_layout(model.encoder_config, len(model.label_names),
                                 len(model.annotator_ids)),
        params_sha256=hashlib.sha256(theta).hexdigest()))


def load_checkpoint(directory) -> Model:
    """Rebuild a saved model around theta as params.bin holds it; ValueError if
    its CheckpointManifest's array index is not checkpoint_layout's, or
    params.bin is not that long or, from format 2 on, has another sha256, all
    checked before the model is built."""
    manifest = os.path.join(directory, CHECKPOINT_MANIFEST)
    record = read_record(manifest, CheckpointManifest, _from_format_1)
    encoder_config, stored = record.encoder_config, record.arrays
    m, n = len(record.label_names), len(record.annotator_ids)
    # one table entry past the index is enough to tell that the model needs
    # more arrays than it lists, however many the configs declare
    layout = _packed(islice(_model_shapes(encoder_config, m, n), len(stored) + 1))
    if len(layout) > len(stored):
        wrong = [f"the manifest lists {len(stored)} and the model needs more, among them "
                 f"{sorted(set(layout) - set(stored))}"]
    else:
        wrong = [f"{name}: manifest has {stored.get(name, 'nothing')}, the model needs "
                 f"{layout.get(name, 'nothing')}" for name in sorted(set(layout) | set(stored))
                 if stored.get(name) != layout.get(name)]
    if wrong:
        raise ValueError(f"{manifest}: arrays do not match the model of {encoder_config}, "
                         f"{m} labels and {n} annotators: " + "; ".join(wrong))
    path = os.path.join(directory, CHECKPOINT_ARRAYS)
    size = sum(8 * entry["rows"] * entry["cols"] for entry in layout.values())
    found = os.path.getsize(path)
    if found != size:
        state = "truncated" if found < size else "too long"
        raise ValueError(f"{directory}: {CHECKPOINT_ARRAYS} is {state}: it has {found} "
                         f"bytes, the arrays need {size}")
    theta = np.fromfile(path, dtype="<f8")
    digest = hashlib.sha256(theta).hexdigest()
    if record.format_version > 1 and digest != record.params_sha256:
        raise ValueError(f"{manifest}: params_sha256 {record.params_sha256} differs from the "
                         f"sha256 of {CHECKPOINT_ARRAYS}, {digest}")
    model = Model(encoder_config, record.train_config, Vocabulary(token_to_id=record.vocabulary),
                  record.label_names, record.annotator_ids, record.seed,
                  _theta=theta.astype(np.float64, copy=False))
    model.train_counts = {a: np.asarray(record.train_counts[a], dtype=np.float64)
                          for a in record.annotator_ids}
    return model
