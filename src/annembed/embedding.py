"""Annotator and annotation embeddings with bilinear scalar gating.

Each annotator owns a learnable row; each label owns a learnable row. An
annotator's annotation embedding is the average of the label rows for their
other training annotations (leave-one-out during training, full training
average at test time). Both embeddings are scaled by bilinear gate weights
against the sentence embedding and added to the first ([CLS]) row of the
token embedding matrix.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from enum import Enum

import numpy as np

from . import tensor
from .encoder import INIT_STD
from .tensor import Node


class CombinationMode(str, Enum):
    TEXT_ONLY = "text_only"
    TEXT_PLUS_ANNOTATION = "text_plus_annotation"
    TEXT_PLUS_ANNOTATOR = "text_plus_annotator"
    TEXT_PLUS_BOTH = "text_plus_both"

    @property
    def uses_annotation(self) -> bool:
        return self in (CombinationMode.TEXT_PLUS_ANNOTATION, CombinationMode.TEXT_PLUS_BOTH)

    @property
    def uses_annotator(self) -> bool:
        return self in (CombinationMode.TEXT_PLUS_ANNOTATOR, CombinationMode.TEXT_PLUS_BOTH)


@dataclass
class EmbeddingBank:
    """Learnable annotator rows, label rows, and the three gate matrices."""

    annotator_rows: Node   # N x H
    label_rows: Node       # M x H
    w_sentence: Node       # H x H
    w_annotator: Node      # H x H
    w_annotation: Node     # H x H
    hidden: int

    @classmethod
    def init(cls, n_annotators: int, n_labels: int, hidden: int,
             rng: np.random.Generator) -> "EmbeddingBank":
        def normal(rows, cols):
            return tensor.parameter(rng.normal(0.0, INIT_STD, size=(rows, cols)))

        return cls(
            annotator_rows=normal(n_annotators, hidden),
            label_rows=normal(n_labels, hidden),
            w_sentence=normal(hidden, hidden),
            w_annotator=normal(hidden, hidden),
            w_annotation=normal(hidden, hidden),
            hidden=hidden,
        )

    def named_parameters(self, mode: CombinationMode) -> dict[str, Node]:
        """Parameters that receive gradient updates under the given mode."""
        params: dict[str, Node] = {}
        if mode.uses_annotator:
            params["bank.annotator_rows"] = self.annotator_rows
            params["bank.w_annotator"] = self.w_annotator
        if mode.uses_annotation:
            params["bank.label_rows"] = self.label_rows
            params["bank.w_annotation"] = self.w_annotation
        if mode.uses_annotator or mode.uses_annotation:
            params["bank.w_sentence"] = self.w_sentence
        return params


def label_coefficients(counts: np.ndarray | None, n_labels: int,
                       exclude_label: int | None = None) -> np.ndarray:
    """Label-row weights of an annotation embedding, as a 1 x M row.

    counts holds an annotator's training label counts. exclude_label drops
    one annotation with that label, which gives the leave-one-out average
    used in training. With no counts, or no annotation left after the
    exclusion, the weights fall back to the uniform label average.
    """
    if counts is not None:
        coeff = np.array(counts, dtype=np.float64)
        if exclude_label is not None:
            coeff[exclude_label] -= 1.0
        total = coeff.sum()
        if total > 0:
            return (coeff / total).reshape(1, -1)
    return np.full((1, n_labels), 1.0 / n_labels)


class AnnotationIndex:
    """Per-annotator training annotations: ordered ids, labels, and counts."""

    def __init__(self, dataset, n_labels: int):
        self.n_labels = n_labels
        self.examples: dict[str, list[tuple[str, int]]] = {}
        self.counts: dict[str, np.ndarray] = {}
        self._label_of: dict[tuple[str, str], int] = {}
        for ex in dataset.examples:
            self.examples.setdefault(ex.annotator_id, []).append((ex.example_id, ex.label))
            if ex.annotator_id not in self.counts:
                self.counts[ex.annotator_id] = np.zeros(n_labels)
            self.counts[ex.annotator_id][ex.label] += 1.0
            self._label_of[(ex.annotator_id, ex.example_id)] = ex.label

    def train_coefficients(self, annotator_id: str, example_id: str) -> np.ndarray:
        """Leave-one-out label-row weights; KeyError for an unindexed annotation
        of a known annotator."""
        counts = self.counts.get(annotator_id)
        exclude = None if counts is None else self._label_of[(annotator_id, example_id)]
        return label_coefficients(counts, self.n_labels, exclude)


def annotation_embedding(bank: EmbeddingBank, coeff: np.ndarray) -> Node:
    """The label rows weighted by a 1 x M coefficient row."""
    return tensor.matmul(tensor.constant(coeff), bank.label_rows)


def annotation_embedding_train(bank: EmbeddingBank, index: AnnotationIndex,
                               annotator_id: str, example_id: str) -> Node:
    """Mean of the label rows for the annotator's other training annotations."""
    return annotation_embedding(bank, index.train_coefficients(annotator_id, example_id))


def annotation_embedding_test(bank: EmbeddingBank, index: AnnotationIndex,
                              annotator_id: str) -> Node:
    """Mean of the label rows over all of the annotator's training annotations."""
    coeff = label_coefficients(index.counts.get(annotator_id), index.n_labels)
    return annotation_embedding(bank, coeff)


def sentence_embedding(token_embeddings: Node) -> Node:
    """Column-wise mean of the token embedding rows (the [CLS] row included)."""
    if token_embeddings.value.shape[0] < 1:
        raise ValueError("sentence embedding of an empty sequence")
    return tensor.row_mean(token_embeddings)


def gate_weight(w_sentence: Node, w_other: Node, e_sentence: Node, e_other: Node) -> Node:
    """Bilinear gate (W_s e_s^T)^T (W_x e_x^T), a differentiable 1x1 scalar."""
    left = tensor.transpose(tensor.matmul(w_sentence, tensor.transpose(e_sentence)))
    right = tensor.matmul(w_other, tensor.transpose(e_other))
    return tensor.matmul(left, right)


def combine(mode: CombinationMode, token_embeddings: Node, annotation_emb: Node | None,
            annotator_emb: Node | None, bank: EmbeddingBank | None,
            keep_text: bool = True) -> Node:
    """Add the gated embeddings to the [CLS] row; other rows pass through.

    TEXT_ONLY returns the token embeddings unchanged. The gates are computed
    against the sentence embedding of the raw summed token embeddings, before
    any layer norm or dropout. keep_text=False is the embedding-only
    ablation: row 0 holds only the gated terms and the other rows are zero,
    while the gates still read the true sentence embedding.
    """
    if mode == CombinationMode.TEXT_ONLY:
        if not keep_text:
            raise ValueError("dropping the text needs a mode with an embedding")
        return token_embeddings
    if bank is None:
        raise ValueError(f"mode {mode.value} requires an embedding bank")
    if mode.uses_annotation and annotation_emb is None:
        raise ValueError(f"mode {mode.value} requires an annotation embedding")
    if mode.uses_annotator and annotator_emb is None:
        raise ValueError(f"mode {mode.value} requires an annotator embedding")

    rows, cols = token_embeddings.value.shape
    e_sent = sentence_embedding(token_embeddings)
    cls_row = tensor.gather_rows(token_embeddings, [0]) if keep_text else None
    for used, w_other, emb in ((mode.uses_annotation, bank.w_annotation, annotation_emb),
                               (mode.uses_annotator, bank.w_annotator, annotator_emb)):
        if used:
            alpha = gate_weight(bank.w_sentence, w_other, e_sent, emb)
            gated = tensor.scalar_mul(alpha, emb)
            cls_row = gated if cls_row is None else tensor.add(cls_row, gated)
    if rows == 1:
        return cls_row
    if keep_text:
        rest = tensor.gather_rows(token_embeddings, list(range(1, rows)))
    else:
        rest = tensor.constant(np.zeros((rows - 1, cols)))
    return tensor.concat_rows(cls_row, rest)


@dataclass
class OverheadReport:
    added_parameters: int
    base_parameters: int | None
    ratio: float | None
    budget: int
    over_budget: bool

    def to_dict(self) -> dict:
        return asdict(self)


def parameter_overhead(n_annotators: int, n_labels: int, hidden: int,
                       mode: CombinationMode, base_parameters: int | None = None,
                       budget: int = 1_000_000) -> OverheadReport:
    """Closed-form count of parameters the mechanism adds on top of the encoder.

    Both embedding tables plus three H x H gate matrices in the full mode;
    the single-embedding modes drop the unused table and its gate. The
    report flags counts exceeding the advertised budget (default one
    million) since large hidden sizes blow past it on the gate matrices
    alone.
    """
    if n_annotators <= 0 or n_labels <= 0 or hidden <= 0:
        raise ValueError("sizes must be positive")
    if mode == CombinationMode.TEXT_ONLY:
        added = 0
    elif mode == CombinationMode.TEXT_PLUS_ANNOTATOR:
        added = n_annotators * hidden + 2 * hidden * hidden
    elif mode == CombinationMode.TEXT_PLUS_ANNOTATION:
        added = n_labels * hidden + 2 * hidden * hidden
    else:
        added = (n_annotators + n_labels) * hidden + 3 * hidden * hidden
    ratio = added / base_parameters if base_parameters else None
    return OverheadReport(
        added_parameters=added,
        base_parameters=base_parameters,
        ratio=ratio,
        budget=budget,
        over_budget=added > budget,
    )
