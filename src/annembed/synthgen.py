"""Synthetic multi-annotator corpora with controlled idiosyncrasy.

Texts are token sequences carrying an unambiguous class signal; annotators
relabel them through per-annotator (or per-group) row-stochastic bias
matrices. bias_strength is the probability that a bias row redirects its
base label to a random target label, so 0 gives unanimous clean labels and
1 gives fully remapped ones.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

import numpy as np

from .corpus import AnnotatedExample, Dataset


class SynthError(ValueError):
    pass


@dataclass
class PopulationConfig:
    n_annotators: int = 12
    n_texts: int = 400
    n_labels: int = 3
    vocab_size: int = 60
    group_count: int = 0
    bias_strength: float = 0.5
    annotations_per_text: int = 0
    seed: int = 0
    signal_tokens_per_text: int = 4
    filler_tokens_per_text: int = 2

    def __post_init__(self):
        if self.annotations_per_text == 0:
            self.annotations_per_text = self.n_annotators
        if self.n_labels < 2:
            raise SynthError("need at least 2 labels")
        if self.vocab_size < self.n_labels:
            raise SynthError("vocab too small to carry one signal token per label")
        if self.group_count > self.n_annotators:
            raise SynthError("more groups than annotators")
        if not 0.0 <= self.bias_strength <= 1.0:
            raise SynthError("bias_strength must lie in [0, 1]")
        if not 1 <= self.annotations_per_text <= self.n_annotators:
            raise SynthError("annotations_per_text must lie in [1, n_annotators]")

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class GroundTruth:
    base_labels: dict[str, int]
    bias_matrices: dict[str, np.ndarray]
    group_ids: dict[str, int]
    config: PopulationConfig = field(repr=False, default=None)

    def to_dict(self) -> dict:
        return {
            "base_labels": self.base_labels,
            "bias_matrices": {a: m.tolist() for a, m in self.bias_matrices.items()},
            "group_ids": self.group_ids,
            "config": self.config.to_dict() if self.config else None,
        }

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, sort_keys=True, indent=2)
            fh.write("\n")


def _bias_matrix(n_labels: int, strength: float, rng: np.random.Generator) -> np.ndarray:
    """Identity rows, each independently remapped to a random one-hot target.

    Keeping whole rows deterministic (rather than mixing noise into every
    draw) gives annotators persistent relabeling habits that a per-annotator
    representation can actually exploit.
    """
    matrix = np.eye(n_labels)
    for row in range(n_labels):
        if rng.random() < strength:
            target = rng.integers(n_labels)
            matrix[row] = 0.0
            matrix[row, target] = 1.0
    return matrix


def _distinct_bias_matrices(count, n_labels, strength, rng, attempts=20):
    matrices: list[np.ndarray] = []
    for _ in range(count):
        matrix = _bias_matrix(n_labels, strength, rng)
        for _ in range(attempts):
            if not any(np.array_equal(matrix, m) for m in matrices):
                break
            matrix = _bias_matrix(n_labels, strength, rng)
        matrices.append(matrix)
    return matrices


def generate_population(cfg: PopulationConfig) -> tuple[Dataset, GroundTruth]:
    """Generate a corpus plus the ground truth that produced it.

    Deterministic for a given seed: the same config always yields the same
    dataset byte-for-byte through corpus.write_dataset.
    """
    rng = np.random.default_rng(cfg.seed)
    m = cfg.n_labels

    n_signal = max(1, (cfg.vocab_size // 2) // m)
    signal_pools = [
        [f"w{c * n_signal + i:03d}" for i in range(n_signal)] for c in range(m)
    ]
    filler_start = m * n_signal
    filler_pool = [f"w{i:03d}" for i in range(filler_start, cfg.vocab_size)] or ["w000"]

    if cfg.group_count > 0:
        group_matrices = _distinct_bias_matrices(cfg.group_count, m, cfg.bias_strength, rng)
        group_ids = {
            f"a{i:03d}": i % cfg.group_count for i in range(cfg.n_annotators)
        }
        bias = {a: group_matrices[g] for a, g in group_ids.items()}
    else:
        group_ids = {f"a{i:03d}": i for i in range(cfg.n_annotators)}
        bias = {
            a: _bias_matrix(m, cfg.bias_strength, rng) for a in group_ids
        }

    annotator_ids = list(group_ids)
    base_labels: dict[str, int] = {}
    examples: list[AnnotatedExample] = []
    demographics = {
        a: {"cohort": f"g{g}"} for a, g in group_ids.items()
    } if cfg.group_count > 0 else {}

    for t in range(cfg.n_texts):
        example_id = f"t{t:05d}"
        base = t % m
        base_labels[example_id] = base
        tokens = list(rng.choice(signal_pools[base], size=cfg.signal_tokens_per_text))
        tokens += list(rng.choice(filler_pool, size=cfg.filler_tokens_per_text))
        text = " ".join(tokens)
        if cfg.annotations_per_text == cfg.n_annotators:
            chosen = annotator_ids
        else:
            picks = rng.choice(cfg.n_annotators, size=cfg.annotations_per_text, replace=False)
            chosen = [annotator_ids[i] for i in sorted(picks)]
        for ann in chosen:
            label = int(rng.choice(m, p=bias[ann][base]))
            examples.append(AnnotatedExample(
                example_id=example_id,
                text=text,
                annotator_id=ann,
                label=label,
                demographics=demographics.get(ann),
            ))

    label_names = [f"L{c}" for c in range(m)]
    dataset = Dataset.from_examples(
        examples, label_names,
        name=f"synthetic-n{cfg.n_annotators}-g{cfg.group_count}-s{cfg.bias_strength}",
    )
    truth = GroundTruth(
        base_labels=base_labels,
        bias_matrices=bias,
        group_ids=group_ids,
        config=cfg,
    )
    return dataset, truth
