"""Synthetic multi-annotator corpora with controlled idiosyncrasy.

Texts are token sequences carrying an unambiguous class signal; annotators
relabel them through per-annotator (or per-group) row-stochastic bias
matrices. bias_strength is the probability that a bias row redirects its
base label to a random target label, so 0 gives unanimous clean labels and
1 gives fully remapped ones.

The order of the random draws is part of the byte-for-byte contract: one
seeded generator draws the bias matrices, then for each text in turn its
signal and filler tokens, its annotator picks (unless every annotator labels
every text) and one uniform double per annotation, which picks the label
from that annotator's cumulative bias row as Generator.choice(m, p=row)
would. Drawing these in another order or through other calls changes the
corpus.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .corpus import Dataset, check_fields, label_dtype, renumbered


# the tokens of each text from its base label's signal pool, then the filler pool
SIGNAL_TOKENS_PER_TEXT, FILLER_TOKENS_PER_TEXT = 4, 2


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

    def __post_init__(self):
        check_fields(self)
        if self.annotations_per_text == 0:
            self.annotations_per_text = self.n_annotators
        if self.n_labels < 2:
            raise SynthError("n_labels must be at least 2")
        if self.vocab_size < self.n_labels:
            raise SynthError("vocab_size must be at least n_labels, one signal token per label")
        if self.group_count > self.n_annotators:
            raise SynthError("group_count must not exceed n_annotators")
        if not 0.0 <= self.bias_strength <= 1.0:
            raise SynthError("bias_strength must lie in [0, 1]")
        if not 1 <= self.annotations_per_text <= self.n_annotators:
            raise SynthError("annotations_per_text must lie in [1, n_annotators]")


@dataclass
class GroundTruth:
    base_labels: dict[str, int]
    bias_matrices: dict[str, np.ndarray]
    group_ids: dict[str, int]
    config: PopulationConfig = field(repr=False, default=None)


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


# the redraws of a group's bias matrix that _distinct_bias_matrices makes
# before it accepts a duplicate
BIAS_ATTEMPTS = 20


def _distinct_bias_matrices(count, n_labels, strength, rng):
    matrices: list[np.ndarray] = []
    for _ in range(count):
        matrix = _bias_matrix(n_labels, strength, rng)
        for _ in range(BIAS_ATTEMPTS):
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
        np.array([f"w{c * n_signal + i:03d}" for i in range(n_signal)]) for c in range(m)
    ]
    filler_start = m * n_signal
    filler_pool = np.array([f"w{i:03d}" for i in range(filler_start, cfg.vocab_size)] or ["w000"])

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
    # cdf[base, i] is the cumulative bias row of annotator i for that base
    # label, normalised as Generator.choice(m, p=row) does before its one
    # uniform draw; a label is then the count of cdf entries <= that draw
    cdf = np.stack([bias[a] for a in annotator_ids], axis=1).cumsum(axis=2)
    cdf /= cdf[:, :, -1:]
    everyone = np.arange(cfg.n_annotators)
    base_labels: dict[str, int] = {}
    # row t: text t's annotators (indices into annotator_ids) and their labels
    n_texts, per_text = max(cfg.n_texts, 0), cfg.annotations_per_text
    annotators = np.empty((n_texts, per_text), np.int64)
    labels = np.empty((n_texts, per_text), label_dtype(m))
    # each distinct text's index in the text table, and each text's index there
    texts: dict[str, int] = {}
    text_of = []

    for t in range(n_texts):
        example_id = f"t{t:05d}"
        base = t % m
        base_labels[example_id] = base
        tokens = rng.choice(signal_pools[base], size=SIGNAL_TOKENS_PER_TEXT).tolist()
        tokens += rng.choice(filler_pool, size=FILLER_TOKENS_PER_TEXT).tolist()
        text_of.append(texts.setdefault(" ".join(tokens), len(texts)))
        if cfg.annotations_per_text == cfg.n_annotators:
            chosen = everyone
        else:
            chosen = np.sort(rng.choice(cfg.n_annotators, size=cfg.annotations_per_text,
                                        replace=False))
        draws = rng.random(len(chosen))
        annotators[t] = chosen
        labels[t] = (cdf[base, chosen] <= draws[:, None]).sum(axis=1)

    chosen = annotators.ravel()
    if cfg.group_count > 0:
        # one {"cohort": ...} dict per group; annotator i is in group group_ids[a_i]
        demographics = tuple({"cohort": f"g{g}"} for g in range(cfg.group_count))
        demographics_index = np.array(list(group_ids.values()), np.int32)[chosen]
    else:
        demographics, demographics_index = (), np.full(len(chosen), -1, np.int32)
    annotator_ids, annotator_index = renumbered(annotator_ids, chosen)
    dataset = Dataset(
        label_names=[f"L{c}" for c in range(m)], annotator_ids=annotator_ids,
        example_ids=list(base_labels), texts=tuple(texts), demographics=demographics,
        annotator_index=annotator_index,
        example_index=np.repeat(np.arange(n_texts, dtype=np.int32), per_text),
        text_index=np.repeat(np.array(text_of, np.int32), per_text),
        demographics_index=demographics_index,
        labels=labels.ravel(),
        name=f"synthetic-n{cfg.n_annotators}-g{cfg.group_count}-s{cfg.bias_strength}",
    )
    truth = GroundTruth(
        base_labels=base_labels,
        bias_matrices=bias,
        group_ids=group_ids,
        config=cfg,
    )
    return dataset, truth
