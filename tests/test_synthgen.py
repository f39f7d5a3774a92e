import io
import itertools

import numpy as np
import pytest

from annembed import synthgen
from annembed.analysis import cohen_kappa_matrix
from annembed.corpus import AnnotatedExample, dataset_statistics, write_dataset
from annembed.synthgen import PopulationConfig, SynthError, generate_population


def test_zero_bias_gives_unanimous_labels():
    cfg = PopulationConfig(n_annotators=4, n_texts=30, n_labels=3, bias_strength=0.0, seed=1)
    dataset, truth = generate_population(cfg)
    stats = dataset_statistics(dataset)
    assert stats.disagreement_histogram == {1: 30}
    for ex in dataset.examples:
        assert ex.label == truth.base_labels[ex.example_id]


def test_full_bias_group_never_emits_remapped_label():
    # find a seed where some group remaps label 0 away from itself
    for seed in range(30):
        cfg = PopulationConfig(n_annotators=6, n_texts=60, n_labels=3, group_count=2,
                               bias_strength=1.0, seed=seed)
        dataset, truth = generate_population(cfg)
        for ann, matrix in truth.bias_matrices.items():
            if matrix[0, 0] == 0.0:
                target = int(np.argmax(matrix[0]))
                for ex in dataset.examples:
                    if ex.annotator_id == ann and truth.base_labels[ex.example_id] == 0:
                        assert ex.label == target
                        assert ex.label != 0
                return
    pytest.fail("no remapped row found across seeds")


def test_bias_rows_are_stochastic():
    cfg = PopulationConfig(n_annotators=5, n_texts=10, n_labels=4, bias_strength=0.7, seed=3)
    _, truth = generate_population(cfg)
    for matrix in truth.bias_matrices.values():
        assert np.all(np.abs(matrix.sum(axis=1) - 1.0) < 1e-9)


def test_empirical_confusion_matches_bias_rows():
    cfg = PopulationConfig(n_annotators=12, n_texts=400, n_labels=3,
                           group_count=0, bias_strength=0.4, seed=7)
    dataset, truth = generate_population(cfg)
    confusion = {a: np.zeros((3, 3)) for a in truth.group_ids}
    for ex in dataset.examples:
        confusion[ex.annotator_id][truth.base_labels[ex.example_id], ex.label] += 1.0
    for ann, counts in confusion.items():
        freq = counts / counts.sum(axis=1, keepdims=True)
        assert np.max(np.abs(freq - truth.bias_matrices[ann])) <= 0.08


def test_same_seed_byte_identical():
    cfg = PopulationConfig(n_annotators=5, n_texts=40, n_labels=3, bias_strength=0.5, seed=9)
    out = []
    for _ in range(2):
        dataset, _ = generate_population(cfg)
        buf = io.StringIO()
        for ex in dataset.examples:
            buf.write(f"{ex.example_id}|{ex.text}|{ex.annotator_id}|{ex.label}\n")
        out.append(buf.getvalue())
    assert out[0] == out[1]


def test_group_mode_within_kappa_exceeds_between(tmp_path):
    cfg = PopulationConfig(n_annotators=9, n_texts=60, n_labels=3, group_count=3,
                           bias_strength=0.6, seed=13)
    dataset, truth = generate_population(cfg)
    kappa = cohen_kappa_matrix(dataset, min_overlap=5)
    ids = kappa.annotator_ids
    within, between = [], []
    for i in range(len(ids)):
        for j in range(i + 1, len(ids)):
            value = kappa.values[i, j]
            if truth.group_ids[ids[i]] == truth.group_ids[ids[j]]:
                within.append(value)
            else:
                between.append(value)
    assert np.mean(within) > np.mean(between)


def test_annotations_per_text_subsetting():
    cfg = PopulationConfig(n_annotators=8, n_texts=50, n_labels=2, bias_strength=0.2,
                           annotations_per_text=3, seed=4, vocab_size=20)
    dataset, _ = generate_population(cfg)
    stats = dataset_statistics(dataset)
    assert stats.n_annotations == 150
    per_text = {}
    for ex in dataset.examples:
        per_text[ex.example_id] = per_text.get(ex.example_id, 0) + 1
    assert set(per_text.values()) == {3}


def test_group_demographics_attached():
    cfg = PopulationConfig(n_annotators=6, n_texts=10, n_labels=2, group_count=2,
                           bias_strength=0.5, seed=2, vocab_size=20)
    dataset, truth = generate_population(cfg)
    for ex in dataset.examples:
        assert ex.demographics is not None
        assert ex.demographics["cohort"] == f"g{truth.group_ids[ex.annotator_id]}"


def test_config_validation():
    with pytest.raises(SynthError):
        PopulationConfig(n_labels=1)
    with pytest.raises(SynthError):
        PopulationConfig(n_labels=5, vocab_size=3)
    with pytest.raises(SynthError):
        PopulationConfig(n_annotators=3, group_count=4)
    with pytest.raises(SynthError):
        PopulationConfig(bias_strength=1.2)
    with pytest.raises(SynthError):
        PopulationConfig(n_annotators=4, annotations_per_text=9)


def test_generated_corpus_roundtrips(tmp_path):
    cfg = PopulationConfig(n_annotators=4, n_texts=20, n_labels=3, bias_strength=0.3, seed=6)
    dataset, _ = generate_population(cfg)
    path = tmp_path / "synth.jsonl"
    write_dataset(dataset, path)
    from annembed.corpus import load_dataset

    reloaded = load_dataset(path, dataset.label_names)
    assert reloaded.examples == dataset.examples


def _reference_population(cfg):
    """The corpus by one Generator.choice(m, p=row) call per annotation, the
    draws generate_population must reproduce: (examples, base_labels,
    bias_matrices, group_ids)."""
    rng = np.random.default_rng(cfg.seed)
    m = cfg.n_labels
    n_signal = max(1, (cfg.vocab_size // 2) // m)
    signal_pools = [[f"w{c * n_signal + i:03d}" for i in range(n_signal)] for c in range(m)]
    filler_pool = [f"w{i:03d}" for i in range(m * n_signal, cfg.vocab_size)] or ["w000"]
    if cfg.group_count > 0:
        group_matrices = synthgen._distinct_bias_matrices(cfg.group_count, m,
                                                          cfg.bias_strength, rng)
        group_ids = {f"a{i:03d}": i % cfg.group_count for i in range(cfg.n_annotators)}
        bias = {a: group_matrices[g] for a, g in group_ids.items()}
    else:
        group_ids = {f"a{i:03d}": i for i in range(cfg.n_annotators)}
        bias = {a: synthgen._bias_matrix(m, cfg.bias_strength, rng) for a in group_ids}
    annotator_ids = list(group_ids)
    base_labels, examples = {}, []
    for t in range(cfg.n_texts):
        example_id = f"t{t:05d}"
        base = t % m
        base_labels[example_id] = base
        tokens = list(rng.choice(signal_pools[base], size=synthgen.SIGNAL_TOKENS_PER_TEXT))
        tokens += list(rng.choice(filler_pool, size=synthgen.FILLER_TOKENS_PER_TEXT))
        text = " ".join(tokens)
        if cfg.annotations_per_text == cfg.n_annotators:
            chosen = annotator_ids
        else:
            picks = rng.choice(cfg.n_annotators, size=cfg.annotations_per_text, replace=False)
            chosen = [annotator_ids[i] for i in sorted(picks)]
        for ann in chosen:
            label = int(rng.choice(m, p=bias[ann][base]))
            demographics = {"cohort": f"g{group_ids[ann]}"} if cfg.group_count > 0 else None
            examples.append(AnnotatedExample(example_id, text, ann, label, demographics))
    return examples, base_labels, bias, group_ids


def _mixed_bias_matrix(n_labels, strength, rng):
    """Rows of each kind Generator.choice(m, p=row) takes: spread over every
    label, with zeros, and one-hot."""
    matrix = rng.dirichlet(np.ones(n_labels), size=n_labels)
    matrix[rng.random((n_labels, n_labels)) < strength / 2] = 0.0
    matrix[matrix.sum(axis=1) == 0.0, 0] = 1.0
    return matrix / matrix.sum(axis=1, keepdims=True)


@pytest.mark.parametrize("group_count, annotations_per_text, bias_strength, rows",
                         list(itertools.product((0, 3), (4, 0), (0.0, 0.5, 1.0),
                                                ("one-hot", "mixed"))))
def test_population_equals_the_per_annotation_reference(monkeypatch, group_count,
                                                        annotations_per_text, bias_strength,
                                                        rows):
    # the generator's rows are one-hot, where any uniform draw gives the same
    # label; mixed rows also check which draw goes to which annotation
    if rows == "mixed":
        monkeypatch.setattr(synthgen, "_bias_matrix", _mixed_bias_matrix)
    for n_labels in range(2, 13):
        cfg = PopulationConfig(n_annotators=7, n_texts=3 * n_labels, n_labels=n_labels,
                               vocab_size=40, group_count=group_count,
                               bias_strength=bias_strength,
                               annotations_per_text=annotations_per_text, seed=n_labels)
        dataset, truth = generate_population(cfg)
        examples, base_labels, bias, group_ids = _reference_population(cfg)
        assert dataset.examples == examples
        assert all(type(ex.label) is int for ex in dataset.examples)
        assert truth.base_labels == base_labels
        assert truth.group_ids == group_ids
        assert truth.bias_matrices.keys() == bias.keys()
        for ann, matrix in bias.items():
            assert np.array_equal(truth.bias_matrices[ann], matrix)
        assert truth.config is cfg
