"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
The mechanism-direction experiment (criterion 3) trains twenty small models
and dominates the runtime; everything here stays seeded and deterministic.
"""

import json
import time

import numpy as np

from annembed import tensor
from annembed.analysis import (
    adjusted_rand_index,
    annotation_embedding_points,
    cohen_kappa_matrix,
    demographic_alignment,
    kmeans,
    pca_project,
)
from annembed.cli import main as cli_main
from annembed.corpus import AnnotatedExample, Dataset, make_annotation_split
from annembed.embedding import (
    AnnotationIndex,
    CombinationMode,
    EmbeddingBank,
    annotation_embedding,
    bank_shapes,
    gate_weight,
    label_coefficients,
    parameter_overhead,
)
from annembed.encoder import (
    EncoderConfig,
    Vocabulary,
    classify,
    draw_parameters,
    embed_tokens,
    encode,
    tokenize,
)
from annembed.synthgen import PopulationConfig, generate_population
from annembed.trainer import (
    Model,
    TrainConfig,
    baselines,
    classification_scores,
    evaluate,
    train,
)

from gradcheck import finite_difference_check


def _report(number, label, elapsed=None):
    timing = f" [{elapsed:.1f}s]" if elapsed is not None else ""
    print(f"\ncriterion {number} ({label}): PASS{timing}")


def test_criterion_1_algebraic_identities():
    started = time.time()
    pop = PopulationConfig(n_annotators=50, n_texts=60, n_labels=4,
                           bias_strength=0.6, seed=17, vocab_size=40)
    dataset, _ = generate_population(pop)
    split = make_annotation_split(dataset, 0.7, seed=17)
    index = AnnotationIndex(split.train)
    shapes = list(bank_shapes(50, 4, 16))
    nodes = {name: tensor.parameter(np.empty((rows, cols))) for name, rows, cols, _ in shapes}
    draw_parameters(shapes, np.random.default_rng(1), nodes)
    bank = EmbeddingBank(**nodes)

    # leave-one-out means over every training annotation reproduce the
    # test-time embedding, per annotator
    loo: dict[str, list[np.ndarray]] = {}
    for ex in split.train.examples:
        coeff = index.train_coefficients(ex.annotator_id, ex.label)
        loo.setdefault(ex.annotator_id, []).append(annotation_embedding(bank, coeff).value[0])
    assert list(loo) == split.train.annotator_ids
    for annotator, rows in loo.items():
        test_emb = annotation_embedding(bank, label_coefficients(index.counts[annotator], 4))
        assert np.max(np.abs(np.mean(rows, axis=0) - test_emb.value[0])) < 1e-12

    # gate weight is bilinear in the gated embedding
    rng = np.random.default_rng(2)
    w_s = tensor.constant(rng.normal(size=(16, 16)))
    w_x = tensor.constant(rng.normal(size=(16, 16)))
    e_s = tensor.constant(rng.normal(size=(1, 16)))
    for _ in range(20):
        x, y = rng.normal(size=(1, 16)), rng.normal(size=(1, 16))
        c = float(rng.normal())
        ax = gate_weight(w_s, w_x, e_s, tensor.constant(x)).value[0, 0]
        ay = gate_weight(w_s, w_x, e_s, tensor.constant(y)).value[0, 0]
        acx = gate_weight(w_s, w_x, e_s, tensor.constant(c * x)).value[0, 0]
        axy = gate_weight(w_s, w_x, e_s, tensor.constant(x + y)).value[0, 0]
        assert abs(acx - c * ax) <= 1e-12 * max(1.0, abs(c * ax))
        assert abs(axy - (ax + ay)) <= 1e-12 * max(1.0, abs(ax + ay))

    # the TEXT_ONLY path ignores the embedding bank entirely, bit for bit
    enc_cfg = EncoderConfig(hidden=16, layers=1, heads=2, max_len=16,
                            ffn_mult=2, dropout=0.0)
    vocab = Vocabulary.build(ex.text for ex in split.train.examples)
    enc_cfg.vocab_size = vocab.size
    cfg = TrainConfig(mode=CombinationMode.TEXT_ONLY, epochs=1, seed=23)
    model_a = Model(enc_cfg, cfg, vocab, dataset.label_names,
                    split.train.annotator_ids, seed=23)
    model_b = Model(enc_cfg, cfg, vocab, dataset.label_names,
                    split.train.annotator_ids, seed=23)
    model_b.bank.annotator_rows.value[...] = 7.25   # a very different bank
    model_b.bank.w_sentence.value[...] = -3.5
    for ex in split.test.examples[:25]:
        ids = tokenize(ex.text, vocab, 16)
        logits_a = model_a.forward(ids, ex.annotator_id, None, training=False)
        logits_b = model_b.forward(ids, ex.annotator_id, None, training=False)
        hidden = encode(embed_tokens(ids, model_a.params), model_a.params, training=False)
        plain = classify(tensor.gather_rows(hidden, [0]), model_a.params)
        assert np.array_equal(logits_a.value, logits_b.value)
        assert np.array_equal(logits_a.value, plain.value)

    elapsed = time.time() - started
    assert elapsed < 10.0
    _report(1, "algebraic identity suite", elapsed)


def test_criterion_2_gradient_acceptance():
    started = time.time()
    pop = PopulationConfig(n_annotators=5, n_texts=24, n_labels=3,
                           bias_strength=0.5, seed=2, vocab_size=30)
    dataset, _ = generate_population(pop)
    split = make_annotation_split(dataset, 0.7, seed=2)
    enc_cfg = EncoderConfig(hidden=16, layers=1, heads=2, max_len=16,
                            ffn_mult=2, dropout=0.0)
    vocab = Vocabulary.build(ex.text for ex in split.train.examples)
    enc_cfg.vocab_size = vocab.size
    cfg = TrainConfig(mode=CombinationMode.TEXT_PLUS_BOTH, epochs=1, batch_size=4, seed=7)
    model = Model(enc_cfg, cfg, vocab, dataset.label_names,
                  split.train.annotator_ids, seed=7)
    index = AnnotationIndex(split.train)
    model.train_counts = dict(index.counts)

    # evaluate the check away from the tiny init, where gradients are not
    # drowned by finite-difference noise
    params = model.named_parameters()
    value_rng = np.random.default_rng(99)
    for node in params.values():
        node.value[...] = value_rng.normal(0.0, 0.3, size=node.value.shape)

    batch = split.train.examples[:4]
    items = [
        (tokenize(ex.text, vocab, 16), ex.annotator_id,
         index.train_coefficients(ex.annotator_id, ex.label), ex.label)
        for ex in batch
    ]

    def f():
        losses = [model.loss_for(ids, ann, coeff, gold)
                  for ids, ann, coeff, gold in items]
        total = losses[0]
        for extra in losses[1:]:
            total = tensor.add(total, extra)
        return tensor.scalar_scale(total, 1.0 / len(losses))

    err = finite_difference_check(f, params, eps=1e-5, max_coords=8,
                                  rng=np.random.default_rng(3))
    elapsed = time.time() - started
    assert err < 1e-4, f"max relative error {err:.3e}"
    assert elapsed < 60.0
    _report(2, f"gradient acceptance, max rel err {err:.2e}", elapsed)


# frozen experiment configuration; thresholds confirmed by the first oracle
# run (idiosyncratic: 5/5 wins, mean gap +27.7 EM points; groups: 5/5 wins,
# mean gap +39.4; ARI 1.0 on every seed) and locked here
MECHANISM_ENC = dict(hidden=32, layers=1, heads=2, max_len=16, ffn_mult=4, dropout=0.1)
MECHANISM_SEEDS = (0, 1, 2, 3, 4)


def _train_em(mode, split, seed):
    cfg = TrainConfig(mode=mode, epochs=3, batch_size=64, learning_rate=3e-3, seed=seed)
    model, _ = train(split, cfg, EncoderConfig(**MECHANISM_ENC))
    return model, evaluate(model, split.test).em_accuracy


def test_criterion_3_mechanism_direction():
    started = time.time()

    gaps = []
    for seed in MECHANISM_SEEDS:
        pop = PopulationConfig(n_annotators=12, n_texts=400, n_labels=3,
                               bias_strength=0.5, group_count=0, seed=seed)
        dataset, _ = generate_population(pop)
        split = make_annotation_split(dataset, 0.7, seed=seed)
        _, em_text = _train_em(CombinationMode.TEXT_ONLY, split, seed)
        _, em_annotator = _train_em(CombinationMode.TEXT_PLUS_ANNOTATOR, split, seed)
        gaps.append(em_annotator - em_text)
    wins = sum(g > 0 for g in gaps)
    assert wins >= 4, f"annotator embeddings won only {wins}/5 seeds"
    assert float(np.mean(gaps)) >= 0.03, f"mean gap {np.mean(gaps):+.4f} under +3 EM points"

    group_gaps, aris = [], []
    for seed in MECHANISM_SEEDS:
        pop = PopulationConfig(n_annotators=12, n_texts=400, n_labels=3,
                               bias_strength=0.8, group_count=3, seed=100 + seed)
        dataset, truth = generate_population(pop)
        split = make_annotation_split(dataset, 0.7, seed=seed)
        _, em_text = _train_em(CombinationMode.TEXT_ONLY, split, seed)
        model, em_annotation = _train_em(CombinationMode.TEXT_PLUS_ANNOTATION, split, seed)
        group_gaps.append(em_annotation - em_text)
        points, ids = annotation_embedding_points(model)
        clusters = kmeans(points, k=3, seed=seed, ids=ids)
        aris.append(adjusted_rand_index(
            [clusters.assignments[a] for a in ids],
            [truth.group_ids[a] for a in ids]))
    group_wins = sum(g > 0 for g in group_gaps)
    assert group_wins >= 4, f"annotation embeddings won only {group_wins}/5 seeds"
    assert float(np.mean(aris)) > 0.8, f"mean adjusted agreement {np.mean(aris):.3f}"
    assert sum(a > 0.8 for a in aris) >= 4

    elapsed = time.time() - started
    assert elapsed < 600.0
    _report(3, f"mechanism direction, gaps {np.mean(gaps):+.3f}/{np.mean(group_gaps):+.3f} EM,"
               f" mean ARI {np.mean(aris):.3f}", elapsed)


def test_criterion_4_metric_oracles():
    rng = np.random.default_rng(0)
    for _ in range(1000):
        m = int(rng.integers(2, 6))
        n = int(rng.integers(1, 101))
        golds = rng.integers(m, size=n)
        preds = rng.integers(m, size=n)
        em, macro, _, confusion = classification_scores(golds, preds, m)

        # brute force: recount everything straight from the label pairs
        oracle_confusion = [[0] * m for _ in range(m)]
        hits = 0
        for g, p in zip(golds, preds):
            oracle_confusion[g][p] += 1
            hits += int(g == p)
        oracle_em = hits / n
        oracle_scores = []
        for c in range(m):
            tp = oracle_confusion[c][c]
            fp = sum(oracle_confusion[r][c] for r in range(m)) - tp
            fn = sum(oracle_confusion[c]) - tp
            if tp == 0:
                oracle_scores.append(0.0)
            else:
                precision = tp / (tp + fp)
                recall = tp / (tp + fn)
                oracle_scores.append(2 * precision * recall / (precision + recall))
        oracle_macro = sum(oracle_scores) / m

        assert em == oracle_em
        assert macro == oracle_macro
        assert confusion.tolist() == oracle_confusion

    examples = [AnnotatedExample(f"t{i}", "text", "a", 0 if i < 876 else 1)
                for i in range(1008)]
    imbalanced = Dataset.from_examples(examples, ["no", "yes"])
    _, majority_em = baselines(imbalanced, seed=0)
    assert round(majority_em * 100, 2) == 86.90
    _report(4, "metric oracles")


def test_criterion_5_parameter_accounting():
    report = parameter_overhead(819, 2, 768, CombinationMode.TEXT_PLUS_BOTH,
                                base_parameters=130_000_000)
    assert report.added_parameters == 2_400_000
    assert report.over_budget, "the closed-form count must flag the one-million budget"
    assert report.budget == 1_000_000
    assert abs(report.ratio - 2_400_000 / 130_000_000) < 1e-15
    _report(5, "parameter accounting")


def test_criterion_6_analysis_suite():
    # constructed agreement extremes hit exactly +1 / -1
    perfect = []
    inverted = []
    for t, label in enumerate([0, 1, 0, 1, 1, 0]):
        perfect.append(AnnotatedExample(f"t{t}", "text", "a", label))
        perfect.append(AnnotatedExample(f"t{t}", "text", "b", label))
    for t, label in enumerate([0, 0, 1, 1]):
        inverted.append(AnnotatedExample(f"t{t}", "text", "a", label))
        inverted.append(AnnotatedExample(f"t{t}", "text", "b", 1 - label))
    kappa = cohen_kappa_matrix(Dataset.from_examples(perfect, ["L0", "L1"]), min_overlap=1)
    assert kappa.values[0, 1] == 1.0
    kappa = cohen_kappa_matrix(Dataset.from_examples(inverted, ["L0", "L1"]), min_overlap=1)
    assert kappa.values[0, 1] == -1.0

    # demographic mass conservation on randomized metadata
    rng = np.random.default_rng(5)
    values = [f"v{i}" for i in range(4)]
    examples = []
    annotators = [f"a{i}" for i in range(40)]
    for i, ann in enumerate(annotators):
        demo = {"dim_a": values[rng.integers(4)], "dim_b": values[rng.integers(3)]}
        examples.append(AnnotatedExample(f"t{i}", "text", ann, int(rng.integers(2)),
                                         demographics=demo))
    ds = Dataset.from_examples(examples, ["L0", "L1"])
    from annembed.analysis import ClusterResult

    clusters = ClusterResult(
        assignments={a: int(rng.integers(5)) for a in annotators},
        centroids=np.zeros((5, 2)), sse=0.0, seed=0)
    alignment = demographic_alignment(clusters, ds)
    for table in alignment.tables.values():
        for entry in table.values():
            assert abs(sum(entry["clusters"].values()) - 40.0) < 1e-9

    # k-means objective never increases, on every run
    for seed in range(8):
        points = np.random.default_rng(seed).normal(size=(50, 6))
        result = kmeans(points, k=4, seed=seed)
        trace = result.sse_trace
        assert all(trace[i + 1] <= trace[i] + 1e-9 for i in range(len(trace) - 1))

    # pca components orthonormal to 1e-9
    points = np.random.default_rng(9).normal(size=(30, 10))
    projection = pca_project(points, dims=3)
    gram = projection.components @ projection.components.T
    assert np.max(np.abs(gram - np.eye(3))) < 1e-9
    _report(6, "analysis suite")


def test_criterion_7_cli_reproducibility(tmp_path):
    started = time.time()
    synth = tmp_path / "synth"
    assert cli_main(["synth", "--out", str(synth), "--annotators", "4", "--texts", "24",
                     "--labels", "3", "--bias", "0.5", "--seed", "3",
                     "--vocab", "30"]) == 0
    split = tmp_path / "split"
    assert cli_main(["split", "--data", str(synth / "corpus.jsonl"), "--seed", "1",
                     "--out", str(split)]) == 0
    fast = ["--epochs", "2", "--batch-size", "16", "--lr", "2e-3", "--hidden", "16",
            "--layers", "1", "--heads", "2", "--max-len", "12", "--ffn-mult", "2",
            "--dropout", "0.1"]
    first = tmp_path / "train"
    assert cli_main(["train", "--data", str(split), "--mode", "text_plus_both",
                     "--seed", "5", "--out", str(first), *fast]) == 0

    # replay every stage from its manifest into fresh directories
    synth2 = tmp_path / "synth2"
    assert cli_main(["synth", "--config", str(synth / "manifest.json"),
                     "--out", str(synth2)]) == 0
    assert (synth / "corpus.jsonl").read_bytes() == (synth2 / "corpus.jsonl").read_bytes()
    assert (synth / "truth.json").read_bytes() == (synth2 / "truth.json").read_bytes()

    split2 = tmp_path / "split2"
    assert cli_main(["split", "--config", str(split / "manifest.json"),
                     "--out", str(split2)]) == 0
    for name in ("train.jsonl", "test.jsonl"):
        assert (split / name).read_bytes() == (split2 / name).read_bytes()

    second = tmp_path / "train2"
    assert cli_main(["train", "--config", str(first / "manifest.json"),
                     "--out", str(second)]) == 0
    for name in ("checkpoint/params.bin", "checkpoint/manifest.json",
                 "report.json", "report.txt", "run_log.json", "overhead.json"):
        assert (first / name).read_bytes() == (second / name).read_bytes(), name
    _report(7, "manifest reruns byte-identical", time.time() - started)
