import numpy as np
import pytest

from annembed.corpus import AnnotatedExample, Dataset, Split, make_annotation_split
from annembed.embedding import CombinationMode
from annembed.encoder import EncoderConfig
from annembed.synthgen import PopulationConfig, generate_population
from annembed.trainer import (
    EvalReport,
    TrainConfig,
    TrainingDiverged,
    baselines,
    evaluate,
    load_checkpoint,
    macro_f1_from_confusion,
    save_checkpoint,
    train,
)

FAST_ENC = dict(hidden=16, layers=1, heads=2, max_len=12, ffn_mult=2, dropout=0.0)


def _tiny_split(seed=0, n_annotators=4, n_texts=24, bias=0.5, groups=0):
    cfg = PopulationConfig(n_annotators=n_annotators, n_texts=n_texts, n_labels=3,
                           bias_strength=bias, group_count=groups, seed=seed,
                           vocab_size=30)
    dataset, _ = generate_population(cfg)
    return make_annotation_split(dataset, 0.7, seed=seed)


def test_single_example_memorization():
    examples = [
        AnnotatedExample("t0", "alpha beta gamma", "a", 1),
        AnnotatedExample("t1", "delta epsilon", "a", 0),
    ]
    ds = Dataset.from_examples(examples, ["L0", "L1"])
    split = Split(train=ds, test=ds, kind="annotation", seed=0)
    cfg = TrainConfig(mode=CombinationMode.TEXT_ONLY, epochs=300, batch_size=2,
                      learning_rate=1e-2, seed=0)
    model, trace = train(split, cfg, EncoderConfig(**FAST_ENC))
    assert trace[-1] < 1e-3


def test_same_seed_identical_traces():
    split = _tiny_split()
    cfg = TrainConfig(mode=CombinationMode.TEXT_PLUS_BOTH, epochs=2, batch_size=16,
                      learning_rate=1e-3, seed=5)
    _, trace_a = train(split, cfg, EncoderConfig(**dict(FAST_ENC, dropout=0.1)))
    _, trace_b = train(split, cfg, EncoderConfig(**dict(FAST_ENC, dropout=0.1)))
    assert trace_a == trace_b


def test_annotator_mode_fits_train_loss_better():
    # idiosyncratic relabeling: per-annotator capacity should win on 5/5 seeds
    enc_cfg = dict(FAST_ENC, hidden=24)
    for seed in range(5):
        split = _tiny_split(seed=seed, n_annotators=6, n_texts=40, bias=0.6)
        final = {}
        for mode in (CombinationMode.TEXT_ONLY, CombinationMode.TEXT_PLUS_ANNOTATOR):
            cfg = TrainConfig(mode=mode, epochs=5, batch_size=32,
                              learning_rate=3e-3, seed=seed)
            _, trace = train(split, cfg, EncoderConfig(**enc_cfg))
            final[mode] = np.mean(trace[-3:])
        assert final[CombinationMode.TEXT_PLUS_ANNOTATOR] < final[CombinationMode.TEXT_ONLY]


def test_empty_train_split_rejected():
    ds = Dataset.from_examples(
        [AnnotatedExample("t0", "x", "a", 0), AnnotatedExample("t1", "y", "a", 1)],
        ["L0", "L1"])
    empty = Dataset.from_examples([], ["L0", "L1"])
    split = Split(train=empty, test=ds, kind="annotator", seed=0)
    with pytest.raises(ValueError):
        train(split, TrainConfig(epochs=1), EncoderConfig(**FAST_ENC))


@pytest.mark.parametrize("lr", [0.0, -1.0, float("nan"), float("inf")])
def test_train_config_rejects_bad_learning_rate(lr):
    with pytest.raises(ValueError, match="learning_rate"):
        TrainConfig(learning_rate=lr)


def test_divergence_aborts():
    # a step size this large overflows the very next forward pass
    split = _tiny_split()
    cfg = TrainConfig(mode=CombinationMode.TEXT_ONLY, epochs=3, batch_size=8,
                      learning_rate=1e200, seed=0)
    with pytest.raises(TrainingDiverged):
        with np.errstate(all="ignore"):
            train(split, cfg, EncoderConfig(**FAST_ENC))


def test_macro_f1_hand_case():
    confusion = np.array([[2, 0, 0], [0, 0, 1], [0, 0, 1]])
    macro, per_class = macro_f1_from_confusion(confusion)
    assert macro == pytest.approx((1.0 + 0.0 + 2.0 / 3.0) / 3.0, abs=1e-12)
    assert per_class[0] == 1.0 and per_class[1] == 0.0


def test_macro_f1_oracle_on_random_confusions():
    rng = np.random.default_rng(0)
    for _ in range(200):
        m = int(rng.integers(2, 6))
        confusion = rng.integers(0, 6, size=(m, m))
        macro, _ = macro_f1_from_confusion(confusion)
        # independent oracle: recount tp/fp/fn per class from the matrix
        scores = []
        for c in range(m):
            tp = int(confusion[c, c])
            fp = int(confusion[:, c].sum() - tp)
            fn = int(confusion[c, :].sum() - tp)
            if tp == 0:
                scores.append(0.0)
            else:
                p = tp / (tp + fp)
                r = tp / (tp + fn)
                scores.append(2 * p * r / (p + r))
        assert macro == sum(scores) / m


def _trained_model(mode=CombinationMode.TEXT_PLUS_BOTH, seed=1, epochs=2, **enc_kw):
    split = _tiny_split(seed=seed)
    cfg = TrainConfig(mode=mode, epochs=epochs, batch_size=16, learning_rate=2e-3, seed=seed)
    model, _ = train(split, cfg, EncoderConfig(**dict(FAST_ENC, **enc_kw)))
    return model, split


def test_evaluate_perfect_predictions_shape():
    model, split = _trained_model(mode=CombinationMode.TEXT_ONLY, epochs=1)
    report = evaluate(model, split.test)
    assert 0.0 <= report.em_accuracy <= 1.0
    assert 0.0 <= report.macro_f1 <= 1.0
    assert report.n_annotations == len(split.test)
    assert sum(sum(row) for row in report.confusion) == report.n_annotations


def test_evaluate_counts_duplicate_texts_separately():
    model, _ = _trained_model(mode=CombinationMode.TEXT_ONLY, epochs=1)
    examples = [
        AnnotatedExample("t0", "same text", "a000", 0),
        AnnotatedExample("t0", "same text", "a001", 1),
    ]
    ds = Dataset.from_examples(examples, model.label_names)
    report = evaluate(model, ds)
    assert report.n_annotations == 2
    # one gold is 0 and the other 1 for the same text: at most one can match
    assert report.em_accuracy in (0.0, 0.5)


def test_evaluate_order_invariant():
    model, split = _trained_model(epochs=1)
    report_a = evaluate(model, split.test)
    reversed_ds = Dataset.from_examples(list(reversed(split.test.examples)),
                                        split.test.label_names)
    report_b = evaluate(model, reversed_ds)
    assert report_a.em_accuracy == report_b.em_accuracy
    assert report_a.macro_f1 == report_b.macro_f1
    assert report_a.confusion == report_b.confusion


def test_evaluate_rejects_empty_dataset():
    model, _ = _trained_model(mode=CombinationMode.TEXT_ONLY, epochs=1)
    with pytest.raises(ValueError, match="empty"):
        evaluate(model, Dataset.from_examples([], model.label_names))


def test_evaluate_handles_unseen_annotators():
    model, split = _trained_model(epochs=1)
    examples = [AnnotatedExample("t0", "novel words", "never-seen", 0),
                AnnotatedExample("t1", "other words", "never-seen", 1)]
    ds = Dataset.from_examples(examples, model.label_names)
    report = evaluate(model, ds)
    assert report.n_annotations == 2
    # deterministic: the fallback embedding row is derived from the model seed
    again = evaluate(model, ds)
    assert report.em_accuracy == again.em_accuracy


def test_baselines_balanced_binary():
    rng = np.random.default_rng(0)
    examples = [AnnotatedExample(f"t{i}", "text", "a", int(rng.integers(2)))
                for i in range(4000)]
    ds = Dataset.from_examples(examples, ["L0", "L1"])
    random_em, _ = baselines(ds, seed=1)
    assert abs(random_em - 0.5) < 0.03


def test_baselines_majority_fraction():
    examples = [AnnotatedExample(f"t{i}", "text", "a", 0 if i < 876 else 1)
                for i in range(1008)]
    ds = Dataset.from_examples(examples, ["no", "yes"])
    _, majority_em = baselines(ds, seed=0)
    assert majority_em == pytest.approx(876 / 1008)
    assert round(majority_em * 100, 2) == 86.90


def test_baselines_majority_three_way():
    labels = [0] * 5 + [1] * 3 + [2] * 2
    examples = [AnnotatedExample(f"t{i}", "text", "a", l) for i, l in enumerate(labels)]
    ds = Dataset.from_examples(examples, ["L0", "L1", "L2"])
    _, majority_em = baselines(ds, seed=0)
    assert majority_em == pytest.approx(0.5)


def test_checkpoint_roundtrip_bit_exact(tmp_path):
    model, split = _trained_model(epochs=2)
    report_before = evaluate(model, split.test)
    save_checkpoint(model, tmp_path / "ckpt")
    reloaded = load_checkpoint(tmp_path / "ckpt")
    for name, node in model.named_parameters(CombinationMode.TEXT_PLUS_BOTH).items():
        other = reloaded.named_parameters(CombinationMode.TEXT_PLUS_BOTH)[name]
        assert np.array_equal(node.value, other.value), name
    report_after = evaluate(reloaded, split.test)
    assert report_before.em_accuracy == report_after.em_accuracy
    assert report_before.macro_f1 == report_after.macro_f1
    assert report_before.confusion == report_after.confusion


def test_checkpoint_save_twice_identical_bytes(tmp_path):
    model, _ = _trained_model(epochs=1)
    save_checkpoint(model, tmp_path / "a")
    save_checkpoint(model, tmp_path / "b")
    for name in ("manifest.json", "params.bin"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_ablation_combination_equals_evaluate():
    from annembed.trainer import ablation_eval

    model, split = _trained_model(epochs=1)
    plain = evaluate(model, split.test)
    combo = ablation_eval(model, split.test, "combination")
    assert combo.em_accuracy == plain.em_accuracy
    assert combo.confusion == plain.confusion


def test_ablation_text_only_on_text_only_model():
    from annembed.trainer import ablation_eval

    model, split = _trained_model(mode=CombinationMode.TEXT_ONLY, epochs=1)
    plain = evaluate(model, split.test)
    ablated = ablation_eval(model, split.test, "text_only")
    assert ablated.em_accuracy == plain.em_accuracy
    assert ablated.confusion == plain.confusion


def test_ablation_text_only_on_both_model_equals_text_only_mode():
    from annembed.trainer import ablation_eval

    model, split = _trained_model(epochs=1)
    plain = evaluate(model, split.test, mode=CombinationMode.TEXT_ONLY)
    ablated = ablation_eval(model, split.test, "text_only")
    assert ablated.variant == "text_only"
    assert ablated.em_accuracy == plain.em_accuracy
    assert ablated.confusion == plain.confusion


def test_embedding_only_under_narrower_mode_uses_only_annotator_gate():
    from annembed import tensor
    from annembed.embedding import gate_weight, sentence_embedding
    from annembed.encoder import classify, embed_tokens, encode, tokenize

    model, split = _trained_model(epochs=1)
    narrow = CombinationMode.TEXT_PLUS_ANNOTATOR
    report = evaluate(model, split.test, mode=narrow, keep_text=False)
    assert report.n_annotations == len(split.test)
    for ex in split.test.examples[:5]:
        ids = tokenize(ex.text, model.vocab, model.encoder_config.max_len)
        e_t = embed_tokens(ids, model.params)
        e_a = model.annotator_embedding(ex.annotator_id)
        alpha = gate_weight(model.bank.w_sentence, model.bank.w_annotator,
                            sentence_embedding(e_t), e_a).value[0, 0]
        combined = np.zeros_like(e_t.value)
        combined[0] = alpha * e_a.value[0]
        hidden = encode(tensor.constant(combined), model.params, training=False)
        oracle = classify(tensor.gather_rows(hidden, [0]), model.params).value
        logits = model.forward(ids, ex.annotator_id, None, mode=narrow, keep_text=False)
        assert np.allclose(logits.value, oracle, atol=1e-12)
    # the annotation gate and label rows play no part
    model.bank.w_annotation.value[...] = 1e3
    model.bank.label_rows.value[...] = 1e3
    again = evaluate(model, split.test, mode=narrow, keep_text=False)
    assert again.confusion == report.confusion


def test_ablation_embedding_only_tends_to_majority():
    # heavily imbalanced labels: with the text zeroed out the model should
    # mostly emit the dominant label
    rng = np.random.default_rng(3)
    examples = []
    for t in range(60):
        for a in range(3):
            label = 0 if rng.random() < 0.85 else 1
            examples.append(AnnotatedExample(f"t{t}", f"tok{t % 7} tok{(t + 3) % 11}",
                                             f"a{a}", label))
    ds = Dataset.from_examples(examples, ["L0", "L1"])
    split = make_annotation_split(ds, 0.7, seed=3)
    cfg = TrainConfig(mode=CombinationMode.TEXT_PLUS_BOTH, epochs=6, batch_size=16,
                      learning_rate=3e-3, seed=3)
    model, _ = train(split, cfg, EncoderConfig(**FAST_ENC))
    from annembed.trainer import ablation_eval

    report = ablation_eval(model, split.test, "embedding_only")
    predicted = np.array(report.confusion).sum(axis=0)
    assert int(np.argmax(predicted)) == 0


def test_ablation_rejects_embedding_only_for_text_only_model():
    from annembed.trainer import ablation_eval

    model, split = _trained_model(mode=CombinationMode.TEXT_ONLY, epochs=1)
    with pytest.raises(ValueError):
        ablation_eval(model, split.test, "embedding_only")


def test_text_only_forward_identical_without_bank():
    # the TEXT_ONLY path must produce logits bitwise equal to a forward pass
    # assembled without any embedding-bank machinery
    from annembed import tensor
    from annembed.encoder import classify, embed_tokens, encode, tokenize

    model, split = _trained_model(mode=CombinationMode.TEXT_ONLY, epochs=1)
    for ex in split.test.examples[:10]:
        ids = tokenize(ex.text, model.vocab, model.encoder_config.max_len)
        via_model = model.forward(ids, ex.annotator_id, None, training=False)
        hidden = encode(embed_tokens(ids, model.params), model.params, training=False)
        plain = classify(tensor.gather_rows(hidden, [0]), model.params)
        assert np.array_equal(via_model.value, plain.value)


def test_annotator_permutation_equivariance():
    # permuting the annotator registry (and bank rows to match) leaves every
    # per-annotation loss unchanged
    from annembed.embedding import AnnotationIndex
    from annembed.encoder import tokenize

    model, split = _trained_model(epochs=1)
    index = AnnotationIndex(split.train, len(model.label_names))
    perm = list(reversed(range(len(model.annotator_ids))))
    permuted_rows = model.bank.annotator_rows.value[perm].copy()

    losses_before = []
    for ex in split.train.examples[:12]:
        ids = tokenize(ex.text, model.vocab, model.encoder_config.max_len)
        coeff = index.train_coefficients(ex.annotator_id, ex.example_id)
        losses_before.append(model.loss_for(ids, ex.annotator_id, coeff, ex.label).value[0, 0])

    model.annotator_ids = [model.annotator_ids[i] for i in perm]
    model.annotator_index = {a: i for i, a in enumerate(model.annotator_ids)}
    model.bank.annotator_rows.value[...] = permuted_rows

    losses_after = []
    for ex in split.train.examples[:12]:
        ids = tokenize(ex.text, model.vocab, model.encoder_config.max_len)
        coeff = index.train_coefficients(ex.annotator_id, ex.example_id)
        losses_after.append(model.loss_for(ids, ex.annotator_id, coeff, ex.label).value[0, 0])
    assert losses_before == losses_after


def test_eval_report_serialization():
    report = EvalReport(em_accuracy=0.5, macro_f1=0.4, per_annotator_em={"a": 0.5},
                        confusion=[[1, 1], [0, 2]], n_annotations=4)
    obj = report.to_dict()
    assert obj["em_accuracy"] == 0.5
    text = report.to_text(["yes", "no"])
    assert "macro_f1" in text and "yes" in text
