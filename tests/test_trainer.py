import errno
import gc
import hashlib
import inspect
import json
import os
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from annembed import encoder, tensor, trainer
from annembed.corpus import (
    AnnotatedExample,
    Dataset,
    Split,
    _subset,
    make_annotation_split,
    read_record,
    write_json,
)
from annembed.embedding import CombinationMode
from annembed.encoder import EncoderConfig, Vocabulary
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

from gradcheck import sum_all

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


@pytest.mark.parametrize("lr", [0.0, -1.0, float("nan"), float("inf"), True])
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


def test_diverged_train_restores_caller_gc_state(caller_gc):
    split = _tiny_split()
    cfg = TrainConfig(mode=CombinationMode.TEXT_ONLY, epochs=3, batch_size=8,
                      learning_rate=1e200, seed=0)
    with pytest.raises(TrainingDiverged):
        with np.errstate(all="ignore"):
            train(split, cfg, EncoderConfig(**FAST_ENC))
    assert gc.isenabled() is caller_gc


def test_train_runs_with_collector_paused(monkeypatch, caller_gc):
    seen = []
    step = trainer.Adam.step

    def recording_step(self):
        seen.append(gc.isenabled())
        step(self)

    monkeypatch.setattr(trainer.Adam, "step", recording_step)
    cfg = TrainConfig(mode=CombinationMode.TEXT_ONLY, epochs=1, batch_size=8, seed=0)
    train(_tiny_split(), cfg, EncoderConfig(**FAST_ENC))
    assert seen and not any(seen)
    assert gc.isenabled() is caller_gc


def test_train_bit_equal_whatever_the_caller_gc_state():
    split = _tiny_split()
    cfg = TrainConfig(mode=CombinationMode.TEXT_PLUS_BOTH, epochs=1, batch_size=8,
                      learning_rate=1e-3, seed=4)
    enc = EncoderConfig(**dict(FAST_ENC, dropout=0.1))
    was_enabled = gc.isenabled()
    runs = []
    try:
        for enable in (gc.enable, gc.disable):
            enable()
            model, trace = train(split, cfg, enc)
            runs.append(({k: p.value.copy() for k, p in model.named_parameters().items()},
                         trace))
    finally:
        (gc.enable if was_enabled else gc.disable)()
    (params_on, trace_on), (params_off, trace_off) = runs
    assert trace_on == trace_off
    assert params_on.keys() == params_off.keys()
    for key in params_on:
        assert np.array_equal(params_on[key], params_off[key]), key


def test_paused_train_and_evaluate_leave_no_cycles():
    # training and evaluation build only acyclic graphs and records, so with
    # the collector off throughout, refcounting alone frees everything
    split = _tiny_split()
    cfg = TrainConfig(mode=CombinationMode.TEXT_PLUS_BOTH, epochs=1, batch_size=8,
                      learning_rate=1e-3, seed=3)
    enc = EncoderConfig(**dict(FAST_ENC, dropout=0.1))
    gc.collect()
    gc.disable()
    try:
        model, _ = train(split, cfg, enc)
        evaluate(model, split.test)
        assert gc.collect() == 0
    finally:
        gc.enable()


# one step's graph plus a frontier of interior gradients, against the two
# graphs (the finished step's and the next one's) that a step left alive
# when its graph outlived it; the margin was set before measuring
STEP_MEMORY_MARGIN = 1.5


def test_train_holds_one_step_graph_at_a_time():
    population = PopulationConfig(n_annotators=4, n_texts=40, n_labels=3, bias_strength=0.5,
                                  seed=0, vocab_size=30)
    split = make_annotation_split(generate_population(population)[0], 0.7, seed=0)
    cfg = TrainConfig(mode=CombinationMode.TEXT_PLUS_BOTH, epochs=1, batch_size=32,
                      learning_rate=1e-3, seed=0)
    enc = EncoderConfig(**dict(FAST_ENC, dropout=0.1))
    assert len(split.train) >= 3 * cfg.batch_size
    model, _ = train(split, cfg, enc)
    batch = split.train.examples[:cfg.batch_size]
    rng = np.random.default_rng(0)
    params = model.named_parameters().values()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        losses = [model.loss_for(encoder.tokenize(ex.text, model.vocab, enc.max_len),
                                 ex.annotator_id, model.test_coefficients(ex.annotator_id),
                                 ex.label, training=True, rng=rng) for ex in batch]
        graph = tracemalloc.get_traced_memory()[0] - start
        del losses
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        train(split, cfg, enc)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    # values, gradients, Adam's two moments and its temporaries
    buffers = 6 * sum(p.value.nbytes for p in params)
    assert peak < STEP_MEMORY_MARGIN * (graph + buffers), (peak, graph, buffers)


def test_select_on_dev_needs_a_dev_split():
    split = _tiny_split()
    assert split.dev is None
    cfg = TrainConfig(mode=CombinationMode.TEXT_ONLY, epochs=1, batch_size=8,
                      select_on_dev=True)
    with pytest.raises(ValueError, match="select_on_dev needs a dev split"):
        train(split, cfg, EncoderConfig(**FAST_ENC))


def _dev_split():
    population = PopulationConfig(n_annotators=4, n_texts=30, n_labels=3, bias_strength=0.5,
                                  seed=2, vocab_size=30)
    return make_annotation_split(generate_population(population)[0], 0.7, seed=2,
                                 dev_frac=0.3)


def _recording_evaluate(monkeypatch, ems=None):
    """Record each evaluate's EM and the parameters it saw; ems, if given,
    replaces the EMs that the reports give back."""
    seen = []
    real_evaluate = trainer.evaluate

    def recording(model, dataset, *args, **kwargs):
        report = real_evaluate(model, dataset, *args, **kwargs)
        if ems is not None:
            report.em_accuracy = ems[len(seen)]
        seen.append((report.em_accuracy, {k: p.value.copy()
                                          for k, p in model.named_parameters().items()}))
        return report

    monkeypatch.setattr(trainer, "evaluate", recording)
    return seen


@pytest.mark.parametrize("ems", [None, [0.2, 0.6, 0.4, 0.6, 0.1]],
                         ids=["measured", "best_second_of_five"])
def test_select_on_dev_returns_the_best_epoch(monkeypatch, ems):
    split = _dev_split()
    assert split.dev is not None
    seen = _recording_evaluate(monkeypatch, ems)
    cfg = TrainConfig(mode=CombinationMode.TEXT_PLUS_BOTH, epochs=5, batch_size=8,
                      learning_rate=2e-2, seed=2, select_on_dev=True)
    model, _ = train(split, cfg, EncoderConfig(**FAST_ENC))
    assert len(seen) == cfg.epochs
    scores = [em for em, _ in seen]
    best = scores.index(max(scores))   # the first epoch to reach the best EM
    if ems is not None:
        assert best == 1
    for key, param in model.named_parameters().items():
        assert np.array_equal(param.value, seen[best][1][key]), key
    if best != len(seen) - 1:
        assert any(not np.array_equal(seen[-1][1][k], p.value)
                   for k, p in model.named_parameters().items())


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


def test_evaluate_rejects_reordered_label_schema():
    model, split = _trained_model(mode=CombinationMode.TEXT_ONLY, epochs=1)
    reordered = Dataset.from_examples(split.test.examples, ["L1", "L0", "L2"])
    with pytest.raises(ValueError, match=r"\['L1', 'L0', 'L2'\].*\['L0', 'L1', 'L2'\]"):
        evaluate(model, reordered)


def test_train_leaves_the_callers_encoder_config_alone(tmp_path):
    def corpus(texts):
        ds = Dataset.from_examples(
            [AnnotatedExample(f"t{i}", text, "a", i % 2) for i, text in enumerate(texts)],
            ["L0", "L1"])
        return Split(train=ds, test=ds, kind="annotation", seed=0)

    enc_cfg = EncoderConfig(**FAST_ENC)
    cfg = TrainConfig(mode=CombinationMode.TEXT_ONLY, epochs=1, batch_size=2, seed=0)
    first, _ = train(corpus(["alpha beta", "beta gamma"]), cfg, enc_cfg)
    second, _ = train(corpus(["one two three", "four five six", "seven eight"]), cfg, enc_cfg)
    assert enc_cfg.vocab_size == 0
    assert first.encoder_config.vocab_size == first.vocab.size < second.vocab.size
    save_checkpoint(first, tmp_path / "first")
    assert load_checkpoint(tmp_path / "first").vocab.token_to_id == first.vocab.token_to_id


def test_train_numbers_tokens_in_the_order_the_train_part_first_uses_its_texts():
    """A split part shares its source's text table, which also holds the
    test part's texts; the vocabulary reads the train annotations in order."""
    texts = ["only test words", "train words here", "more train", "train again"]
    ds = Dataset.from_examples(
        [AnnotatedExample(f"t{t}", texts[t], ann, (t + i) % 2)
         for t in (0, 3, 1, 2) for i, ann in enumerate(("a", "b"))], ["L0", "L1"])
    split = Split(train=_subset(ds, ds.example_index > 0, "train"),
                  test=_subset(ds, ds.example_index == 0, "test"))
    assert split.train.texts == ds.texts == (texts[0], texts[3], texts[1], texts[2])
    cfg = TrainConfig(mode=CombinationMode.TEXT_ONLY, epochs=1, batch_size=2, seed=0)
    model, _ = train(split, cfg, EncoderConfig(**FAST_ENC))
    want = Vocabulary.build([texts[3], texts[1], texts[2]])
    assert model.vocab.token_to_id == want.token_to_id


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
    for name, node in model.named_parameters().items():
        other = reloaded.named_parameters()[name]
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
    index = AnnotationIndex(split.train)
    perm = list(reversed(range(len(model.annotator_ids))))
    permuted_rows = model.bank.annotator_rows.value[perm].copy()

    losses_before = []
    for ex in split.train.examples[:12]:
        ids = tokenize(ex.text, model.vocab, model.encoder_config.max_len)
        coeff = index.train_coefficients(ex.annotator_id, ex.label)
        losses_before.append(model.loss_for(ids, ex.annotator_id, coeff, ex.label).value[0, 0])

    model.annotator_ids = [model.annotator_ids[i] for i in perm]
    model.annotator_index = {a: i for i, a in enumerate(model.annotator_ids)}
    model.bank.annotator_rows.value[...] = permuted_rows

    losses_after = []
    for ex in split.train.examples[:12]:
        ids = tokenize(ex.text, model.vocab, model.encoder_config.max_len)
        coeff = index.train_coefficients(ex.annotator_id, ex.label)
        losses_after.append(model.loss_for(ids, ex.annotator_id, coeff, ex.label).value[0, 0])
    assert losses_before == losses_after


def test_eval_report_serialization(tmp_path):
    report = EvalReport(em_accuracy=0.5, macro_f1=0.4, per_annotator_em={"a": 0.5},
                        confusion=[[1, 1], [0, 2]], n_annotations=4)
    write_json(tmp_path / "report.json", report)
    assert read_record(tmp_path / "report.json", EvalReport) == report
    text = report.to_text(["yes", "no"])
    assert "macro_f1" in text and "yes" in text


def test_eval_forward_allocates_no_gradient():
    from annembed.encoder import tokenize

    model, split = _trained_model(epochs=1)
    ex = split.test.examples[0]
    ids = tokenize(ex.text, model.vocab, model.encoder_config.max_len)
    logits = model.forward(ids, ex.annotator_id, model.test_coefficients(ex.annotator_id))
    seen, stack = set(), [logits]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            assert node.grad is None, node
            stack.extend(node.parents)
    assert len(seen) > 50
    assert all(p.grad is None for p in model.named_parameters().values())
    tensor.backward(model.loss_for(ids, ex.annotator_id,
                                   model.test_coefficients(ex.annotator_id), ex.label))
    assert model.params["head_w"].grad is not None


def _flat(values: dict):
    """θ holding the given arrays back to back in their order, and its views."""
    arrays = [np.asarray(value, dtype=np.float64) for value in values.values()]
    theta = np.concatenate([a.ravel() for a in arrays])
    offsets = np.cumsum([0] + [a.nbytes for a in arrays])
    return theta, {name: tensor.parameter(np.ndarray(a.shape, buffer=theta, offset=offset))
                   for name, a, offset in zip(values, arrays, offsets.tolist())}


def test_adam_treats_unreached_parameter_as_zero_gradient():
    theta, params = _flat({"p": [[1.0, -2.0]], "q": [[0.5, 3.0]]})
    p, q = params["p"], params["q"]
    opt = trainer.Adam(theta, params, lr=0.1)
    tensor.backward(sum_all(tensor.add(p, q)))
    opt.gather()
    opt.step()
    assert p.grad is None and q.grad is None
    m_q, v_q = opt.m[2:].copy(), opt.v[2:].copy()   # q's slice of θ
    # the second loss does not reach q: its step must use a zero gradient,
    # not the first step's
    tensor.backward(sum_all(p))
    opt.gather()
    opt.step()
    assert np.array_equal(opt.m[2:], 0.9 * m_q)
    assert np.array_equal(opt.v[2:], 0.999 * v_q)


class _ReferenceAdam:
    """Adam one array at a time, with its m and v kept per parameter name."""

    def __init__(self, params, lr, beta1, beta2, eps):
        self.params, self.lr, self.beta1, self.beta2, self.eps = params, lr, beta1, beta2, eps
        self.t = 0
        self.m = {k: np.zeros_like(p.value) for k, p in params.items()}
        self.v = {k: np.zeros_like(p.value) for k, p in params.items()}

    def step(self):
        self.t += 1
        for key, param in self.params.items():
            g = 0.0 if param.grad is None else param.grad
            param.grad = None
            self.m[key] = self.beta1 * self.m[key] + (1 - self.beta1) * g
            self.v[key] = self.beta2 * self.v[key] + (1 - self.beta2) * (g * g)
            m_hat = self.m[key] / (1 - self.beta1 ** self.t)
            v_hat = self.v[key] / (1 - self.beta2 ** self.t)
            param.value -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


def test_flat_adam_matches_the_per_array_reference_bit_for_bit():
    rng = np.random.default_rng(11)
    start = {"a": rng.normal(size=(3, 4)), "b": rng.normal(size=(4, 2)),
             "c": rng.normal(size=(1, 2))}
    theta, flat = _flat(start)
    offsets = {name: (node.value.ctypes.data - theta.ctypes.data) // 8
               for name, node in flat.items()}
    reference = {name: tensor.parameter(value.copy()) for name, value in start.items()}
    adam = trainer.Adam(theta, flat, lr=0.05)
    # Adam's published constants (Kingma & Ba, 2015), which trainer.Adam uses
    ref = _ReferenceAdam(reference, lr=0.05, beta1=0.9, beta2=0.999, eps=1e-8)
    for step in range(3):
        for params in (flat, reference):
            out = tensor.matmul(params["a"], params["b"])
            if step != 1:   # step 2's loss does not reach c
                out = tensor.add(out, params["c"])
            tensor.backward(sum_all(tensor.gelu(out)))
        assert (flat["c"].grad is None) == (step == 1)
        adam.gather()
        adam.step()
        ref.step()
        for name, node in flat.items():
            assert node.value.tobytes() == reference[name].value.tobytes(), (step, name)
            part = slice(offsets[name], offsets[name] + node.value.size)
            assert adam.m[part].tobytes() == ref.m[name].tobytes(), (step, name)
            assert adam.v[part].tobytes() == ref.v[name].tobytes(), (step, name)


def test_non_finite_gradient_raises_before_update(monkeypatch):
    snapshots = []
    real_step = trainer.Adam.step

    def recording_step(self):
        real_step(self)
        snapshots.append((self.params, {k: p.value.copy() for k, p in self.params.items()}))

    real_gelu = tensor.gelu

    def poisoned_gelu(x):
        out = real_gelu(x)
        if snapshots:    # from the second step on, the backward returns NaN
            out._backward = lambda g: x.accumulate(np.full(x.value.shape, np.nan))
        return out

    monkeypatch.setattr(trainer.Adam, "step", recording_step)
    monkeypatch.setattr(tensor, "gelu", poisoned_gelu)
    split = _tiny_split()
    cfg = TrainConfig(mode=CombinationMode.TEXT_ONLY, epochs=1, batch_size=4, seed=0)
    with pytest.raises(TrainingDiverged, match=r"gradient for \S+ at epoch 0 step 1"):
        train(split, cfg, EncoderConfig(**FAST_ENC))
    assert len(snapshots) == 1
    params, values = snapshots[0]
    for key, param in params.items():
        assert np.array_equal(param.value, values[key]), key


def _saved_checkpoint(tmp_path):
    model, _ = _trained_model(epochs=1)
    directory = tmp_path / "ckpt"
    save_checkpoint(model, directory)
    return directory


def _edit_manifest(directory, edit):
    path = directory / "manifest.json"
    manifest = json.loads(path.read_text())
    edit(manifest)
    path.write_text(json.dumps(manifest))


def test_checkpoint_rejects_unknown_format_version(tmp_path):
    # format 1, which no release wrote, is refused like any version but 2
    directory = _saved_checkpoint(tmp_path)
    for version in (1, 3):
        _edit_manifest(directory, lambda m: m.update(format_version=version))
        with pytest.raises(ValueError, match=rf"format_version must be one of \[2\], "
                                             rf"found {version}$"):
            load_checkpoint(directory)


def test_checkpoint_of_another_version_is_refused_by_its_version(tmp_path):
    # a later format may drop a key and add one that format 2 lacks
    directory = _saved_checkpoint(tmp_path)
    _edit_manifest(directory, lambda m: (m.pop("params_sha256"),
                                         m.update(format_version=3, params_blake2b="0" * 128)))
    with pytest.raises(ValueError, match=r"ckpt/manifest.json: format_version must be one of "
                                         r"\[2\], found 3$"):
        load_checkpoint(directory)


@pytest.mark.parametrize("version", [True, 2.0], ids=["bool", "float"])
def test_checkpoint_rejects_a_format_version_that_only_compares_equal_to_1(tmp_path, version):
    # True == 1 and 2.0 == 2 in Python, so a plain comparison would take them
    # for versions 1 and 2
    directory = _saved_checkpoint(tmp_path)
    _edit_manifest(directory, lambda m: m.update(format_version=version))
    with pytest.raises(ValueError, match=rf"format_version must be an integer, found {version!r}"):
        load_checkpoint(directory)


def test_checkpoint_rejects_missing_array(tmp_path):
    directory = _saved_checkpoint(tmp_path)
    _edit_manifest(directory, lambda m: m["arrays"].pop("head_w"))
    with pytest.raises(ValueError, match="head_w"):
        load_checkpoint(directory)


def test_checkpoint_rejects_wrong_array_shape(tmp_path):
    # a one-row word table would broadcast over every row of the model's
    directory = _saved_checkpoint(tmp_path)
    _edit_manifest(directory, lambda m: m["arrays"]["word"].update(rows=1))
    with pytest.raises(ValueError, match="word"):
        load_checkpoint(directory)


def test_checkpoint_rejects_truncated_params(tmp_path):
    directory = _saved_checkpoint(tmp_path)
    blob = (directory / "params.bin").read_bytes()
    (directory / "params.bin").write_bytes(blob[:-8])
    with pytest.raises(ValueError, match="params.bin is truncated"):
        load_checkpoint(directory)


def test_checkpoint_rejects_wrong_array_offset(tmp_path):
    # offset 0 lies inside params.bin, so only the layout can tell it is wrong
    directory = _saved_checkpoint(tmp_path)
    _edit_manifest(directory, lambda m: m["arrays"]["head_b"].update(offset=0))
    with pytest.raises(ValueError, match="head_b"):
        load_checkpoint(directory)


def test_checkpoint_rejects_trailing_params_bytes(tmp_path):
    directory = _saved_checkpoint(tmp_path)
    with open(directory / "params.bin", "ab") as fh:
        fh.write(bytes(8))
    with pytest.raises(ValueError, match="params.bin is too long"):
        load_checkpoint(directory)


def test_checkpoint_records_the_sha256_of_params_bin(tmp_path):
    directory = _saved_checkpoint(tmp_path)
    manifest = json.loads((directory / "manifest.json").read_text())
    assert manifest["format_version"] == 2
    blob = (directory / "params.bin").read_bytes()
    assert manifest["params_sha256"] == hashlib.sha256(blob).hexdigest()


def test_checkpoint_rejects_a_flipped_params_byte(tmp_path):
    directory = _saved_checkpoint(tmp_path)
    blob = bytearray((directory / "params.bin").read_bytes())
    blob[len(blob) // 2] ^= 1
    (directory / "params.bin").write_bytes(bytes(blob))
    with pytest.raises(ValueError, match=r"ckpt/manifest.json: params_sha256 [0-9a-f]{64} "
                                         r"differs from the sha256 of params.bin, [0-9a-f]{64}$"):
        load_checkpoint(directory)


def test_params_bin_under_the_manifest_of_another_save_is_refused(tmp_path, monkeypatch):
    # saving B over A fails at the manifest's replace, after B's params.bin
    # has replaced A's: A's manifest must not pass B's parameters off as A's
    model_a, _ = _trained_model(epochs=1)
    model_b = trainer.Model(model_a.encoder_config, model_a.train_config, model_a.vocab,
                            model_a.label_names, model_a.annotator_ids, model_a.seed + 1)
    model_b.train_counts = model_a.train_counts
    directory = tmp_path / "ckpt"
    save_checkpoint(model_a, directory)
    real_replace, targets = os.replace, []

    def failing_second_replace(src, dst):
        targets.append(os.path.basename(dst))
        if len(targets) == 2:
            raise OSError(errno.EIO, "Input/output error")
        real_replace(src, dst)

    with monkeypatch.context() as patch:
        patch.setattr(os, "replace", failing_second_replace)
        with pytest.raises(OSError, match="Input/output error"):
            save_checkpoint(model_b, directory)
    assert targets == ["params.bin", "manifest.json"]
    assert (directory / "params.bin").read_bytes() == model_b.theta.tobytes()
    digest_a, digest_b = (hashlib.sha256(m.theta).hexdigest() for m in (model_a, model_b))
    with pytest.raises(ValueError, match=rf"params_sha256 {digest_a} differs from the sha256 "
                                         rf"of params.bin, {digest_b}$"):
        load_checkpoint(directory)


def test_adam_takes_no_beta_or_eps():
    # Adam's constants are the module's, at their published values
    assert list(inspect.signature(trainer.Adam).parameters) == ["theta", "params", "lr"]
    assert (trainer.BETA1, trainer.BETA2, trainer.ADAM_EPS) == (0.9, 0.999, 1e-8)


def test_checkpoint_layout_is_the_stored_index(tmp_path):
    directory = _saved_checkpoint(tmp_path)
    model = load_checkpoint(directory)
    stored = json.loads((directory / "manifest.json").read_text())["arrays"]
    layout = trainer.checkpoint_layout(model.encoder_config, len(model.label_names),
                                       len(model.annotator_ids))
    assert list(layout) == sorted(layout) and layout == stored
    last = layout[list(layout)[-1]]
    end = last["offset"] + 8 * last["rows"] * last["cols"]
    assert end == (directory / "params.bin").stat().st_size == model.theta.nbytes
    # each parameter is the view of θ at its layout offset
    assert list(model.named_parameters()) == list(layout)
    for name, node in model.named_parameters().items():
        entry = layout[name]
        assert node.value.shape == (entry["rows"], entry["cols"])
        assert node.value.ctypes.data == model.theta.ctypes.data + entry["offset"], name


@settings(max_examples=12, deadline=None, derandomize=True)
@given(mode=st.sampled_from(list(CombinationMode)), hidden_per_head=st.integers(1, 3),
       heads=st.integers(1, 2), layers=st.integers(0, 2), max_len=st.integers(2, 6),
       ffn_mult=st.integers(1, 2), n_labels=st.integers(1, 4), n_annotators=st.integers(1, 5),
       n_tokens=st.integers(0, 6), seed=st.integers(0, 2 ** 32 - 1))
def test_checkpoint_roundtrip_keeps_theta_and_its_views(mode, hidden_per_head, heads, layers,
                                                        max_len, ffn_mult, n_labels,
                                                        n_annotators, n_tokens, seed):
    vocab = encoder.Vocabulary()
    for i in range(n_tokens):
        vocab.token_to_id[f"w{i}"] = len(vocab.token_to_id)
    config = EncoderConfig(hidden=hidden_per_head * heads, layers=layers, heads=heads,
                           max_len=max_len, ffn_mult=ffn_mult, vocab_size=vocab.size)
    annotators = [f"a{i}" for i in range(n_annotators)]
    model = trainer.Model(config, TrainConfig(mode=mode, seed=seed), vocab,
                          [f"L{i}" for i in range(n_labels)], annotators, seed)
    model.theta += np.random.default_rng(seed).normal(size=model.theta.size)   # off the init
    model.train_counts = {a: np.arange(n_labels, dtype=np.float64) + i
                          for i, a in enumerate(annotators)}
    with tempfile.TemporaryDirectory() as directory:
        save_checkpoint(model, directory)
        reloaded = load_checkpoint(directory)
        assert sorted(os.listdir(directory)) == ["manifest.json", "params.bin"]
    assert reloaded.theta.tobytes() == model.theta.tobytes()
    assert reloaded.mode is mode
    for name, node in reloaded.named_parameters().items():
        assert np.shares_memory(node.value, reloaded.theta), name


def test_load_checkpoint_draws_no_random_init(tmp_path, monkeypatch):
    model, _ = _trained_model(epochs=1)
    save_checkpoint(model, tmp_path / "ckpt")

    def refuse(*args, **kwargs):
        raise AssertionError("load_checkpoint drew a random init")

    for owner in (encoder, trainer):
        monkeypatch.setattr(owner, "draw_parameters", refuse, raising=False)
    monkeypatch.setattr(np.random, "default_rng", refuse)
    reloaded = load_checkpoint(tmp_path / "ckpt")
    assert reloaded.theta.tobytes() == model.theta.tobytes()


def test_checkpoint_rejects_missing_manifest_key(tmp_path):
    directory = _saved_checkpoint(tmp_path)
    _edit_manifest(directory, lambda m: m.pop("train_counts"))
    with pytest.raises(ValueError, match=r"ckpt/manifest.json: train_counts is missing"):
        load_checkpoint(directory)


@pytest.mark.parametrize("section, edit, key", [
    ("encoder_config", lambda c: c.update(width=8), "width"),
    ("train_config", lambda c: c.pop("seed"), "seed"),
])
def test_checkpoint_rejects_config_field_mismatch(tmp_path, section, edit, key):
    directory = _saved_checkpoint(tmp_path)
    _edit_manifest(directory, lambda m: edit(m[section]))
    with pytest.raises(ValueError, match=rf"ckpt/manifest.json: {section}\.{key} "):
        load_checkpoint(directory)


@pytest.mark.parametrize("edit, message", [
    (lambda m: m.update(train_counts=[1, 2]), r"train_counts must be an object"),
    (lambda m: m["train_counts"]["a000"].pop(), r"train_counts\['a000'\] must be 3 finite"),
    (lambda m: m["train_counts"]["a001"].__setitem__(0, -1.0), r"train_counts\['a001'\]"),
    (lambda m: m["annotator_ids"].__setitem__(1, "a000"), r"annotator_ids must be unique"),
    (lambda m: m["label_names"].__setitem__(0, 7), r"label_names\[0\] must be a string"),
    (lambda m: m["vocabulary"].update(extra=len(m["vocabulary"])), r"vocabulary ids"),
    (lambda m: m.update(encoder_config=5), r"encoder_config must be an object"),
    (lambda m: m.update(seed="x"), r"seed must be an integer"),
    (lambda m: m["train_counts"].__setitem__("zzz", m["train_counts"].pop("a000")),
     r"train_counts keys do not match annotator_ids \(missing \['a000'\], unexpected \['zzz'\]\)"),
    (lambda m: m["encoder_config"].update(hidden="8"),
     r"encoder_config\.hidden must be an integer, found '8'$"),
    (lambda m: m["encoder_config"].update(dropout=None),
     r"encoder_config\.dropout must be a finite number, found None$"),
    (lambda m: m["encoder_config"].update(heads=2.0),
     r"encoder_config\.heads must be an integer, found 2.0$"),
    (lambda m: m["train_config"].update(epochs=1.5),
     r"train_config\.epochs must be an integer, found 1.5$"),
    (lambda m: m["train_counts"]["a000"].__setitem__(0, True),
     r"train_counts\['a000'\]\[0\] must be"),
], ids=["list_train_counts", "short_row", "negative_count", "duplicate_annotator",
        "non_string_label", "vocabulary_size", "number_config", "string_seed",
        "renamed_annotator", "string_hidden", "null_dropout", "float_heads", "float_epochs",
        "bool_count"])
def test_checkpoint_rejects_manifest_of_wrong_type_or_size(tmp_path, edit, message):
    directory = _saved_checkpoint(tmp_path)
    _edit_manifest(directory, edit)
    with pytest.raises(ValueError, match=r"ckpt/manifest.json: " + message):
        load_checkpoint(directory)
