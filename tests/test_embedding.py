import numpy as np
import pytest

from annembed import tensor
from annembed.corpus import AnnotatedExample, Dataset
from annembed.embedding import (
    AnnotationIndex,
    CombinationMode,
    EmbeddingBank,
    annotation_embedding_test,
    annotation_embedding_train,
    combine,
    gate_weight,
    label_coefficients,
    parameter_overhead,
    sentence_embedding,
)

H = 4
M = 3


def _bank(n_annotators=2, n_labels=M, hidden=H, seed=0):
    return EmbeddingBank.init(n_annotators, n_labels, hidden, np.random.default_rng(seed))


def _dataset(pairs, n_labels=M):
    # pairs: list of (annotator, example_id, label)
    examples = [
        AnnotatedExample(eid, f"text {eid}", ann, label) for ann, eid, label in pairs
    ]
    return Dataset.from_examples(examples, [f"L{i}" for i in range(n_labels)])


def test_train_embedding_two_annotations():
    ds = _dataset([("i", "k0", 0), ("i", "k1", 1)])
    index = AnnotationIndex(ds, M)
    bank = _bank()
    out = annotation_embedding_train(bank, index, "i", "k1")
    assert np.allclose(out.value, bank.label_rows.value[0:1], atol=1e-12)


def test_train_embedding_three_other_labels():
    ds = _dataset([("i", "k0", 0), ("i", "k1", 0), ("i", "k2", 1), ("i", "kx", 2)])
    index = AnnotationIndex(ds, M)
    bank = _bank()
    out = annotation_embedding_train(bank, index, "i", "kx")
    rows = bank.label_rows.value
    expected = (2.0 * rows[0] + rows[1]) / 3.0
    assert np.allclose(out.value[0], expected, atol=1e-12)


def test_train_embedding_constant_labels():
    ds = _dataset([("i", "k0", 2), ("i", "k1", 2), ("i", "k2", 2), ("i", "kx", 0)])
    index = AnnotationIndex(ds, M)
    bank = _bank()
    out = annotation_embedding_train(bank, index, "i", "kx")
    assert np.allclose(out.value[0], bank.label_rows.value[2], atol=1e-12)


def test_train_embedding_single_annotation_falls_back_to_uniform():
    ds = _dataset([("i", "k0", 1), ("j", "k0", 0), ("j", "k1", 2)])
    index = AnnotationIndex(ds, M)
    bank = _bank()
    out = annotation_embedding_train(bank, index, "i", "k0")
    assert np.allclose(out.value[0], bank.label_rows.value.mean(axis=0), atol=1e-12)


def test_test_embedding_two_label_mean():
    ds = _dataset([("i", "k0", 0), ("i", "k1", 1)], n_labels=2)
    index = AnnotationIndex(ds, 2)
    bank = _bank(n_labels=2)
    out = annotation_embedding_test(bank, index, "i")
    expected = 0.5 * (bank.label_rows.value[0] + bank.label_rows.value[1])
    assert np.allclose(out.value[0], expected, atol=1e-12)


def test_test_embedding_unseen_annotator_uniform_prior():
    ds = _dataset([("i", "k0", 0), ("i", "k1", 1)])
    index = AnnotationIndex(ds, M)
    bank = _bank()
    out = annotation_embedding_test(bank, index, "stranger")
    assert np.allclose(out.value[0], bank.label_rows.value.mean(axis=0), atol=1e-12)


def test_leave_one_out_mean_equals_test_embedding():
    rng = np.random.default_rng(3)
    pairs = [("i", f"k{n}", int(rng.integers(M))) for n in range(17)]
    ds = _dataset(pairs)
    index = AnnotationIndex(ds, M)
    bank = _bank()
    loo = np.vstack([
        annotation_embedding_train(bank, index, "i", eid).value for _, eid, _ in pairs
    ])
    test_emb = annotation_embedding_test(bank, index, "i").value
    assert np.max(np.abs(loo.mean(axis=0) - test_emb[0])) < 1e-12


@pytest.mark.parametrize("counts, exclude, expected", [
    ([2.0, 1.0, 1.0], 0, [1 / 3, 1 / 3, 1 / 3]),     # leave-one-out of label 0
    ([2.0, 1.0, 1.0], 1, [2 / 3, 0.0, 1 / 3]),       # leave-one-out of label 1
    ([2.0, 1.0, 1.0], None, [0.5, 0.25, 0.25]),      # full training average
    ([0.0, 1.0, 0.0], 1, [1 / 3, 1 / 3, 1 / 3]),     # k <= 1: nothing left
    (None, None, [1 / 3, 1 / 3, 1 / 3]),             # unseen annotator
    (None, 2, [1 / 3, 1 / 3, 1 / 3]),
    ([0.0, 0.0, 0.0], None, [1 / 3, 1 / 3, 1 / 3]),  # all-zero counts
])
def test_label_coefficients_table(counts, exclude, expected):
    counts = None if counts is None else np.array(counts)
    before = None if counts is None else counts.copy()
    coeff = label_coefficients(counts, M, exclude)
    assert coeff.shape == (1, M)
    assert np.allclose(coeff[0], expected, atol=1e-15)
    if counts is not None:
        assert np.array_equal(counts, before)   # the caller's counts stay intact


def test_train_coefficients_unknown_annotation_of_known_annotator():
    index = AnnotationIndex(_dataset([("i", "k0", 0), ("i", "k1", 1)]), M)
    with pytest.raises(KeyError):
        index.train_coefficients("i", "never-annotated")
    # an annotator with no training annotations at all gets the uniform row
    assert np.allclose(index.train_coefficients("stranger", "k0"), 1.0 / M)


def test_sentence_embedding_single_token():
    e_t = tensor.constant([[1.0, -2.0, 0.5]])
    assert np.array_equal(sentence_embedding(e_t).value, e_t.value)


def test_sentence_embedding_two_rows():
    e_t = tensor.constant([[1.0, 3.0], [3.0, 5.0]])
    assert np.array_equal(sentence_embedding(e_t).value, [[2.0, 4.0]])


def test_sentence_embedding_matches_transposed_sum():
    rng = np.random.default_rng(11)
    mat = rng.normal(size=(7, 4))
    out = sentence_embedding(tensor.constant(mat)).value[0]
    oracle = mat.T.sum(axis=1) / 7.0
    assert np.max(np.abs(out - oracle)) < 1e-12


def test_gate_weight_identity_case():
    eye = tensor.constant(np.eye(3))
    e1 = tensor.constant([[1.0, 0.0, 0.0]])
    alpha = gate_weight(eye, eye, e1, e1)
    assert alpha.value[0, 0] == pytest.approx(1.0, abs=1e-15)


def test_gate_weight_orthogonal_case():
    eye = tensor.constant(np.eye(3))
    e1 = tensor.constant([[1.0, 0.0, 0.0]])
    e2 = tensor.constant([[0.0, 1.0, 0.0]])
    alpha = gate_weight(eye, eye, e1, e2)
    assert alpha.value[0, 0] == pytest.approx(0.0, abs=1e-15)


def test_gate_weight_hand_bilinear():
    w_s = np.array([[1.0, 2.0, 0.0], [0.0, 1.0, 1.0], [1.0, 0.0, 1.0]])
    w_x = np.array([[2.0, 0.0, 1.0], [1.0, 1.0, 0.0], [0.0, 3.0, 1.0]])
    e_s = np.array([[1.0, -1.0, 2.0]])
    e_x = np.array([[0.5, 1.0, -2.0]])
    alpha = gate_weight(tensor.constant(w_s), tensor.constant(w_x),
                        tensor.constant(e_s), tensor.constant(e_x))
    oracle = float((e_s @ w_s.T @ w_x @ e_x.T)[0, 0])
    assert alpha.value[0, 0] == pytest.approx(oracle, abs=1e-12)


def test_gate_weight_is_linear_in_second_embedding():
    rng = np.random.default_rng(5)
    w_s = tensor.constant(rng.normal(size=(6, 6)))
    w_x = tensor.constant(rng.normal(size=(6, 6)))
    e_s = tensor.constant(rng.normal(size=(1, 6)))
    for _ in range(10):
        x = rng.normal(size=(1, 6))
        y = rng.normal(size=(1, 6))
        c = float(rng.normal())
        a_x = gate_weight(w_s, w_x, e_s, tensor.constant(x)).value[0, 0]
        a_y = gate_weight(w_s, w_x, e_s, tensor.constant(y)).value[0, 0]
        a_cx = gate_weight(w_s, w_x, e_s, tensor.constant(c * x)).value[0, 0]
        a_xy = gate_weight(w_s, w_x, e_s, tensor.constant(x + y)).value[0, 0]
        assert abs(a_cx - c * a_x) < 1e-12 * max(1.0, abs(c * a_x))
        assert abs(a_xy - (a_x + a_y)) < 1e-12 * max(1.0, abs(a_x + a_y))


def test_combine_text_only_is_identity():
    e_t = tensor.constant(np.random.default_rng(0).normal(size=(5, H)))
    out = combine(CombinationMode.TEXT_ONLY, e_t, None, None, None)
    assert out is e_t


def test_combine_zero_annotator_embedding_is_noop():
    bank = _bank()
    e_t = tensor.constant(np.random.default_rng(1).normal(size=(4, H)))
    zero = tensor.constant(np.zeros((1, H)))
    out = combine(CombinationMode.TEXT_PLUS_ANNOTATOR, e_t, None, zero, bank)
    assert np.allclose(out.value, e_t.value, atol=1e-15)


def test_combine_both_hand_computed():
    # 2x2 all-ones everywhere: each gate is 8, so the CLS row becomes 17
    ones = np.ones((2, 2))
    bank = _bank(hidden=2, n_labels=2)
    bank.w_sentence.value[...] = ones
    bank.w_annotator.value[...] = ones
    bank.w_annotation.value[...] = ones
    e_t = tensor.constant(ones)
    e_n = tensor.constant(np.ones((1, 2)))
    e_a = tensor.constant(np.ones((1, 2)))
    out = combine(CombinationMode.TEXT_PLUS_BOTH, e_t, e_n, e_a, bank)
    assert np.allclose(out.value[0], [17.0, 17.0], atol=1e-12)
    assert np.allclose(out.value[1], [1.0, 1.0], atol=1e-15)


def test_combine_missing_embedding_raises():
    bank = _bank()
    e_t = tensor.constant(np.ones((3, H)))
    with pytest.raises(ValueError):
        combine(CombinationMode.TEXT_PLUS_ANNOTATION, e_t, None, None, bank)


def test_combine_without_text_keeps_only_gated_terms():
    bank = _bank()
    rng = np.random.default_rng(4)
    e_t = tensor.constant(rng.normal(size=(4, H)))
    e_n = tensor.constant(rng.normal(size=(1, H)))
    e_a = tensor.constant(rng.normal(size=(1, H)))
    e_sent = sentence_embedding(e_t)
    alpha_n = gate_weight(bank.w_sentence, bank.w_annotation, e_sent, e_n).value[0, 0]
    alpha_a = gate_weight(bank.w_sentence, bank.w_annotator, e_sent, e_a).value[0, 0]
    out = combine(CombinationMode.TEXT_PLUS_BOTH, e_t, e_n, e_a, bank, keep_text=False)
    assert np.allclose(out.value[0], alpha_n * e_n.value[0] + alpha_a * e_a.value[0],
                       atol=1e-15)
    assert not np.any(out.value[1:])
    only_a = combine(CombinationMode.TEXT_PLUS_ANNOTATOR, e_t, None, e_a, bank, keep_text=False)
    assert np.array_equal(only_a.value[0], alpha_a * e_a.value[0])
    assert not np.any(only_a.value[1:])


def test_combine_without_text_rejects_text_only_mode():
    e_t = tensor.constant(np.ones((3, H)))
    with pytest.raises(ValueError):
        combine(CombinationMode.TEXT_ONLY, e_t, None, None, _bank(), keep_text=False)


def test_gradients_flow_only_into_active_banks():
    ds = _dataset([("i", "k0", 0), ("i", "k1", 1), ("j", "k0", 2), ("j", "k1", 0)])
    index = AnnotationIndex(ds, M)
    bank = _bank()
    e_t = tensor.parameter(np.random.default_rng(2).normal(size=(3, H)))

    def loss_for(mode):
        e_n = annotation_embedding_train(bank, index, "i", "k0") if mode.uses_annotation else None
        e_a = tensor.gather_rows(bank.annotator_rows, [0]) if mode.uses_annotator else None
        out = combine(mode, e_t, e_n, e_a, bank)
        return tensor.sum_all(out)

    grads = tensor.backward(loss_for(CombinationMode.TEXT_PLUS_ANNOTATOR))
    assert bank.annotator_rows in grads
    assert bank.w_annotator in grads and bank.w_sentence in grads
    assert bank.label_rows not in grads and bank.w_annotation not in grads
    assert np.any(grads[bank.annotator_rows] != 0.0)

    grads = tensor.backward(loss_for(CombinationMode.TEXT_PLUS_ANNOTATION))
    assert bank.label_rows in grads and bank.w_annotation in grads
    assert bank.annotator_rows not in grads and bank.w_annotator not in grads

    grads = tensor.backward(loss_for(CombinationMode.TEXT_PLUS_BOTH))
    for node in (bank.annotator_rows, bank.label_rows, bank.w_sentence,
                 bank.w_annotator, bank.w_annotation):
        assert node in grads


def test_parameter_overhead_small_case():
    report = parameter_overhead(3, 5, 4, CombinationMode.TEXT_PLUS_BOTH)
    assert report.added_parameters == 80
    assert not report.over_budget


def test_parameter_overhead_text_only_is_zero():
    assert parameter_overhead(10, 4, 64, CombinationMode.TEXT_ONLY).added_parameters == 0


def test_parameter_overhead_large_config_flags_budget():
    report = parameter_overhead(819, 2, 768, CombinationMode.TEXT_PLUS_BOTH,
                                base_parameters=130_000_000)
    assert report.added_parameters == 2_400_000
    assert report.over_budget
    assert report.ratio == pytest.approx(2_400_000 / 130_000_000)


def test_parameter_overhead_single_embedding_modes():
    assert parameter_overhead(7, 3, 8, CombinationMode.TEXT_PLUS_ANNOTATOR).added_parameters \
        == 7 * 8 + 2 * 64
    assert parameter_overhead(7, 3, 8, CombinationMode.TEXT_PLUS_ANNOTATION).added_parameters \
        == 3 * 8 + 2 * 64
