import numpy as np
import pytest

from annembed import tensor
from annembed.encoder import (
    CLS_ID,
    SEP_ID,
    UNK_ID,
    EncoderConfig,
    EncoderParams,
    Vocabulary,
    classification_loss,
    classify,
    draw_parameters,
    embed_tokens,
    encode,
    encoder_shapes,
    split_text,
    tokenize,
)

from gradcheck import finite_difference_check


def _vocab(extra=("hello", ",", "world")):
    vocab = Vocabulary()
    for token in extra:
        vocab.token_to_id[token] = len(vocab.token_to_id)
    return vocab


def _params(vocab_size=12, hidden=8, layers=1, heads=2, max_len=10, dropout=0.0,
            n_labels=3, seed=0):
    config = EncoderConfig(hidden=hidden, layers=layers, heads=heads, max_len=max_len,
                           ffn_mult=2, dropout=dropout, vocab_size=vocab_size)
    shapes = list(encoder_shapes(config, n_labels))
    nodes = {name: tensor.parameter(np.empty((rows, cols))) for name, rows, cols, _ in shapes}
    draw_parameters(shapes, np.random.default_rng(seed), nodes)
    return EncoderParams(config, nodes)


def test_tokenize_splits_punctuation():
    vocab = _vocab()
    ids = tokenize("Hello, world", vocab, max_len=10)
    h = vocab.token_to_id["hello"]
    c = vocab.token_to_id[","]
    w = vocab.token_to_id["world"]
    assert ids == [CLS_ID, h, c, w, SEP_ID]


def test_tokenize_unknown_token():
    vocab = _vocab()
    ids = tokenize("hello zebra", vocab, max_len=10)
    assert ids == [CLS_ID, vocab.token_to_id["hello"], UNK_ID, SEP_ID]


def test_tokenize_truncates_to_max_len():
    vocab = _vocab()
    long_text = " ".join(["hello"] * 500)
    ids = tokenize(long_text, vocab, max_len=64)
    assert len(ids) == 64
    assert ids[0] == CLS_ID
    assert ids[-1] == SEP_ID


def test_tokenize_empty_text():
    assert tokenize("", _vocab(), max_len=10) == [CLS_ID, SEP_ID]


def test_vocabulary_first_appearance_order():
    vocab = Vocabulary.build(["b a", "a c"])
    assert vocab.token_to_id["b"] < vocab.token_to_id["a"] < vocab.token_to_id["c"]


def test_embed_tokens_zero_tables_give_word_rows():
    params = _params()
    params["position"].value[...] = 0.0
    params["segment"].value[...] = 0.0
    ids = [2, 5, 7]
    out = embed_tokens(ids, params)
    assert np.array_equal(out.value, params["word"].value[ids])


def test_embed_tokens_position_difference():
    params = _params()
    out = embed_tokens([4, 4], params)
    diff = out.value[0] - out.value[1]
    expected = params["position"].value[0] - params["position"].value[1]
    assert np.allclose(diff, expected, atol=1e-15)


def test_embed_tokens_matches_three_way_sum():
    params = _params(seed=5)
    ids = [3, 9, 1]
    out = embed_tokens(ids, params).value
    for t, token in enumerate(ids):
        oracle = (params["word"].value[token]
                  + params["position"].value[t]
                  + params["segment"].value[0])
        assert np.max(np.abs(out[t] - oracle)) < 1e-12


def test_embed_tokens_rejects_out_of_range():
    params = _params(vocab_size=6)
    with pytest.raises(ValueError):
        embed_tokens([0, 99], params)


def test_encode_zero_layers_is_norm_and_dropout_only():
    params = _params(layers=0)
    x = tensor.constant(np.random.default_rng(1).normal(size=(4, 8)))
    out = encode(x, params, training=False)
    oracle = tensor.layer_norm(x, params["emb_gamma"], params["emb_beta"])
    assert np.array_equal(out.value, oracle.value)


def test_encode_cls_invariant_to_token_permutation():
    # no positional signal and full attention: permuting non-CLS rows cannot
    # change the encoded CLS row
    params = _params(hidden=8, layers=2, heads=2, seed=3)
    params["position"].value[...] = 0.0
    ids = [CLS_ID, 4, 5, 6, 7]
    base = encode(embed_tokens(ids, params), params, training=False).value[0]
    permuted = [CLS_ID, 6, 7, 4, 5]
    swapped = encode(embed_tokens(permuted, params), params, training=False).value[0]
    assert np.max(np.abs(base - swapped)) < 1e-9


def test_encode_eval_deterministic():
    params = _params(dropout=0.5)
    x = tensor.constant(np.random.default_rng(2).normal(size=(5, 8)))
    a = encode(x, params, training=False).value
    b = encode(x, params, training=False).value
    assert np.array_equal(a, b)


def test_classify_zero_head_uniform():
    params = _params(n_labels=4)
    params["head_w"].value[...] = 0.0
    params["head_b"].value[...] = 0.0
    logits = classify(tensor.constant(np.random.default_rng(0).normal(size=(1, 8))), params)
    assert np.array_equal(logits.value, np.zeros((1, 4)))
    loss = classification_loss(logits, 2)
    assert loss.value[0, 0] == pytest.approx(np.log(4.0), abs=1e-12)


def test_classify_saturated_softmax():
    params = _params(n_labels=2, hidden=8)
    params["head_w"].value[...] = 0.0
    params["head_b"].value[...] = np.array([[10.0, -10.0]])
    logits = classify(tensor.constant(np.zeros((1, 8))), params)
    loss = classification_loss(logits, 0)
    assert loss.value[0, 0] == pytest.approx(2.061e-9, rel=1e-3)


def test_classify_hand_affine():
    params = _params(n_labels=3, hidden=4, vocab_size=6, heads=2)
    rng = np.random.default_rng(9)
    params["head_w"].value[...] = rng.normal(size=(4, 3))
    params["head_b"].value[...] = rng.normal(size=(1, 3))
    cls = rng.normal(size=(1, 4))
    logits = classify(tensor.constant(cls), params).value
    oracle = cls @ params["head_w"].value + params["head_b"].value
    assert np.max(np.abs(logits - oracle)) < 1e-12
    # cross-entropy against the oracle computed by hand
    row = oracle[0]
    expected = float(np.log(np.exp(row).sum()) - row[1])
    loss = classification_loss(classify(tensor.constant(cls), params), 1)
    assert loss.value[0, 0] == pytest.approx(expected, abs=1e-10)


def test_classify_rejects_bad_gold():
    params = _params(n_labels=3)
    logits = classify(tensor.constant(np.zeros((1, 8))), params)
    with pytest.raises(ValueError):
        classification_loss(logits, 3)


def _encoder_gradient_error(hidden, heads):
    params = _params(hidden=hidden, layers=1, heads=heads, dropout=0.0, n_labels=3, seed=4)
    # move off the tiny init so gradients are well conditioned
    rng = np.random.default_rng(8)
    for node in params.values():
        node.value[...] = rng.normal(0.0, 0.3, size=node.value.shape)
    ids = [CLS_ID, 4, 5, 6]

    def f():
        hidden = encode(embed_tokens(ids, params), params, training=False)
        return classification_loss(classify(tensor.gather_rows(hidden, [0]), params), 1)

    return finite_difference_check(f, params, max_coords=4,
                                   rng=np.random.default_rng(0))


def test_encoder_gradients_pass_finite_difference():
    assert _encoder_gradient_error(hidden=8, heads=2) < 1e-4


def test_encoder_gradients_pass_finite_difference_three_heads():
    # three heads exercise concat_cols with more than two blocks
    assert _encoder_gradient_error(hidden=9, heads=3) < 1e-4


def test_encoder_config_validation():
    with pytest.raises(ValueError):
        EncoderConfig(hidden=10, heads=3)
    with pytest.raises(ValueError):
        EncoderConfig(max_len=1)


@pytest.mark.parametrize("size", [dict(hidden=0), dict(heads=0), dict(ffn_mult=0),
                                  dict(layers=-1)])
def test_encoder_config_rejects_bad_sizes(size):
    with pytest.raises(ValueError, match="at least"):
        EncoderConfig(**size)


def test_vocabulary_build_equals_the_per_text_reference():
    # repeated texts, case and punctuation variants, first appearance deciding order
    texts = ["b a, c", "B A, C", "d", "b a, c", "e! a", "d", "", "f F f"] * 3
    reference = Vocabulary()
    for text in texts:
        for token in split_text(text):
            if token not in reference.token_to_id:
                reference.token_to_id[token] = len(reference.token_to_id)
    built = Vocabulary.build(iter(texts))
    assert list(built.token_to_id.items()) == list(reference.token_to_id.items())


def test_encoder_params_draw_each_normal_tensor_in_turn_from_one_stream():
    # the order below is the init contract: checkpoints and trained bits of
    # every seed rest on it
    params = _params(vocab_size=5, hidden=4, layers=2, heads=2, max_len=3, n_labels=2, seed=11)
    normal = [("word", 5, 4), ("position", 3, 4), ("segment", 2, 4)]
    for i in range(2):
        normal += [(f"block{i}.{w}{j}", 4, 2) for w in ("wq", "wk", "wv") for j in range(2)]
        normal += [(f"block{i}.wo", 4, 4), (f"block{i}.w1", 4, 8), (f"block{i}.w2", 8, 4)]
    normal.append(("head_w", 4, 2))
    draws = np.random.default_rng(11).normal(0.0, 0.02, size=sum(r * c for _, r, c in normal))
    start = 0
    for name, rows, cols in normal:
        assert np.array_equal(params[name].value,
                              draws[start:start + rows * cols].reshape(rows, cols)), name
        start += rows * cols
    filled = {"emb_gamma": (1, 4, 1.0), "emb_beta": (1, 4, 0.0), "head_b": (1, 2, 0.0)}
    for i in range(2):
        filled.update({f"block{i}.{name}": (1, width, fill) for name, width, fill in (
            ("ln1_gamma", 4, 1.0), ("ln1_beta", 4, 0.0), ("bo", 4, 0.0), ("ln2_gamma", 4, 1.0),
            ("ln2_beta", 4, 0.0), ("b1", 8, 0.0), ("b2", 4, 0.0))})
    for name, (rows, cols, fill) in filled.items():
        assert np.array_equal(params[name].value, np.full((rows, cols), fill)), name
    assert set(params) == {name for name, _, _ in normal} | set(filled)
