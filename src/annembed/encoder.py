"""Tokenizer, base embeddings, a small pre-norm transformer, and the head.

Everything trains from scratch. The token embedding for position t is the
sum of the word, position, and segment rows; the combined embedding coming
out of the gating step passes through layer norm and dropout before the
encoder blocks.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

import numpy as np

from . import tensor
from .corpus import check_fields
from .tensor import Node

PAD_ID = 0
UNK_ID = 1
CLS_ID = 2
SEP_ID = 3
SPECIAL_TOKENS = {"[PAD]": PAD_ID, "[UNK]": UNK_ID, "[CLS]": CLS_ID, "[SEP]": SEP_ID}

# standard deviation of every normally initialized weight, bank rows included
INIT_STD = 0.02

_TOKEN_RE = re.compile(r"\w+|[^\w\s]", re.UNICODE)


@dataclass
class Vocabulary:
    token_to_id: dict[str, int] = field(default_factory=lambda: dict(SPECIAL_TOKENS))

    @property
    def size(self) -> int:
        return len(self.token_to_id)

    @classmethod
    def build(cls, texts) -> "Vocabulary":
        """Collect tokens from the training texts in first-appearance order;
        each distinct text is split once."""
        vocab = cls()
        for text in dict.fromkeys(texts):
            for token in split_text(text):
                if token not in vocab.token_to_id:
                    vocab.token_to_id[token] = len(vocab.token_to_id)
        return vocab


def split_text(text: str) -> list[str]:
    return _TOKEN_RE.findall(text.lower())


def tokenize(text: str, vocab: Vocabulary, max_len: int) -> list[int]:
    """Lowercase, split on whitespace/punctuation, wrap in [CLS] .. [SEP].

    Sequences longer than max_len are truncated so the result still starts
    with [CLS] and ends with [SEP].
    """
    ids = [vocab.token_to_id.get(tok, UNK_ID) for tok in split_text(text)]
    ids = ids[:max_len - 2]
    return [CLS_ID] + ids + [SEP_ID]


@dataclass
class EncoderConfig:
    hidden: int = 64
    layers: int = 2
    heads: int = 2
    max_len: int = 64
    ffn_mult: int = 4
    dropout: float = 0.1
    vocab_size: int = 0

    def __post_init__(self):
        check_fields(self)
        if min(self.hidden, self.heads, self.ffn_mult) < 1 or self.layers < 0:
            raise ValueError("hidden, heads and ffn_mult must be at least 1, layers at least 0")
        if self.hidden % self.heads != 0:
            raise ValueError(f"hidden {self.hidden} must be divisible by heads {self.heads}")
        if self.max_len < 2:
            raise ValueError("max_len must allow [CLS] and [SEP]")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError("dropout must lie in [0, 1)")


def encoder_shapes(config: EncoderConfig, n_labels: int):
    """(name, rows, cols, init) of every encoder parameter, in the order
    draw_parameters draws them; init is "normal", "zeros" or "ones"."""
    h = config.hidden
    ffn = h * config.ffn_mult
    yield "word", config.vocab_size, h, "normal"
    yield "position", config.max_len, h, "normal"
    yield "segment", 2, h, "normal"
    yield "emb_gamma", 1, h, "ones"
    yield "emb_beta", 1, h, "zeros"
    for i in range(config.layers):
        block = f"block{i}."
        yield block + "ln1_gamma", 1, h, "ones"
        yield block + "ln1_beta", 1, h, "zeros"
        for key in ("wq", "wk", "wv"):
            for j in range(config.heads):
                yield f"{block}{key}{j}", h, h // config.heads, "normal"
        yield block + "wo", h, h, "normal"
        yield block + "bo", 1, h, "zeros"
        yield block + "ln2_gamma", 1, h, "ones"
        yield block + "ln2_beta", 1, h, "zeros"
        yield block + "w1", h, ffn, "normal"
        yield block + "b1", 1, ffn, "zeros"
        yield block + "w2", ffn, h, "normal"
        yield block + "b2", 1, h, "zeros"
    yield "head_w", h, n_labels, "normal"
    yield "head_b", 1, n_labels, "zeros"


def draw_parameters(shapes, rng: np.random.Generator, nodes: dict[str, Node]) -> None:
    """Fill nodes[name] for each (name, rows, cols, init) entry, in table
    order: a "normal" one is drawn from rng with INIT_STD, the others are
    filled with ones or zeros."""
    for name, _, _, init in shapes:
        value = nodes[name].value
        if init == "normal":   # rng.normal(0.0, INIT_STD)'s doubles, drawn in place
            rng.standard_normal(out=value)
            value *= INIT_STD
        else:
            value.fill(1.0 if init == "ones" else 0.0)


class EncoderParams(dict):
    """Every trainable encoder tensor by its encoder_shapes name: embedding
    tables, block weights ("block{i}.wq{j}" for head j), and the head."""

    def __init__(self, config: EncoderConfig, nodes: dict[str, Node]):
        super().__init__(nodes)
        self.config = config


def embed_tokens(ids, params: EncoderParams) -> Node:
    """Sum of word, position, and segment rows for a single-segment input."""
    ids = list(ids)
    t = len(ids)
    if t > params.config.max_len:
        raise ValueError(f"sequence length {t} exceeds max_len {params.config.max_len}")
    if max(ids) >= params.config.vocab_size or min(ids) < 0:
        raise ValueError("token id out of vocabulary range")
    words = tensor.gather_rows(params["word"], ids)
    positions = tensor.gather_rows(params["position"], list(range(t)))
    segments = tensor.gather_rows(params["segment"], [0] * t)
    return tensor.add(tensor.add(words, positions), segments)


def _attention(x: Node, params: EncoderParams, block: str) -> Node:
    config = params.config
    scale = 1.0 / np.sqrt(config.hidden // config.heads)
    head_outputs = []
    for h in range(config.heads):
        q = tensor.matmul(x, params[f"{block}wq{h}"])
        k = tensor.matmul(x, params[f"{block}wk{h}"])
        v = tensor.matmul(x, params[f"{block}wv{h}"])
        scores = tensor.scalar_scale(tensor.matmul(q, tensor.transpose(k)), scale)
        weights = tensor.row_softmax(scores)
        head_outputs.append(tensor.matmul(weights, v))
    ctx = tensor.concat_cols(*head_outputs)
    return tensor.add(tensor.matmul(ctx, params[block + "wo"]), params[block + "bo"])


def _ffn(x: Node, params: EncoderParams, block: str) -> Node:
    hidden = tensor.gelu(tensor.add(tensor.matmul(x, params[block + "w1"]), params[block + "b1"]))
    return tensor.add(tensor.matmul(hidden, params[block + "w2"]), params[block + "b2"])


def encode(combined: Node, params: EncoderParams, training: bool,
           rng: np.random.Generator | None = None) -> Node:
    """Layer norm + dropout on the combined embedding, then the block stack.

    Blocks are pre-norm (attention and feed-forward each read a normalized
    input and add a residual). Deterministic whenever training is False.
    """
    config = params.config
    if combined.value.shape[1] != config.hidden:
        raise ValueError("combined embedding width does not match the encoder")
    if training and config.dropout > 0.0 and rng is None:
        raise ValueError("training-mode dropout needs a generator")
    x = tensor.layer_norm(combined, params["emb_gamma"], params["emb_beta"])
    x = tensor.dropout(x, config.dropout, rng, training)
    for i in range(config.layers):
        block = f"block{i}."
        attn_in = tensor.layer_norm(x, params[block + "ln1_gamma"], params[block + "ln1_beta"])
        x = tensor.add(x, _attention(attn_in, params, block))
        ffn_in = tensor.layer_norm(x, params[block + "ln2_gamma"], params[block + "ln2_beta"])
        x = tensor.add(x, _ffn(ffn_in, params, block))
    return x


def classify(cls_repr: Node, params: EncoderParams) -> Node:
    """Affine map from the encoded [CLS] row to label logits."""
    return tensor.add(tensor.matmul(cls_repr, params["head_w"]), params["head_b"])


def classification_loss(logits: Node, gold: int) -> Node:
    return tensor.softmax_cross_entropy(logits, gold)
