"""Tokenizer, base embeddings, a small pre-norm transformer, and the head.

Everything trains from scratch. The token embedding for position t is the
sum of the word, position, and segment rows; the combined embedding coming
out of the gating step passes through layer norm and dropout before the
encoder blocks.
"""

from __future__ import annotations

import re
from dataclasses import asdict, dataclass, field

import numpy as np

from . import tensor
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
        """Collect tokens from the training texts in first-appearance order."""
        vocab = cls()
        for text in texts:
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
        if self.hidden % self.heads != 0:
            raise ValueError("hidden size must be divisible by the head count")
        if self.max_len < 2:
            raise ValueError("max_len must allow [CLS] and [SEP]")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError("dropout must lie in [0, 1)")

    def to_dict(self) -> dict:
        return asdict(self)


class EncoderParams:
    """All trainable tensors: embedding tables, block weights, and the head."""

    def __init__(self, config: EncoderConfig, n_labels: int, rng: np.random.Generator):
        h = config.hidden
        dh = h // config.heads
        ffn = h * config.ffn_mult

        def normal(rows, cols):
            return tensor.parameter(rng.normal(0.0, INIT_STD, size=(rows, cols)))

        def zeros(rows, cols):
            return tensor.parameter(np.zeros((rows, cols)))

        def ones(rows, cols):
            return tensor.parameter(np.ones((rows, cols)))

        self.config = config
        self.n_labels = n_labels
        self.word = normal(config.vocab_size, h)
        self.position = normal(config.max_len, h)
        self.segment = normal(2, h)
        self.emb_gamma = ones(1, h)
        self.emb_beta = zeros(1, h)
        self.blocks = []
        for _ in range(config.layers):
            block = {
                "ln1_gamma": ones(1, h), "ln1_beta": zeros(1, h),
                "wq": [normal(h, dh) for _ in range(config.heads)],
                "wk": [normal(h, dh) for _ in range(config.heads)],
                "wv": [normal(h, dh) for _ in range(config.heads)],
                "wo": normal(h, h), "bo": zeros(1, h),
                "ln2_gamma": ones(1, h), "ln2_beta": zeros(1, h),
                "w1": normal(h, ffn), "b1": zeros(1, ffn),
                "w2": normal(ffn, h), "b2": zeros(1, h),
            }
            self.blocks.append(block)
        self.head_w = normal(h, n_labels)
        self.head_b = zeros(1, n_labels)

    def named_parameters(self) -> dict[str, Node]:
        params = {
            "word": self.word,
            "position": self.position,
            "segment": self.segment,
            "emb_gamma": self.emb_gamma,
            "emb_beta": self.emb_beta,
            "head_w": self.head_w,
            "head_b": self.head_b,
        }
        for i, block in enumerate(self.blocks):
            for key, value in block.items():
                if isinstance(value, list):
                    for j, node in enumerate(value):
                        params[f"block{i}.{key}{j}"] = node
                else:
                    params[f"block{i}.{key}"] = value
        return params


def embed_tokens(ids, params: EncoderParams) -> Node:
    """Sum of word, position, and segment rows for a single-segment input."""
    ids = list(ids)
    t = len(ids)
    if t > params.config.max_len:
        raise ValueError(f"sequence length {t} exceeds max_len {params.config.max_len}")
    if max(ids) >= params.config.vocab_size or min(ids) < 0:
        raise ValueError("token id out of vocabulary range")
    words = tensor.gather_rows(params.word, ids)
    positions = tensor.gather_rows(params.position, list(range(t)))
    segments = tensor.gather_rows(params.segment, [0] * t)
    return tensor.add(tensor.add(words, positions), segments)


def _attention(x: Node, block, config: EncoderConfig) -> Node:
    dh = config.hidden // config.heads
    scale = 1.0 / np.sqrt(dh)
    head_outputs = []
    for h in range(config.heads):
        q = tensor.matmul(x, block["wq"][h])
        k = tensor.matmul(x, block["wk"][h])
        v = tensor.matmul(x, block["wv"][h])
        scores = tensor.scalar_scale(tensor.matmul(q, tensor.transpose(k)), scale)
        weights = tensor.row_softmax(scores)
        head_outputs.append(tensor.transpose(tensor.matmul(weights, v)))
    ctx = tensor.transpose(tensor.concat_rows(*head_outputs))
    return tensor.add(tensor.matmul(ctx, block["wo"]), block["bo"])


def _ffn(x: Node, block) -> Node:
    hidden = tensor.gelu(tensor.add(tensor.matmul(x, block["w1"]), block["b1"]))
    return tensor.add(tensor.matmul(hidden, block["w2"]), block["b2"])


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
    x = tensor.layer_norm(combined, params.emb_gamma, params.emb_beta)
    x = tensor.dropout(x, config.dropout, rng, training)
    for block in params.blocks:
        attn_in = tensor.layer_norm(x, block["ln1_gamma"], block["ln1_beta"])
        x = tensor.add(x, _attention(attn_in, block, config))
        ffn_in = tensor.layer_norm(x, block["ln2_gamma"], block["ln2_beta"])
        x = tensor.add(x, _ffn(ffn_in, block))
    return x


def classify(cls_repr: Node, params: EncoderParams) -> Node:
    """Affine map from the encoded [CLS] row to label logits."""
    return tensor.add(tensor.matmul(cls_repr, params.head_w), params.head_b)


def classification_loss(logits: Node, gold: int) -> Node:
    return tensor.softmax_cross_entropy(logits, gold)
