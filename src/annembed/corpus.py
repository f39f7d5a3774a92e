"""Loading, validation, splitting, and statistics for multi-annotator datasets,
plus the package's one JSON file reader and writer, its one reader of a
persisted record, and its one type rule for options, configs and records.

A dataset is a flat list of annotations: each record pairs one text with one
annotator's label. The on-disk format is JSON Lines (one annotation per line,
UTF-8) with string labels that must resolve against a declared label schema.
"""

from __future__ import annotations

import contextlib
import functools
import json
import math
import os
import sys
from dataclasses import dataclass, field, fields, is_dataclass
from enum import Enum
from itertools import compress
from typing import Literal, Optional, Union, get_args, get_origin, get_type_hints

import numpy as np


class CorpusError(ValueError):
    """Raised for malformed files, schema violations, and invalid splits."""


@dataclass(frozen=True, slots=True)
class AnnotatedExample:
    """One (text, annotator, label) triple; the atomic training/eval unit.
    Slotted: a corpus holds one per annotation."""

    example_id: str
    text: str
    annotator_id: str
    label: int
    demographics: Optional[dict] = None


# a label is an index of one of these types: Python's int or a numpy
# integer, never a bool, a float or a string
_INTEGER_TYPES = frozenset({int, *(np.dtype(code).type for code in np.typecodes["AllInteger"])})


@dataclass
class Dataset:
    """Annotations under a label schema, and one integer view derived from
    them: annotation i is by annotator_ids[annotator_index[i]] on the text
    example_ids[example_index[i]], with the label labels[i]. The registries
    are in first-appearance order; the three arrays are read-only."""

    examples: list[AnnotatedExample]
    label_names: list[str]
    name: str = "dataset"
    annotator_ids: list[str] = field(init=False)
    example_ids: list[str] = field(init=False)
    annotator_index: np.ndarray = field(init=False, compare=False)
    example_index: np.ndarray = field(init=False, compare=False)
    labels: np.ndarray = field(init=False, compare=False)

    def __post_init__(self):
        m = len(self.label_names)
        if len(set(self.label_names)) != m:
            raise CorpusError(f"duplicate label names in {self.label_names}")
        n, annotators, texts = len(self.examples), {}, {}
        self.annotator_index = np.fromiter((annotators.setdefault(ex.annotator_id, len(annotators))
                                            for ex in self.examples), np.int32, n)
        self.example_index = np.fromiter((texts.setdefault(ex.example_id, len(texts))
                                          for ex in self.examples), np.int32, n)
        self.annotator_ids, self.example_ids = list(annotators), list(texts)
        # the smallest signed type that holds every label index and -1, which
        # marks a label that is no integer or out of range
        self.labels = np.fromiter(
            (ex.label if type(ex.label) in _INTEGER_TYPES and 0 <= ex.label < m else -1
             for ex in self.examples), np.min_scalar_type(-max(m, 1)), n)
        # every annotation but the first of its (example, annotator) pair
        key = self.example_index.astype(np.int64) * len(annotators) + self.annotator_index
        repeated = np.ones(n, np.bool_)
        repeated[np.unique(key, return_index=True)[1]] = False
        faults = np.flatnonzero((self.labels < 0) | repeated)
        if faults.size:
            ex = self.examples[faults[0]]
            annotation = (ex.example_id, ex.annotator_id)
            if self.labels[faults[0]] >= 0:
                raise CorpusError(f"duplicate annotation {annotation}")
            if type(ex.label) not in _INTEGER_TYPES:
                raise CorpusError(
                    f"label of annotation {annotation} must be an integer, found {ex.label!r}")
            raise CorpusError(f"label index {ex.label} out of range for {m} labels")
        for array in (self.annotator_index, self.example_index, self.labels):
            array.setflags(write=False)

    @classmethod
    def from_examples(cls, examples, label_names, name="dataset"):
        """A dataset over copies of the examples and label_names lists."""
        return cls(list(examples), list(label_names), name)

    def label_counts(self) -> np.ndarray:
        """A fresh N x M int64 table: row i counts each label among the
        annotations of annotator_ids[i]."""
        n, m = self.n_annotators, self.n_labels
        return np.bincount(self.annotator_index * m + self.labels,
                           minlength=n * m).reshape(n, m)

    @property
    def n_annotators(self) -> int:
        return len(self.annotator_ids)

    @property
    def n_labels(self) -> int:
        return len(self.label_names)

    def __len__(self) -> int:
        return len(self.examples)


SplitKind = Literal["annotation", "annotator"]
SPLIT_KINDS = get_args(SplitKind)


@dataclass
class Split:
    train: Dataset
    test: Dataset
    dev: Optional[Dataset] = None
    kind: str = "annotation"
    seed: int = 0

    def __post_init__(self):
        if self.kind not in SPLIT_KINDS:
            raise CorpusError(f"unknown split kind {self.kind!r}")
        train_ann = set(self.train.annotator_ids)
        test_ann = set(self.test.annotator_ids)
        if self.kind == "annotation" and not test_ann <= train_ann:
            raise CorpusError("annotation split: test annotators must appear in train")
        if self.kind == "annotator" and train_ann & test_ann:
            raise CorpusError("annotator split: train and test annotators must be disjoint")


def _reject_constant(literal):
    raise CorpusError(f"{literal} is not a JSON value")


# built once: json.loads(line, parse_constant=...) and json.dumps(record, ...)
# would build a decoder or an encoder per line
_LINE_DECODER = json.JSONDecoder(parse_constant=_reject_constant)
_LINE_ENCODER = json.JSONEncoder(ensure_ascii=False, sort_keys=True)


def _record_fault(obj, line_no) -> CorpusError:
    """The error for a parsed line that load_dataset could not read as a
    record: the first fault that the checks find, in their order."""
    if not isinstance(obj, dict):
        return CorpusError(f"line {line_no}: record is not an object")
    for key in ("example_id", "text", "annotator_id", "label"):
        if key not in obj:
            return CorpusError(f"line {line_no}: missing field {key!r}")
    for key in ("example_id", "text", "annotator_id"):
        if not isinstance(obj[key], str):
            return CorpusError(f"line {line_no}: {key} must be a string, found {obj[key]!r}")
    return CorpusError(f"line {line_no}: unknown label {obj['label']!r}")


def _not_utf8(path, err: UnicodeDecodeError) -> CorpusError:
    return CorpusError(f"{path}: not UTF-8 text (byte {err.object[err.start]:#04x}: {err.reason})")


def load_dataset(path, label_names, name=None) -> Dataset:
    """Load a JSONL annotation file against a declared label schema.

    Registries come out in first-appearance order so that row indices into
    the embedding matrices are reproducible across runs. Each stripped line
    must hold exactly one JSON value, parsed by read_json's rule with NaN and
    Infinity rejected; the record is an object whose example_id, text and
    annotator_id are strings and whose label is a declared name. CorpusError
    names the line and its first fault, or the file if it is not UTF-8.
    Records that repeat a text, an id or a demographics dict share one object
    for it.

    Lines are scanned one at a time, never joined into one array: a record
    split across lines, or two records on one line, would decode as valid
    records from lines that are each malformed on their own.
    """
    label_names = list(label_names)
    label_index = {name: i for i, name in enumerate(label_names)}
    # each string and each demographics dict already seen in this file
    shared: dict = {}
    examples = []
    scan = _LINE_DECODER.scan_once
    try:
        with open(path, encoding="utf-8") as fh:
            for line_no, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                # JSONDecoder.decode of a stripped line is this scan and this end check
                try:
                    obj, end = scan(line, 0)
                except StopIteration:
                    raise CorpusError(
                        f"line {line_no}: malformed JSON (Expecting value)") from None
                except json.JSONDecodeError as err:
                    raise CorpusError(f"line {line_no}: malformed JSON ({err.msg})") from err
                except CorpusError as err:
                    raise CorpusError(f"line {line_no}: {err}") from err
                if end != len(line):
                    raise CorpusError(f"line {line_no}: malformed JSON (Extra data)")
                try:
                    example_id, text = obj["example_id"], obj["text"]
                    annotator_id, label = obj["annotator_id"], label_index[obj["label"]]
                    if type(example_id) is not str or type(text) is not str or (
                            type(annotator_id) is not str):
                        raise TypeError
                except (KeyError, TypeError):
                    # no object, a field missing or no string, an unknown or unhashable label
                    raise _record_fault(obj, line_no) from None
                demo = obj.get("demographics")
                if demo is not None:
                    # a file repeats one dict per annotator: check only a dict not seen
                    # before; the except is for no dict, an unseen or an unhashable one
                    try:
                        demo = shared[tuple(demo.items())]
                    except (AttributeError, KeyError, TypeError):
                        if not isinstance(demo, dict) or not all(
                            isinstance(k, str) and isinstance(v, str) for k, v in demo.items()
                        ):
                            raise CorpusError(f"line {line_no}: demographics must map "
                                              "strings to strings") from None
                        shared[tuple(demo.items())] = demo
                examples.append(AnnotatedExample(
                    shared.setdefault(example_id, example_id), shared.setdefault(text, text),
                    shared.setdefault(annotator_id, annotator_id), label, demo))
    except UnicodeDecodeError as err:
        raise _not_utf8(path, err) from None
    if name is None:
        name = str(path)
    return Dataset.from_examples(examples, label_names, name)


class _Encoded(dict):
    """string -> _LINE_ENCODER.encode(string), each distinct string encoded once."""

    def __missing__(self, value):
        self[value] = text = _LINE_ENCODER.encode(value)
        return text


def write_dataset(dataset: Dataset, path) -> None:
    """Write a dataset back to JSONL; load_dataset round-trips it record-for-record.

    Each line is _LINE_ENCODER.encode of the annotation's record, put together
    in sorted-key order from the encodings of its values, so that a string or
    a demographics dict repeated across annotations is encoded once.
    """
    strings = _Encoded()
    labels = [strings[name] for name in dataset.label_names]
    # a dict is keyed by identity: the examples hold every one until the write ends
    demographics: dict[int, str] = {}
    with open(path, "w", encoding="utf-8") as fh:
        for ex in dataset.examples:
            head = '{"annotator_id": ' + strings[ex.annotator_id]
            if ex.demographics is not None:
                key = id(ex.demographics)
                if key not in demographics:
                    demographics[key] = _LINE_ENCODER.encode(ex.demographics)
                head += ', "demographics": ' + demographics[key]
            fh.write(f'{head}, "example_id": {strings[ex.example_id]}, '
                     f'"label": {labels[ex.label]}, "text": {strings[ex.text]}}}\n')


def _plain(value):
    """value as plain JSON values: a dataclass as {field name: value}, an
    ndarray as nested lists, dict keys through str(), an Enum as its value,
    and NaN, the undefined value, as None."""
    if isinstance(value, dict):
        return {str(key): _plain(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(item) for item in value]
    if isinstance(value, np.ndarray):
        if value.dtype.kind == "f" and np.isnan(value).any():
            return np.where(np.isnan(value), None, value).tolist()
        return value.tolist()
    if is_dataclass(value):
        return {f.name: _plain(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, float) and math.isnan(value):
        return None
    return value


# every value write_json meets is encoded by CPython's C encoder: a scalar or
# a key through _SCALAR_ENCODER, a dict or a list of scalars in one call
# through _flat_encoder; json.dump(indent=2) would run the pure-Python encoder
_SCALAR_ENCODER = json.JSONEncoder(ensure_ascii=False, allow_nan=False)
_SCALAR_TYPES = frozenset({str, int, float, bool, type(None)})


@functools.cache
def _flat_encoder(indent: str) -> json.JSONEncoder:
    """An encoder that puts each item of a dict or a list on its own line at indent."""
    return json.JSONEncoder(ensure_ascii=False, allow_nan=False, sort_keys=True,
                            separators=(",\n" + indent, ": "))


def _write_flat(write, value, items, indent: str) -> bool:
    """Write a dict or a list whose items are all scalars in one call to the C
    encoder. False, with nothing written, if an item is no scalar or the
    encoder refuses one: its message lacks the value, and the item loop of
    _write_value raises json.dump's."""
    if not set(map(type, items)) <= _SCALAR_TYPES:
        return False
    inner = indent + "  "
    try:
        text = _flat_encoder(inner).encode(value)
    except ValueError:
        return False
    write(text[0] + "\n" + inner + text[1:-1] + "\n" + indent + text[-1])
    return True


def _write_value(write, value, indent: str) -> None:
    """Write one plain value as json.dump(indent=2, sort_keys=True,
    ensure_ascii=False, allow_nan=False) writes it at the given indent."""
    inner = indent + "  "
    if isinstance(value, dict):
        if not value:
            write("{}")
        elif not _write_flat(write, value, value.values(), indent):
            head = "{\n" + inner
            for key, item in sorted(value.items()):
                write(head + _SCALAR_ENCODER.encode(key) + ": ")
                _write_value(write, item, inner)
                head = ",\n" + inner
            write("\n" + indent + "}")
    elif isinstance(value, list):
        if not value:
            write("[]")
        elif not _write_flat(write, value, value, indent):
            head = "[\n" + inner
            for item in value:
                write(head)
                _write_value(write, item, inner)
                head = ",\n" + inner
            write("\n" + indent + "]")
    elif isinstance(value, float) and not math.isfinite(value):
        # json.dump's text; the C encoder leaves out the value
        raise ValueError(f"Out of range float values are not JSON compliant: {value!r}")
    else:
        write(_SCALAR_ENCODER.encode(value))


@contextlib.contextmanager
def replaced_file(path, mode: str = "w", **kwargs):
    """Write path + ".tmp" in the block, then move it onto path with
    os.replace; if the block raises, path keeps its old bytes. Nothing is
    flushed to disk, so after an OS crash path may hold a torn new file."""
    tmp = f"{path}.tmp"
    try:
        with open(tmp, mode, **kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)


def write_json(path, obj) -> None:
    """Write obj as JSON with sorted keys, 2-space indent, non-ASCII kept and a
    trailing newline; every JSON file the package writes goes through here,
    and its bytes are those of json.dump(indent=2, sort_keys=True,
    ensure_ascii=False, allow_nan=False), replaced whole. Dataclasses, arrays
    and enums are encoded by _plain, NaN becomes null, and an infinity raises
    CorpusError naming the file, which is left as it was."""
    plain = _plain(obj)
    try:
        with replaced_file(path, encoding="utf-8") as fh:
            _write_value(fh.write, plain, "")
            fh.write("\n")
    except ValueError as err:
        raise CorpusError(f"{path}: {err}") from err


def read_json(path) -> dict:
    """Read a JSON file that must hold an object; CorpusError names the file,
    and rejects the non-standard NaN and Infinity literals and a byte that is
    not UTF-8."""
    with open(path, encoding="utf-8") as fh:
        try:
            obj = json.load(fh, parse_constant=_reject_constant)
        except json.JSONDecodeError as err:
            raise CorpusError(f"{path}: malformed JSON ({err})") from err
        except CorpusError as err:
            raise CorpusError(f"{path}: {err}") from err
        except UnicodeDecodeError as err:
            raise _not_utf8(path, err) from None
    if not isinstance(obj, dict):
        raise CorpusError(f"{path}: expected a JSON object, found {type(obj).__name__}")
    return obj


def check_type(name: str, value, kind, choices=None) -> None:
    """The one type rule for a recorded option, a config or a record field.
    An int takes an integer, never a bool or a float such as 2.0; a float a
    finite number, never a bool; a bool a bool; a str or a str-valued Enum a
    string, one of choices or of their values; a Literal one of its values.
    Optional[X] takes null or what X takes; list[X] a list, dict[str, X] an
    object and a dataclass an object of exactly its fields, each item checked
    by its own rule under its index, key or name.field, a dataclass's fields
    in their declared order. ValueError names the key path and the value."""
    origin, args = get_origin(kind), get_args(kind)
    if origin is Union:   # Optional[X]: args is (X, NoneType)
        if value is not None:
            check_type(name, value, args[0], choices)
        return
    if origin in (list, dict):
        if not isinstance(value, origin):
            want = "a list" if origin is list else "an object"
            raise ValueError(f"{name} must be {want}, found {value!r}")
        for key, item in (enumerate(value) if origin is list else value.items()):
            check_type(f"{name}[{key!r}]", item, args[-1])
        return
    if is_dataclass(kind):
        if not isinstance(value, dict):
            raise ValueError(f"{name} must be an object, found {value!r}")
        hints, prefix = get_type_hints(kind), f"{name}." if name else ""
        for key, hint in hints.items():
            if key not in value:
                raise ValueError(f"{prefix}{key} is missing")
            check_type(prefix + key, value[key], hint)
        for key in value:
            if key not in hints:
                raise ValueError(f"{prefix}{key} is not a field of {kind.__name__}")
        return
    if origin is Literal:
        kind, choices = type(args[0]), args
    if isinstance(kind, type) and issubclass(kind, Enum):
        kind, choices = str, [member.value for member in kind]
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if kind is bool:
        ok, want = isinstance(value, bool), "true or false"
    elif kind is int:
        ok, want = number and isinstance(value, int), "an integer"
    elif kind is float:   # abs(): math.isfinite raises on an int too large for a float
        ok, want = number and abs(value) <= sys.float_info.max, "a finite number"
    else:
        ok = isinstance(value, str)
        want = "a string" if choices is None else f"one of {list(choices)}"
    if ok and choices is not None and value not in choices:
        ok, want = False, f"one of {list(choices)}"
    if not ok:
        raise ValueError(f"{name} must be {want}, found {value!r}")


def check_fields(config) -> None:
    """check_type over every field of a dataclass, by its annotation."""
    for name, kind in get_type_hints(type(config)).items():
        check_type(name, getattr(config, name), kind)


def _build(cls, obj: dict, name: str):
    """cls(**obj), each dataclass field built first and named in its errors."""
    hints = get_type_hints(cls)
    values = {key: _build(hints[key], item, f"{name}.{key}" if name else key)
              if is_dataclass(hints[key]) else item for key, item in obj.items()}
    try:
        return cls(**values)
    except ValueError as err:
        raise ValueError(f"{name} {err}" if name else str(err)) from None


def read_record(path, cls, upgrade=None):
    """The one reader of a persisted JSON file, declared as the dataclass cls:
    check_type of the object as cls, then cls's own __post_init__. upgrade,
    for a file of an older format, takes the parsed object and that reader
    of an object and returns the record. CorpusError reads "<path>: <key
    path> <problem>"; write_json writes the record back as the same JSON text."""
    def read(obj):
        check_type("", obj, cls)
        return _build(cls, obj, "")

    obj = read_json(path)
    try:
        return upgrade(obj, read) if upgrade else read(obj)
    except ValueError as err:
        raise CorpusError(f"{path}: {err}") from None


@dataclass
class DatasetManifest:
    """<stem>.manifest.json beside a JSONL corpus: its name and label schema."""

    name: str
    label_names: list[str]

    def __post_init__(self):
        if len(set(self.label_names)) != len(self.label_names):
            raise ValueError(f"label_names must be unique, found {self.label_names!r}")


@dataclass
class SplitManifest:
    """split_manifest.json: how a split was made, and the size of each part."""

    kind: SplitKind
    seed: int
    train_frac: float
    dev_frac: float
    source: str
    counts: dict[str, int]


def write_manifest(dataset: Dataset, path) -> None:
    write_json(path, DatasetManifest(dataset.name, dataset.label_names))


def _subset(dataset: Dataset, keep: np.ndarray, suffix) -> Dataset:
    """The annotations where the boolean mask keep is set, in dataset order."""
    examples = list(compress(dataset.examples, keep.tobytes()))
    return Dataset.from_examples(examples, dataset.label_names, f"{dataset.name}-{suffix}")


def make_annotation_split(dataset: Dataset, train_frac: float, seed: int,
                          dev_frac: float = 0.0) -> Split:
    """Split each annotator's annotations, keeping every annotator on both sides.

    Per annotator the examples are shuffled with one seeded generator
    (annotators visited in registry order) and the first ceil(train_frac * K),
    at most K - 1, go to train. dev_frac, if nonzero, carves a dev set out of
    the train portion per annotator.
    """
    if not 0.0 < train_frac < 1.0:
        raise CorpusError("train_frac must lie strictly between 0 and 1")
    if not 0.0 <= dev_frac < 1.0:
        raise CorpusError("dev_frac must lie in [0, 1)")
    counts = np.bincount(dataset.annotator_index, minlength=dataset.n_annotators)
    if (counts < 2).any():
        single = dataset.annotator_ids[np.argmax(counts < 2)]
        raise CorpusError(f"annotator {single!r} has a single annotation; filter it first")
    # each annotator's positions in dataset order, annotators in registry order
    by_annotator = np.split(np.argsort(dataset.annotator_index, kind="stable"),
                            np.cumsum(counts)[:-1])
    rng = np.random.default_rng(seed)
    train, dev, test = 0, 1, 2
    part = np.full(len(dataset), test, np.int8)
    for positions in by_annotator:
        shuffled = positions[rng.permutation(len(positions))]
        n_train = min(math.ceil(train_frac * len(positions)), len(positions) - 1)
        n_dev = min(int(dev_frac * n_train), n_train - 1)
        part[shuffled[:n_train]] = train
        part[shuffled[n_train - n_dev:n_train]] = dev
    return Split(
        train=_subset(dataset, part == train, "train"),
        test=_subset(dataset, part == test, "test"),
        dev=_subset(dataset, part == dev, "dev") if dev in part else None,
        kind="annotation",
        seed=seed,
    )


def make_annotator_split(dataset: Dataset, train_frac: float, seed: int) -> Split:
    """Split by annotator: train and test annotator sets are disjoint.

    With N=3 and train_frac=0.7 this yields 2 train / 1 test annotators, so
    the train count is floor(train_frac * N) clamped to [1, N-1].
    """
    if not 0.0 < train_frac < 1.0:
        raise CorpusError("train_frac must lie strictly between 0 and 1")
    n = dataset.n_annotators
    if n < 2:
        raise CorpusError("annotator split needs at least 2 annotators")
    rng = np.random.default_rng(seed)
    order = rng.permutation(n)
    n_train = min(max(int(train_frac * n), 1), n - 1)
    in_train = np.isin(dataset.annotator_index, order[:n_train])
    return Split(
        train=_subset(dataset, in_train, "train"),
        test=_subset(dataset, ~in_train, "test"),
        dev=None,
        kind="annotator",
        seed=seed,
    )


def drop_unseen_annotators(dataset: Dataset, known_annotators) -> Dataset:
    """Keep only annotations whose annotator appears in known_annotators."""
    known = set(known_annotators)
    seen = np.array([a in known for a in dataset.annotator_ids], np.bool_)
    return _subset(dataset, seen[dataset.annotator_index], "seen")


@dataclass
class StatisticsReport:
    """Per-annotator volumes and the distinct-label disagreement histogram."""

    annotations_per_annotator: dict[str, int]
    disagreement_histogram: dict[int, int]
    label_usage: dict[str, int]
    n_examples: int = field(default=0)
    n_annotations: int = field(default=0)


def dataset_statistics(dataset: Dataset) -> StatisticsReport:
    """Count annotations per annotator and distinct labels per example."""
    if not dataset.examples:
        raise CorpusError("empty dataset")
    counts = dataset.label_counts()
    # which labels each text received; the histogram counts texts by how many
    received = np.zeros((len(dataset.example_ids), dataset.n_labels), np.bool_)
    received[dataset.example_index, dataset.labels] = True
    sizes, frequency = np.unique(received.sum(axis=1), return_counts=True)
    return StatisticsReport(
        annotations_per_annotator=dict(zip(dataset.annotator_ids, counts.sum(axis=1).tolist())),
        disagreement_histogram=dict(zip(sizes.tolist(), frequency.tolist())),
        label_usage=dict(zip(dataset.label_names, counts.sum(axis=0).tolist())),
        n_examples=len(dataset.example_ids),
        n_annotations=len(dataset.examples),
    )
