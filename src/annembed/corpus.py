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
import re
import sys
from dataclasses import dataclass, field, fields, is_dataclass
from enum import Enum
from itertools import islice
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


def label_dtype(n_labels: int) -> np.dtype:
    """The smallest signed type that holds every label index and -1."""
    return np.min_scalar_type(-max(n_labels, 1))


class _Registry(dict):
    """value -> its index, a value not seen before numbered on its first
    lookup; iterating gives the values in first-appearance order."""

    def __missing__(self, value):
        self[value] = index = len(self)
        return index


def renumbered(registry: list, index: np.ndarray) -> tuple[list, np.ndarray]:
    """The entries of registry that index uses, in the order of their first
    use, and index renumbered into that list as int32."""
    n = len(index)
    first = np.full(len(registry), n)
    np.minimum.at(first, index, np.arange(n))
    order = np.argsort(first, kind="stable")[:np.count_nonzero(first < n)]
    renumber = np.empty(len(registry), np.int32)
    renumber[order] = np.arange(len(order), dtype=np.int32)
    return [registry[i] for i in order.tolist()], renumber[index]


@dataclass(eq=False)
class Dataset:
    """Annotations under a label schema, held as columns: annotation i is by
    annotator_ids[annotator_index[i]] on the example example_ids[example_index[i]]
    with the text texts[text_index[i]], the label labels[i] and the
    demographics demographics[demographics_index[i]], or none where that
    index is -1. The registries annotator_ids and example_ids are in
    first-appearance order. The tables texts and demographics may hold
    entries that no annotation uses; an example id may carry several texts
    and an annotator several dicts. The four index arrays are int32 and
    labels has label_dtype; all five are read-only. The checks are array
    operations, with no pass in Python: CorpusError names an index array
    of another length than labels or with an entry outside its registry or
    table, else the first annotation whose label is out of range or whose
    (example_id, annotator_id) pair came before."""

    label_names: list[str]
    annotator_ids: list[str]
    example_ids: list[str]
    texts: tuple[str, ...]
    demographics: tuple[dict, ...]
    annotator_index: np.ndarray = field(repr=False)
    example_index: np.ndarray = field(repr=False)
    text_index: np.ndarray = field(repr=False)
    demographics_index: np.ndarray = field(repr=False)
    labels: np.ndarray = field(repr=False)
    name: str = "dataset"
    # the examples: those handed to from_examples, or built on first access
    _examples: Optional[tuple] = field(default=None, repr=False)
    # a part's source dataset and its positions there: the part's examples
    # are then the source's objects, which the two share
    _source: Optional[tuple] = field(default=None, repr=False)

    def __post_init__(self):
        m = len(self.label_names)
        if len(set(self.label_names)) != m:
            raise CorpusError(f"duplicate label names in {self.label_names}")
        n = len(self.labels)
        for name, size in (("annotator_index", len(self.annotator_ids)),
                           ("example_index", len(self.example_ids)),
                           ("text_index", len(self.texts)),
                           ("demographics_index", len(self.demographics))):
            index, low = getattr(self, name), -1 if name == "demographics_index" else 0
            if len(index) != n or (n and not low <= index.min() <= index.max() < size):
                raise CorpusError(f"{name} must hold {n} indices in [{low}, {size})")
        key = self.example_index.astype(np.int64) * len(self.annotator_ids) + self.annotator_index
        ordered = np.sort(key)
        if (ordered[1:] == ordered[:-1]).any() or ((self.labels < 0) | (self.labels >= m)).any():
            raise CorpusError(self._fault(key))
        for array in (self.annotator_index, self.example_index, self.text_index,
                      self.demographics_index, self.labels):
            array.setflags(write=False)

    def _fault(self, key: np.ndarray) -> str:
        """The message for the first annotation whose label is out of range,
        or whose (example, annotator) key occurred before."""
        m = len(self.label_names)
        repeated = np.ones(len(key), np.bool_)
        repeated[np.unique(key, return_index=True)[1]] = False
        i = np.flatnonzero((self.labels < 0) | (self.labels >= m) | repeated)[0]
        annotation = (self.example_ids[self.example_index[i]],
                      self.annotator_ids[self.annotator_index[i]])
        if 0 <= self.labels[i] < m:
            return f"duplicate annotation {annotation}"
        label = int(self.labels[i]) if self._examples is None else self._examples[i].label
        if type(label) not in _INTEGER_TYPES:
            return f"label of annotation {annotation} must be an integer, found {label!r}"
        return f"label index {label} out of range for {m} labels"

    @classmethod
    def from_examples(cls, examples, label_names, name="dataset"):
        """The dataset of these examples, kept as its examples tuple, under a
        copy of label_names. Equal texts share one table entry, and so does
        each demographics object; -1 marks a label that is no integer or out
        of range, and the error then names the example's own label."""
        examples, label_names = tuple(examples), list(label_names)
        m = len(label_names)
        annotators, example_ids, texts = _Registry(), _Registry(), _Registry()
        # each demographics object once, by identity, in first-appearance order
        demographics = {id(ex.demographics): ex.demographics for ex in examples
                        if ex.demographics is not None}
        position = {key: i for i, key in enumerate(demographics)}

        def column(index_of) -> np.ndarray:
            return np.fromiter(map(index_of, examples), np.int32, len(examples))

        return cls(
            label_names=label_names,
            annotator_index=column(lambda ex: annotators[ex.annotator_id]),
            example_index=column(lambda ex: example_ids[ex.example_id]),
            text_index=column(lambda ex: texts[ex.text]),
            demographics_index=column(lambda ex: position.get(id(ex.demographics), -1)),
            labels=np.fromiter((ex.label if type(ex.label) in _INTEGER_TYPES and 0 <= ex.label < m
                                else -1 for ex in examples), label_dtype(m), len(examples)),
            annotator_ids=list(annotators), example_ids=list(example_ids), texts=tuple(texts),
            demographics=tuple(demographics.values()), name=name, _examples=examples)

    @property
    def examples(self) -> tuple[AnnotatedExample, ...]:
        """One AnnotatedExample per annotation, built on first access; for
        callers that want objects, never for the pipeline's own paths."""
        if self._examples is None:
            source = self._source
            if source is not None:
                dataset, positions = source
                examples = tuple(map(dataset.examples.__getitem__, positions.tolist()))
            else:
                def column(table, index):    # table[index] per annotation, with no int objects
                    return np.fromiter(table, object, len(table))[index]

                examples = tuple(map(
                    AnnotatedExample, column(self.example_ids, self.example_index),
                    column(self.texts, self.text_index),
                    column(self.annotator_ids, self.annotator_index), self.labels.tolist(),
                    # index -1 is no demographics
                    column((*self.demographics, None), self.demographics_index)))
            # two threads may both build them: either tuple serves
            self._examples, self._source = examples, None
        return self._examples

    def __eq__(self, other):
        """Equal name, label names, registries and examples."""
        if not isinstance(other, Dataset):
            return NotImplemented
        return ((self.name, self.label_names, self.annotator_ids, self.example_ids)
                == (other.name, other.label_names, other.annotator_ids, other.example_ids)
                and self.examples == other.examples)

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
        return len(self.labels)


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


# a code point that UTF-8 cannot encode; JSON's \u escape can write one
_SURROGATE = re.compile(r"[\ud800-\udfff]")


def _refuse_surrogates(line_no, named_strings) -> None:
    """CorpusError naming the first of the (name, string) pairs whose string
    holds a lone surrogate."""
    for name, value in named_strings:
        if _SURROGATE.search(value):
            raise CorpusError(f"line {line_no}: {name} must hold no lone surrogate, "
                              f"found {value!r}")


def load_dataset(path, label_names, name=None) -> Dataset:
    """Load a JSONL annotation file against a declared label schema.

    Registries come out in first-appearance order so that row indices into
    the embedding matrices are reproducible across runs. Each stripped line
    must hold exactly one JSON value, parsed by read_json's rule with NaN and
    Infinity rejected; the record is an object whose example_id, text and
    annotator_id are strings and whose label is a declared name, and no
    string field, demographics key or demographics value may hold a lone
    surrogate. CorpusError names the line and its first fault, or the file
    if it is not UTF-8. Each distinct text and each distinct demographics
    dict, with its items in file order, is one table entry.

    A line is read in one of two ways, with identical results. A line in
    write_dataset's form with no escape in it (_RECORD_LINE) whose label is
    a declared name is read by the pattern's groups, and its demographics
    text, if any, is looked up among the texts seen before. Any other line,
    or one with demographics text not seen before, is decoded as JSON and
    checked field by field; that is the only way a fault is reported.

    Lines are read one at a time, never joined into one array: a record
    split across lines, or two records on one line, would decode as valid
    records from lines that are each malformed on their own.
    """
    label_names = list(label_names)
    label_index = {name: i for i, name in enumerate(label_names)}
    annotators, example_ids, texts = _Registry(), _Registry(), _Registry()
    # tuple(items) of each demographics dict seen -> its index in the table
    seen_demographics: dict[tuple, int] = {}
    # the text of each demographics object seen in a _RECORD_LINE -> its index
    # in the table; None, no demographics, is index -1
    demographics_at: dict[Optional[str], int] = {None: -1}
    demographics: list[dict] = []
    columns = ([], [], [], [], [])    # annotator, example, text and demographics indices, labels
    add_annotator, add_example, add_text, add_demographics, add_label = (
        column.append for column in columns)
    scan, match = _LINE_DECODER.scan_once, _RECORD_LINE.fullmatch
    try:
        with open(path, encoding="utf-8") as fh:
            for line_no, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                written = match(line)
                if written is not None:
                    annotator_id, demo_text, example_id, label, text = written.groups()
                    label, demo = label_index.get(label), demographics_at.get(demo_text)
                    if label is not None and demo is not None:
                        add_annotator(annotators[annotator_id])
                        add_example(example_ids[example_id])
                        add_text(texts[text])
                        add_demographics(demo)
                        add_label(label)
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
                # the file is UTF-8: a lone surrogate can only come from a \u escape
                escaped = "\\" in line
                if escaped:
                    _refuse_surrogates(line_no, (("example_id", example_id), ("text", text),
                                                 ("annotator_id", annotator_id)))
                demo = obj.get("demographics")
                if demo is None:
                    demo = -1
                else:
                    # a file repeats one dict per annotator: check only a dict not seen
                    # before; the except is for no dict, an unseen or an unhashable one
                    try:
                        demo = seen_demographics[tuple(demo.items())]
                    except (AttributeError, KeyError, TypeError):
                        if not isinstance(demo, dict) or not all(
                            isinstance(k, str) and isinstance(v, str) for k, v in demo.items()
                        ):
                            raise CorpusError(f"line {line_no}: demographics must map "
                                              "strings to strings") from None
                        if escaped:
                            _refuse_surrogates(line_no, (pair for k, v in demo.items() for pair in (
                                ("demographics key", k), (f"demographics[{k!r}]", v))))
                        seen_demographics[tuple(demo.items())] = len(demographics)
                        demographics.append(demo)
                        demo = len(demographics) - 1
                if written is not None:
                    # a _RECORD_LINE with new demographics text: the next one takes the fast path
                    demographics_at[demo_text] = demo
                add_annotator(annotators[annotator_id])
                add_example(example_ids[example_id])
                add_text(texts[text])
                add_demographics(demo)
                add_label(label)
    except UnicodeDecodeError as err:
        raise _not_utf8(path, err) from None
    annotator_index, example_index, text_index, demographics_index = (
        np.array(column, np.int32) for column in columns[:4])
    return Dataset(
        label_names=label_names, annotator_ids=list(annotators), example_ids=list(example_ids),
        texts=tuple(texts), demographics=tuple(demographics),
        annotator_index=annotator_index, example_index=example_index, text_index=text_index,
        demographics_index=demographics_index,
        labels=np.array(columns[4], label_dtype(len(label_names))),
        name=str(path) if name is None else name)


class _Encoded(dict):
    """index -> prefix + _LINE_ENCODER.encode(table[index]), each entry
    encoded once, when it is first asked for."""

    def __init__(self, table, prefix=""):
        super().__init__()
        self.table, self.prefix = table, prefix

    def __missing__(self, index):
        self[index] = text = self.prefix + _LINE_ENCODER.encode(self.table[index])
        return text


# the text of a JSON string token that is its decoded value: no quote,
# backslash or control character, so no escape (RFC 8259, section 7); the
# class is [^"\\\x00-\x1f] written as ranges, which sre matches faster
_PLAIN = r'[ !#-\[\]-\U0010ffff]*'
# the line write_dataset writes when none of its strings needs an escape;
# its groups are the annotator id, the demographics object's text (None if
# absent), the example id, the label name and the text
_RECORD_LINE = re.compile(
    rf'\{{"annotator_id": "({_PLAIN})"'
    rf'(?:, "demographics": (\{{(?:"{_PLAIN}": "{_PLAIN}"(?:, "{_PLAIN}": "{_PLAIN}")*)?\}}))?'
    rf', "example_id": "({_PLAIN})", "label": "({_PLAIN})", "text": "({_PLAIN})"\}}')
# write_dataset hands the file this many lines joined in one write
_WRITE_BLOCK = 4096


def write_dataset(dataset: Dataset, path) -> None:
    """Write a dataset back to JSONL; load_dataset round-trips it record-for-record.

    Each line is _LINE_ENCODER.encode of the annotation's record, put together
    in sorted-key order from the encodings of its values; each registry and
    table entry that the dataset uses is encoded once. A line whose strings
    need no escape has the form of _RECORD_LINE, which load_dataset reads
    without a JSON decode. The lines go to the file _WRITE_BLOCK at a time,
    through replaced_file: if a write raises, path keeps its old bytes.
    """
    annotators, examples = _Encoded(dataset.annotator_ids), _Encoded(dataset.example_ids)
    labels, texts = _Encoded(dataset.label_names), _Encoded(dataset.texts)
    demographics = _Encoded(dataset.demographics, ', "demographics": ')
    demographics[-1] = ""
    columns = zip(dataset.annotator_index.tolist(), dataset.demographics_index.tolist(),
                  dataset.example_index.tolist(), dataset.labels.tolist(),
                  dataset.text_index.tolist())
    lines = (f'{{"annotator_id": {annotators[a]}{demographics[d]}, "example_id": '
             f'{examples[e]}, "label": {labels[label]}, "text": {texts[t]}}}\n'
             for a, d, e, label, t in columns)
    with replaced_file(path, encoding="utf-8") as fh:
        while block := "".join(islice(lines, _WRITE_BLOCK)):
            fh.write(block)


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
    in their declared order. ValueError names the key path and the value;
    TypeError, a kind that is none of these, such as a bare list."""
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
    elif kind is str:
        ok = isinstance(value, str)
        want = "a string" if choices is None else f"one of {list(choices)}"
    else:
        raise TypeError(f"{name}: check_type knows no kind {kind!r}")
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
    """The annotations where the boolean mask keep is set, in dataset order:
    the arrays indexed, both registries renumbered to their first appearance
    in the part, and the text and demographics tables and the examples
    shared."""
    positions = np.flatnonzero(keep)
    annotator_ids, annotator_index = renumbered(dataset.annotator_ids,
                                                dataset.annotator_index[positions])
    example_ids, example_index = renumbered(dataset.example_ids, dataset.example_index[positions])
    return Dataset(
        label_names=list(dataset.label_names), annotator_ids=annotator_ids,
        example_ids=example_ids, texts=dataset.texts, demographics=dataset.demographics,
        annotator_index=annotator_index, example_index=example_index,
        text_index=dataset.text_index[positions],
        demographics_index=dataset.demographics_index[positions],
        labels=dataset.labels[positions], name=f"{dataset.name}-{suffix}",
        _source=(dataset, positions))


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
    if not len(dataset):
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
        n_annotations=len(dataset),
    )
