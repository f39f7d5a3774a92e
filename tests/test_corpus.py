import dataclasses
import io
import json
import math
import os
import re
from dataclasses import is_dataclass
from enum import Enum
from itertools import compress
from typing import Literal, Optional, Union, get_args, get_origin, get_type_hints

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from annembed import corpus
from annembed.analysis import KappaMatrix
from annembed.cli import CONFIG_FLAGS
from annembed.corpus import (
    _LINE_DECODER,
    _LINE_ENCODER,
    _RECORD_LINE,
    AnnotatedExample,
    _plain,
    _subset,
    CorpusError,
    Dataset,
    DatasetManifest,
    SplitManifest,
    StatisticsReport,
    check_type,
    dataset_statistics,
    drop_unseen_annotators,
    load_dataset,
    make_annotation_split,
    make_annotator_split,
    read_json,
    write_dataset,
    write_json,
)
from annembed.embedding import CombinationMode
from annembed.trainer import CheckpointManifest, EvalReport, TrainConfig


def _write_lines(path, records):
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec) + "\n")


def _record(eid, ann, label, text="some text", demographics=None):
    rec = {"example_id": eid, "text": text, "annotator_id": ann, "label": label}
    if demographics:
        rec["demographics"] = demographics
    return rec


def _toy_dataset(n_texts=12, annotators=("p", "q", "r"), n_labels=3):
    examples = []
    for t in range(n_texts):
        for i, ann in enumerate(annotators):
            examples.append(AnnotatedExample(
                example_id=f"t{t}", text=f"text number {t}",
                annotator_id=ann, label=(t + i) % n_labels,
            ))
    return Dataset.from_examples(examples, [f"L{i}" for i in range(n_labels)])


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_subset_gathers_what_the_position_filter_kept(data):
    dataset = _toy_dataset(n_texts=7)
    keep = data.draw(st.lists(st.booleans(), min_size=len(dataset), max_size=len(dataset)))
    filtered = [ex for pos, ex in enumerate(dataset.examples) if keep[pos]]
    expected = Dataset.from_examples(filtered, dataset.label_names, f"{dataset.name}-part")
    assert _subset(dataset, np.array(keep, np.bool_), "part") == expected


def test_load_small_file(tmp_path):
    path = tmp_path / "data.jsonl"
    _write_lines(path, [
        _record("e1", "alice", "A"),
        _record("e1", "bob", "B"),
        _record("e2", "alice", "A"),
    ])
    ds = load_dataset(path, ["A", "B"])
    assert ds.n_annotators == 2
    assert ds.n_labels == 2
    assert ds.annotator_ids == ["alice", "bob"]
    assert [ex.label for ex in ds.examples] == [0, 1, 0]


def test_load_rejects_unknown_label(tmp_path):
    path = tmp_path / "data.jsonl"
    _write_lines(path, [_record("e1", "alice", "A"), _record("e2", "alice", "C")])
    with pytest.raises(CorpusError) as err:
        load_dataset(path, ["A", "B"])
    assert "'C'" in str(err.value)
    assert "line 2" in str(err.value)


@pytest.mark.parametrize("label", [["A"], {"A": 1}, 0, None])
def test_load_rejects_a_label_that_is_not_a_name(tmp_path, label):
    path = tmp_path / "data.jsonl"
    _write_lines(path, [_record("e1", "alice", "A"), _record("e2", "alice", label)])
    with pytest.raises(CorpusError) as err:
        load_dataset(path, ["A", "B"])
    assert str(err.value) == f"line 2: unknown label {label!r}"


def test_load_shares_repeated_texts_ids_and_demographics(tmp_path):
    examples = [AnnotatedExample(f"t{t}", f"text number {t}", f"ann{a}", (t + a) % 3,
                                 {"cohort": f"c{a % 2}"})
                for t in range(6) for a in range(4)]
    original = Dataset.from_examples(examples, ["L0", "L1", "L2"])
    path = tmp_path / "data.jsonl"
    write_dataset(original, path)
    loaded = load_dataset(path, original.label_names).examples
    assert loaded == tuple(examples)
    assert len({id(ex.text) for ex in loaded}) == 6
    assert len({id(ex.example_id) for ex in loaded}) == 6
    assert len({id(ex.annotator_id) for ex in loaded}) == 4
    assert len({id(ex.demographics) for ex in loaded}) == 2


@pytest.mark.parametrize("demographics", [
    {"cohort": ["c0"]}, {"cohort": {"c": "0"}}, {"cohort": 0}, ["cohort", "c0"], "c0",
], ids=["list_value", "object_value", "integer_value", "list", "string"])
def test_load_rejects_demographics_that_are_not_string_to_string(tmp_path, demographics):
    # the first line's valid dict is remembered; the bad one must still be checked
    path = tmp_path / "data.jsonl"
    _write_lines(path, [_record("e1", "alice", "A", demographics={"cohort": "c0"}),
                        _record("e2", "alice", "A", demographics={"cohort": "c0"}),
                        _record("e3", "alice", "A", demographics=demographics)])
    with pytest.raises(CorpusError) as err:
        load_dataset(path, ["A", "B"])
    assert str(err.value) == "line 3: demographics must map strings to strings"


def test_load_rejects_malformed_line(tmp_path):
    path = tmp_path / "data.jsonl"
    with open(path, "w") as fh:
        fh.write(json.dumps(_record("e1", "alice", "A")) + "\n")
        fh.write("{not json\n")
    with pytest.raises(CorpusError, match="line 2"):
        load_dataset(path, ["A", "B"])


def test_load_rejects_duplicate_annotation(tmp_path):
    path = tmp_path / "data.jsonl"
    _write_lines(path, [_record("e1", "alice", "A"), _record("e1", "alice", "B")])
    with pytest.raises(CorpusError, match="duplicate"):
        load_dataset(path, ["A", "B"])


@pytest.mark.parametrize("line, problem", [
    ('{"example_id": NaN, "text": "x", "annotator_id": "a", "label": "A"}', "NaN"),
    ('{"example_id": "e", "text": "x", "annotator_id": "a", "label": "A", "w": -Infinity}',
     "-Infinity"),
    ('{"example_id": 7, "text": "x", "annotator_id": "a", "label": "A"}', "example_id"),
    ('{"example_id": "e", "text": null, "annotator_id": "a", "label": "A"}', "text"),
    ('{"example_id": "e", "text": "x", "annotator_id": ["a"], "label": "A"}', "annotator_id"),
], ids=["nan", "infinity", "integer_id", "null_text", "list_annotator"])
def test_load_rejects_json_constants_and_fields_that_are_not_strings(tmp_path, line, problem):
    path = tmp_path / "data.jsonl"
    path.write_text(json.dumps(_record("e0", "a", "A")) + "\n" + line + "\n", encoding="utf-8")
    with pytest.raises(CorpusError, match=rf"line 2: {problem}"):
        load_dataset(path, ["A", "B"])


def test_annotated_example_is_slotted_frozen_and_hashable():
    ex = AnnotatedExample("e1", "some text", "alice", 1, {"age": "30"})
    assert not hasattr(ex, "__dict__")
    with pytest.raises(dataclasses.FrozenInstanceError):
        ex.label = 0
    with pytest.raises((AttributeError, TypeError)):   # no slot to hold a new field
        ex.weight = 2.0
    same = AnnotatedExample("e1", "some text", "alice", 1, {"age": "30"})
    assert ex == same and ex is not same
    assert ex != AnnotatedExample("e1", "some text", "alice", 0, {"age": "30"})
    plain = AnnotatedExample("e1", "some text", "alice", 1)
    assert hash(plain) == hash(("e1", "some text", "alice", 1, None))
    assert len({plain, AnnotatedExample("e1", "some text", "alice", 1)}) == 1
    relabeled = dataclasses.replace(ex, label=0, annotator_id="bob")
    assert (relabeled.example_id, relabeled.annotator_id, relabeled.label) == ("e1", "bob", 0)
    assert relabeled.demographics is ex.demographics and ex.label == 1


@settings(max_examples=80, deadline=None)
@given(annotations=st.lists(
    st.tuples(st.sampled_from(["a", "b", "c"]), st.integers(0, 4),
              st.integers(0, 3) | st.sampled_from([1.5, "1", True])),
    max_size=14))
@example(annotations=[("a", 0, 1.5), ("a", 1, 0)])   # 1.5 is no label 1
@example(annotations=[("a", 0, 0), ("a", 0, 3)])     # the label check comes first
@example(annotations=[("a", 0, 0), ("a", 0, "1")])
def test_dataset_reports_the_first_bad_annotation(annotations):
    """A label that is no integer or out of range, or a repeated
    (example_id, annotator_id) pair is reported for the first annotation that
    has one, in the same words."""
    examples = [AnnotatedExample(f"t{t}", "text", ann, label) for ann, t, label in annotations]
    expected, seen = None, set()
    for ex in examples:
        if type(ex.label) is not int:
            expected = (f"label of annotation {(ex.example_id, ex.annotator_id)} "
                        f"must be an integer, found {ex.label!r}")
            break
        if ex.label >= 3:
            expected = f"label index {ex.label} out of range for 3 labels"
            break
        if (ex.example_id, ex.annotator_id) in seen:
            expected = f"duplicate annotation {(ex.example_id, ex.annotator_id)}"
            break
        seen.add((ex.example_id, ex.annotator_id))
    if expected is None:
        assert len(Dataset.from_examples(examples, ["L0", "L1", "L2"])) == len(examples)
    else:
        with pytest.raises(CorpusError) as err:
            Dataset.from_examples(examples, ["L0", "L1", "L2"])
        assert str(err.value) == expected


def test_dataset_rejects_duplicate_label_names():
    with pytest.raises(CorpusError, match="duplicate label names"):
        Dataset.from_examples([AnnotatedExample("e", "x", "a", 0)], ["A", "B", "A"])


@pytest.mark.parametrize("column, values, message", [
    ("annotator_index", [0, 1, 0], r"annotator_index must hold 2 indices in \[0, 2\)"),
    ("example_index", [0], r"example_index must hold 2 indices in \[0, 1\)"),
    ("example_index", [0, -1], r"example_index must hold 2 indices in \[0, 1\)"),
    ("text_index", [0, 2], r"text_index must hold 2 indices in \[0, 2\)"),
    ("demographics_index", [-2, 0], r"demographics_index must hold 2 indices in \[-1, 1\)"),
])
def test_dataset_refuses_columns_of_another_length_or_out_of_range(column, values, message):
    """Two annotations by a and b of e; one column is replaced."""
    columns = dict(annotator_index=[0, 1], example_index=[0, 0], text_index=[0, 1],
                   demographics_index=[-1, 0], labels=[0, 1])
    columns[column] = values
    with pytest.raises(CorpusError, match=f"^{message}$"):
        Dataset(["A", "B"], ["a", "b"], ["e"], ("t", "u"), ({"g": "1"},),
                **{key: np.array(value, np.int32) for key, value in columns.items()})


def test_load_full_coverage_shape(tmp_path):
    # 6 annotators each labeling all 1,008 texts
    path = tmp_path / "wide.jsonl"
    records = []
    for t in range(1008):
        for a in range(6):
            records.append(_record(f"t{t}", f"ann{a}", "yes" if (t + a) % 3 else "no",
                                   text=f"text {t}"))
    _write_lines(path, records)
    ds = load_dataset(path, ["no", "yes"])
    assert ds.n_annotators == 6
    assert len(ds) == 6048


def test_roundtrip(tmp_path):
    original = _toy_dataset()
    # splash in demographics on one annotator
    examples = [
        AnnotatedExample(ex.example_id, ex.text, ex.annotator_id, ex.label,
                         {"age": "30-39"} if ex.annotator_id == "p" else None)
        for ex in original.examples
    ]
    original = Dataset.from_examples(examples, original.label_names)
    path = tmp_path / "out.jsonl"
    write_dataset(original, path)
    reloaded = load_dataset(path, original.label_names)
    assert reloaded.examples == original.examples
    assert reloaded.annotator_ids == original.annotator_ids


def test_annotation_split_ceiling_counts():
    examples = []
    for t in range(10):
        examples.append(AnnotatedExample(f"t{t}", f"text {t}", "solo", t % 2))
        examples.append(AnnotatedExample(f"t{t}", f"text {t}", "other", (t + 1) % 2))
    ds = Dataset.from_examples(examples, ["L0", "L1"])
    split = make_annotation_split(ds, 0.7, seed=0)
    per_ann_train = sum(1 for ex in split.train.examples if ex.annotator_id == "solo")
    per_ann_test = sum(1 for ex in split.test.examples if ex.annotator_id == "solo")
    assert (per_ann_train, per_ann_test) == (7, 3)


def test_annotation_split_deterministic():
    ds = _toy_dataset()
    a = make_annotation_split(ds, 0.7, seed=42)
    b = make_annotation_split(ds, 0.7, seed=42)
    assert a.train.examples == b.train.examples
    assert a.test.examples == b.test.examples


def test_annotation_split_matches_independent_partition():
    # independent re-implementation: one seeded generator, annotators visited
    # in registry order, permutation of that annotator's positions, ceil split
    ds = _toy_dataset(n_texts=17)
    seed = 1234
    split = make_annotation_split(ds, 0.7, seed=seed)

    rng = np.random.default_rng(seed)
    expected_train, expected_test = [], []
    for ann in ds.annotator_ids:
        positions = [i for i, ex in enumerate(ds.examples) if ex.annotator_id == ann]
        order = rng.permutation(len(positions))
        shuffled = [positions[i] for i in order]
        n_train = math.ceil(0.7 * len(positions))
        expected_train.extend(shuffled[:n_train])
        expected_test.extend(shuffled[n_train:])
    expected_train_examples = [ds.examples[i] for i in sorted(expected_train)]
    expected_test_examples = [ds.examples[i] for i in sorted(expected_test)]
    assert list(split.train.examples) == expected_train_examples
    assert list(split.test.examples) == expected_test_examples


def test_annotation_split_preserves_multiset():
    ds = _toy_dataset(n_texts=9)
    split = make_annotation_split(ds, 0.6, seed=5, dev_frac=0.2)
    combined = list(split.train.examples) + list(split.dev.examples) + list(split.test.examples)
    key = lambda ex: (ex.example_id, ex.annotator_id)
    assert sorted(combined, key=key) == sorted(ds.examples, key=key)


def test_annotation_split_rejects_single_annotation():
    examples = [
        AnnotatedExample("t0", "x", "solo", 0),
        AnnotatedExample("t0", "x", "busy", 1),
        AnnotatedExample("t1", "y", "busy", 0),
    ]
    ds = Dataset.from_examples(examples, ["L0", "L1"])
    with pytest.raises(CorpusError, match="solo"):
        make_annotation_split(ds, 0.7, seed=0)


def test_annotator_split_three_way():
    ds = _toy_dataset(annotators=("a", "b", "c"))
    split = make_annotator_split(ds, 0.7, seed=0)
    assert split.train.n_annotators == 2
    assert split.test.n_annotators == 1


def test_annotator_split_ten_way():
    ds = _toy_dataset(n_texts=4, annotators=tuple(f"a{i}" for i in range(10)))
    split = make_annotator_split(ds, 0.7, seed=3)
    assert split.train.n_annotators == 7
    assert split.test.n_annotators == 3


def test_annotator_split_disjoint_over_seeds():
    ds = _toy_dataset(n_texts=5, annotators=("a", "b", "c", "d", "e"))
    for seed in range(100):
        split = make_annotator_split(ds, 0.6, seed=seed)
        assert not set(split.train.annotator_ids) & set(split.test.annotator_ids)


def test_annotator_split_keeps_each_annotator_whole():
    ds = _toy_dataset(n_texts=6, annotators=("a", "b", "c", "d"))
    split = make_annotator_split(ds, 0.5, seed=9)
    counts = {a: 0 for a in ds.annotator_ids}
    for ex in ds.examples:
        counts[ex.annotator_id] += 1
    for side in (split.train, split.test):
        for ann in side.annotator_ids:
            got = sum(1 for ex in side.examples if ex.annotator_id == ann)
            assert got == counts[ann]


@st.composite
def _crowds(draw, min_per_annotator):
    """A random dataset: each annotator labels a distinct subset of the texts,
    of at least min_per_annotator of them, in a shuffled record order."""
    n_texts = draw(st.integers(min_per_annotator, 8))
    texts = st.lists(st.integers(0, n_texts - 1), min_size=min_per_annotator, unique=True)
    examples = [AnnotatedExample(f"t{t}", f"text {t}", f"a{a}", draw(st.integers(0, 2)))
                for a in range(draw(st.integers(2, 6))) for t in draw(texts)]
    return Dataset.from_examples(draw(st.permutations(examples)), ["L0", "L1", "L2"])


def _assert_partition(dataset, split):
    parts = [split.train, split.test] + ([split.dev] if split.dev is not None else [])
    key = lambda ex: (ex.example_id, ex.annotator_id)
    assert sorted((ex for part in parts for ex in part.examples), key=key) == \
        sorted(dataset.examples, key=key)


@settings(max_examples=60, deadline=None)
@given(dataset=_crowds(min_per_annotator=2), train_frac=st.floats(0.01, 0.99),
       dev_frac=st.sampled_from([0.0, 0.3]), seed=st.integers(0, 2**32 - 1))
@example(dataset=Dataset.from_examples(
    [AnnotatedExample(f"t{t}", f"text {t}", a, t % 2) for a in ("a", "b") for t in range(2)],
    ["L0", "L1", "L2"]), train_frac=0.7, dev_frac=0.0, seed=0)   # ceil(0.7 * 2) == 2
def test_annotation_split_keeps_every_annotator_on_both_sides(dataset, train_frac,
                                                              dev_frac, seed):
    split = make_annotation_split(dataset, train_frac, seed, dev_frac=dev_frac)
    assert set(split.train.annotator_ids) == set(dataset.annotator_ids)
    assert set(split.test.annotator_ids) == set(dataset.annotator_ids)
    _assert_partition(dataset, split)


@settings(max_examples=60, deadline=None)
@given(dataset=_crowds(min_per_annotator=1), train_frac=st.floats(0.01, 0.99),
       seed=st.integers(0, 2**32 - 1))
def test_annotator_split_has_disjoint_annotator_sets(dataset, train_frac, seed):
    split = make_annotator_split(dataset, train_frac, seed)
    train_ann, test_ann = set(split.train.annotator_ids), set(split.test.annotator_ids)
    assert train_ann and test_ann and not train_ann & test_ann
    assert train_ann | test_ann == set(dataset.annotator_ids)
    _assert_partition(dataset, split)


def test_statistics_disagreement_buckets():
    examples = [
        AnnotatedExample("t0", "x", "a", 0),
        AnnotatedExample("t0", "x", "b", 1),
        AnnotatedExample("t1", "y", "a", 0),
        AnnotatedExample("t1", "y", "b", 0),
    ]
    ds = Dataset.from_examples(examples, ["L0", "L1"])
    stats = dataset_statistics(ds)
    assert stats.disagreement_histogram == {1: 1, 2: 1}
    assert stats.annotations_per_annotator == {"a": 2, "b": 2}


def test_statistics_near_unanimous_corpus():
    # all annotators agree on every text except four
    examples = []
    for t in range(40):
        for ann in ("a", "b", "c"):
            label = 1 if (t < 4 and ann == "c") else 0
            examples.append(AnnotatedExample(f"t{t}", f"text {t}", ann, label))
    ds = Dataset.from_examples(examples, ["L0", "L1"])
    stats = dataset_statistics(ds)
    assert stats.disagreement_histogram[2] == 4
    assert stats.disagreement_histogram[1] == 36


def test_statistics_forced_unanimity():
    examples = [
        AnnotatedExample(f"t{t}", f"text {t}", ann, t % 3)
        for t in range(20) for ann in ("a", "b", "c")
    ]
    ds = Dataset.from_examples(examples, ["L0", "L1", "L2"])
    stats = dataset_statistics(ds)
    assert stats.disagreement_histogram == {1: 20}


def test_statistics_buckets_sum_to_examples():
    ds = _toy_dataset(n_texts=13)
    stats = dataset_statistics(ds)
    assert sum(stats.disagreement_histogram.values()) == stats.n_examples


def test_drop_unseen_annotators():
    ds = _toy_dataset(annotators=("a", "b", "c"))
    kept = drop_unseen_annotators(ds, ["a", "c"])
    assert set(kept.annotator_ids) == {"a", "c"}
    assert all(ex.annotator_id != "b" for ex in kept.examples)


# The per-example code that the integer view of a Dataset replaced, kept as
# the reference: each returns the examples of every part, in dataset order.

def _reference_annotation_split(dataset, train_frac, seed, dev_frac):
    by_ann = {a: [] for a in dataset.annotator_ids}
    for pos, ex in enumerate(dataset.examples):
        by_ann[ex.annotator_id].append(pos)
    for ann, positions in by_ann.items():
        if len(positions) < 2:
            raise CorpusError(f"annotator {ann!r} has a single annotation; filter it first")
    rng = np.random.default_rng(seed)
    part_of = {}
    for ann in dataset.annotator_ids:
        positions = by_ann[ann]
        shuffled = [positions[i] for i in rng.permutation(len(positions))]
        n_train = min(math.ceil(train_frac * len(positions)), len(positions) - 1)
        head, tail = shuffled[:n_train], shuffled[n_train:]
        n_dev = int(dev_frac * len(head))
        if n_dev >= len(head):
            n_dev = len(head) - 1
        if n_dev > 0:
            part_of.update(dict.fromkeys(head[len(head) - n_dev:], "dev"))
            head = head[:len(head) - n_dev]
        part_of.update(dict.fromkeys(head, "train"))
        part_of.update(dict.fromkeys(tail, "test"))
    return {part: [ex for pos, ex in enumerate(dataset.examples) if part_of[pos] == part]
            for part in ("train", "dev", "test")}


def _reference_annotator_split(dataset, train_frac, seed):
    n = dataset.n_annotators
    order = np.random.default_rng(seed).permutation(n)
    n_train = min(max(int(train_frac * n), 1), n - 1)
    train_ann = {dataset.annotator_ids[i] for i in order[:n_train]}
    return {"train": [ex for ex in dataset.examples if ex.annotator_id in train_ann],
            "test": [ex for ex in dataset.examples if ex.annotator_id not in train_ann]}


def _reference_statistics(dataset):
    labels_by_example = {}
    for ex in dataset.examples:
        labels_by_example.setdefault(ex.example_id, set()).add(ex.label)
    histogram = {}
    for labels in labels_by_example.values():
        histogram[len(labels)] = histogram.get(len(labels), 0) + 1
    per_annotator = {a: 0 for a in dataset.annotator_ids}
    usage = {name: 0 for name in dataset.label_names}
    for ex in dataset.examples:
        per_annotator[ex.annotator_id] += 1
        usage[dataset.label_names[ex.label]] += 1
    return StatisticsReport(per_annotator, histogram, usage, len(labels_by_example),
                            len(dataset.examples))


@settings(max_examples=80, deadline=None)
@given(dataset=_crowds(min_per_annotator=1), train_frac=st.floats(0.01, 0.99),
       dev_frac=st.sampled_from([0.0, 0.3, 0.6]), seed=st.integers(0, 2**32 - 1),
       data=st.data())
def test_splits_and_statistics_equal_the_per_example_code(dataset, train_frac, dev_frac, seed,
                                                          data):
    def parts(split):
        return {part: list(getattr(split, part).examples) if getattr(split, part) else []
                for part in ("train", "dev", "test")}

    try:
        expected = _reference_annotation_split(dataset, train_frac, seed, dev_frac)
    except CorpusError as err:
        with pytest.raises(CorpusError) as raised:
            make_annotation_split(dataset, train_frac, seed, dev_frac=dev_frac)
        assert str(raised.value) == str(err)
    else:
        split = make_annotation_split(dataset, train_frac, seed, dev_frac=dev_frac)
        assert parts(split) == expected
        assert (split.dev is None) == (not expected["dev"])
    split = make_annotator_split(dataset, train_frac, seed)
    assert parts(split) == dict(_reference_annotator_split(dataset, train_frac, seed), dev=[])
    known = data.draw(st.lists(st.sampled_from(dataset.annotator_ids + ["stranger"])))
    kept = drop_unseen_annotators(dataset, known)
    assert list(kept.examples) == [ex for ex in dataset.examples if ex.annotator_id in known]
    assert kept.name == dataset.name + "-seen"
    assert dataset_statistics(dataset) == _reference_statistics(dataset)


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False) | st.text(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=20,
)


@settings(max_examples=60, deadline=None)
@given(obj=st.dictionaries(st.text(), JSON_VALUES, max_size=5))
def test_write_json_round_trips_plain_values(tmp_path_factory, obj):
    path = tmp_path_factory.mktemp("json") / "value.json"
    write_json(path, obj)
    assert read_json(path) == obj


def test_write_json_encodes_dataclasses_arrays_and_enums(tmp_path):
    kappa = KappaMatrix(["a", "b"], np.array([[1.0, np.nan], [np.nan, 1.0]]),
                        np.array([[3, 0], [0, 2]]), min_overlap=1)
    config = TrainConfig(mode=CombinationMode.TEXT_ONLY, epochs=2, batch_size=4)
    path = tmp_path / "out.json"
    write_json(path, {"kappa": kappa, "histogram": {2: 5, 10: 1}, "config": config})
    assert path.read_text(encoding="utf-8") == """{
  "config": {
    "batch_size": 4,
    "epochs": 2,
    "learning_rate": 0.0002,
    "mode": "text_only",
    "seed": 0,
    "select_on_dev": false
  },
  "histogram": {
    "10": 1,
    "2": 5
  },
  "kappa": {
    "annotator_ids": [
      "a",
      "b"
    ],
    "co_counts": [
      [
        3,
        0
      ],
      [
        0,
        2
      ]
    ],
    "min_overlap": 1,
    "values": [
      [
        1.0,
        null
      ],
      [
        null,
        1.0
      ]
    ]
  }
}
"""


def test_write_json_rejects_infinity(tmp_path):
    path = tmp_path / "out.json"
    with pytest.raises(CorpusError, match="out.json"):
        write_json(path, {"loss": [0.5, math.inf]})
    assert not path.exists()


def test_write_json_refusing_an_infinity_keeps_the_old_file(tmp_path):
    path = tmp_path / "out.json"
    write_json(path, {"loss": [0.5]})
    old = path.read_bytes()
    with pytest.raises(CorpusError, match="out.json"):
        write_json(path, {"loss": [0.5, math.inf]})
    assert path.read_bytes() == old
    assert os.listdir(tmp_path) == ["out.json"]


def test_read_json_rejects_nan_literal(tmp_path):
    path = tmp_path / "nan.json"
    path.write_text('{"a": NaN}', encoding="utf-8")
    with pytest.raises(CorpusError, match=r"nan\.json: NaN"):
        read_json(path)


@pytest.mark.parametrize("kind, value, ok", [
    (int, 3, True), (int, -1, True), (int, True, False), (int, 2.0, False), (int, "3", False),
    (int, None, False),
    (float, 0.5, True), (float, 1, True), (float, True, False), (float, math.nan, False),
    (float, math.inf, False), (float, 10 ** 400, False), (float, "0.5", False),
    (bool, False, True), (bool, 0, False), (bool, "yes", False), (bool, None, False),
    (str, "x", True), (str, 1, False), (str, None, False),
    (CombinationMode, "text_only", True), (CombinationMode, CombinationMode.TEXT_ONLY, True),
    (CombinationMode, "text", False), (CombinationMode, 0, False),
    (list[str], ["a", "b"], True), (list[str], [], True), (list[str], ["a", 1], False),
    (list[str], "a", False),
])
def test_check_type_is_the_one_type_rule(kind, value, ok):
    if ok:
        check_type("field", value, kind)
    else:
        # a list names the item at fault by its index
        with pytest.raises(ValueError, match=r"^field(\[\d+\])? must be .*, found "):
            check_type("field", value, kind)


@pytest.mark.parametrize("kind, value, bad_name", [
    (Optional[float], None, None), (Optional[float], 0.5, None), (Optional[float], "x", "field"),
    (list[int], [1, 2], None), (list[int], [1, True], "field[1]"), (list[int], None, "field"),
    (list[list[int]], [[1], []], None), (list[list[int]], [[1], [0, 2.5]], "field[1][1]"),
    (list[list[int]], [[1], 2], "field[1]"),
    (dict[str, float], {"a": 1.0}, None), (dict[str, float], {"a": None}, "field['a']"),
    (dict[str, float], [["a", 1.0]], "field"),
])
def test_check_type_names_the_bad_item_of_a_generic(kind, value, bad_name):
    if bad_name is None:
        check_type("field", value, kind)
    else:
        with pytest.raises(ValueError, match=rf"^{re.escape(bad_name)} must be .*, found "):
            check_type("field", value, kind)


def test_check_type_limits_a_string_to_its_choices():
    check_type("kind", "annotator", str, ["annotation", "annotator"])
    with pytest.raises(ValueError, match=r"kind must be one of \['annotation', 'annotator'\]"):
        check_type("kind", "annotatr", str, ["annotation", "annotator"])


@pytest.mark.parametrize("kind, value", [
    (list, ["a"]), (dict, {"a": "b"}), (tuple, ("a",)), (complex, 1j), (type(None), None),
    (list[complex], [1j]), (Optional[dict], {}),
])
def test_check_type_refuses_a_kind_it_does_not_know(kind, value):
    with pytest.raises(TypeError, match=r"^x(\[0\])?: check_type knows no kind "):
        check_type("x", value, kind)


def _reaching_value(kind):
    """A value that check_type takes as kind and that reaches every kind
    nested in it: one item in each list and object, X of Optional[X], every
    field of a dataclass. A kind check_type does not know gets None."""
    origin, args = get_origin(kind), get_args(kind)
    if origin is Union:
        return _reaching_value(args[0])
    if origin is list:
        return [_reaching_value(args[0])]
    if origin is dict:
        return {"key": _reaching_value(args[1])}
    if origin is Literal:
        return args[0]
    if is_dataclass(kind):
        return {name: _reaching_value(hint) for name, hint in get_type_hints(kind).items()}
    if isinstance(kind, type) and issubclass(kind, Enum):
        return next(iter(kind)).value
    return {bool: True, int: 1, float: 0.5, str: "s"}.get(kind)


def test_every_flag_and_record_field_has_a_kind_check_type_knows():
    declared = [(f"{cls.__name__}.{name}", get_type_hints(cls)[name])
                for cls, flags in CONFIG_FLAGS.items() for name in flags.values()]
    declared += [(f"{record.__name__}.{name}", kind)
                 for record in (DatasetManifest, SplitManifest, EvalReport, CheckpointManifest)
                 for name, kind in get_type_hints(record).items()]
    assert len(declared) > 30
    for name, kind in declared:
        check_type(name, _reaching_value(kind), kind)


# (annotator, text number, label) triples, at most one per annotator and text
ANNOTATIONS = st.lists(
    st.tuples(st.sampled_from(["a", "b", "c", "d"]), st.integers(0, 9), st.integers(0, 2)),
    max_size=30, unique_by=lambda t: t[:2],
)


def _annotated(annotations):
    examples = [AnnotatedExample(f"t{t}", "text", ann, label) for ann, t, label in annotations]
    return Dataset.from_examples(examples, ["L0", "L1", "L2"])


@settings(max_examples=60, deadline=None)
@given(annotations=ANNOTATIONS)
@example(annotations=[])
def test_annotator_ids_in_first_appearance_order(annotations):
    first_seen, texts_seen = [], []
    for ann, t, _ in annotations:
        if ann not in first_seen:
            first_seen.append(ann)
        if f"t{t}" not in texts_seen:
            texts_seen.append(f"t{t}")
    ds = _annotated(annotations)
    assert ds.annotator_ids == first_seen
    assert ds.example_ids == texts_seen


@settings(max_examples=60, deadline=None)
@given(annotations=ANNOTATIONS)
@example(annotations=[])
def test_label_counts_equal_a_recount(annotations):
    ds = _annotated(annotations)
    counts = ds.label_counts()
    assert counts.dtype == np.int64 and counts.shape == (ds.n_annotators, 3)
    for i, ann in enumerate(ds.annotator_ids):
        for label in range(3):
            assert counts[i, label] == sum(a == ann and lab == label for a, _, lab in annotations)
        assert counts[i].sum() == sum(a == ann for a, _, _ in annotations)
    counts[...] = -1
    assert (ds.label_counts() >= 0).all()   # every call builds a fresh table
    # the integer view, recounted annotation by annotation
    arrays = (ds.annotator_index, ds.example_index, ds.labels)
    assert [a.dtype for a in arrays] == [np.int32, np.int32, np.int8]
    assert [len(a) for a in arrays] == [len(annotations)] * 3
    for i, (ann, t, label) in enumerate(annotations):
        assert ds.annotator_ids[ds.annotator_index[i]] == ann
        assert ds.example_ids[ds.example_index[i]] == f"t{t}"
        assert ds.labels[i] == label
    for array in arrays:
        assert not array.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            array[...] = 0


RECORDS = st.lists(
    st.tuples(st.text(max_size=8), st.text(max_size=12), st.text(max_size=8),
              st.integers(0, 2),
              st.none() | st.dictionaries(st.text(max_size=6), st.text(max_size=6), max_size=2)),
    max_size=8, unique_by=lambda r: (r[0], r[2]),
)


@settings(max_examples=60, deadline=None)
@given(records=RECORDS)
@example(records=[("é1", "naïve café ✓ 日本語\n", "ann ü", 1, {"région": "Île-de-France"})])
def test_write_then_load_returns_the_same_records(tmp_path_factory, records):
    labels = ["nein", "ja ✓", "vielleicht"]
    examples = [AnnotatedExample(eid, text, ann, label, demo)
                for eid, text, ann, label, demo in records]
    path = tmp_path_factory.mktemp("corpus") / "data.jsonl"
    write_dataset(Dataset.from_examples(examples, labels), path)
    assert load_dataset(path, labels).examples == tuple(examples)


# quotes, backslashes, control characters, non-ASCII and separators JSON
# leaves unescaped, next to plain letters
AWKWARD_TEXT = st.text(st.sampled_from(['"', "\\", "\n", "\t", "\x00", "\x1f", "\x7f", "é",
                                        "日", "\u2028", "\U0001f600", "a", "b", " "]),
                       max_size=6)
DEMOGRAPHICS = st.none() | st.just({}) | st.dictionaries(AWKWARD_TEXT, AWKWARD_TEXT, min_size=2,
                                                         max_size=4)


@settings(max_examples=80, deadline=None)
@given(records=st.lists(st.tuples(AWKWARD_TEXT, AWKWARD_TEXT, AWKWARD_TEXT, st.integers(0, 2),
                                  DEMOGRAPHICS),
                        max_size=10, unique_by=lambda r: (r[0], r[2])),
       labels=st.lists(AWKWARD_TEXT, min_size=3, max_size=3, unique=True),
       shared=st.booleans())
@example(records=[("b", "t", "a", 0, {"z": "1", "a": "2"}), ("a", "t", "a", 1, {})],
         labels=["x", "y", "z"], shared=True)
def test_written_lines_are_the_encoded_records(tmp_path_factory, records, labels, shared):
    # shared: later records hold the first record's demographics object, as
    # load_dataset and the generator make them
    examples = [AnnotatedExample(eid, text, ann, label,
                                 records[0][4] if shared and demo is not None else demo)
                for eid, text, ann, label, demo in records]
    path = tmp_path_factory.mktemp("corpus") / "data.jsonl"
    write_dataset(Dataset.from_examples(examples, labels), path)
    want = []
    for ex in examples:
        record = {"example_id": ex.example_id, "text": ex.text, "annotator_id": ex.annotator_id,
                  "label": labels[ex.label]}
        if ex.demographics is not None:
            record["demographics"] = ex.demographics
        want.append(_LINE_ENCODER.encode(record) + "\n")
    assert path.read_bytes().decode("utf-8") == "".join(want)


# ---------------------------------------------------------------------------
# write_json and load_dataset against the code they replaced: json.dump with
# the pure-Python encoder, and JSONDecoder.decode of each line plus the
# record checks, kept here as the oracles


def _json_dump_text(obj):
    """What write_json wrote before: json.dump of the plain value and a newline."""
    buf = io.StringIO()
    json.dump(_plain(obj), buf, ensure_ascii=False, sort_keys=True, indent=2, allow_nan=False)
    return buf.getvalue() + "\n"


# control characters, quotes, non-ASCII and separators JSON leaves unescaped
JSON_TEXT = st.text(st.sampled_from(['"', "\\", "\n", "\x00", "\x1f", "\x7f", "é", "日",
                                     "\u2028", "\U0001f600", "a", "1", " "]), max_size=5)
JSON_SCALARS = (st.none() | st.booleans() | JSON_TEXT
                | st.integers() | st.integers(-10 ** 40, 10 ** 40)
                | st.floats(allow_infinity=False) | st.sampled_from([-0.0, 5e-324, 1e308])
                | st.floats(allow_infinity=False).map(np.float64))
JSON_TREES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=5) | st.dictionaries(JSON_TEXT, inner, max_size=4),
    max_leaves=24,
)


@settings(max_examples=300, deadline=None)
@given(obj=JSON_TREES)
@example(obj={"": [], "e": {}, "m": [1, [2.5, None], {"k": "v"}, "日"], "n": [[], [{}]]})
@example(obj=[[1.0, float("nan")], [np.float64("nan"), -0.0, 10 ** 30, True]])
def test_write_json_writes_the_bytes_of_json_dump(tmp_path_factory, obj):
    path = tmp_path_factory.mktemp("json") / "value.json"
    write_json(path, obj)
    assert path.read_bytes().decode("utf-8") == _json_dump_text(obj)


def _containers(value):
    """Every list and dict inside value, value itself included."""
    if isinstance(value, dict):
        return [value] + [c for item in value.values() for c in _containers(item)]
    if isinstance(value, list):
        return [value] + [c for item in value for c in _containers(item)]
    return []


@settings(max_examples=150, deadline=None)
@given(obj=JSON_TREES, bad=st.sampled_from([math.inf, -math.inf, np.float64(math.inf)]),
       data=st.data())
def test_write_json_refuses_an_infinity_with_json_dumps_text(tmp_path_factory, obj, bad, data):
    """An infinity anywhere gives json.dump's error text and leaves no file."""
    obj = [obj]
    target = data.draw(st.sampled_from(_containers(obj)))
    if isinstance(target, list):
        target.insert(data.draw(st.integers(0, len(target))), bad)
    else:
        target[data.draw(JSON_TEXT)] = bad
    with pytest.raises(ValueError) as want:
        _json_dump_text(obj)
    path = tmp_path_factory.mktemp("json") / "value.json"
    with pytest.raises(CorpusError) as got:
        write_json(path, obj)
    assert str(got.value) == f"{path}: {want.value}"
    assert str(want.value).startswith("Out of range float values are not JSON compliant: ")
    assert not path.exists()


def _reference_surrogates(line_no, named_strings):
    """The first of the (name, string) pairs whose string holds a code point
    in U+D800..U+DFFF: the JSON decoder joins a valid pair into one."""
    for name, value in named_strings:
        if any(0xD800 <= ord(c) <= 0xDFFF for c in value):
            raise CorpusError(f"line {line_no}: {name} must hold no lone surrogate, "
                              f"found {value!r}")


def _reference_record(obj, label_index, shared, line_no):
    """The record checks of the line-by-line loader, in their order."""
    if not isinstance(obj, dict):
        raise CorpusError(f"line {line_no}: record is not an object")
    for key in ("example_id", "text", "annotator_id", "label"):
        if key not in obj:
            raise CorpusError(f"line {line_no}: missing field {key!r}")
    for key in ("example_id", "text", "annotator_id"):
        if not isinstance(obj[key], str):
            raise CorpusError(f"line {line_no}: {key} must be a string, found {obj[key]!r}")
    label = obj["label"]
    try:
        index = label_index[label]
    except (KeyError, TypeError):
        raise CorpusError(f"line {line_no}: unknown label {label!r}") from None
    _reference_surrogates(line_no, [(key, obj[key])
                                    for key in ("example_id", "text", "annotator_id")])
    demo = obj.get("demographics")
    if demo is not None:
        try:
            demo = shared[tuple(demo.items())]
        except (AttributeError, KeyError, TypeError):
            if not isinstance(demo, dict) or not all(
                isinstance(k, str) and isinstance(v, str) for k, v in demo.items()
            ):
                raise CorpusError(
                    f"line {line_no}: demographics must map strings to strings") from None
            _reference_surrogates(line_no, [
                pair for k, v in demo.items()
                for pair in (("demographics key", k), (f"demographics[{k!r}]", v))])
            shared[tuple(demo.items())] = demo
    return AnnotatedExample(
        example_id=shared.setdefault(obj["example_id"], obj["example_id"]),
        text=shared.setdefault(obj["text"], obj["text"]),
        annotator_id=shared.setdefault(obj["annotator_id"], obj["annotator_id"]),
        label=index,
        demographics=demo,
    )


def _reference_load(path, label_names):
    """load_dataset as JSONDecoder.decode of each stripped line, then the
    checks: the examples and their _reference_view."""
    label_index = {name: i for i, name in enumerate(label_names)}
    shared, examples = {}, []
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = _LINE_DECODER.decode(line)
            except json.JSONDecodeError as err:
                raise CorpusError(f"line {line_no}: malformed JSON ({err.msg})") from err
            except CorpusError as err:
                raise CorpusError(f"line {line_no}: {err}") from err
            examples.append(_reference_record(obj, label_index, shared, line_no))
    return examples, _reference_view(examples, label_names)


_INTEGERS = (int, np.integer)


def _reference_view(examples, label_names):
    """The object pass that Dataset made before it held columns: both
    registries in first-appearance order, the three integer columns, and
    CorpusError for the first annotation whose label is no integer or out of
    range, or whose (example_id, annotator_id) pair came before."""
    m = len(label_names)
    annotators, example_ids, seen = {}, {}, set()
    for ex in examples:
        annotation = (ex.example_id, ex.annotator_id)
        if not isinstance(ex.label, _INTEGERS) or isinstance(ex.label, bool):
            raise CorpusError(
                f"label of annotation {annotation} must be an integer, found {ex.label!r}")
        if not 0 <= ex.label < m:
            raise CorpusError(f"label index {ex.label} out of range for {m} labels")
        if annotation in seen:
            raise CorpusError(f"duplicate annotation {annotation}")
        seen.add(annotation)
        annotators.setdefault(ex.annotator_id, len(annotators))
        example_ids.setdefault(ex.example_id, len(example_ids))
    return {"annotator_ids": list(annotators), "example_ids": list(example_ids),
            "annotator_index": [annotators[ex.annotator_id] for ex in examples],
            "example_index": [example_ids[ex.example_id] for ex in examples],
            "labels": [int(ex.label) for ex in examples]}


def _assert_columns(dataset, examples, view):
    """dataset holds the examples as view's registries and integer columns,
    and its tables give each annotation its own text and demographics."""
    assert dataset.annotator_ids == view["annotator_ids"]
    assert dataset.example_ids == view["example_ids"]
    for key in ("annotator_index", "example_index", "labels"):
        assert getattr(dataset, key).tolist() == view[key]
    assert [dataset.texts[i] for i in dataset.text_index] == [ex.text for ex in examples]
    # each dict with its items in their own order
    assert [list(dataset.demographics[i].items()) if i >= 0 else None
            for i in dataset.demographics_index] \
        == [None if ex.demographics is None else list(ex.demographics.items())
            for ex in examples]
    assert len(set(dataset.texts)) == len(dataset.texts)
    assert dataset.examples == tuple(examples)


LOADER_LABELS = ["A", "B", "ü"]
# strings that JSON escapes, or that need no escape but are empty, a line
# separator or outside the BMP (a surrogate pair as an escape); "\ud800", a
# lone surrogate, reaches the file as that escape
AWKWARD_STRINGS = ['"', "\\", "\n", "\u2028", "", "\U0001f600", "\ud800"]


def _pool(*plain):
    """Each plain string six times as often as each awkward one."""
    return st.sampled_from([*plain * 6, *AWKWARD_STRINGS])


GOOD_RECORDS = st.fixed_dictionaries(
    {"example_id": _pool("e1", "e2", "é3"), "text": _pool("t", "日 本"),
     "annotator_id": _pool("a", "b", "c"), "label": st.sampled_from(LOADER_LABELS)},
    optional={"demographics": st.sampled_from(
        [None, {"g": "1"}, {"g": "2", "h": "x"}, {"h": "x", "g": "2"}, {}, {"g": 1},
         {"g": math.nan}, ["g"], "g", {"g": ["1"]}, {"g": '"'}, {"g": "\ud800"},
         {"\ud800": "1"}])})
# faults a record can have, one or more at a time: a field missing or of
# another type, an unknown or unhashable label, a record that is no object
FIELD_FAULTS = st.sampled_from([
    ("drop", "example_id"), ("drop", "text"), ("drop", "annotator_id"), ("drop", "label"),
    ("set", "example_id", 7), ("set", "text", None), ("set", "annotator_id", ["a"]),
    ("set", "example_id", {"a": 1}), ("set", "text", 1.5), ("set", "label", "Z"),
    ("set", "label", ["A"]), ("set", "label", {"A": 1}), ("set", "label", 0),
    ("set", "label", None), ("set", "label", True), ("whole", []), ("whole", "A"),
    ("whole", 3), ("whole", None)])


def _faulty(record, faults):
    for fault in faults:
        if fault[0] == "whole":
            return fault[1]
        record = dict(record)
        if fault[0] == "drop":
            record.pop(fault[1], None)
        else:
            record[fault[1]] = fault[2]
    return record


@st.composite
def _corpus_lines(draw):
    """One JSONL line: a record, a record with faults, two values, a malformed
    or a blank line, under random padding and line ends. A record's keys are
    sorted or not, so that a good one may come in write_dataset's form."""
    kind = draw(st.sampled_from(["good"] * 6 + ["fault", "two", "raw", "blank"]))
    if kind == "blank":
        line = draw(st.sampled_from(["", " ", "\t \t", "\u00a0", "\u00a0 \u3000"]))
    elif kind == "raw":
        line = draw(st.sampled_from([
            "{", "}", "[1,", '{"example_id": NaN}', "Infinity", "-Infinity", "nul",
            '{"example_id": "e1", "text": "t", "annotator_id": "a", "label": "A", "x": [1',
            "2]}", '"A"', "[]", "{}", '{"a": 1}x', "{'a': 1}", "\u00a0{}\u00a0"]))
    else:
        record = draw(GOOD_RECORDS)
        if kind == "fault":
            record = _faulty(record, draw(st.lists(FIELD_FAULTS, min_size=1, max_size=3)))
        line = json.dumps(record, ensure_ascii=draw(st.booleans()),
                          sort_keys=draw(st.booleans()))
        if kind == "two":
            line += draw(st.sampled_from(["", " ", ", "])) + json.dumps(draw(GOOD_RECORDS))
    pad = draw(st.sampled_from(["", " ", "\t", "\u00a0", "\u2003"]))
    line = pad + line + pad + draw(st.sampled_from(["\n", "\r\n"]))
    # a lone surrogate that ensure_ascii=False left raw, as its JSON escape
    return line.encode("utf-8", "backslashreplace").decode("utf-8")


@settings(max_examples=300, deadline=None)
@given(lines=st.lists(_corpus_lines(), max_size=8))
@example(lines=['{"example_id": "e1", "text": "t", "annotator_id": "a", "label": "A"}\r\n',
                "\u00a0\n", '  {"example_id": "e1", "text": "t", "annotator_id": "a", '
                '"label": "B", "demographics": {"g": "1"}} \n'])
# write_dataset's form: two demographics texts, each first seen and then seen
@example(lines=['{"annotator_id": "a", "demographics": {"g": "1"}, "example_id": "e1", '
                '"label": "A", "text": "t"}\n',
                '{"annotator_id": "b", "demographics": {"g": "2", "h": "x"}, "example_id": "e1", '
                '"label": "ü", "text": "t"}\n',
                '{"annotator_id": "b", "demographics": {"g": "2", "h": "x"}, "example_id": "e2", '
                '"label": "B", "text": "日 本"}\n',
                '{"annotator_id": "a", "demographics": {"g": "1"}, "example_id": "e2", '
                '"label": "A", "text": "t"}\n'])
@example(lines=['{"annotator_id": "a", "example_id": "e2", "label": "Z", "text": "t"}\n'])
@example(lines=['{"annotator_id": "a", "example_id": "e1", "label": "A", "text": "\\ud800"}\n'])
def test_load_dataset_agrees_with_decoding_each_line(tmp_path_factory, lines):
    path = tmp_path_factory.mktemp("corpus") / "data.jsonl"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("".join(lines))
    try:
        examples, view = _reference_load(path, LOADER_LABELS)
    except CorpusError as err:
        with pytest.raises(CorpusError) as got:
            load_dataset(path, LOADER_LABELS)
        assert str(got.value) == str(err)
        return
    got = load_dataset(path, LOADER_LABELS)
    _assert_columns(got, examples, view)
    assert got.name == str(path)
    # the same values are shared: as many distinct objects as the reference holds
    for key in ("text", "demographics"):
        assert (len({id(getattr(ex, key)) for ex in got.examples})
                == len({id(getattr(ex, key)) for ex in examples}))


def _synth_corpus(path, group_count):
    """A synthgen crowd in small, written by write_dataset: the lines that
    the crowd workload loads."""
    from annembed import synthgen

    dataset, _ = synthgen.generate_population(synthgen.PopulationConfig(
        n_annotators=12, n_texts=40, n_labels=3, group_count=group_count,
        annotations_per_text=5, seed=4))
    write_dataset(dataset, path)
    return dataset


@pytest.mark.parametrize("group_count", [0, 3])
def test_write_dataset_lines_load_without_a_json_decode(tmp_path, monkeypatch, group_count):
    """Every line of a synthgen corpus is a _RECORD_LINE, and a load decodes
    as JSON only the first line of each distinct demographics text."""
    path = tmp_path / "corpus.jsonl"
    dataset = _synth_corpus(path, group_count)
    *lines, last = path.read_text(encoding="utf-8").split("\n")
    assert last == "" and len(lines) == len(dataset)
    matches = [_RECORD_LINE.fullmatch(line) for line in lines]
    assert all(matches)
    decoded = []

    class CountingDecoder:
        def scan_once(self, line, index):
            decoded.append(line)
            return _LINE_DECODER.scan_once(line, index)

    monkeypatch.setattr(corpus, "_LINE_DECODER", CountingDecoder())
    loaded = load_dataset(path, dataset.label_names, name=dataset.name)
    first_of_each = {}
    for line, fields in zip(lines, matches):
        if fields[2] is not None:
            first_of_each.setdefault(fields[2], line)
    assert decoded == list(first_of_each.values())
    assert len(decoded) == len(dataset.demographics) == group_count
    assert loaded == dataset


def test_a_corpus_with_its_keys_reordered_loads_to_an_equal_dataset(tmp_path):
    """No line of the reordered file is a _RECORD_LINE: all of it is decoded
    as JSON, and the columns and tables come out the same."""
    written = tmp_path / "corpus.jsonl"
    dataset = _synth_corpus(written, 3)
    reordered = tmp_path / "reordered.jsonl"
    with open(written, encoding="utf-8") as src, open(reordered, "w", encoding="utf-8") as out:
        for line in src:
            obj = json.loads(line)
            line = json.dumps(dict(reversed(obj.items())), ensure_ascii=False)
            assert _RECORD_LINE.fullmatch(line) is None
            out.write(line + "\n")
    got, want = (load_dataset(path, dataset.label_names, name="crowd")
                 for path in (reordered, written))
    assert got == want
    assert (got.texts, got.demographics) == (want.texts, want.demographics)
    for key in ("annotator_index", "example_index", "text_index", "demographics_index",
                "labels"):
        assert np.array_equal(getattr(got, key), getattr(want, key))


@pytest.mark.parametrize("record, message", [
    ({"example_id": "e\ud800"}, "example_id must hold no lone surrogate, found 'e\\ud800'"),
    ({"text": "\udc00t"}, "text must hold no lone surrogate, found '\\udc00t'"),
    ({"annotator_id": "\ud800"}, "annotator_id must hold no lone surrogate, found '\\ud800'"),
    ({"demographics": {"g": "1", "\udfff": "2"}},
     "demographics key must hold no lone surrogate, found '\\udfff'"),
    ({"demographics": {"g": "x\ud800y"}},
     "demographics['g'] must hold no lone surrogate, found 'x\\ud800y'"),
], ids=["example_id", "text", "annotator_id", "demographics_key", "demographics_value"])
def test_load_refuses_a_lone_surrogate_naming_the_line_and_field(tmp_path, record, message):
    path = tmp_path / "data.jsonl"
    _write_lines(path, [_record("e0", "alice", "A", demographics={"g": "1"}),
                        {**_record("e1", "alice", "B"), **record}])
    assert "\\u" in path.read_text(encoding="utf-8")
    with pytest.raises(CorpusError) as err:
        load_dataset(path, ["A", "B"])
    assert str(err.value) == f"line 2: {message}"


def test_write_dataset_keeps_the_old_file_when_a_write_raises(tmp_path):
    """UTF-8 cannot encode a lone surrogate: the write raises, and the file
    keeps its old bytes instead of the lines before the bad one."""
    path = tmp_path / "data.jsonl"
    path.write_text("old\n", encoding="utf-8")
    dataset = Dataset.from_examples(
        [AnnotatedExample(f"e{i}", "t" if i < 9 else "\ud800", "a", 0) for i in range(10)],
        ["A"])
    with pytest.raises(UnicodeEncodeError):
        write_dataset(dataset, path)
    assert path.read_text(encoding="utf-8") == "old\n"
    assert os.listdir(tmp_path) == ["data.jsonl"]


def test_load_refuses_lines_that_decode_only_when_joined(tmp_path):
    """A record split over two lines and two records on one line: each line is
    malformed, though the lines joined into one array would decode to three
    valid records."""
    lines = ['{"example_id": "e1", "text": "t", "annotator_id": "a", "label": "A", "x": [1',
             "2]}",
             '{"example_id": "e2", "text": "t", "annotator_id": "a", "label": "A"}, '
             '{"example_id": "e3", "text": "t", "annotator_id": "a", "label": "B"}']
    assert len(json.loads("[" + ",".join(lines) + "]")) == 3
    path = tmp_path / "data.jsonl"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(CorpusError, match=r"^line 1: malformed JSON \(Expecting ',' delimiter\)$"):
        load_dataset(path, ["A", "B"])
    for kept, message in ((lines[1:], r"^line 1: malformed JSON \(Extra data\)$"),
                          (lines[2:], r"^line 1: malformed JSON \(Extra data\)$")):
        path.write_text("\n".join(kept) + "\n", encoding="utf-8")
        with pytest.raises(CorpusError, match=message):
            load_dataset(path, ["A", "B"])


# ---------------------------------------------------------------------------
# the columns against the object pass they replaced (_reference_view)

COLUMN_LABELS = ["A", "B", "C"]


def _column_records(labels, **kwargs):
    """Records from small pools, so that an example id comes back with another
    text, an annotator with another dict (equal dicts as distinct objects, in
    another item order, or empty) and, unless kwargs rule it out, an
    (example, annotator) pair a second time."""
    return st.lists(st.tuples(
        st.sampled_from(["e1", "e2", "e3", "é4"]), st.sampled_from(["t", "u", "日 本", "e1"]),
        st.sampled_from(["a", "b", "c", "d"]), labels,
        st.sampled_from([None, {"g": "1"}, {"g": "2"}, {"g": "1", "h": "x"},
                         {"h": "x", "g": "1"}, {}])), **kwargs)


GOOD_LABELS = st.sampled_from([0, 1, 2, np.int64(2), np.uint8(1)])
# half the lists valid; the others have labels that are no integer or out
# of range, and repeated pairs
COLUMN_RECORDS = (
    _column_records(GOOD_LABELS, max_size=12, unique_by=lambda r: (r[0], r[2]))
    | _column_records(GOOD_LABELS | st.sampled_from([3, -1, 1.5, "1", True, None, np.int8(-1)]),
                      max_size=8))


def _line(record, written: bool) -> str:
    """record as a JSONL line, in write_dataset's form if written: a label in
    range becomes its name, and any other label stays as it is, which
    load_dataset refuses."""
    eid, text, ann, label, demographics = record
    if isinstance(label, np.integer):
        label = int(label)
    if type(label) is int and 0 <= label < len(COLUMN_LABELS):
        label = COLUMN_LABELS[label]
    obj = {"example_id": eid, "text": text, "annotator_id": ann, "label": label}
    if demographics is not None:
        obj["demographics"] = demographics
    return (_LINE_ENCODER.encode(obj) if written else json.dumps(obj)) + "\n"


def _check_against_reference(build, reference):
    """build() and reference() give the same columns, or the same first fault;
    then every part of the dataset equals the dataset of its examples."""
    try:
        examples, view = reference()
    except CorpusError as err:
        with pytest.raises(CorpusError) as got:
            build()
        assert str(got.value) == str(err)
        return None
    dataset = build()
    _assert_columns(dataset, examples, view)
    # the examples built from the columns, not the ones from_examples keeps
    _assert_columns(dataclasses.replace(dataset, _examples=None), examples, view)
    return dataset, examples


@settings(max_examples=300, deadline=None)
@given(records=COLUMN_RECORDS, data=st.data())
@example(records=[("e1", "t", "a", 0, {"g": "1"}), ("e1", "u", "b", 1, {"h": "x", "g": "1"}),
                  ("e2", "t", "a", 2, {"g": "1", "h": "x"}), ("e2", "t", "b", 0, None)],
         data=None)
@example(records=[("e1", "t", "a", 0, None), ("e1", "t", "a", 1.5, None)], data=None)
def test_columns_equal_the_object_reference(tmp_path_factory, records, data):
    """from_examples and load_dataset of the same records against the object
    pass: registries, arrays, tables, examples and the first fault's text;
    and each _subset part against from_examples of the objects it kept."""
    path = tmp_path_factory.mktemp("columns") / "data.jsonl"
    # the two forms alternate, so that a line of either form sees a dict first
    path.write_text("".join(_line(record, i % 2 == 0) for i, record in enumerate(records)),
                    encoding="utf-8")
    objects = [AnnotatedExample(*record) for record in records]
    for built in (
        _check_against_reference(lambda: Dataset.from_examples(objects, COLUMN_LABELS, "drawn"),
                                 lambda: (objects, _reference_view(objects, COLUMN_LABELS))),
        _check_against_reference(lambda: load_dataset(path, COLUMN_LABELS, "drawn"),
                                 lambda: _reference_load(path, COLUMN_LABELS)),
    ):
        if built is None or data is None:
            continue
        dataset, examples = built
        keep = data.draw(st.lists(st.booleans(), min_size=len(examples),
                                  max_size=len(examples)))
        kept = list(compress(examples, keep))
        part = _subset(dataset, np.array(keep, np.bool_), "part")
        assert part == Dataset.from_examples(kept, COLUMN_LABELS, "drawn-part")
        _assert_columns(part, kept, _reference_view(kept, COLUMN_LABELS))
        # a part's examples, built from its own columns, equal those it kept
        assert part.examples == tuple(compress(dataset.examples, keep))


def test_load_split_write_train_evaluate_never_build_examples(tmp_path, monkeypatch):
    from annembed import analysis, synthgen, trainer
    from annembed.encoder import EncoderConfig

    monkeypatch.setattr(Dataset, "examples",
                        property(lambda self: pytest.fail("a pipeline step built examples")))
    dataset, _ = synthgen.generate_population(synthgen.PopulationConfig(
        n_annotators=4, n_texts=30, group_count=2, annotations_per_text=3, seed=2))
    write_dataset(dataset, tmp_path / "corpus.jsonl")
    loaded = load_dataset(tmp_path / "corpus.jsonl", dataset.label_names)
    split = make_annotation_split(loaded, 0.7, seed=2, dev_frac=0.3)
    for part in ("train", "dev", "test"):
        write_dataset(getattr(split, part), tmp_path / f"{part}.jsonl")
    model, _ = trainer.train(split, TrainConfig(epochs=1, batch_size=16, seed=2),
                             EncoderConfig(hidden=8, layers=1, heads=2, max_len=12))
    trainer.evaluate(model, split.test, with_baselines=True)
    trainer.evaluate(model, drop_unseen_annotators(loaded, model.annotator_ids))
    dataset_statistics(loaded)
    clusters = analysis.ClusterResult({a: i % 2 for i, a in enumerate(loaded.annotator_ids)},
                                      np.zeros((2, 1)), 0.0, seed=0)
    analysis.demographic_alignment(clusters, loaded)
