import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from annembed import analysis
from annembed.analysis import (
    adjusted_rand_index,
    cohen_kappa_matrix,
    demographic_alignment,
    kmeans,
    label_pearson,
    pca_project,
)
from annembed.corpus import AnnotatedExample, Dataset
from annembed.synthgen import PopulationConfig, generate_population


def _pair_dataset(labels_a, labels_b, n_labels):
    examples = []
    for t, (la, lb) in enumerate(zip(labels_a, labels_b)):
        examples.append(AnnotatedExample(f"t{t}", f"text {t}", "a", la))
        examples.append(AnnotatedExample(f"t{t}", f"text {t}", "b", lb))
    return Dataset.from_examples(examples, [f"L{i}" for i in range(n_labels)])


def test_kappa_perfect_agreement_is_one():
    labels = [0, 1, 0, 1, 1, 0, 1, 0, 0, 1]
    ds = _pair_dataset(labels, labels, 2)
    kappa = cohen_kappa_matrix(ds, min_overlap=1)
    assert kappa.values[0, 1] == 1.0
    assert kappa.values[0, 0] == 1.0 and kappa.values[1, 1] == 1.0


def test_kappa_inverted_agreement_is_minus_one():
    ds = _pair_dataset([0, 0, 1, 1], [1, 1, 0, 0], 2)
    kappa = cohen_kappa_matrix(ds, min_overlap=1)
    assert kappa.values[0, 1] == -1.0


def test_kappa_independent_random_near_zero():
    rng = np.random.default_rng(0)
    n = 10_000
    ds = _pair_dataset(rng.integers(3, size=n), rng.integers(3, size=n), 3)
    kappa = cohen_kappa_matrix(ds, min_overlap=1)
    assert abs(kappa.values[0, 1]) < 0.05


def test_kappa_constant_identical_sequences():
    ds = _pair_dataset([1] * 12, [1] * 12, 2)
    kappa = cohen_kappa_matrix(ds, min_overlap=1)
    assert kappa.values[0, 1] == 1.0


def test_kappa_low_overlap_flagged():
    examples = [
        AnnotatedExample("t0", "x", "a", 0),
        AnnotatedExample("t0", "x", "b", 0),
        AnnotatedExample("t1", "y", "a", 1),
    ]
    ds = Dataset.from_examples(examples, ["L0", "L1"])
    kappa = cohen_kappa_matrix(ds, min_overlap=5)
    assert np.isnan(kappa.values[0, 1])
    assert kappa.co_counts[0, 1] == 1


def test_kappa_symmetric_unit_diagonal():
    rng = np.random.default_rng(4)
    examples = []
    for t in range(40):
        for a in range(4):
            examples.append(AnnotatedExample(f"t{t}", f"text {t}", f"ann{a}",
                                             int(rng.integers(3))))
    ds = Dataset.from_examples(examples, ["L0", "L1", "L2"])
    kappa = cohen_kappa_matrix(ds, min_overlap=1)
    assert np.allclose(kappa.values, kappa.values.T, equal_nan=True)
    assert np.all(np.diag(kappa.values) == 1.0)
    defined = kappa.values[~np.isnan(kappa.values)]
    assert np.all(defined >= -1.0 - 1e-12) and np.all(defined <= 1.0 + 1e-12)


def _reference_pair_kappa(labels_a, labels_b, n_labels):
    """Cohen's kappa of one pair of aligned label arrays, computed on its own."""
    n = len(labels_a)
    p_o = float(np.mean(labels_a == labels_b))
    freq_a = np.bincount(labels_a, minlength=n_labels) / n
    freq_b = np.bincount(labels_b, minlength=n_labels) / n
    p_e = float(freq_a @ freq_b)
    if p_e >= 1.0:
        return 1.0
    return (p_o - p_e) / (1.0 - p_e)


def _reference_kappa_matrix(ds, min_overlap):
    """values and co_counts pair by pair, the way cohen_kappa_matrix defines them."""
    ids = ds.annotator_ids
    n = len(ids)
    by_ann = {a: {} for a in ids}
    for ex in ds.examples:
        by_ann[ex.annotator_id][ex.example_id] = ex.label
    values = np.full((n, n), np.nan)
    co_counts = np.zeros((n, n), dtype=np.int64)
    for i in range(n):
        co_counts[i, i] = len(by_ann[ids[i]])
        values[i, i] = 1.0
        for j in range(i + 1, n):
            common = [e for e in by_ann[ids[i]] if e in by_ann[ids[j]]]
            co_counts[i, j] = co_counts[j, i] = len(common)
            if len(common) >= min_overlap:
                labels_i = np.array([by_ann[ids[i]][e] for e in common])
                labels_j = np.array([by_ann[ids[j]][e] for e in common])
                values[i, j] = values[j, i] = _reference_pair_kappa(
                    labels_i, labels_j, ds.n_labels)
    return values, co_counts


def _assert_kappa_matches_reference(ds, min_overlap):
    kappa = cohen_kappa_matrix(ds, min_overlap=min_overlap)
    values, co_counts = _reference_kappa_matrix(ds, min_overlap)
    assert np.array_equal(kappa.values, values, equal_nan=True)
    assert np.array_equal(kappa.co_counts, co_counts) and kappa.co_counts.dtype == np.int64
    assert np.array_equal(kappa.values, kappa.values.T, equal_nan=True)
    assert np.all(np.diag(kappa.values) == 1.0)
    return kappa


# (annotator, text number, label) triples, at most one per annotator and text
KAPPA_ANNOTATIONS = st.lists(
    st.tuples(st.integers(0, 5), st.integers(0, 14), st.integers(0, 3)),
    min_size=1, max_size=60, unique_by=lambda t: t[:2],
)


@settings(max_examples=80, deadline=None)
@given(annotations=KAPPA_ANNOTATIONS, n_labels=st.integers(1, 4),
       min_overlap=st.integers(1, 4))
def test_kappa_matrix_equals_the_pairwise_reference(annotations, n_labels, min_overlap):
    examples = [AnnotatedExample(f"t{t}", f"text {t}", f"ann{a}", label % n_labels)
                for a, t, label in annotations]
    ds = Dataset.from_examples(examples, [f"L{i}" for i in range(n_labels)])
    _assert_kappa_matches_reference(ds, min_overlap)


def test_kappa_point_mass_pair_among_chance_pairs():
    # a and b give every shared text label 1 (p_e = 1); c disagrees with both
    examples = []
    for t, label_c in enumerate([0, 1, 2, 1, 0, 2]):
        for ann, label in (("a", 1), ("b", 1), ("c", label_c)):
            examples.append(AnnotatedExample(f"t{t}", "text", ann, label))
    ds = Dataset.from_examples(examples, ["L0", "L1", "L2"])
    kappa = _assert_kappa_matches_reference(ds, min_overlap=1)
    assert kappa.values[0, 1] == 1.0
    assert kappa.values[0, 2] == 0.0


def test_kappa_pairs_below_min_overlap_are_nan_with_their_counts():
    rng = np.random.default_rng(7)
    examples = [AnnotatedExample(f"t{t}", "text", ann, int(rng.integers(3)))
                for ann, texts in (("a", range(0, 12)), ("b", range(0, 12)),
                                   ("c", range(9, 20)), ("d", range(30, 34)))
                for t in texts]
    ds = Dataset.from_examples(examples, ["L0", "L1", "L2"])
    kappa = _assert_kappa_matches_reference(ds, min_overlap=5)
    assert not np.isnan(kappa.values[0, 1])
    assert np.isnan(kappa.values[0, 2]) and kappa.co_counts[0, 2] == 3
    assert np.isnan(kappa.values[0, 3]) and kappa.co_counts[0, 3] == 0
    assert kappa.co_counts[3, 3] == 4


def test_kappa_with_a_label_nobody_used():
    rng = np.random.default_rng(8)
    examples = [AnnotatedExample(f"t{t}", "text", f"ann{a}", int(rng.integers(2)))
                for t in range(25) for a in range(3)]
    ds = Dataset.from_examples(examples, ["L0", "L1", "never"])
    _assert_kappa_matches_reference(ds, min_overlap=10)


def test_kappa_over_more_texts_than_one_block(monkeypatch):
    # a budget of 64 float32 texts for the 3 annotators
    width = 64
    monkeypatch.setattr(analysis, "_KAPPA_BLOCK_BYTES", 4 * 3 * width)
    rng = np.random.default_rng(9)
    n_texts = 2 * width + 100
    examples = [AnnotatedExample(f"t{t}", "text", f"ann{a}", int(rng.integers(3)))
                for t in range(n_texts) for a in range(3) if (t + a) % 4]
    ds = Dataset.from_examples(examples, ["L0", "L1", "L2"])
    kappa = _assert_kappa_matches_reference(ds, min_overlap=10)
    assert kappa.co_counts[0, 0] > width


# pa and pb label texts 0-5 with label 0 only (p_e = 1 between them); pc
# shares two texts with pa, fewer than any min_overlap above 2
POINT_MASS_AND_LOW_OVERLAP = (
    [AnnotatedExample(f"t{t}", "text", ann, 0) for t in range(6) for ann in ("pa", "pb")]
    + [AnnotatedExample(f"t{t}", "text", "pc", t % 2) for t in (4, 5, 20, 21)])


@settings(max_examples=60, deadline=None)
@given(annotations=KAPPA_ANNOTATIONS, n_labels=st.integers(2, 4),
       min_overlap=st.integers(3, 5))
def test_kappa_is_bit_equal_under_the_smallest_block_budget(annotations, n_labels,
                                                            min_overlap):
    examples = POINT_MASS_AND_LOW_OVERLAP + [
        AnnotatedExample(f"t{t}", "text", f"ann{a}", label % n_labels)
        for a, t, label in annotations]
    ds = Dataset.from_examples(examples, [f"L{i}" for i in range(n_labels)])
    default = cohen_kappa_matrix(ds, min_overlap=min_overlap)
    with pytest.MonkeyPatch.context() as patch:
        # one text per indicator block and one annotator row per pair chunk
        patch.setattr(analysis, "_KAPPA_BLOCK_BYTES", 1)
        smallest = cohen_kappa_matrix(ds, min_overlap=min_overlap)
    assert smallest.values.tobytes() == default.values.tobytes()
    assert smallest.co_counts.tobytes() == default.co_counts.tobytes()
    assert default.values[0, 1] == 1.0 and default.co_counts[0, 1] == 6
    assert np.isnan(default.values[0, 2]) and default.co_counts[0, 2] == 2


def test_kappa_peak_memory_is_bounded_by_the_budget():
    """Beyond its N x N outputs and counts, kappa's temporaries are the int8
    text table, the index arrays and a few blocks of the byte budget; none
    grows with annotators x texts in float32 or with pairs x labels."""
    n, n_texts, m = 300, 2000, 4
    ds, _ = generate_population(PopulationConfig(
        n_annotators=n, n_texts=n_texts, n_labels=m, group_count=4, bias_strength=0.6,
        annotations_per_text=15, seed=1))
    budget = analysis._KAPPA_BLOCK_BYTES
    bound = ((16 + 4 * (m + 2) + 12) * n * n   # outputs, float32 counts, N x N temporaries
             + n_texts * n + 24 * len(ds)        # the int8 table and three index arrays
             + 100 * n_texts + 4 * budget)       # the text registry and budget-sized blocks
    tracemalloc.start()
    try:
        cohen_kappa_matrix(ds)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound, (peak, bound)


@pytest.mark.parametrize("labels", [["L0", "L1"], []], ids=["two_labels", "no_labels"])
def test_kappa_of_an_empty_dataset(labels):
    kappa = cohen_kappa_matrix(Dataset.from_examples([], labels))
    assert kappa.values.shape == kappa.co_counts.shape == (0, 0)


def test_kappa_of_one_annotator():
    ds = Dataset.from_examples([AnnotatedExample(f"t{t}", "text", "solo", t % 2)
                                for t in range(5)], ["L0", "L1"])
    kappa = _assert_kappa_matches_reference(ds, min_overlap=10)
    assert kappa.values.tolist() == [[1.0]]
    assert kappa.co_counts.tolist() == [[5]]


def test_kappa_min_overlap_one_on_single_shared_texts():
    # every pair shares exactly one text: kappa is 1 on a shared label, else 0
    examples = [AnnotatedExample("t0", "text", "a", 0), AnnotatedExample("t0", "text", "b", 0),
                AnnotatedExample("t1", "text", "a", 1), AnnotatedExample("t1", "text", "c", 0),
                AnnotatedExample("t2", "text", "b", 1), AnnotatedExample("t2", "text", "c", 1)]
    ds = Dataset.from_examples(examples, ["L0", "L1"])
    kappa = _assert_kappa_matches_reference(ds, min_overlap=1)
    assert kappa.values[0, 1] == 1.0 and kappa.values[1, 2] == 1.0
    assert kappa.values[0, 2] == 0.0
    assert np.all(kappa.co_counts[np.triu_indices(3, k=1)] == 1)


def _usage_dataset(usage_rows, per_annotator=60):
    # usage_rows: list of per-annotator label distributions
    examples = []
    for i, dist in enumerate(usage_rows):
        counts = (np.asarray(dist) * per_annotator).astype(int)
        t = 0
        for label, count in enumerate(counts):
            for _ in range(count):
                examples.append(AnnotatedExample(f"t{i}_{t}", f"text {t}", f"ann{i}", label))
                t += 1
    return Dataset.from_examples(examples, [f"L{i}" for i in range(len(usage_rows[0]))])


def test_label_pearson_complementary_usage():
    rows = [[0.9, 0.1], [0.1, 0.9], [0.7, 0.3], [0.3, 0.7], [0.6, 0.4]]
    ds = _usage_dataset(rows)
    corr = label_pearson(ds, min_examples=10)
    assert corr.values[0, 1] == pytest.approx(-1.0, abs=1e-9)


def test_label_pearson_zero_variance_flagged():
    rows = [[0.5, 0.3, 0.2], [0.5, 0.2, 0.3], [0.5, 0.4, 0.1]]
    ds = _usage_dataset(rows, per_annotator=100)
    corr = label_pearson(ds, min_examples=10)
    assert np.isnan(corr.values[0, 0])
    assert np.isnan(corr.values[0, 1])
    assert not np.isnan(corr.values[1, 2])


def test_label_pearson_matches_numpy_oracle():
    rng = np.random.default_rng(5)
    rows = rng.dirichlet(np.ones(4), size=12)
    counts = np.round(rows * 200).astype(int)
    examples = []
    for i in range(12):
        t = 0
        for label in range(4):
            for _ in range(counts[i, label]):
                examples.append(AnnotatedExample(f"t{i}_{t}", "text", f"ann{i}", label))
                t += 1
    ds = Dataset.from_examples(examples, ["L0", "L1", "L2", "L3"])
    corr = label_pearson(ds, min_examples=1)
    freq = np.array([
        counts[i] / counts[i].sum() for i in range(12)
    ])
    oracle = np.corrcoef(freq.T)
    assert np.max(np.abs(corr.values - oracle)) < 1e-10


def test_label_pearson_min_examples_filter():
    rows = [[0.8, 0.2], [0.2, 0.8]]
    ds = _usage_dataset(rows, per_annotator=60)
    few = label_pearson(ds, min_examples=100)
    assert few.annotators_used == 0
    assert np.all(np.isnan(few.values))


def test_kmeans_k_equals_n():
    rng = np.random.default_rng(1)
    points = rng.normal(size=(6, 3))
    result = kmeans(points, k=6, seed=0)
    assert result.sse == 0.0
    assert len(set(result.assignments.values())) == 6


def test_kmeans_two_blobs_recovered_on_all_seeds():
    rng = np.random.default_rng(2)
    blob_a = rng.normal(loc=0.0, scale=0.3, size=(12, 4))
    blob_b = rng.normal(loc=6.0, scale=0.3, size=(12, 4))
    points = np.vstack([blob_a, blob_b])
    gold = [0] * 12 + [1] * 12
    for seed in range(10):
        result = kmeans(points, k=2, seed=seed)
        pred = [result.assignments[str(i)] for i in range(24)]
        assert adjusted_rand_index(pred, gold) == 1.0


def test_kmeans_sse_monotone_and_consistent():
    rng = np.random.default_rng(3)
    points = rng.normal(size=(40, 5))
    result = kmeans(points, k=4, seed=7)
    trace = result.sse_trace
    assert all(trace[i + 1] <= trace[i] + 1e-9 for i in range(len(trace) - 1))
    # sse equals a recomputation from assignments and centroids
    recomputed = 0.0
    for i in range(40):
        c = result.assignments[str(i)]
        diff = points[i] - result.centroids[c]
        recomputed += float(diff @ diff)
    assert result.sse == pytest.approx(recomputed, rel=1e-12)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), n=st.integers(1, 30), dims=st.integers(1, 4),
       seed=st.integers(0, 2**32 - 1))
def test_kmeans_sse_never_rises_on_random_clouds(data, n, dims, seed):
    rng = np.random.default_rng(seed)
    # coarse integer grids make duplicate points and ties common
    points = rng.integers(-3, 4, size=(n, dims)) * data.draw(st.sampled_from([1.0, 0.1, 1e3]))
    result = kmeans(points, k=data.draw(st.integers(1, n)), seed=seed)
    trace = result.sse_trace
    assert trace and all(b <= a * (1 + 1e-12) + 1e-12 for a, b in zip(trace, trace[1:]))


def test_kmeans_deterministic():
    rng = np.random.default_rng(4)
    points = rng.normal(size=(30, 4))
    a = kmeans(points, k=3, seed=11)
    b = kmeans(points, k=3, seed=11)
    assert a.assignments == b.assignments
    assert np.array_equal(a.centroids, b.centroids)


def test_kmeans_duplicate_points_terminate():
    points = np.array([[0.0], [0.0], [1.0], [1.0]])
    result = kmeans(points, k=3, seed=0)
    assert result.sse == pytest.approx(0.0, abs=1e-12)


def test_kmeans_validates_k():
    with pytest.raises(ValueError):
        kmeans(np.zeros((3, 2)), k=4, seed=0)


def test_pca_centered_plane_preserves_distances():
    rng = np.random.default_rng(5)
    pts = rng.normal(size=(15, 2))
    pts -= pts.mean(axis=0)
    result = pca_project(pts, dims=2)
    original = np.linalg.norm(pts[:, None] - pts[None, :], axis=2)
    projected = np.linalg.norm(result.coordinates[:, None] - result.coordinates[None, :], axis=2)
    assert np.max(np.abs(original - projected)) < 1e-9


def test_pca_planar_3d_exact():
    rng = np.random.default_rng(6)
    basis = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, -1.0]])
    coords = rng.normal(size=(20, 2))
    pts = coords @ basis
    result = pca_project(pts, dims=2)
    reconstructed = result.coordinates @ result.components + pts.mean(axis=0)
    assert np.max(np.abs(reconstructed - pts)) < 1e-9
    assert not result.rank_deficient


def test_pca_variances_match_eigendecomposition():
    rng = np.random.default_rng(7)
    pts = rng.normal(size=(20, 8)) * np.arange(1, 9)
    result = pca_project(pts, dims=2)
    centered = pts - pts.mean(axis=0)
    cov = centered.T @ centered / 20.0
    eigvals = np.sort(np.linalg.eigvalsh(cov))[::-1]
    assert np.max(np.abs(result.explained_variance - eigvals[:2])) < 1e-8


def test_pca_components_orthonormal_and_ordered():
    rng = np.random.default_rng(8)
    pts = rng.normal(size=(25, 6))
    result = pca_project(pts, dims=3)
    gram = result.components @ result.components.T
    assert np.max(np.abs(gram - np.eye(3))) < 1e-9
    ev = result.explained_variance
    assert all(ev[i + 1] <= ev[i] + 1e-12 for i in range(len(ev) - 1))


def test_pca_sign_convention():
    rng = np.random.default_rng(9)
    pts = rng.normal(size=(10, 4))
    result = pca_project(pts, dims=2)
    for row in result.components:
        assert row[np.argmax(np.abs(row))] > 0


def test_pca_rank_deficient_padded():
    pts = np.outer(np.arange(8.0), np.array([1.0, 2.0, 3.0]))  # rank 1
    result = pca_project(pts, dims=2)
    assert result.rank_deficient
    assert np.allclose(result.coordinates[:, 1], 0.0)


def _clustered_dataset(demos):
    # demos: annotator -> demographics dict
    examples = []
    for i, (ann, demo) in enumerate(demos.items()):
        examples.append(AnnotatedExample(f"t{i}", "text", ann, 0, demographics=demo))
        examples.append(AnnotatedExample(f"u{i}", "text", ann, 1, demographics=demo))
    return Dataset.from_examples(examples, ["L0", "L1"])


def _clusters_for(assignment_map):
    from annembed.analysis import ClusterResult

    return ClusterResult(assignments=assignment_map, centroids=np.zeros((2, 2)),
                         sse=0.0, seed=0)


def test_demographic_multiplier():
    demos = {f"a{i}": {"gender": "female" if i < 4 else "male"} for i in range(10)}
    clusters = _clusters_for({a: (0 if i < 5 else 1) for i, a in enumerate(demos)})
    alignment = demographic_alignment(clusters, _clustered_dataset(demos))
    assert alignment.tables["gender"]["female"]["multiplier"] == pytest.approx(2.5)


def test_demographic_cluster_frequency():
    demos = {f"a{i}": {"gender": "female" if i < 4 else "male"} for i in range(10)}
    # cluster 0 holds exactly two of the four females
    assignment = {a: (0 if i in (0, 1) else 1) for i, a in enumerate(demos)}
    alignment = demographic_alignment(_clusters_for(assignment), _clustered_dataset(demos))
    assert alignment.tables["gender"]["female"]["clusters"]["0"] == pytest.approx(5.0)


def test_demographic_mass_conservation():
    rng = np.random.default_rng(10)
    values = ["v0", "v1", "v2"]
    demos = {
        f"a{i}": {"dim1": values[rng.integers(3)], "dim2": values[rng.integers(2)]}
        for i in range(30)
    }
    assignment = {a: int(rng.integers(4)) for a in demos}
    alignment = demographic_alignment(_clusters_for(assignment), _clustered_dataset(demos))
    n = len(demos)
    for dim, table in alignment.tables.items():
        for value, entry in table.items():
            assert sum(entry["clusters"].values()) == pytest.approx(n, abs=1e-9)


def test_demographic_missing_dimension_excluded():
    demos = {
        "a0": {"gender": "female", "age": "30-39"},
        "a1": {"gender": "male"},
        "a2": {"gender": "female", "age": "40-49"},
    }
    assignment = {"a0": 0, "a1": 0, "a2": 1}
    alignment = demographic_alignment(_clusters_for(assignment), _clustered_dataset(demos))
    assert alignment.excluded["age"] == 1
    assert alignment.excluded["gender"] == 0
    # two annotators report age, so every age value's mass sums to 2
    for entry in alignment.tables["age"].values():
        assert sum(entry["clusters"].values()) == pytest.approx(2.0)


def test_demographic_ties_reported_together():
    demos = {
        "a0": {"gender": "female"},
        "a1": {"gender": "male"},
    }
    assignment = {"a0": 0, "a1": 0}
    alignment = demographic_alignment(_clusters_for(assignment), _clustered_dataset(demos))
    assert alignment.top_values["gender"][0] == ["female", "male"]


@pytest.mark.parametrize("items", [[], [0]])
def test_adjusted_rand_index_rejects_fewer_than_two_items(items):
    with pytest.raises(ValueError, match="at least 2 items"):
        adjusted_rand_index(items, items)


def test_adjusted_rand_index_extremes():
    assert adjusted_rand_index([0, 0, 1, 1], [1, 1, 0, 0]) == 1.0
    rng = np.random.default_rng(11)
    a = rng.integers(3, size=3000)
    b = rng.integers(3, size=3000)
    assert abs(adjusted_rand_index(a, b)) < 0.05


def _reference_adjusted_rand_index(labels_a, labels_b):
    """ARI with the contingency table filled cell by cell."""
    a, b = np.asarray(labels_a), np.asarray(labels_b)
    values_a, values_b = np.unique(a), np.unique(b)
    table = np.zeros((values_a.size, values_b.size), dtype=np.int64)
    for i, va in enumerate(values_a):
        for j, vb in enumerate(values_b):
            table[i, j] = int(np.sum((a == va) & (b == vb)))

    def comb2(x):
        return x * (x - 1) / 2.0

    sum_ij = comb2(table).sum()
    sum_a = comb2(table.sum(axis=1)).sum()
    sum_b = comb2(table.sum(axis=0)).sum()
    expected = sum_a * sum_b / comb2(a.size)
    max_index = (sum_a + sum_b) / 2.0
    if max_index == expected:
        return 1.0
    return float((sum_ij - expected) / (max_index - expected))


@settings(max_examples=80, deadline=None)
@given(pairs=st.lists(st.tuples(st.integers(-2, 4), st.sampled_from("xyz")),
                      min_size=2, max_size=40))
def test_adjusted_rand_index_equals_the_cellwise_reference(pairs):
    a = [p for p, _ in pairs]
    b = [q for _, q in pairs]
    assert adjusted_rand_index(a, b) == _reference_adjusted_rand_index(a, b)
