import numpy as np
import pytest

from annembed.analysis import (
    adjusted_rand_index,
    cohen_kappa_matrix,
    demographic_alignment,
    kmeans,
    label_pearson,
    pca_project,
)
from annembed.corpus import AnnotatedExample, Dataset


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
