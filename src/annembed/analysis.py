"""Post-hoc analyses: agreement, label correlation, clustering, projection,
and demographic alignment of annotator clusters.

All functions are pure over frozen inputs. Undefined entries (too little
overlap, zero variance) are reported as NaN alongside an explicit mask or
count rather than silently dropped.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .corpus import Dataset


@dataclass
class KappaMatrix:
    annotator_ids: list[str]
    values: np.ndarray      # N x N, NaN where undefined
    co_counts: np.ndarray   # N x N overlap sizes
    min_overlap: int

    def defined(self) -> np.ndarray:
        return ~np.isnan(self.values)

    def to_dict(self) -> dict:
        return {
            "annotator_ids": self.annotator_ids,
            "values": [[None if np.isnan(v) else v for v in row] for row in self.values],
            "co_counts": self.co_counts.tolist(),
            "min_overlap": self.min_overlap,
        }


def _pair_kappa(labels_a, labels_b, n_labels: int) -> float:
    n = len(labels_a)
    p_o = float(np.mean(labels_a == labels_b))
    freq_a = np.bincount(labels_a, minlength=n_labels) / n
    freq_b = np.bincount(labels_b, minlength=n_labels) / n
    p_e = float(freq_a @ freq_b)
    if p_e >= 1.0:
        # both marginals are the same point mass, so observed agreement is total
        return 1.0
    return (p_o - p_e) / (1.0 - p_e)


def cohen_kappa_matrix(dataset: Dataset, min_overlap: int = 10) -> KappaMatrix:
    """Pairwise Cohen's kappa over co-annotated examples.

    Pairs whose overlap is below min_overlap come back as NaN. The diagonal
    is 1 for every annotator with at least one annotation.
    """
    if min_overlap < 1:
        raise ValueError("min_overlap must be at least 1")
    ids = dataset.annotator_ids
    n = len(ids)
    by_ann: dict[str, dict[str, int]] = {a: {} for a in ids}
    for ex in dataset.examples:
        by_ann[ex.annotator_id][ex.example_id] = ex.label
    values = np.full((n, n), np.nan)
    co_counts = np.zeros((n, n), dtype=np.int64)
    for i in range(n):
        co_counts[i, i] = len(by_ann[ids[i]])
        if co_counts[i, i] >= 1:
            values[i, i] = 1.0
        for j in range(i + 1, n):
            common = sorted(set(by_ann[ids[i]]) & set(by_ann[ids[j]]))
            co_counts[i, j] = co_counts[j, i] = len(common)
            if len(common) < min_overlap:
                continue
            labels_i = np.array([by_ann[ids[i]][e] for e in common])
            labels_j = np.array([by_ann[ids[j]][e] for e in common])
            kappa = _pair_kappa(labels_i, labels_j, dataset.n_labels)
            values[i, j] = values[j, i] = kappa
    return KappaMatrix(list(ids), values, co_counts, min_overlap)


@dataclass
class LabelCorrelation:
    label_names: list[str]
    values: np.ndarray          # M x M, NaN where a label has zero variance
    annotators_used: int
    min_examples: int

    def to_dict(self) -> dict:
        return {
            "label_names": self.label_names,
            "values": [[None if np.isnan(v) else v for v in row] for row in self.values],
            "annotators_used": self.annotators_used,
            "min_examples": self.min_examples,
        }


def label_pearson(dataset: Dataset, min_examples: int = 50) -> LabelCorrelation:
    """Pearson correlation between label-usage frequencies across annotators.

    Each qualifying annotator (>= min_examples annotations) contributes a
    length-M frequency vector; correlations are computed between label
    columns of that matrix.
    """
    m = dataset.n_labels
    counts: dict[str, np.ndarray] = {}
    for ex in dataset.examples:
        counts.setdefault(ex.annotator_id, np.zeros(m))[ex.label] += 1.0
    rows = []
    for ann in dataset.annotator_ids:
        c = counts.get(ann)
        if c is not None and c.sum() >= min_examples:
            rows.append(c / c.sum())
    used = len(rows)
    values = np.full((m, m), np.nan)
    if used >= 2:
        freq = np.array(rows)
        centered = freq - freq.mean(axis=0)
        std = centered.std(axis=0)
        for a in range(m):
            if std[a] == 0.0:
                continue
            values[a, a] = 1.0
            for b in range(a + 1, m):
                if std[b] == 0.0:
                    continue
                cov = float(np.mean(centered[:, a] * centered[:, b]))
                values[a, b] = values[b, a] = cov / (std[a] * std[b])
    return LabelCorrelation(list(dataset.label_names), values, used, min_examples)


@dataclass
class ClusterResult:
    assignments: dict[str, int]
    centroids: np.ndarray
    sse: float
    seed: int
    sse_trace: list[float] = field(default_factory=list)
    n_iterations: int = 0

    def to_dict(self) -> dict:
        return {
            "assignments": dict(sorted(self.assignments.items())),
            "centroids": self.centroids.tolist(),
            "sse": self.sse,
            "seed": self.seed,
            "sse_trace": self.sse_trace,
            "n_iterations": self.n_iterations,
        }


def _squared_distances(points: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    diff = points[:, None, :] - centroids[None, :, :]
    return np.einsum("nkh,nkh->nk", diff, diff)


def kmeans(points: np.ndarray, k: int, seed: int = 0, max_iter: int = 100,
           ids: Optional[list[str]] = None) -> ClusterResult:
    """Seeded Lloyd iterations with farthest-point initialization.

    The first centroid is a seeded random point; each further centroid is
    the point farthest from its nearest chosen centroid. An emptied cluster
    is re-seeded at the point farthest from its assigned centroid.
    """
    points = np.asarray(points, dtype=np.float64)
    n = points.shape[0]
    if k > n or k < 1:
        raise ValueError(f"k={k} incompatible with {n} points")
    if ids is None:
        ids = [str(i) for i in range(n)]
    rng = np.random.default_rng(seed)

    chosen = [int(rng.integers(n))]
    while len(chosen) < k:
        d = _squared_distances(points, points[chosen]).min(axis=1)
        d[chosen] = -1.0  # never re-pick a centroid
        chosen.append(int(np.argmax(d)))
    centroids = points[chosen].copy()

    assignments = np.full(n, -1, dtype=np.int64)
    sse_trace: list[float] = []
    iteration = 0
    for iteration in range(1, max_iter + 1):
        d = _squared_distances(points, centroids)
        new_assignments = d.argmin(axis=1)
        point_err = d[np.arange(n), new_assignments]
        for c in range(k):
            members = new_assignments == c
            if members.any():
                centroids[c] = points[members].mean(axis=0)
            else:
                far = int(np.argmax(point_err))
                centroids[c] = points[far]
                new_assignments[far] = c
                point_err[far] = 0.0
        sse_trace.append(float(_squared_distances(points, centroids)
                               [np.arange(n), new_assignments].sum()))
        if np.array_equal(new_assignments, assignments):
            break
        assignments = new_assignments
    sse = float(_squared_distances(points, centroids)[np.arange(n), assignments].sum())
    return ClusterResult(
        assignments={ids[i]: int(assignments[i]) for i in range(n)},
        centroids=centroids,
        sse=sse,
        seed=seed,
        sse_trace=sse_trace,
        n_iterations=iteration,
    )


@dataclass
class PcaResult:
    coordinates: np.ndarray        # N x dims
    components: np.ndarray         # dims x H, orthonormal rows
    explained_variance: np.ndarray
    rank_deficient: bool = False

    def to_dict(self) -> dict:
        return {
            "coordinates": self.coordinates.tolist(),
            "explained_variance": self.explained_variance.tolist(),
            "rank_deficient": self.rank_deficient,
        }


def pca_project(points: np.ndarray, dims: int = 2) -> PcaResult:
    """Mean-centered projection onto the top principal directions.

    Components come in descending variance order with a deterministic sign:
    each component's largest-magnitude loading is positive. If the data has
    rank below dims the missing coordinates are zero and the result flagged.
    """
    points = np.asarray(points, dtype=np.float64)
    n, h = points.shape
    if n < dims:
        raise ValueError(f"need at least {dims} points")
    centered = points - points.mean(axis=0)
    # SVD route; tests cross-check variances against a covariance eigensolver
    _, singular, vt = np.linalg.svd(centered, full_matrices=False)
    variance = (singular ** 2) / n
    available = int(np.sum(singular > 1e-12 * max(1.0, singular[0] if singular.size else 1.0)))
    take = min(dims, available)
    components = np.zeros((dims, h))
    components[:take] = vt[:take]
    for c in range(take):
        lead = int(np.argmax(np.abs(components[c])))
        if components[c, lead] < 0:
            components[c] = -components[c]
    coordinates = centered @ components.T
    explained = np.zeros(dims)
    explained[:take] = variance[:take]
    return PcaResult(
        coordinates=coordinates,
        components=components,
        explained_variance=explained,
        rank_deficient=take < dims,
    )


@dataclass
class DemographicAlignment:
    # dimension -> value -> {"multiplier": a, "clusters": {cluster: f}}
    tables: dict[str, dict[str, dict]]
    # dimension -> cluster -> list of argmax values (ties reported together)
    top_values: dict[str, dict[int, list[str]]]
    excluded: dict[str, int]

    def to_dict(self) -> dict:
        return {
            "tables": self.tables,
            "top_values": {
                dim: {str(c): vals for c, vals in sorted(clusters.items())}
                for dim, clusters in self.top_values.items()
            },
            "excluded": self.excluded,
        }


def demographic_alignment(clusters: ClusterResult, dataset: Dataset) -> DemographicAlignment:
    """Inverse-frequency weighted demographic profiles per cluster.

    For dimension D and value d, the multiplier is N / count(d) where N
    counts clustered annotators reporting that dimension; the cluster
    frequency f sums the multiplier over members with that value, so f
    summed over clusters returns N for every value. Annotators missing a
    dimension are excluded from it and counted.
    """
    demo_by_ann: dict[str, dict[str, str]] = {}
    for ex in dataset.examples:
        if ex.demographics:
            demo_by_ann.setdefault(ex.annotator_id, {}).update(ex.demographics)
    members = list(clusters.assignments)
    dimensions = sorted({d for a in members for d in demo_by_ann.get(a, {})})
    if not dimensions:
        raise ValueError("no demographics available for the clustered annotators")

    tables: dict[str, dict[str, dict]] = {}
    top_values: dict[str, dict[int, list[str]]] = {}
    excluded: dict[str, int] = {}
    cluster_ids = sorted(set(clusters.assignments.values()))
    for dim in dimensions:
        have = [a for a in members if dim in demo_by_ann.get(a, {})]
        excluded[dim] = len(members) - len(have)
        n = len(have)
        counts: dict[str, int] = {}
        for a in have:
            value = demo_by_ann[a][dim]
            counts[value] = counts.get(value, 0) + 1
        table: dict[str, dict] = {}
        for value, count in sorted(counts.items()):
            alpha = n / count
            per_cluster = {c: 0.0 for c in cluster_ids}
            for a in have:
                if demo_by_ann[a][dim] == value:
                    per_cluster[clusters.assignments[a]] += alpha
            table[value] = {"multiplier": alpha,
                            "clusters": {str(c): per_cluster[c] for c in cluster_ids}}
        tables[dim] = table
        top: dict[int, list[str]] = {}
        for c in cluster_ids:
            best = -1.0
            winners: list[str] = []
            for value in sorted(counts):
                f = table[value]["clusters"][str(c)]
                if f > best:
                    best, winners = f, [value]
                elif f == best:
                    winners.append(value)
            top[c] = winners if best > 0 else []
        top_values[dim] = top
    return DemographicAlignment(tables=tables, top_values=top_values, excluded=excluded)


def annotation_embedding_points(model, train_dataset: Dataset) -> tuple[np.ndarray, list[str]]:
    """Per-annotator test-time annotation embeddings, the stable representations
    used for clustering and projection."""
    ids = model.annotator_ids
    rows = [model.test_coefficients(a) @ model.bank.label_rows.value for a in ids]
    return np.vstack(rows), list(ids)


def annotator_embedding_points(model) -> tuple[np.ndarray, list[str]]:
    return model.bank.annotator_rows.value.copy(), list(model.annotator_ids)


def adjusted_rand_index(labels_a, labels_b) -> float:
    """Chance-adjusted agreement between two partitions of the same items."""
    a = np.asarray(labels_a)
    b = np.asarray(labels_b)
    if a.shape != b.shape:
        raise ValueError("partitions must cover the same items")
    n = a.size
    if n < 2:
        raise ValueError(f"adjusted Rand index needs at least 2 items, got {n}")
    values_a = np.unique(a)
    values_b = np.unique(b)
    table = np.zeros((values_a.size, values_b.size), dtype=np.int64)
    for i, va in enumerate(values_a):
        for j, vb in enumerate(values_b):
            table[i, j] = int(np.sum((a == va) & (b == vb)))

    def comb2(x):
        return x * (x - 1) / 2.0

    sum_ij = comb2(table).sum()
    sum_a = comb2(table.sum(axis=1)).sum()
    sum_b = comb2(table.sum(axis=0)).sum()
    expected = sum_a * sum_b / comb2(n)
    max_index = (sum_a + sum_b) / 2.0
    if max_index == expected:
        return 1.0
    return float((sum_ij - expected) / (max_index - expected))
