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


# The byte budget of each float32 indicator block of texts and of each
# float64 per-pair array, so that no temporary grows with annotators x texts
# or with pairs x labels.
_KAPPA_BLOCK_BYTES = 1 << 20


def _label_table(dataset: Dataset) -> np.ndarray:
    """texts x annotators: each annotator's label index, -1 where it gave none,
    in the type of dataset.labels. Text-major, so that a block of texts is contiguous."""
    table = np.full((len(dataset.example_ids), dataset.n_annotators), -1, dataset.labels.dtype)
    table[dataset.example_index, dataset.annotator_index] = dataset.labels
    return table


def _pair_counts(table: np.ndarray, m: int):
    """co-counts mask^T.mask, agreements sum_l I_l^T.I_l and marginals
    [l, i, j] = I_l^T.mask (i's label l on the texts j labeled too), summed
    over blocks of texts of at most _KAPPA_BLOCK_BYTES float32 indicators.

    A float32 sum of 0/1 products is an exact integer below 2**24, and no
    count exceeds the number of texts, so every count is exact under any
    blocking and, below 2**24 texts, in float32 sums too."""
    n = table.shape[1]
    acc = np.float32 if len(table) < 2 ** 24 else np.float64
    co = np.zeros((n, n), acc)
    agree = np.zeros((n, n), acc)
    marginal = np.zeros((m, n, n), acc)
    width = max(1, _KAPPA_BLOCK_BYTES // (4 * max(n, 1)))
    ind = np.empty((min(width, len(table)), n), np.float32)
    for start in range(0, len(table), width):
        block = table[start:start + width]
        mask = (block >= 0).astype(np.float32)
        co += mask.T @ mask
        ind_l = ind[:len(block)]
        for label in range(m):
            np.equal(block, label, out=ind_l)
            agree += ind_l.T @ ind_l
            if label < m - 1:
                marginal[label] += ind_l.T @ mask
    if m:   # i labeled each shared text once: the last label's counts are the rest
        marginal[m - 1] = co - marginal[:m - 1].sum(axis=0)
    return co, agree, marginal


def cohen_kappa_matrix(dataset: Dataset, min_overlap: int = 10) -> KappaMatrix:
    """Pairwise Cohen's kappa over co-annotated examples.

    Pairs whose overlap is below min_overlap come back as NaN. The diagonal
    is 1 for every annotator with at least one annotation.

    Every count comes from matrix products of the text x annotator label
    indicators (_pair_counts), and the pairs are taken in chunks of
    annotator rows, so that the temporaries stay within a few
    _KAPPA_BLOCK_BYTES beyond the N x N counts and the int8 label table.
    """
    if min_overlap < 1:
        raise ValueError("min_overlap must be at least 1")
    ids = dataset.annotator_ids
    n, m = len(ids), dataset.n_labels
    co, agree, marginal = _pair_counts(_label_table(dataset), m)
    co_counts = co.astype(np.int64)

    values = np.full((n, n), np.nan)
    np.fill_diagonal(values, 1.0)   # the registry holds only annotators with annotations
    defined = np.triu(co_counts >= min_overlap, k=1)
    # a chunk of annotator rows holds at most budget / (8 M) pairs
    rows = max(1, _KAPPA_BLOCK_BYTES // (8 * max(m, 1) * max(n, 1)))
    for r in range(0, n, rows):
        i, j = np.nonzero(defined[r:r + rows])
        i += r
        count = co_counts[i, j].astype(np.float64)
        p_o = agree[i, j] / count
        # contiguous float64 rows: the same length-M BLAS dot per pair as a
        # 1-D freq_i @ freq_j
        freq_i = marginal[:, i, j].T.astype(np.float64, order="C") / count[:, None]
        freq_j = marginal[:, j, i].T.astype(np.float64, order="C") / count[:, None]
        p_e = np.vecdot(freq_i, freq_j)
        # p_e >= 1: both marginals are the same point mass, so agreement is total
        kappa = np.ones_like(p_e)
        chance = p_e < 1.0
        kappa[chance] = (p_o[chance] - p_e[chance]) / (1.0 - p_e[chance])
        values[i, j] = values[j, i] = kappa
    return KappaMatrix(list(ids), values, co_counts, min_overlap)


@dataclass
class LabelCorrelation:
    label_names: list[str]
    values: np.ndarray          # M x M, NaN where a label has zero variance
    annotators_used: int
    min_examples: int


def label_pearson(dataset: Dataset, min_examples: int = 50) -> LabelCorrelation:
    """Pearson correlation between label-usage frequencies across annotators.

    Each qualifying annotator (>= min_examples annotations) contributes a
    length-M frequency vector; correlations are computed between label
    columns of that matrix.
    """
    m = dataset.n_labels
    counts = dataset.label_counts()
    totals = counts.sum(axis=1)
    qualifying = totals >= min_examples
    freq = counts[qualifying] / totals[qualifying, None]
    used = freq.shape[0]
    values = np.full((m, m), np.nan)
    if used >= 2:
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


def _squared_distances(points: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    diff = points[:, None, :] - centroids[None, :, :]
    return np.einsum("nkh,nkh->nk", diff, diff)


KMEANS_MAX_ITER = 100


def kmeans(points: np.ndarray, k: int, seed: int = 0,
           ids: Optional[list[str]] = None) -> ClusterResult:
    """Seeded Lloyd iterations, at most KMEANS_MAX_ITER, with farthest-point initialization.

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
    for iteration in range(1, KMEANS_MAX_ITER + 1):
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
    return ClusterResult(
        assignments={ids[i]: int(assignments[i]) for i in range(n)},
        centroids=centroids,
        sse=sse_trace[-1],
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
        have = [(demo_by_ann[a][dim], clusters.assignments[a])
                for a in members if dim in demo_by_ann.get(a, {})]
        excluded[dim] = len(members) - len(have)
        n = len(have)
        counts: dict[str, int] = {}
        for value, _ in have:
            counts[value] = counts.get(value, 0) + 1
        alpha = {value: n / count for value, count in counts.items()}
        per_cluster = {value: {c: 0.0 for c in cluster_ids} for value in counts}
        # every (value, cluster) sum adds its terms in member order
        for value, c in have:
            per_cluster[value][c] += alpha[value]
        table: dict[str, dict] = {
            value: {"multiplier": alpha[value],
                    "clusters": {str(c): per_cluster[value][c] for c in cluster_ids}}
            for value in counts}
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


def annotation_embedding_points(model) -> tuple[np.ndarray, list[str]]:
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
    values_a, index_a = np.unique(a, return_inverse=True)
    values_b, index_b = np.unique(b, return_inverse=True)
    cells = index_a.ravel() * values_b.size + index_b.ravel()
    table = np.bincount(cells, minlength=values_a.size * values_b.size).reshape(
        values_a.size, values_b.size)

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
