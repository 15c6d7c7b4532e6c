"""Upper envelopes for clustering models (paper Section 3.3).

*Centroid-based* and *model-based* clustering are reduced to additive
per-dimension score tables (the naive-Bayes shape), so envelope derivation
reuses the top-down algorithm of :mod:`repro.core.nb_envelope`.  Because the
clustering attributes are continuous, each table entry is an *interval*: the
range a raw value inside the bin can contribute.  The resulting MUST-WIN /
MUST-LOSE decisions are therefore sound with respect to the model's
assignment of raw (undiscretized) points, not merely bin representatives.

*Boundary-based* clusters (grid-density) define their region explicitly, so
the envelope is an exact rectangle cover of the cluster's cells
(:func:`repro.core.covering.cover_cells`), as the paper prescribes.
"""

from __future__ import annotations

import time
from collections.abc import Sequence

import numpy as np

from repro.core.covering import cover_cells
from repro.core.envelope import UpperEnvelope, top_down_envelopes
from repro.core.nb_envelope import DEFAULT_MAX_NODES
from repro.core.predicates import TRUE, Value
from repro.core.regions import AttributeSpace, BinnedDimension, regions_to_predicate
from repro.core.score_model import (
    ScoreTable,
    _squared_distance_range,
    quadratic_range,
)
from repro.exceptions import EnvelopeError
from repro.ir import intern
from repro.mining.base import Row
from repro.mining.density import NOISE_LABEL, DensityClusterModel
from repro.mining.discretize import BinningMethod, make_binned_dimension
from repro.mining.discretized_cluster import DiscretizedClusterModel
from repro.mining.gmm import GaussianMixtureModel
from repro.mining.kmeans import KMeansModel


def clustering_space(
    model: KMeansModel | GaussianMixtureModel,
    rows: Sequence[Row],
    bins: int = 8,
    method: BinningMethod = BinningMethod.EQUAL_FREQUENCY,
) -> AttributeSpace:
    """Discretize the model's feature columns into a binned space.

    The outer bins are left unbounded: a raw value beyond the training range
    still lands in an outer bin, and that bin's score interval (which then
    extends to ``-inf``) prevents the bin from ever being provably dropped.
    This keeps the derived envelopes sound for out-of-range values at the
    cost of never excluding the two outer bins of a dimension.
    """
    dims = []
    for column in model.feature_columns:
        values = [float(row[column]) for row in rows]
        dims.append(
            make_binned_dimension(column, values, bins, method=method, bounded=False)
        )
    return AttributeSpace(tuple(dims))


def _check_space(
    model: KMeansModel | GaussianMixtureModel, space: AttributeSpace
) -> None:
    names = tuple(d.name for d in space.dimensions)
    if names != model.feature_columns:
        raise EnvelopeError(
            f"space dimensions {names} do not match model features "
            f"{model.feature_columns}"
        )
    for dim in space.dimensions:
        if not isinstance(dim, BinnedDimension):
            raise EnvelopeError(
                f"clustering envelopes need binned dimensions; "
                f"{dim.name!r} is {type(dim).__name__}"
            )


def kmeans_score_table(
    model: KMeansModel, space: AttributeSpace
) -> ScoreTable:
    """Score table of a centroid model: ``score = -w_dk (x_d - c_dk)^2``.

    Maximizing the summed score is exactly minimizing the paper's weighted
    Euclidean distance; ties go to the lowest cluster index, matching
    :meth:`KMeansModel.assign`.

    Besides the per-bin score intervals, the table carries *exact* pairwise
    difference bounds: the per-dimension score difference between two
    clusters is a quadratic in the raw value, whose range over each bin is
    closed-form (:func:`~repro.core.score_model.quadratic_range`).  These
    are what let the envelope search prune regions even through unbounded
    outer bins.
    """
    _check_space(model, space)
    n_clusters = model.n_clusters
    lo: list[np.ndarray] = []
    hi: list[np.ndarray] = []
    diff_lo: list[np.ndarray] = []
    diff_hi: list[np.ndarray] = []
    for d, dim in enumerate(space.dimensions):
        assert isinstance(dim, BinnedDimension)
        lo_d = np.empty((n_clusters, dim.size))
        hi_d = np.empty((n_clusters, dim.size))
        diff_lo_d = np.zeros((n_clusters, n_clusters, dim.size))
        diff_hi_d = np.zeros((n_clusters, n_clusters, dim.size))
        for m in range(dim.size):
            low, high = dim.bounds(m)
            for k in range(n_clusters):
                center_k = float(model.centroids[k, d])
                weight_k = float(model.weights[k, d])
                d_min, d_max = _squared_distance_range(low, high, center_k)
                lo_d[k, m] = -weight_k * d_max
                hi_d[k, m] = -weight_k * d_min
                for j in range(n_clusters):
                    if j == k:
                        continue
                    center_j = float(model.centroids[j, d])
                    weight_j = float(model.weights[j, d])
                    # s_k - s_j = (w_j - w_k) x^2
                    #           + 2 (w_k c_k - w_j c_j) x
                    #           + (w_j c_j^2 - w_k c_k^2)
                    a = weight_j - weight_k
                    b = 2.0 * (weight_k * center_k - weight_j * center_j)
                    c = (
                        weight_j * center_j * center_j
                        - weight_k * center_k * center_k
                    )
                    d_lo, d_hi = quadratic_range(a, b, c, low, high)
                    diff_lo_d[k, j, m] = d_lo
                    diff_hi_d[k, j, m] = d_hi
        lo.append(lo_d)
        hi.append(hi_d)
        diff_lo.append(diff_lo_d)
        diff_hi.append(diff_hi_d)
    biases = np.zeros(n_clusters)
    return ScoreTable(
        space,
        model.class_labels,
        biases,
        lo,
        hi,
        diff_lo=diff_lo,
        diff_hi=diff_hi,
    )


def gmm_score_table(
    model: GaussianMixtureModel, space: AttributeSpace
) -> ScoreTable:
    """Score table of a diagonal Gaussian mixture.

    ``bias = log tau_k``; the per-bin score interval bounds
    ``log N(x; mu, var)`` over the bin (max where the bin is closest to the
    mean, min at the farthest endpoint, ``-inf`` for unbounded bins).
    """
    _check_space(model, space)
    n_components = model.n_components
    lo: list[np.ndarray] = []
    hi: list[np.ndarray] = []
    diff_lo: list[np.ndarray] = []
    diff_hi: list[np.ndarray] = []
    for d, dim in enumerate(space.dimensions):
        assert isinstance(dim, BinnedDimension)
        lo_d = np.empty((n_components, dim.size))
        hi_d = np.empty((n_components, dim.size))
        diff_lo_d = np.zeros((n_components, n_components, dim.size))
        diff_hi_d = np.zeros((n_components, n_components, dim.size))
        for m in range(dim.size):
            low, high = dim.bounds(m)
            for k in range(n_components):
                mean_k = float(model.means[k, d])
                variance_k = float(model.variances[k, d])
                d_min, d_max = _squared_distance_range(low, high, mean_k)
                norm_k = -0.5 * np.log(2.0 * np.pi * variance_k)
                u_k = 1.0 / (2.0 * variance_k)
                lo_d[k, m] = norm_k - d_max * u_k
                hi_d[k, m] = norm_k - d_min * u_k
                for j in range(n_components):
                    if j == k:
                        continue
                    mean_j = float(model.means[j, d])
                    variance_j = float(model.variances[j, d])
                    norm_j = -0.5 * np.log(2.0 * np.pi * variance_j)
                    u_j = 1.0 / (2.0 * variance_j)
                    # s_k - s_j = (u_j - u_k) x^2
                    #           + 2 (u_k mu_k - u_j mu_j) x
                    #           + (n_k - n_j + u_j mu_j^2 - u_k mu_k^2)
                    a = u_j - u_k
                    b = 2.0 * (u_k * mean_k - u_j * mean_j)
                    c = (
                        norm_k
                        - norm_j
                        + u_j * mean_j * mean_j
                        - u_k * mean_k * mean_k
                    )
                    d_lo, d_hi = quadratic_range(a, b, c, low, high)
                    diff_lo_d[k, j, m] = d_lo
                    diff_hi_d[k, j, m] = d_hi
        lo.append(lo_d)
        hi.append(hi_d)
        diff_lo.append(diff_lo_d)
        diff_hi.append(diff_hi_d)
    biases = np.log(model.mixing)
    return ScoreTable(
        space,
        model.class_labels,
        biases,
        lo,
        hi,
        diff_lo=diff_lo,
        diff_hi=diff_hi,
    )


def discretized_score_table(model: "DiscretizedClusterModel") -> ScoreTable:
    """Exact score table of a cluster model over discretized attributes.

    Each member contributes the score of its representative value — the
    paper's Section 3.3 reduction ("both distance based and model-based
    clusters can be expressed exactly as naive Bayes classifiers for the
    purposes of finding the upper envelopes"), valid because the deployed
    model (Analysis Server's DISCRETIZED columns) scores representatives.
    """
    base = model.base
    space = model.space
    n = len(base.class_labels)
    lo: list[np.ndarray] = []
    if isinstance(base, KMeansModel):
        biases = np.zeros(n)
    elif isinstance(base, GaussianMixtureModel):
        biases = np.log(base.mixing)
    else:
        raise EnvelopeError(
            f"unsupported base model {type(base).__name__}"
        )
    for d, dim in enumerate(space.dimensions):
        assert isinstance(dim, BinnedDimension)
        scores = np.empty((n, dim.size))
        for m in range(dim.size):
            value = dim.representative(m)
            for k in range(n):
                if isinstance(base, KMeansModel):
                    delta = value - float(base.centroids[k, d])
                    scores[k, m] = -float(base.weights[k, d]) * delta * delta
                else:
                    mean = float(base.means[k, d])
                    variance = float(base.variances[k, d])
                    scores[k, m] = -0.5 * (
                        np.log(2.0 * np.pi * variance)
                        + (value - mean) ** 2 / variance
                    )
        lo.append(scores)
    hi = [table.copy() for table in lo]
    return ScoreTable(space, base.class_labels, biases, lo, hi)


def discretized_cluster_envelopes(
    model: "DiscretizedClusterModel",
    max_nodes: int = DEFAULT_MAX_NODES,
) -> dict[Value, UpperEnvelope]:
    """Envelopes for a discretized cluster model (exact score reduction)."""
    return top_down_envelopes(
        model, discretized_score_table(model), max_nodes
    )


def clustering_envelopes(
    model: KMeansModel | GaussianMixtureModel,
    space: AttributeSpace | None = None,
    rows: Sequence[Row] | None = None,
    bins: int = 8,
    max_nodes: int = DEFAULT_MAX_NODES,
) -> dict[Value, UpperEnvelope]:
    """Envelopes for every cluster of a centroid/model-based model.

    Provide either an explicit binned ``space`` or training ``rows`` from
    which one is derived (``bins`` bins per feature).
    """
    if space is None:
        if rows is None:
            raise EnvelopeError(
                "clustering envelopes need either a space or training rows"
            )
        space = clustering_space(model, rows, bins=bins)
    if isinstance(model, KMeansModel):
        table = kmeans_score_table(model, space)
    elif isinstance(model, GaussianMixtureModel):
        table = gmm_score_table(model, space)
    else:
        raise EnvelopeError(
            f"unsupported clustering model {type(model).__name__}"
        )
    return top_down_envelopes(model, table, max_nodes)


#: Guard for enumerating the noise complement of a density model.
_NOISE_CELL_LIMIT = 250_000


def density_envelopes(
    model: DensityClusterModel,
    include_noise: bool = True,
) -> dict[Value, UpperEnvelope]:
    """Exact rectangle-cover envelopes for a boundary-based model.

    Each cluster's explicit cell set is covered exactly; the noise label's
    envelope covers the complement (falling back to TRUE if the complement
    is too large to enumerate — TRUE is always a sound envelope).
    """
    envelopes: dict[Value, UpperEnvelope] = {}
    for label in model.cluster_labels:
        started = time.perf_counter()
        cells = model.cells_for(label)
        regions = cover_cells(model.space, cells)
        predicate = intern(regions_to_predicate(regions, model.space))
        envelopes[label] = UpperEnvelope(
            model_name=model.name,
            model_kind=model.kind,
            class_label=label,
            predicate=predicate,
            exact=True,
            seconds=time.perf_counter() - started,
            derivation="rectangle-cover",
        )
    if include_noise:
        envelopes[NOISE_LABEL] = _noise_envelope(model)
    return envelopes


def _noise_envelope(model: DensityClusterModel) -> UpperEnvelope:
    started = time.perf_counter()
    clustered: set[tuple[int, ...]] = set()
    for cells in model.cluster_cells:
        clustered |= cells
    total = model.space.cell_count()
    if total > _NOISE_CELL_LIMIT:
        predicate = TRUE
        exact = False
    else:
        noise_cells = [
            cell
            for cell in model.space.iter_cells(limit=_NOISE_CELL_LIMIT)
            if cell not in clustered
        ]
        regions = cover_cells(model.space, noise_cells)
        predicate = intern(regions_to_predicate(regions, model.space))
        exact = True
    return UpperEnvelope(
        model_name=model.name,
        model_kind=model.kind,
        class_label=NOISE_LABEL,
        predicate=predicate,
        exact=exact,
        seconds=time.perf_counter() - started,
        derivation="rectangle-cover",
    )
