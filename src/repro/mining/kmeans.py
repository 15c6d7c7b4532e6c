"""Centroid-based clustering with weighted Euclidean assignment.

Paper Section 3.3: each cluster has a centroid ``(c_1k .. c_nk)`` and
per-dimension weights ``(w_1k .. w_nk)``; a point joins the cluster
minimizing ``sum_d w_dk (x_d - c_dk)^2``.  That assignment rule has the same
additive per-dimension structure as naive Bayes (Equation 2), which is what
lets :mod:`repro.core.cluster_envelope` reuse the top-down envelope search.

The learner is seeded k-means++ with Lloyd iterations.  Weights default to
inverse feature variance (a common normalization that also exercises the
*weighted* variant of the paper's formula); uniform weights are available.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import Any

import numpy as np

from repro.core.columns import ColumnBatch
from repro.core.predicates import Value
from repro.exceptions import ModelError
from repro.mining.base import MiningModel, ModelKind, Row


class KMeansModel(MiningModel):
    """Trained centroid-based clustering model.

    * :attr:`centroids` — shape ``(K, n)``,
    * :attr:`weights` — shape ``(K, n)``, the ``w_dk`` of Section 3.3.
    """

    def __init__(
        self,
        name: str,
        prediction_column: str,
        feature_columns: Sequence[str],
        centroids: np.ndarray,
        weights: np.ndarray,
        labels: Sequence[Value] | None = None,
    ) -> None:
        centroids = np.asarray(centroids, dtype=float)
        weights = np.asarray(weights, dtype=float)
        if centroids.ndim != 2:
            raise ModelError("centroids must be a (K, n) array")
        if weights.shape != centroids.shape:
            raise ModelError("weights must match centroids in shape")
        if np.any(weights < 0):
            raise ModelError("weights must be non-negative")
        if centroids.shape[1] != len(feature_columns):
            raise ModelError("centroid width must match feature columns")
        self.name = name
        self.prediction_column = prediction_column
        self._feature_columns = tuple(feature_columns)
        self.centroids = centroids
        self.weights = weights
        if labels is None:
            labels = [f"cluster_{k}" for k in range(centroids.shape[0])]
        if len(labels) != centroids.shape[0]:
            raise ModelError("labels must match the number of centroids")
        self._class_labels = tuple(labels)

    @property
    def kind(self) -> ModelKind:
        return ModelKind.KMEANS

    @property
    def feature_columns(self) -> tuple[str, ...]:
        return self._feature_columns

    @property
    def class_labels(self) -> tuple[Value, ...]:
        return self._class_labels

    @property
    def n_clusters(self) -> int:
        return self.centroids.shape[0]

    def distances(self, point: np.ndarray) -> np.ndarray:
        """Weighted squared distances from ``point`` to every centroid."""
        deltas = point[None, :] - self.centroids
        # A squared delta past float64 range is +inf: the centroid is
        # farther than any finite one, which is how argmin orders it.
        with np.errstate(over="ignore"):
            return (self.weights * deltas * deltas).sum(axis=1)

    def assign(self, point: np.ndarray) -> int:
        """Index of the closest centroid (lowest index wins ties)."""
        return int(np.argmin(self.distances(point)))

    def distances_batch(self, points: np.ndarray) -> np.ndarray:
        """Weighted squared distances, shape ``(len(points), K)``.

        The reduction runs over the last (contiguous) axis exactly like
        :meth:`distances`, so each row of the result is bit-identical to
        the scalar distance vector for that point.
        """
        deltas = points[:, None, :] - self.centroids[None, :, :]
        with np.errstate(over="ignore"):  # +inf, as in distances()
            return (self.weights[None, :, :] * deltas * deltas).sum(axis=2)

    def assign_batch(self, points: np.ndarray) -> np.ndarray:
        """Closest-centroid index per point (lowest index wins ties)."""
        return self.distances_batch(points).argmin(axis=1)

    def predict(self, row: Row) -> Value:
        self._require_columns(row)
        point = np.array(
            [float(row[c]) for c in self._feature_columns], dtype=float
        )
        return self._class_labels[self.assign(point)]

    def predict_batch(self, batch: ColumnBatch) -> np.ndarray:
        """Batch prediction as one distance-matrix computation."""
        if len(batch) == 0:
            return np.empty(0, dtype=object)
        missing = [
            c for c in self._feature_columns if not batch.has_column(c)
        ]
        if missing:
            raise ModelError(
                f"model {self.name!r} requires columns {missing} "
                "absent from the row"
            )
        winners = self.assign_batch(batch.matrix(self._feature_columns))
        labels = np.empty(self.n_clusters, dtype=object)
        labels[:] = self._class_labels
        return labels[winners]

    def to_dict(self) -> dict[str, Any]:
        return {
            "kind": self.kind.value,
            "name": self.name,
            "prediction_column": self.prediction_column,
            "feature_columns": list(self._feature_columns),
            "labels": list(self._class_labels),
            "centroids": self.centroids.tolist(),
            "weights": self.weights.tolist(),
        }


class KMeansLearner:
    """k-means++ initialization followed by Lloyd iterations."""

    def __init__(
        self,
        feature_columns: Sequence[str],
        n_clusters: int,
        max_iterations: int = 50,
        seed: int = 0,
        weighting: str = "inverse_variance",
        name: str = "kmeans",
        prediction_column: str = "cluster",
    ) -> None:
        if n_clusters < 1:
            raise ModelError("n_clusters must be >= 1")
        if weighting not in ("inverse_variance", "uniform", "kurtosis"):
            raise ModelError(f"unknown weighting {weighting!r}")
        self.feature_columns = tuple(feature_columns)
        self.n_clusters = n_clusters
        self.max_iterations = max_iterations
        self.seed = seed
        self.weighting = weighting
        self.name = name
        self.prediction_column = prediction_column

    def fit(self, rows: Sequence[Row]) -> KMeansModel:
        if len(rows) < self.n_clusters:
            raise ModelError(
                f"need at least {self.n_clusters} rows to fit "
                f"{self.n_clusters} clusters"
            )
        data = np.array(
            [[float(row[c]) for c in self.feature_columns] for row in rows],
            dtype=float,
        )
        variance = data.var(axis=0)
        variance[variance == 0] = 1.0
        if self.weighting == "inverse_variance":
            base_weights = 1.0 / variance
        elif self.weighting == "kurtosis":
            # Cluster-tendency weighting (projection-pursuit style): a
            # dimension holding well-separated groups is platykurtic
            # (kurtosis < 3), while unimodal noise sits near 3.  Weighting
            # by the kurtosis deficit concentrates the distance metric on
            # the dimensions that actually carry cluster structure — the
            # effect full EM obtains through per-cluster variances.
            centered = data - data.mean(axis=0)
            fourth = (centered**4).mean(axis=0)
            kurtosis = fourth / (variance**2)
            tendency = np.maximum(3.0 - kurtosis, 0.0)
            # Relative thresholding: clipped unimodal noise is mildly
            # platykurtic too, so only dimensions within 2x of the
            # strongest cluster signal keep full weight.
            peak = float(tendency.max())
            if peak > 0:
                tendency = np.where(
                    tendency >= 0.5 * peak, tendency, 0.05 * peak
                )
            else:
                tendency = np.ones_like(tendency)
            base_weights = tendency / variance
        else:
            base_weights = np.ones(data.shape[1])
        rng = np.random.default_rng(self.seed)
        centroids = self._kmeans_plus_plus(data, base_weights, rng)
        assignment = np.zeros(len(data), dtype=int)
        for _ in range(self.max_iterations):
            deltas = data[:, None, :] - centroids[None, :, :]
            distances = (base_weights * deltas * deltas).sum(axis=2)
            new_assignment = distances.argmin(axis=1)
            if np.array_equal(new_assignment, assignment):
                assignment = new_assignment
                break
            assignment = new_assignment
            for k in range(self.n_clusters):
                members = data[assignment == k]
                if len(members):
                    centroids[k] = members.mean(axis=0)
        weights = np.tile(base_weights, (self.n_clusters, 1))
        return KMeansModel(
            self.name,
            self.prediction_column,
            self.feature_columns,
            centroids,
            weights,
        )

    def _kmeans_plus_plus(
        self, data: np.ndarray, weights: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        first = int(rng.integers(len(data)))
        centroids = [data[first]]
        for _ in range(1, self.n_clusters):
            stacked = np.stack(centroids)
            deltas = data[:, None, :] - stacked[None, :, :]
            distances = (weights * deltas * deltas).sum(axis=2).min(axis=1)
            total = distances.sum()
            if total <= 0:
                # All points coincide with chosen centroids; pick uniformly.
                index = int(rng.integers(len(data)))
            else:
                index = int(rng.choice(len(data), p=distances / total))
            centroids.append(data[index])
        return np.stack(centroids).astype(float)
