"""Model-based clustering: diagonal-covariance Gaussian mixtures via EM.

Paper Section 3.3: model-based clustering assigns a point to
``argmax_k tau_k * f_k(x | theta_k)``; when ``f_k`` treats dimensions
independently (diagonal Gaussians), the log of that criterion is additive
per dimension — the same shape as naive Bayes' Equation 2 — so the top-down
envelope algorithm applies through the adapter in
:mod:`repro.core.cluster_envelope`.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from typing import Any

import numpy as np

from repro.core.columns import ColumnBatch
from repro.core.predicates import Value
from repro.exceptions import ModelError
from repro.mining.base import MiningModel, ModelKind, Row
from repro.mining.kmeans import KMeansLearner

#: Floor on variances to keep EM numerically stable.
_MIN_VARIANCE = 1e-6


class GaussianMixtureModel(MiningModel):
    """Trained diagonal Gaussian mixture.

    * :attr:`mixing` — shape ``(K,)``, the ``tau_k`` (sums to 1),
    * :attr:`means` / :attr:`variances` — shape ``(K, n)``.
    """

    def __init__(
        self,
        name: str,
        prediction_column: str,
        feature_columns: Sequence[str],
        mixing: np.ndarray,
        means: np.ndarray,
        variances: np.ndarray,
        labels: Sequence[Value] | None = None,
    ) -> None:
        mixing = np.asarray(mixing, dtype=float)
        means = np.asarray(means, dtype=float)
        variances = np.asarray(variances, dtype=float)
        if means.ndim != 2 or variances.shape != means.shape:
            raise ModelError("means/variances must be matching (K, n) arrays")
        if mixing.shape != (means.shape[0],):
            raise ModelError("mixing must have one weight per component")
        if not math.isclose(float(mixing.sum()), 1.0, rel_tol=1e-6):
            raise ModelError("mixing weights must sum to 1")
        if np.any(variances <= 0):
            raise ModelError("variances must be positive")
        if means.shape[1] != len(feature_columns):
            raise ModelError("component width must match feature columns")
        self.name = name
        self.prediction_column = prediction_column
        self._feature_columns = tuple(feature_columns)
        self.mixing = mixing
        self.means = means
        self.variances = variances
        if labels is None:
            labels = [f"cluster_{k}" for k in range(means.shape[0])]
        if len(labels) != means.shape[0]:
            raise ModelError("labels must match the number of components")
        self._class_labels = tuple(labels)

    @property
    def kind(self) -> ModelKind:
        return ModelKind.GMM

    @property
    def feature_columns(self) -> tuple[str, ...]:
        return self._feature_columns

    @property
    def class_labels(self) -> tuple[Value, ...]:
        return self._class_labels

    @property
    def n_components(self) -> int:
        return self.means.shape[0]

    def component_log_scores(self, point: np.ndarray) -> np.ndarray:
        """``log tau_k + sum_d log N(x_d; mu_dk, var_dk)`` per component."""
        deltas = point[None, :] - self.means
        # A squared delta past float64 range makes the log density -inf:
        # the component is less likely than any finite one, which is how
        # argmax orders it.
        with np.errstate(over="ignore"):
            log_density = -0.5 * (
                np.log(2.0 * np.pi * self.variances)
                + deltas * deltas / self.variances
            ).sum(axis=1)
        return np.log(self.mixing) + log_density

    def component_log_scores_batch(self, points: np.ndarray) -> np.ndarray:
        """Per-component log scores, shape ``(len(points), K)``.

        The inner per-dimension sum runs over the last contiguous axis —
        the same reduction :meth:`component_log_scores` performs — so each
        row matches the scalar score vector bit for bit.
        """
        deltas = points[:, None, :] - self.means[None, :, :]
        with np.errstate(over="ignore"):  # -inf, as in component_log_scores()
            log_density = -0.5 * (
                np.log(2.0 * np.pi * self.variances)[None, :, :]
                + deltas * deltas / self.variances[None, :, :]
            ).sum(axis=2)
        return np.log(self.mixing)[None, :] + log_density

    def assign(self, point: np.ndarray) -> int:
        return int(np.argmax(self.component_log_scores(point)))

    def assign_batch(self, points: np.ndarray) -> np.ndarray:
        """Most likely component per point (lowest index wins ties)."""
        return self.component_log_scores_batch(points).argmax(axis=1)

    def predict(self, row: Row) -> Value:
        self._require_columns(row)
        point = np.array(
            [float(row[c]) for c in self._feature_columns], dtype=float
        )
        return self._class_labels[self.assign(point)]

    def predict_batch(self, batch: ColumnBatch) -> np.ndarray:
        """Batch prediction as one likelihood-matrix computation."""
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
        labels = np.empty(self.n_components, dtype=object)
        labels[:] = self._class_labels
        return labels[winners]

    def to_dict(self) -> dict[str, Any]:
        return {
            "kind": self.kind.value,
            "name": self.name,
            "prediction_column": self.prediction_column,
            "feature_columns": list(self._feature_columns),
            "labels": list(self._class_labels),
            "mixing": self.mixing.tolist(),
            "means": self.means.tolist(),
            "variances": self.variances.tolist(),
        }


class GaussianMixtureLearner:
    """EM for diagonal Gaussian mixtures, initialized from k-means."""

    def __init__(
        self,
        feature_columns: Sequence[str],
        n_components: int,
        max_iterations: int = 50,
        tolerance: float = 1e-4,
        seed: int = 0,
        name: str = "gmm",
        prediction_column: str = "cluster",
    ) -> None:
        if n_components < 1:
            raise ModelError("n_components must be >= 1")
        self.feature_columns = tuple(feature_columns)
        self.n_components = n_components
        self.max_iterations = max_iterations
        self.tolerance = tolerance
        self.seed = seed
        self.name = name
        self.prediction_column = prediction_column

    def fit(self, rows: Sequence[Row]) -> GaussianMixtureModel:
        if len(rows) < self.n_components:
            raise ModelError(
                f"need at least {self.n_components} rows to fit "
                f"{self.n_components} components"
            )
        data = np.array(
            [[float(row[c]) for c in self.feature_columns] for row in rows],
            dtype=float,
        )
        kmeans = KMeansLearner(
            self.feature_columns,
            self.n_components,
            seed=self.seed,
            weighting="uniform",
        ).fit(rows)
        means = kmeans.centroids.copy()
        global_variance = np.maximum(data.var(axis=0), _MIN_VARIANCE)
        variances = np.tile(global_variance, (self.n_components, 1))
        mixing = np.full(self.n_components, 1.0 / self.n_components)

        previous = -np.inf
        for _ in range(self.max_iterations):
            # E step: responsibilities via log-sum-exp.
            deltas = data[:, None, :] - means[None, :, :]
            log_density = -0.5 * (
                np.log(2.0 * np.pi * variances)[None, :, :]
                + deltas * deltas / variances[None, :, :]
            ).sum(axis=2)
            log_joint = np.log(mixing)[None, :] + log_density
            peak = log_joint.max(axis=1, keepdims=True)
            likelihood = np.exp(log_joint - peak)
            total = likelihood.sum(axis=1, keepdims=True)
            responsibilities = likelihood / total
            log_likelihood = float((np.log(total) + peak).sum())

            # M step.
            mass = responsibilities.sum(axis=0)
            mass = np.maximum(mass, 1e-12)
            mixing = mass / mass.sum()
            means = (responsibilities.T @ data) / mass[:, None]
            deltas = data[:, None, :] - means[None, :, :]
            variances = (
                (responsibilities[:, :, None] * deltas * deltas).sum(axis=0)
                / mass[:, None]
            )
            variances = np.maximum(variances, _MIN_VARIANCE)

            if abs(log_likelihood - previous) < self.tolerance:
                break
            previous = log_likelihood

        return GaussianMixtureModel(
            self.name,
            self.prediction_column,
            self.feature_columns,
            mixing,
            means,
            variances,
        )
