"""Additive per-dimension score models — the common shape behind Section 3.

The paper's key structural observation (Sections 3.2 and 3.3) is that naive
Bayes, centroid-based clustering, and independent-dimension model-based
clustering all predict

    argmax_k  bias_k + sum_d score_k(d, x_d)

(for naive Bayes, ``bias = log Pr(c_k)`` and ``score = log Pr(x_d | c_k)``;
for weighted-Euclidean clustering, ``bias = 0`` and
``score = -w_dk (x_d - c_dk)^2``; for diagonal Gaussian mixtures,
``bias = log tau_k`` and ``score = log N(x_d)``).  The top-down envelope
algorithm only needs per-``(class, dimension, member)`` score *bounds*, so it
is written once against this abstraction.

For discrete attributes the bound is a point (``lo == hi``).  For continuous
attributes discretized into bins, the score of a raw value varies within the
bin, so clustering adapters report the interval
``[min over the bin, max over the bin]`` — this keeps envelopes sound with
respect to the model's behaviour on *raw* values, not just on bin
representatives.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np

from repro.core.predicates import Value
from repro.core.regions import AttributeSpace
from repro.exceptions import EnvelopeError


class ScoreTable:
    """Dense per-(class, dimension, member) score bounds plus biases.

    * ``lo[d]`` / ``hi[d]`` — arrays of shape ``(K, n_d)``,
    * ``biases`` — shape ``(K,)``,
    * ``tie_ranks`` — shape ``(K,)``; when two classes reach the same total
      score the one with the smaller rank wins (naive Bayes: the class with
      the larger prior, per Section 3.2.1).
    """

    def __init__(
        self,
        space: AttributeSpace,
        class_labels: Sequence[Value],
        biases: np.ndarray,
        lo: Sequence[np.ndarray],
        hi: Sequence[np.ndarray],
        tie_ranks: Sequence[int] | None = None,
        diff_lo: Sequence[np.ndarray] | None = None,
        diff_hi: Sequence[np.ndarray] | None = None,
    ) -> None:
        n_classes = len(class_labels)
        biases = np.asarray(biases, dtype=float)
        if biases.shape != (n_classes,):
            raise EnvelopeError("biases must have one entry per class")
        if len(lo) != space.n_dims or len(hi) != space.n_dims:
            raise EnvelopeError("score tables must cover every dimension")
        for dim, lo_d, hi_d in zip(space.dimensions, lo, hi):
            expected = (n_classes, dim.size)
            if lo_d.shape != expected or hi_d.shape != expected:
                raise EnvelopeError(
                    f"score table for {dim.name!r} has shape "
                    f"{lo_d.shape}/{hi_d.shape}, expected {expected}"
                )
            if np.any(lo_d > hi_d):
                raise EnvelopeError(
                    f"score table for {dim.name!r} has lo > hi entries"
                )
        self.space = space
        self.class_labels = tuple(class_labels)
        self.biases = biases
        self.lo = [np.asarray(t, dtype=float) for t in lo]
        self.hi = [np.asarray(t, dtype=float) for t in hi]
        if tie_ranks is None:
            tie_ranks = list(range(n_classes))
        if sorted(tie_ranks) != list(range(n_classes)):
            raise EnvelopeError("tie_ranks must be a permutation of 0..K-1")
        self.tie_ranks = tuple(tie_ranks)
        if (diff_lo is None) != (diff_hi is None):
            raise EnvelopeError(
                "diff_lo and diff_hi must be provided together"
            )
        if diff_lo is not None and diff_hi is not None:
            if len(diff_lo) != space.n_dims or len(diff_hi) != space.n_dims:
                raise EnvelopeError("diff tables must cover every dimension")
            for dim, table_lo, table_hi in zip(
                space.dimensions, diff_lo, diff_hi
            ):
                expected = (n_classes, n_classes, dim.size)
                if table_lo.shape != expected or table_hi.shape != expected:
                    raise EnvelopeError(
                        f"diff table for {dim.name!r} has shape "
                        f"{table_lo.shape}/{table_hi.shape}, "
                        f"expected {expected}"
                    )
            self._diff_lo = [np.asarray(t, dtype=float) for t in diff_lo]
            self._diff_hi = [np.asarray(t, dtype=float) for t in diff_hi]
        else:
            self._diff_lo = None
            self._diff_hi = None
        self._diff_cache: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self._mid_cache: dict[int, np.ndarray] = {}

    @property
    def n_classes(self) -> int:
        return len(self.class_labels)

    def mid(self, dim: int) -> np.ndarray:
        """Cached mid-point scores of one dimension, sanitized for heuristics.

        Infinities (unbounded clustering bins) are clamped so the entropy
        and mass heuristics stay finite; bound computations never use these
        values.
        """
        cached = self._mid_cache.get(dim)
        if cached is not None:
            return cached
        mids = (self.lo[dim] + self.hi[dim]) / 2.0
        if not np.isfinite(mids).all():
            mids = np.nan_to_num(mids, nan=-50.0, posinf=50.0, neginf=-50.0)
        self._mid_cache[dim] = mids
        return mids

    def has_exact_diffs(self) -> bool:
        """Whether closed-form pairwise difference bounds were supplied."""
        return self._diff_lo is not None

    def diff_bounds(self, dim: int) -> tuple[np.ndarray, np.ndarray]:
        """Bounds on ``score_k - score_j`` per member of one dimension.

        Returns two ``(K, K, n_d)`` arrays ``(lo, hi)`` with entry
        ``[k, j, m]`` bounding the difference for any raw value in member
        ``m``.  When no exact diff tables were supplied, falls back to the
        conservative combination ``[lo_k - hi_j, hi_k - lo_j]`` — which is
        what the paper's separate min/max bounds implicitly use.

        Pairwise difference bounds are the K-class generalization of the
        paper's Lemma 3.2 two-class ratio trick: the worst case of a
        *difference* decomposes per dimension exactly, so MUST-WIN /
        MUST-LOSE against each single opponent becomes exact.  They are also
        what makes clustering envelopes effective: over an unbounded outer
        bin both scores diverge to ``-inf`` but their difference stays
        informative.
        """
        if self._diff_lo is not None and self._diff_hi is not None:
            return self._diff_lo[dim], self._diff_hi[dim]
        cached = self._diff_cache.get(dim)
        if cached is not None:
            return cached
        lo_d = self.lo[dim]
        hi_d = self.hi[dim]
        diff_lo = lo_d[:, None, :] - hi_d[None, :, :]
        diff_hi = hi_d[:, None, :] - lo_d[None, :, :]
        # lo - hi can produce inf - inf = NaN for doubly-unbounded scores;
        # NaN would poison sums, so fall back to the trivial bound.
        np.nan_to_num(diff_lo, copy=False, nan=-np.inf)
        np.nan_to_num(diff_hi, copy=False, nan=np.inf)
        self._diff_cache[dim] = (diff_lo, diff_hi)
        return diff_lo, diff_hi

    def is_exact(self) -> bool:
        """True when every score bound is a point (discrete attributes)."""
        return all(
            np.array_equal(lo_d, hi_d) for lo_d, hi_d in zip(self.lo, self.hi)
        )

    def class_index(self, label: Value) -> int:
        try:
            return self.class_labels.index(label)
        except ValueError:
            raise EnvelopeError(
                f"model has no class labelled {label!r}; "
                f"labels are {self.class_labels}"
            ) from None

    def cell_scores(self, cell: Sequence[int]) -> np.ndarray:
        """Exact per-class scores for a grid cell.

        Only meaningful for exact tables; interval tables raise, since a cell
        does not pin down a single raw value.
        """
        if not self.is_exact():
            raise EnvelopeError(
                "cell_scores is undefined for interval score tables"
            )
        scores = self.biases.copy()
        for lo_d, member in zip(self.lo, cell):
            scores = scores + lo_d[:, member]
        return scores

    def predict_cell(self, cell: Sequence[int]) -> int:
        """Winning class of a cell under exact scores with tie-breaking."""
        scores = self.cell_scores(cell)
        best = np.flatnonzero(scores == scores.max())
        if len(best) == 1:
            return int(best[0])
        return int(min(best, key=lambda k: self.tie_ranks[k]))


def quadratic_range(
    a: float,
    b: float,
    c: float,
    low: float | None,
    high: float | None,
) -> tuple[float, float]:
    """Range of ``a*x^2 + b*x + c`` over a (possibly unbounded) interval.

    Used by the clustering adapters to bound per-dimension score
    *differences* in closed form: for weighted Euclidean distances and
    diagonal Gaussians the difference of two per-dimension scores is a
    quadratic in the raw attribute value.
    """
    candidates: list[float] = []
    if low is not None:
        candidates.append(a * low * low + b * low + c)
    if high is not None:
        candidates.append(a * high * high + b * high + c)
    minimum = math.inf
    maximum = -math.inf
    if candidates:
        minimum = min(candidates)
        maximum = max(candidates)
    # Interior vertex of the parabola.
    if a != 0.0:
        vertex = -b / (2.0 * a)
        inside = (low is None or vertex >= low) and (
            high is None or vertex <= high
        )
        if inside:
            value = a * vertex * vertex + b * vertex + c
            minimum = min(minimum, value)
            maximum = max(maximum, value)
    # Unbounded ends: the dominant term decides the limit.
    if low is None:
        if a > 0.0 or (a == 0.0 and b < 0.0):
            maximum = math.inf
        elif a < 0.0 or (a == 0.0 and b > 0.0):
            minimum = -math.inf
        elif a == 0.0 and b == 0.0:
            minimum = min(minimum, c)
            maximum = max(maximum, c)
    if high is None:
        if a > 0.0 or (a == 0.0 and b > 0.0):
            maximum = math.inf
        elif a < 0.0 or (a == 0.0 and b < 0.0):
            minimum = -math.inf
        elif a == 0.0 and b == 0.0:
            minimum = min(minimum, c)
            maximum = max(maximum, c)
    if minimum > maximum:
        # Degenerate constant on a one-point interval.
        minimum, maximum = maximum, minimum
    return minimum, maximum


def _squared_distance_range(
    low: float | None, high: float | None, center: float
) -> tuple[float, float]:
    """Range of ``(x - center)^2`` for ``x`` in a (possibly unbounded) bin."""
    if low is None and high is None:
        return 0.0, math.inf
    if low is None:
        assert high is not None
        if center >= high:
            return (high - center) ** 2, math.inf
        return 0.0, math.inf
    if high is None:
        if center <= low:
            return (low - center) ** 2, math.inf
        return 0.0, math.inf
    d_low = (low - center) ** 2
    d_high = (high - center) ** 2
    if low <= center <= high:
        return 0.0, max(d_low, d_high)
    return min(d_low, d_high), max(d_low, d_high)
