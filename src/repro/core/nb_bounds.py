"""Region score bounds for the top-down envelope search.

The paper's Section 3.2.2 bounds each class's score over a region on its
own (``minProb`` / ``maxProb``) and, for two classes, makes the tests exact
through Lemma 3.2's probability-ratio transform.  This module generalizes
that lemma to any K: for the target class ``k`` and each opponent ``j`` it
bounds the score *difference*

    maxDiff(k, j) = bias_k - bias_j + sum_d max over members of
                    (score_k - score_j)(d, m)

(and symmetrically minDiff).  Because a difference of additive scores is
itself additive, these per-opponent tests are exact given exact per-member
difference bounds; at K=2 they give the same verdicts as the ratio
transform.  Clustering adapters supply closed-form per-bin difference
bounds (quadratics in the raw value), which remain informative even on
unbounded outer bins where both absolute scores diverge.

* MUST_WIN  — ``minDiff(k, j) > 0`` for every ``j != k`` (Lemma 3.1: every
  cell in the region is predicted ``k``),
* MUST_LOSE — some ``j`` has ``maxDiff(k, j) < 0``,
* AMBIGUOUS — neither.

The paper's separate bounds are kept only as the comparison of ablations
A2 and A4 (:class:`repro.experiments.ablation.SeparateBounds`).

Soundness under floating point: discarding a region that contains a winning
cell would break the upper-envelope contract, so the MUST_LOSE test demands
a margin (:data:`LOSE_MARGIN`).  A mistaken MUST_WIN or AMBIGUOUS outcome
only costs tightness, never correctness.

Tie handling follows Section 3.2.1: equal totals go to the class with the
better tie rank (higher prior for naive Bayes).
"""

from __future__ import annotations

import enum

import numpy as np

from repro.core.regions import Region
from repro.core.score_model import ScoreTable
from repro.exceptions import EnvelopeError

#: Conservative slack for the MUST_LOSE comparison (see module docstring).
LOSE_MARGIN = 1e-9


class RegionStatus(enum.Enum):
    """Three-way outcome of the bound tests for a region."""

    MUST_WIN = "must-win"
    MUST_LOSE = "must-lose"
    AMBIGUOUS = "ambiguous"


def _masked_sum(matrix: np.ndarray, exclude: int) -> np.ndarray:
    """Row sums of ``matrix`` with one column excluded (NaN/inf safe)."""
    return np.delete(matrix, exclude, axis=-1).sum(axis=-1)


class RegionBounds:
    """Target-versus-opponent score-difference bounds of one region.

    Exposes the whole-region status and the member-conditional status used
    by the shrink step (the paper's ``maxProb(c_j, d, m)`` revision, taken
    per opponent), with per-dimension detail.
    """

    def __init__(
        self,
        table: ScoreTable,
        region: Region,
        target: int,
    ) -> None:
        if len(region.members) != table.space.n_dims:
            raise EnvelopeError(
                "region does not match the score table's space"
            )
        if not 0 <= target < table.n_classes:
            raise EnvelopeError(f"target class {target} out of range")
        self.table = table
        self.region = region
        self.target = target
        n_classes = table.n_classes
        n_dims = table.space.n_dims
        self._indices = [
            np.asarray(members, dtype=int) for members in region.members
        ]
        #: Per-opponent, per-dimension extreme difference contributions
        #: of the target class: shape (K, n_dims).
        self.diff_dim_min = np.empty((n_classes, n_dims))
        self.diff_dim_max = np.empty((n_classes, n_dims))
        for d, index in enumerate(self._indices):
            diff_lo, diff_hi = table.diff_bounds(d)
            self.diff_dim_min[:, d] = (
                diff_lo[target][:, index].min(axis=1)
            )
            self.diff_dim_max[:, d] = (
                diff_hi[target][:, index].max(axis=1)
            )
        bias_diff = table.biases[target] - table.biases
        self.diff_min = bias_diff + self.diff_dim_min.sum(axis=1)
        self.diff_max = bias_diff + self.diff_dim_max.sum(axis=1)

    # -- whole-region tests -------------------------------------------------

    def status(self) -> RegionStatus:
        if self._must_lose_pairwise(self.diff_max):
            return RegionStatus.MUST_LOSE
        if self._must_win_pairwise(self.diff_min):
            return RegionStatus.MUST_WIN
        return RegionStatus.AMBIGUOUS

    def _must_win_pairwise(self, diff_min: np.ndarray) -> bool:
        ranks = self.table.tie_ranks
        target = self.target
        for j in range(self.table.n_classes):
            if j == target:
                continue
            if diff_min[j] > 0.0:
                continue
            if diff_min[j] == 0.0 and ranks[target] < ranks[j]:
                continue
            return False
        return True

    def _must_lose_pairwise(self, diff_max: np.ndarray) -> bool:
        ranks = self.table.tie_ranks
        target = self.target
        for j in range(self.table.n_classes):
            if j == target:
                continue
            if diff_max[j] + LOSE_MARGIN < 0.0:
                return True
            if diff_max[j] == 0.0 and ranks[j] < ranks[target]:
                return True
        return False

    # -- member-conditional tests (shrink step) -----------------------------

    def members_must_lose(
        self, dim: int, members: np.ndarray
    ) -> np.ndarray:
        """Vectorized MUST_LOSE verdicts for several members of one dim.

        Uses the revised bounds of the paper's Shrink step: the chosen
        dimension contributes exactly each member's bound; the remaining
        dimensions keep their regional extremes.  Exclusion sums are
        computed by dropping the dimension's column (never by subtraction),
        so infinite contributions cannot produce NaN.

        Returns a boolean array aligned with ``members``.
        """
        ranks = np.asarray(self.table.tie_ranks)
        target = self.target
        diff_lo, diff_hi = self.table.diff_bounds(dim)
        bias_diff = self.table.biases[target] - self.table.biases
        diff_max = (
            bias_diff[:, None]
            + _masked_sum(self.diff_dim_max, dim)[:, None]
            + diff_hi[target][:, members]
        )
        strict = diff_max + LOSE_MARGIN < 0.0
        ties = (diff_max == 0.0) & (ranks[:, None] < ranks[target])
        lose = strict | ties
        lose[target, :] = False
        return lose.any(axis=0)


def shrink_region(
    table: ScoreTable,
    region: Region,
    target: int,
    bounds: type[RegionBounds] = RegionBounds,
    max_passes: int = 3,
) -> Region | None:
    """The paper's Shrink step: drop members whose slice MUST-LOSEs.

    Unordered dimensions may lose any member; ordered dimensions only shed
    members from the two ends, preserving contiguity (Section 3.2.2).
    Returns the shrunk region, or ``None`` when every member of some
    dimension loses (the region holds no target-class cells).

    Removing a member tightens the regional extremes, so the scan repeats
    up to ``max_passes`` times or until a fixpoint.  ``bounds`` is the
    bounds class the search classifies regions with.
    """
    current = region
    for _ in range(max_passes):
        verdicts = bounds(table, current, target)
        changed = False
        new_members: list[tuple[int, ...]] = []
        for d, dim in enumerate(table.space.dimensions):
            members = list(current.members[d])
            lose = verdicts.members_must_lose(
                d, np.asarray(members, dtype=int)
            )
            if len(members) > 1:
                if dim.ordered:
                    lo = 0
                    hi = len(members)
                    while lo < hi and lose[lo]:
                        lo += 1
                    while hi > lo and lose[hi - 1]:
                        hi -= 1
                    if lo > 0 or hi < len(members):
                        changed = True
                    members = members[lo:hi]
                else:
                    kept = [
                        m
                        for m, lost in zip(members, lose)
                        if not lost
                    ]
                    if len(kept) != len(members):
                        changed = True
                    members = kept
            elif lose[0]:
                return None
            if not members:
                return None
            new_members.append(tuple(members))
        if not changed:
            return current
        current = Region(tuple(new_members))
    return current


def entropy_split(
    table: ScoreTable, region: Region, target: int
) -> tuple[int, list[int]] | None:
    """Pick the best binary split of ``region`` (paper's Split step).

    Candidate splits are every cut position of an ordered dimension and
    every one-vs-rest partition of an unordered dimension.  Each member
    ``m`` of dimension ``d`` receives a target mass and an other-class mass
    from the (bias-weighted) member scores; the split minimizing the
    mass-weighted binary entropy of target-vs-rest is chosen, mirroring the
    decision-tree split criterion the paper reuses "without explicit counts
    of each class ... relying on the probability values of the members".

    Returns ``(dimension index, left member list)`` or ``None`` when the
    region is a single cell and cannot be split.
    """
    best: tuple[float, int, list[int]] | None = None
    for d, dim in enumerate(table.space.dimensions):
        members = region.members[d]
        if len(members) < 2:
            continue
        index = np.asarray(members, dtype=int)
        # Mid-point scores keep the heuristic defined for interval tables;
        # infinities are clamped by the table's cached mid() accessor.
        mids = table.mid(d)[:, index]
        weighted = mids + table.biases[:, None]
        peak = weighted.max()
        mass = np.exp(weighted - peak)
        target_mass = mass[target]
        other_mass = mass.sum(axis=0) - target_mass
        if dim.ordered:
            # All prefix cuts at once via cumulative sums.
            t_left = np.cumsum(target_mass)[:-1]
            o_left = np.cumsum(other_mass)[:-1]
        else:
            # One-vs-rest splits: the "left" side is each single member.
            t_left = target_mass
            o_left = other_mass
        t_total = float(target_mass.sum())
        o_total = float(other_mass.sum())
        scores = _split_entropies(t_left, o_left, t_total, o_total)
        position = int(scores.argmin())
        score = float(scores[position])
        if best is None or score < best[0]:
            if dim.ordered:
                left = list(members[: position + 1])
            else:
                left = [members[position]]
            best = (score, d, left)
    if best is None:
        return None
    return best[1], best[2]


def _split_entropies(
    t_left: np.ndarray,
    o_left: np.ndarray,
    t_total: float,
    o_total: float,
) -> np.ndarray:
    """Weighted binary entropies for a batch of candidate splits."""
    total = t_total + o_total
    if total <= 0:
        return np.zeros(len(t_left))
    left = t_left + o_left
    right = total - left
    t_right = t_total - t_left
    scores = np.zeros(len(t_left))
    for side_total, side_target in ((left, t_left), (right, t_right)):
        with np.errstate(divide="ignore", invalid="ignore"):
            p = np.where(side_total > 0, side_target / side_total, 0.0)
            entropy = -(
                np.where(p > 0, p * np.log2(p), 0.0)
                + np.where(p < 1, (1 - p) * np.log2(1 - p), 0.0)
            )
        scores += np.where(side_total > 0, side_total / total, 0.0) * entropy
    return scores
