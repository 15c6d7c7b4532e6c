"""Seeded inputs: query mix, ad-hoc cut-offs, arrivals, segment catalog.

The *shape* of every input is a committed constant and the same for
every seed: each block of the request mix holds the same work, each
stratum of a rung the same number of arrivals, each catalog the same
vocabulary.  ``--seed`` only picks the order, the arrival offsets, the
jitter that makes an ad-hoc literal new, and which pool members a
segment combines.  That keeps a metric's spread across seeds down to
measurement noise, so a change of a few percent shows.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass

from repro import (
    And,
    Comparison,
    Interval,
    MiningQuery,
    Op,
    Or,
    Predicate,
    PredictionEquals,
)
from repro.segments import SegmentCatalog

#: Zipf exponent of base-query popularity.
ZIPF_SKEW = 1.1
#: A mix cycle is ``BLOCKS`` blocks of equal composition, so any stretch
#: of the stream a block or more long carries the same work.  A block
#: holds one ad-hoc query per (model, label) pair and ``BASE_PER_ADHOC``
#: base queries for each, which makes the ad-hoc share one in five.
BLOCKS = 4
BASE_PER_ADHOC = 4
#: Popularity rank of the base queries is one fixed shuffle, not seeded
#: by ``--seed``: which query is hot is part of the workload definition.
RANK_SEED = 0
#: Quantile levels of the ad-hoc cut-offs.  Block ``b`` gives pair ``p``
#: level ``(p + b) % len``, so every block spans all levels; a seeded
#: jitter far below the data's resolution makes each literal new.
ADHOC_LEVELS = (0.35, 0.45, 0.55, 0.65)
#: Shared vocabulary of the pooled segment definitions: atoms, and the
#: conjuncts built from them.  The vocabulary is one fixed draw, because
#: its selectivities set how many memberships a batch fans out to, which
#: is a third of the matching cost: a seeded vocabulary moves
#: ``segment_match`` by ten percent between seeds.  The seed picks which
#: conjuncts each segment joins, every conjunct equally often.
POOL_SEED = 0
ATOM_POOL = 200
CONJUNCT_POOL = 400
CUT_QUANTILES = tuple(0.05 * step for step in range(1, 20))


def column_quantile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank quantile of an already sorted column."""
    return sorted_values[min(len(sorted_values) - 1, int(q * len(sorted_values)))]


def sorted_columns(rows: list[dict], columns: tuple[str, ...]) -> dict[str, list[float]]:
    return {c: sorted(float(row[c]) for row in rows) for c in columns}


# ---------------------------------------------------------------------------
# Query mix
# ---------------------------------------------------------------------------


def base_queries(
    table: str,
    deployed: list[tuple[str, tuple]],
    cutoffs: list[tuple[str, float]],
) -> list[MiningQuery]:
    """Per (model, label): the bare prediction join plus one
    ``column <= median`` variant per cut-off."""
    queries = []
    for model_name, labels in deployed:
        for label in labels:
            mining = (PredictionEquals(model_name, label),)
            queries.append(MiningQuery(table, mining_predicates=mining))
            for column, value in cutoffs:
                queries.append(
                    MiningQuery(
                        table,
                        relational_predicate=Comparison(column, Op.LE, value),
                        mining_predicates=mining,
                    )
                )
    return queries


def zipf_counts(n: int, total: int, skew: float = ZIPF_SKEW) -> list[int]:
    """``total`` requests split over ``n`` ranks by Zipf weight
    (largest-remainder rounding, so the counts sum to ``total``)."""
    weights = [rank**-skew for rank in range(1, n + 1)]
    scale = total / sum(weights)
    exact = [w * scale for w in weights]
    counts = [int(x) for x in exact]
    by_remainder = sorted(range(n), key=lambda i: exact[i] - counts[i], reverse=True)
    for i in by_remainder[: total - sum(counts)]:
        counts[i] += 1
    return counts


@dataclass(frozen=True)
class MixItem:
    """One request of the mix.  ``key`` names the distinct query."""

    key: tuple
    query: MiningQuery


class QueryMix:
    """The serve workloads' request stream: Zipf base plus ad-hoc.

    Every block holds the same work: each base query's Zipf share of the
    cycle dealt round-robin over the blocks, and one ad-hoc query per
    (model, label) pair.  The seed shuffles the blocks of a cycle,
    shuffles inside each block and jitters each ad-hoc cut-off.  ``next``
    is safe to call from several client threads; after ``stop_at`` it
    returns ``None`` at the next block boundary, so a closed loop always
    ends on a whole block.
    """

    def __init__(
        self,
        table: str,
        base: list[MiningQuery],
        deployed: list[tuple[str, tuple]],
        columns: dict[str, list[float]],
        seed: int | str,
    ) -> None:
        self.table = table
        self.base = base
        self._pairs = [(m, label) for m, labels in deployed for label in labels]
        self._columns = columns
        self._column_names = sorted(columns)
        order = list(range(len(base)))
        random.Random(RANK_SEED).shuffle(order)
        counts = zipf_counts(len(base), BLOCKS * BASE_PER_ADHOC * len(self._pairs))
        #: base-query index repeated by popularity; rank r -> order[r].
        self._base_slots = [order[r] for r, c in enumerate(counts) for _ in range(c)]
        self._rng = random.Random(seed)
        self._lock = threading.Lock()
        self._blocks: list[list[MixItem]] = []
        self._pending: list[MixItem] = []
        self._serial = 0
        #: ``time.perf_counter`` value after which the stream ends.
        self.stop_at = float("inf")

    @property
    def block_size(self) -> int:
        return (BASE_PER_ADHOC + 1) * len(self._pairs)

    def _adhoc(self, pair: int, block: int) -> MixItem:
        model_name, label = self._pairs[pair]
        column = self._column_names[(pair + block) % len(self._column_names)]
        values = self._columns[column]
        self._serial += 1
        # Unique per request (serial) and seeded, yet far below the gap
        # between neighbouring data values.
        jitter = (values[-1] - values[0]) * 1e-9 * (self._serial + self._rng.random())
        level = ADHOC_LEVELS[(pair + block) % len(ADHOC_LEVELS)]
        return MixItem(
            key=("adhoc", self._serial),
            query=MiningQuery(
                self.table,
                relational_predicate=Comparison(
                    column, Op.LE, column_quantile(values, level) + jitter
                ),
                mining_predicates=(PredictionEquals(model_name, label),),
            ),
        )

    def _cycle(self) -> list[list[MixItem]]:
        blocks = []
        for block in range(BLOCKS):
            items = [
                MixItem(("base", i), self.base[i]) for i in self._base_slots[block::BLOCKS]
            ]
            items += [self._adhoc(pair, block) for pair in range(len(self._pairs))]
            self._rng.shuffle(items)
            blocks.append(items)
        self._rng.shuffle(blocks)
        return blocks

    def next(self) -> MixItem | None:
        with self._lock:
            if not self._pending:
                if time.perf_counter() >= self.stop_at:
                    return None
                if not self._blocks:
                    self._blocks = self._cycle()
                self._pending = self._blocks.pop()
            return self._pending.pop()


def pass_order(n_queries: int, seed: int, pass_index: int) -> list[int]:
    """Seeded query order of one ``paper_scan`` pass."""
    order = list(range(n_queries))
    random.Random(f"{seed}/{pass_index}").shuffle(order)
    return order


# ---------------------------------------------------------------------------
# Arrivals
# ---------------------------------------------------------------------------


#: Arrivals are Poisson inside strata this long and exact across them.
ARRIVAL_STRATUM_S = 0.25


def arrival_offsets(rate: float, duration: float, seed: int | str, rung: int) -> list[float]:
    """Arrivals at ``rate`` over ``duration``: Poisson conditioned on the
    count in every ``ARRIVAL_STRATUM_S`` stratum, so each stratum gets its
    share of arrivals at uniform offsets inside it.  Offered load is the
    same for every seed down to the stratum; gaps and bursts inside one
    stay random.
    """
    rng = random.Random(f"{seed}/arrivals/{rung}")
    offsets: list[float] = []
    owed = 0.0
    start = 0.0
    while start < duration:
        span = min(ARRIVAL_STRATUM_S, duration - start)
        owed += rate * span
        count = int(owed + 1e-9)
        owed -= count
        offsets += [start + rng.uniform(0.0, span) for _ in range(count)]
        start += ARRIVAL_STRATUM_S
    return sorted(offsets) or [0.0]


# ---------------------------------------------------------------------------
# Segment catalog
# ---------------------------------------------------------------------------


def atom_pool(columns: dict[str, list[float]], size: int, rng: random.Random) -> list[Predicate]:
    """``size`` threshold and interval atoms cut at the data's quantiles."""
    names = sorted(columns)
    atoms: list[Predicate] = []
    while len(atoms) < size:
        column = rng.choice(names)
        cuts = [column_quantile(columns[column], q) for q in CUT_QUANTILES]
        kind = rng.randrange(3)
        if kind == 0:
            atoms.append(Comparison(column, Op.GE, rng.choice(cuts)))
        elif kind == 1:
            atoms.append(Comparison(column, Op.LT, rng.choice(cuts)))
        else:
            low, high = sorted(rng.sample(cuts, 2))
            if low < high:
                atoms.append(Interval(column, low, high, True, False))
    return atoms


def build_segment_catalog(
    n_segments: int,
    columns: dict[str, list[float]],
    envelopes: list[tuple[str, object]],
    seed: int,
) -> SegmentCatalog:
    """``n_segments`` segments: the model ``envelopes`` first, the rest
    ORs of conjuncts drawn from a seeded shared pool."""
    rng = random.Random(f"{seed}/segments")
    catalog = SegmentCatalog()
    for name, envelope in envelopes:
        catalog.register_envelope(name, envelope)
    pool_rng = random.Random(POOL_SEED)
    atoms = atom_pool(columns, ATOM_POOL, pool_rng)
    conjuncts = [
        And(tuple(pool_rng.sample(atoms, pool_rng.randint(2, 3))))
        for _ in range(CONJUNCT_POOL)
    ]
    # Conjuncts are dealt like cards, reshuffled when the deck runs out, and
    # widths cycle 2, 3, 4: every seed uses every conjunct equally often.
    deck: list[Predicate] = []
    for index in range(n_segments - len(envelopes)):
        chosen: list[Predicate] = []
        while len(chosen) < 2 + index % 3:
            if not deck:
                deck = rng.sample(conjuncts, len(conjuncts))
            card = deck.pop()
            if card not in chosen:
                chosen.append(card)
        catalog.register(f"pool/{index:04d}", Or(tuple(chosen)))
    return catalog


def match_batches(rows: list[dict], total_rows: int, batch_rows: int) -> list[tuple[dict, ...]]:
    """``total_rows`` rows (cycling ``rows``) cut into ``batch_rows`` batches."""
    repeats = -(-total_rows // len(rows))
    stream = (rows * repeats)[:total_rows]
    return [
        tuple(stream[start : start + batch_rows])
        for start in range(0, total_rows, batch_rows)
    ]
