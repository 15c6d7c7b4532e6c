"""The four workloads: sizes, set-up, measured window, oracle.

Every size, rate and duration share is a constant in this file; nothing
is derived from a probe at run time.  ``bench/README.md`` says how each
was chosen.  A workload object is built once per process, set up
``SETUPS`` times (the last fixture is the one measured) and torn down.
"""

from __future__ import annotations

import hashlib
import json
import random
import time
from dataclasses import asdict, dataclass, field

from repro import PredictionJoinExecutor
from repro.serve import MatchRequest, QueryRequest

from benchlib import fixture as fx_mod
from benchlib import mix, stats
from benchlib.drivers import Item, Op, closed_loop, open_loop
from benchlib.fixture import Fixture, Sizing
from benchlib.spans import Recorder

#: Full set-ups per run; ``setup_s`` is their median.
SETUPS = 3
#: Ad-hoc results kept for the row-digest oracle; the rest are checked
#: by row count.  A fixed cap keeps ``peak_rss_mb`` independent of how
#: many requests a faster build serves.
ADHOC_RETAINED = 48
#: Match batches per run checked against scalar ``evaluate``.
ORACLE_BATCHES = 2

# -- serve_wire -------------------------------------------------------------
#: Offered rates of the open-loop rungs, requests per second: about 35%,
#: 70% and 112% of what one closed-loop caller gets through the wire on
#: the reference box, so the last rung is meant to miss the SLO.
RUNG_RATES = (20.0, 40.0, 64.0)
#: Every ``MATCH_EVERY``-th arrival is a ``MatchRequest`` of ``MATCH_ROWS``.
MATCH_EVERY = 8
WIRE_MATCH_ROWS = 256
#: Long enough that the overloaded rung's backlog (a second or so here)
#: still drains without a time-out on a box half as fast: the benchmark
#: wants late answers there, not failed ones.
REQUEST_TIMEOUT_S = 5.0
#: A rung meets the SLO when at most ``SLO_MISS_SHARE`` of its queries
#: (failures included) take longer than ``SLO_LIMIT_MS``, nothing failed
#: and the backlog drained within ``SLO_DRAIN_S`` of the last arrival.
SLO_LIMIT_MS = 150.0
SLO_MISS_SHARE = 0.10
SLO_DRAIN_S = 0.5

# -- serve_loopback ---------------------------------------------------------
#: Callers of the contended side windows (nproc is 2).
CONTENDED_CLIENTS = 2

# -- segment_match ----------------------------------------------------------
MATCH_BATCH_ROWS = 512


@dataclass
class Measurement:
    """What one measured window produced."""

    ops: list[Op]
    window_s: float
    #: Deltas of the public stats objects over the window.
    stats: dict[str, float] = field(default_factory=dict)
    #: key -> first served rows (or memberships), for the digest oracle.
    retained: dict[tuple, object] = field(default_factory=dict)
    #: key -> (query or rows, size of every response seen for it).
    seen: dict[tuple, tuple[object, set[int]]] = field(default_factory=dict)
    #: serve_wire: per-rung drain seconds; paper_scan: warm pass seconds.
    drains: list[float] = field(default_factory=list)
    pass_seconds: list[float] = field(default_factory=list)

    def of_kind(self, kind: str, rung: int | None = None) -> list[Op]:
        return [
            op for op in self.ops
            if op.kind == kind and (rung is None or op.rung == rung)
        ]

    def latencies_ms(self, kind: str, rung: int | None = None) -> list[float]:
        return [op.latency_s * 1e3 for op in self.of_kind(kind, rung) if op.ok]

    def throughput(self) -> float:
        """Answered operations per second of the window."""
        return sum(1 for op in self.ops if op.ok) / self.window_s


class _Collector:
    """Remembers, on the clock, only what the oracle needs later."""

    def __init__(self) -> None:
        self.retained: dict[tuple, object] = {}
        self.seen: dict[tuple, tuple[object, set[int]]] = {}
        self._adhoc_kept = 0

    def query(self, item: Item, rows, op: Op) -> None:
        self._record(item, op, len(rows), rows, self._keep_query)

    def match(self, item: Item, memberships, op: Op, keep: bool) -> None:
        self._record(item, op, sum(map(len, memberships)), memberships, lambda key: keep)

    def _record(self, item: Item, op: Op, size: int, result, keep) -> None:
        op.size = size
        entry = self.seen.get(item.key)
        if entry is not None:
            entry[1].add(size)
            return
        self.seen[item.key] = (item.payload, {size})
        if keep(item.key):
            self.retained[item.key] = result

    def _keep_query(self, key: tuple) -> bool:
        if key[0] == "base":
            return True
        self._adhoc_kept += 1
        return self._adhoc_kept <= ADHOC_RETAINED

    def measurement(
        self, fixture: Fixture, before: dict[str, float], ops: list[Op],
        window_s: float, **extra,
    ) -> Measurement:
        """Close a window: counter deltas since ``before`` plus what was kept."""
        return Measurement(
            ops, window_s, stats=_delta(before, _engine_counters(fixture)),
            retained=self.retained, seen=self.seen, **extra,
        )


def rows_digest(rows) -> str:
    """Order-free digest of a row set over canonical JSON."""
    lines = sorted(
        json.dumps(row, sort_keys=True, separators=(",", ":")) for row in rows
    )
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def _engine_counters(fixture: Fixture) -> dict[str, float]:
    """Snapshot of every public counter the per-layer metrics read."""
    engine = fixture.engine
    out: dict[str, float] = {}
    cache = fixture.plan_cache if engine is None else engine.plan_cache
    if engine is not None:
        out.update({f"engine.{k}": v for k, v in engine.stats.snapshot().items()})
        for label, batcher in (("batcher", engine.batcher), ("matcher", engine.match_batcher)):
            if batcher is not None:
                out[f"{label}.calls"] = batcher.calls
                out[f"{label}.requests"] = batcher.requests
                out[f"{label}.coalesced"] = batcher.coalesced
    out["plancache.hits"] = cache.stats.hits
    out["plancache.misses"] = cache.stats.misses
    return out


def _delta(before: dict[str, float], after: dict[str, float]) -> dict[str, float]:
    return {key: after[key] - before.get(key, 0) for key in after}


class Workload:
    """Base: subclasses fill in sizing, warm-up, the window and the oracle."""

    name = ""
    why = ""
    #: Kind of the operation the end-to-end latency metrics describe.
    primary_kind = "query"
    #: Shares of ``--seconds`` in a traced run: (untraced side window,
    #: untraced reference, traced, traced side window).
    trace_plan = (0.0, 0.4, 0.6, 0.0)
    full: Sizing
    smoke: Sizing

    def __init__(self, smoke: bool = False) -> None:
        self.sizing = self.smoke if smoke else self.full

    def constants(self) -> dict:
        return {"sizing": asdict(self.sizing)}

    def setup(self, cache_dir: str, seed: int) -> Fixture:
        fixture = fx_mod.build(self.sizing, cache_dir, seed)
        started = time.perf_counter()
        self.warm(fixture)
        fixture.timings["bench.warmup_s"] = time.perf_counter() - started
        return fixture

    def warm(self, fixture: Fixture) -> None:
        raise NotImplementedError

    def measure(
        self, fixture: Fixture, seconds: float, seed: int, phase: str,
        recorder: Recorder | None = None,
    ) -> Measurement:
        raise NotImplementedError

    def side_run(
        self, fixture: Fixture, seconds: float, seed: int, phase: str,
        recorder: Recorder | None = None,
    ) -> "Measurement | None":
        """A second kind of window some per-layer metrics come from."""
        return None

    def side_metrics(self, side: Measurement, reference: Measurement) -> dict:
        """The per-layer metrics read off the untraced side window."""
        return {}

    def oracle(self, fixture: Fixture, measurements: list[Measurement]) -> tuple[int, dict]:
        """Operations whose output was wrong, plus oracle timings."""
        raise NotImplementedError


def _query_oracle(fixture: Fixture, measurements: list[Measurement]) -> tuple[int, dict]:
    """Every distinct query served against ``execute_naive``.

    Retained results are compared by row digest, the others by row count;
    a key is wrong if any of its responses had another size.  Returns
    the number of *operations* that carried a wrong answer.
    """
    naive = PredictionJoinExecutor(fixture.db, fixture.registry.catalog)
    #: base key -> (row count, digest); the windows of a run share them.
    base_expected: dict[tuple, tuple[int, str]] = {}
    wrong_ops = digests = counts = 0
    naive_seconds = 0.0
    wrong: list[str] = []
    for measurement in measurements:
        wrong_keys: set[tuple] = set()
        for key, (query, sizes) in measurement.seen.items():
            if key[0] not in ("base", "adhoc"):
                continue
            served = measurement.retained.get(key)
            expected = base_expected.get(key) if key[0] == "base" else None
            if expected is None:
                started = time.perf_counter()
                rows = naive.execute_naive(query).rows
                naive_seconds += time.perf_counter() - started
                expected = (len(rows), rows_digest(rows) if served is not None else "")
                if key[0] == "base":
                    base_expected[key] = expected
            counts += 1
            if sizes != {expected[0]}:
                wrong_keys.add(key)
            if served is not None:
                digests += 1
                if rows_digest(served) != expected[1]:
                    wrong_keys.add(key)
        wrong_ops += sum(
            1 for op in measurement.ops
            if op.ok and op.kind == "query" and op.key in wrong_keys
        )
        wrong.extend(sorted(map(str, wrong_keys)))
    return wrong_ops, {
        "naive_seconds": naive_seconds, "queries_counted": counts,
        "queries_digested": digests, "wrong_keys": wrong,
    }


def _match_oracle(fixture: Fixture, measurements: list[Measurement]) -> tuple[int, dict]:
    """Retained match responses against per-row scalar ``evaluate``."""
    definitions = fixture.catalog.definitions()
    wrong_ops = checked = 0
    wrong: list[str] = []
    started = time.perf_counter()
    for measurement in measurements:
        wrong_keys: set[tuple] = set()
        for key, (rows, sizes) in measurement.seen.items():
            if key[0] != "match":
                continue
            if len(sizes) != 1:
                wrong_keys.add(key)
            served = measurement.retained.get(key)
            if served is None:
                continue
            checked += 1
            expected = tuple(
                tuple(d.name for d in definitions if d.predicate.evaluate(row))
                for row in rows
            )
            if tuple(map(tuple, served)) != expected:
                wrong_keys.add(key)
        wrong_ops += sum(
            1 for op in measurement.ops
            if op.ok and op.kind == "match" and op.key in wrong_keys
        )
        wrong.extend(sorted(map(str, wrong_keys)))
    return wrong_ops, {
        "oracle_seconds": time.perf_counter() - started,
        "batches_checked": checked, "wrong_keys": wrong,
    }


# ---------------------------------------------------------------------------
# paper_scan
# ---------------------------------------------------------------------------


class PaperScan(Workload):
    name = "paper_scan"
    why = (
        "The paper's section-5 experiment: per-class envelope queries over an "
        "index-tuned table, one executor, no serving stack; sql does most of a pass."
    )
    full = Sizing(
        dataset="shuttle", generated_rows=5_000, train_rows=5_000,
        table_target=8_000, model_features=6, nb_bins=4, cluster_bins=4,
        index_budget=8, engine="none",
    )
    smoke = Sizing(
        dataset="shuttle", generated_rows=1_000, train_rows=1_000,
        table_target=1_000, model_features=4, nb_bins=4, cluster_bins=4,
        index_budget=8, engine="none",
    )

    def queries(self, fixture: Fixture):
        return mix.base_queries(
            fixture.table, fixture.deployed, fx_mod.median_cutoffs(fixture)
        )

    def warm(self, fixture: Fixture) -> None:
        # The cold pass: every plan is optimized and cached here.
        started = time.perf_counter()
        for query in self.queries(fixture):
            fixture.executor.execute(query)
        fixture.timings["cold_pass_s"] = time.perf_counter() - started

    def measure(self, fixture, seconds, seed, phase, recorder=None):
        """Whole passes in seeded order until ``seconds`` have gone by."""
        queries = self.queries(fixture)
        collector = _Collector()
        clock = time.perf_counter
        deadline = clock() + seconds
        order: list[int] = []
        passes = 0

        def next_item() -> Item | None:
            nonlocal passes
            if not order:
                if passes and clock() >= deadline:
                    return None
                order.extend(mix.pass_order(len(queries), f"{seed}/{phase}", passes))
                passes += 1
            index = order.pop()
            return Item("query", ("base", index), queries[index], queries[index])

        before = _engine_counters(fixture)
        ops, window = closed_loop(
            1, float("inf"), next_item, fixture.executor.execute,
            lambda item, report, op: collector.query(item, report.rows, op),
            recorder,
        )
        size = len(queries)
        return collector.measurement(fixture, before, ops, window, pass_seconds=[
            ops[start + size - 1].end - ops[start].start
            for start in range(0, len(ops), size)
        ])

    def oracle(self, fixture, measurements):
        wrong, detail = _query_oracle(fixture, measurements)
        # Every query is a base query here, each executed naively once:
        # together they are one black-box pass.
        detail["naive_pass_seconds"] = detail["naive_seconds"]
        return wrong, detail


# ---------------------------------------------------------------------------
# serve_loopback / serve_wire
# ---------------------------------------------------------------------------


_SERVE_FULL = dict(
    dataset="diabetes", generated_rows=512, train_rows=512, table_target=4_000,
    model_features=6, nb_bins=6, cluster_bins=4,
)
_SERVE_SMOKE = dict(
    dataset="diabetes", generated_rows=256, train_rows=256, table_target=1_000,
    model_features=4, nb_bins=4, cluster_bins=4,
)


class _Serve(Workload):
    """What the two serving workloads share: data, models and the mix."""

    def base(self, fixture: Fixture):
        return mix.base_queries(
            fixture.table, fixture.deployed, fx_mod.median_cutoffs(fixture)
        )

    def warm(self, fixture: Fixture) -> None:
        for query in self.base(fixture):
            fixture.client.request(QueryRequest(query))

    def query_mix(self, fixture: Fixture, seed: int, phase: str) -> mix.QueryMix:
        return mix.QueryMix(
            fixture.table, self.base(fixture), fixture.deployed,
            fixture.columns, f"{seed}/{phase}",
        )

    def oracle(self, fixture, measurements):
        wrong, detail = _query_oracle(fixture, measurements)
        if fixture.catalog is not None:
            wrong_matches, match_detail = _match_oracle(fixture, measurements)
            wrong += wrong_matches
            detail["match"] = match_detail
        return wrong, detail


def _observe_query(collector: _Collector):
    def observe(item: Item, result, op: Op) -> None:
        op.queue_s, op.service_s = result.queue_seconds, result.execute_seconds
        op.collapsed = result.collapsed
        collector.query(item, result.rows, op)

    return observe


def _observe_match(collector: _Collector, item: Item, result, op: Op, keep: bool) -> None:
    op.queue_s, op.service_s = result.queue_seconds, result.match_seconds
    op.collapsed = result.collapsed
    op.masks_computed = result.mask_stats.computed
    op.masks_shared = result.mask_stats.shared
    collector.match(item, result.memberships, op, keep)


class ServeLoopback(_Serve):
    name = "serve_loopback"
    why = (
        "The engine with no wire: admission, queue hand-off, micro-batcher and plan "
        "cache on hits and misses, one waiting caller; two contending callers in "
        "the traced run's side windows."
    )
    #: Both side windows run two callers.
    trace_plan = (0.2, 0.25, 0.3, 0.25)
    full = Sizing(engine="loopback", **_SERVE_FULL)
    smoke = Sizing(engine="loopback", **_SERVE_SMOKE)

    def constants(self):
        return {**super().constants(), "contended_clients": CONTENDED_CLIENTS}

    def measure(self, fixture, seconds, seed, phase, recorder=None, clients=1):
        stream = self.query_mix(fixture, seed, f"{phase}/{clients}")
        stream.stop_at = time.perf_counter() + seconds
        collector = _Collector()

        def next_item() -> Item | None:
            entry = stream.next()
            if entry is None:
                return None
            return Item("query", entry.key, QueryRequest(entry.query), entry.query)

        before = _engine_counters(fixture)
        ops, window = closed_loop(
            clients, float("inf"), next_item, fixture.client.request,
            _observe_query(collector), recorder,
        )
        return collector.measurement(fixture, before, ops, window)

    def side_run(self, fixture, seconds, seed, phase, recorder=None):
        """Two callers at once: collapse, coalescing and lock contention."""
        return self.measure(
            fixture, seconds, seed, phase, recorder, clients=CONTENDED_CLIENTS
        )

    def side_metrics(self, side, reference):
        latencies = side.latencies_ms("query")
        return {
            "serve.engine.concurrency_ratio": side.throughput() / reference.throughput(),
            "contended.throughput_per_s": side.throughput(),
            "contended.op_p50_ms": stats.percentile_or_none(latencies, 50),
            "contended.op_p90_ms": stats.percentile_or_none(latencies, 90),
        }


class ServeWire(_Serve):
    name = "serve_wire"
    why = (
        "Client call to decoded rows over a socketpair: row-heavy responses out, match "
        "batches in, so a codec change that helps one direction and costs the other "
        "shows; open-loop rung ladder in the traced run."
    )
    #: The side window is the open-loop rung ladder, which needs the time.
    trace_plan = (0.5, 0.2, 0.3, 0.0)
    full = Sizing(engine="wire", segments=200, **_SERVE_FULL)
    smoke = Sizing(engine="wire", segments=40, **_SERVE_SMOKE)

    def constants(self):
        return {
            **super().constants(), "rung_rates_rps": RUNG_RATES,
            "match_every": MATCH_EVERY, "match_rows": WIRE_MATCH_ROWS,
            "request_timeout_s": REQUEST_TIMEOUT_S, "slo_limit_ms": SLO_LIMIT_MS,
            "slo_miss_share": SLO_MISS_SHARE, "slo_drain_s": SLO_DRAIN_S,
        }

    def setup(self, cache_dir, seed):
        self._frames = 0
        return super().setup(cache_dir, seed)

    def _next_frame_id(self) -> int:
        """The wire id of the next request, which names it in the trace.

        One connection numbers its frames 1, 2, ... and the benchmark is
        its only user, so counting submissions (warm-up included) gives
        the id the transport is about to assign.
        """
        self._frames += 1
        return self._frames

    def warm(self, fixture: Fixture) -> None:
        warm_up = [QueryRequest(query) for query in self.base(fixture)]
        warm_up.append(MatchRequest(tuple(fixture.rows[:WIRE_MATCH_ROWS])))
        for request in warm_up:
            self._next_frame_id()
            fixture.client.request(request)

    def _items(self, fixture, seed, phase, collector):
        """The request stream (every ``MATCH_EVERY``-th a match batch) and
        the observer that files its responses with ``collector``."""
        stream = self.query_mix(fixture, seed, phase)
        rng = random.Random(f"{seed}/{phase}/match")
        kept: set[tuple] = set()
        sent = 0

        def next_item() -> Item | None:
            nonlocal sent
            sent += 1
            if sent % MATCH_EVERY == 0:
                start = rng.randrange(len(fixture.rows) - WIRE_MATCH_ROWS)
                rows = tuple(fixture.rows[start : start + WIRE_MATCH_ROWS])
                key = ("match", sent)
                if len(kept) < ORACLE_BATCHES:
                    kept.add(key)
                return Item("match", key, MatchRequest(rows, timeout=REQUEST_TIMEOUT_S), rows)
            entry = stream.next()
            if entry is None:
                return None
            return Item(
                "query", entry.key,
                QueryRequest(entry.query, timeout=REQUEST_TIMEOUT_S), entry.query,
            )

        def observe(item: Item, result, op: Op) -> None:
            if item.kind == "match":
                _observe_match(collector, item, result, op, keep=item.key in kept)
            else:
                _observe_query(collector)(item, result, op)

        return stream, next_item, observe

    def measure(self, fixture, seconds, seed, phase, recorder=None):
        """One caller, closed loop: the wire path with nothing queued."""
        collector = _Collector()
        stream, next_item, observe = self._items(fixture, seed, phase, collector)
        stream.stop_at = time.perf_counter() + seconds
        before = _engine_counters(fixture)
        ops, window = closed_loop(
            1, float("inf"), next_item, fixture.client.request, observe, recorder,
            next_rid=self._next_frame_id,
        )
        return collector.measurement(fixture, before, ops, window)

    def side_run(self, fixture, seconds, seed, phase, recorder=None):
        """The open-loop rung ladder: equal time at each offered rate."""
        collector = _Collector()
        _, next_item, observe = self._items(fixture, seed, phase, collector)
        before = _engine_counters(fixture)
        ops: list[Op] = []
        drains: list[float] = []
        started = time.perf_counter()
        for rung, rate in enumerate(RUNG_RATES):
            offsets = mix.arrival_offsets(
                rate, seconds / len(RUNG_RATES), f"{seed}/{phase}", rung
            )
            rung_ops, drain = open_loop(
                fixture.client.submit, [(offset, next_item()) for offset in offsets],
                REQUEST_TIMEOUT_S, observe, rung, recorder,
                next_rid=self._next_frame_id,
            )
            ops.extend(rung_ops)
            drains.append(drain)
        return collector.measurement(
            fixture, before, ops, time.perf_counter() - started, drains=drains
        )


    def side_metrics(self, ladder, reference):
        """Per-rung diagnostics and the highest rung that meets the SLO."""
        out: dict[str, float | None] = {}
        slo_rate = 0.0
        last = len(RUNG_RATES) - 1
        for rung, rate in enumerate(RUNG_RATES):
            queries = ladder.of_kind("query", rung)
            over = sum(
                1 for op in queries if not op.ok or op.latency_s * 1e3 > SLO_LIMIT_MS
            )
            failed = sum(1 for op in ladder.ops if op.rung == rung and not op.ok)
            if (
                over <= SLO_MISS_SHARE * len(queries)
                and not failed
                and ladder.drains[rung] <= SLO_DRAIN_S
            ):
                slo_rate = rate
            label = {0: "rung_low", last: "rung_high"}.get(rung)
            if label:
                out[f"{label}.query_p50_ms"] = stats.percentile_or_none(
                    ladder.latencies_ms("query", rung), 50
                )
                out[f"{label}.over_limit_share"] = over / len(queries)
        high = [op for op in ladder.ops if op.rung == last]
        first_due = min(op.start for op in high)
        out["rung_high.goodput_rps"] = sum(1 for op in high if op.ok) / (
            max(op.end for op in high) - first_due
        )
        out["bench.load.offered_rps"] = len(high) / (max(op.start for op in high) - first_due)
        out["slo_rate_rps"] = slo_rate
        lags = sorted(op.lag_s * 1e3 for op in ladder.ops)
        out["bench.load.issue_lag_p50_ms"] = lags[len(lags) // 2]
        out["bench.load.issue_lag_max_ms"] = lags[-1]
        out["bench.load.drain_s"] = max(ladder.drains)
        out["wire.match_p50_ms"] = stats.percentile_or_none(ladder.latencies_ms("match"), 50)
        return out


class SegmentMatch(Workload):
    name = "segment_match"
    why = (
        "A thousand shared predicates per batch: ir.batch and segments do nearly "
        "all the work; sql, mining and the codec do nothing."
    )
    primary_kind = "match"
    full = Sizing(
        dataset="diabetes", generated_rows=16_384, train_rows=512,
        table_target=16_384, model_features=5, nb_bins=6, cluster_bins=4,
        families=("tree", "nb"), segments=1_000, engine="loopback",
    )
    smoke = Sizing(
        dataset="diabetes", generated_rows=2_048, train_rows=256,
        table_target=2_048, model_features=4, nb_bins=4, cluster_bins=4,
        families=("tree", "nb"), segments=100, engine="loopback",
    )

    def constants(self):
        return {**super().constants(), "match_batch_rows": MATCH_BATCH_ROWS}

    def batches(self, fixture: Fixture):
        return mix.match_batches(
            fixture.rows, self.sizing.generated_rows, MATCH_BATCH_ROWS
        )

    def warm(self, fixture: Fixture) -> None:
        for rows in self.batches(fixture)[:2]:
            fixture.client.request(MatchRequest(rows))

    def measure(self, fixture, seconds, seed, phase, recorder=None):
        batches = self.batches(fixture)
        requests = [MatchRequest(rows) for rows in batches]
        rng = random.Random(f"{seed}/{phase}")
        checked = set(rng.sample(range(len(batches)), min(ORACLE_BATCHES, len(batches))))
        collector = _Collector()
        order: list[int] = []

        def next_item() -> Item:
            if not order:
                order.extend(rng.sample(range(len(batches)), len(batches)))
            index = order.pop()
            return Item("match", ("match", index), requests[index], batches[index])

        def observe(item: Item, result, op: Op) -> None:
            _observe_match(collector, item, result, op, keep=item.key[1] in checked)

        before = _engine_counters(fixture)
        ops, window = closed_loop(
            1, seconds, next_item, fixture.client.request, observe, recorder
        )
        return collector.measurement(fixture, before, ops, window)

    def oracle(self, fixture, measurements):
        return _match_oracle(fixture, measurements)


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (PaperScan, ServeLoopback, ServeWire, SegmentMatch)
}
