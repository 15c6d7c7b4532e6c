"""Every metric the benchmark emits: name, unit, direction, and why.

``BENCHMARK.json`` declares the same names (``bench/test_bench.py``
checks both directions).  The manifest format has no room for a
per-layer metric's layer or for the end-to-end metric it should move,
so they live here and in ``bench/README.md``; the layer is also the
prefix of the name.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class EndToEnd:
    name: str
    unit: str
    better: str
    #: Share of the parent's median by which it may get worse.
    bound: float
    what: str


@dataclass(frozen=True)
class PerLayer:
    name: str
    unit: str
    better: str
    #: The end-to-end metric it should move, and on which workloads.
    moves: str


END_TO_END: tuple[EndToEnd, ...] = (
    EndToEnd("setup_s", "s", "lower", 0.25,
             "generate, train, load, deploy, tune, start, warm; median of the "
             "run's set-ups; the oracle is excluded"),
    EndToEnd("deploy_s", "s", "lower", 0.15,
             "register and deploy every model, cold, envelope cache in an "
             "empty directory; median of the run's set-ups"),
    EndToEnd("throughput_per_s", "1/s", "higher", 0.16,
             "correct operations per second over the measured window"),
    EndToEnd("op_p50_ms", "ms", "lower", 0.18,
             "median latency of the workload's operation: a query, or on "
             "segment_match a 512-row match batch"),
    EndToEnd("op_p90_ms", "ms", "lower", 0.15, "90th percentile of the same"),
    EndToEnd("peak_rss_mb", "MB", "lower", 0.10,
             "peak resident set at the end of the measured window"),
)

_SETUP = "setup_s, all workloads"
_DEPLOY = "deploy_s and setup_s; largest on paper_scan"
_PLAN = ("op_p50_ms on serve_loopback and serve_wire (ad-hoc share); "
         "nothing on warm paper_scan passes")
_SQL = ("throughput_per_s and op_p50_ms on paper_scan; smaller on the serve "
        "workloads; none on segment_match")
_IR = ("op_p50_ms and throughput_per_s on segment_match; op_p90_ms on "
       "paper_scan (stripped envelopes used as prefilter)")
_MINING = "throughput_per_s on paper_scan and serve_loopback; none on segment_match"
_ENGINE = "throughput_per_s and op_p90_ms on serve_loopback; op_p90_ms on serve_wire"
_CONTENDED = ("serve_loopback with two callers at once: what lock and GIL contention, "
              "collapse and coalescing do; too noisy on two cores to carry a bound")
_ADMIT = "failed operations and slo_rate_rps on serve_wire"
_BATCH = ("op_p50_ms on serve_loopback; on segment_match expected to stay "
          "near 0 with one client")
_WIRE = "op_p50_ms and slo_rate_rps on serve_wire; no change on the other three"
_SEG = "throughput_per_s and op_p50_ms on segment_match; wire.match_p50_ms on serve_wire"
_RUNG = "diagnostic for slo_rate_rps and for generator health; serve_wire only"

PER_LAYER: tuple[PerLayer, ...] = (
    PerLayer("data.generate_s", "s", "lower", _SETUP),
    PerLayer("mining.train_s", "s", "lower", _SETUP),
    PerLayer("sql.load_table_s", "s", "lower", _SETUP),
    PerLayer("sql.tune_indexes_s", "s", "lower", _SETUP),
    PerLayer("segments.catalog_build_s", "s", "lower", _SETUP),
    PerLayer("serve.engine.start_s", "s", "lower", _SETUP),
    PerLayer("bench.warmup_s", "s", "lower", _SETUP),
    PerLayer("serve.registry.deploy_s", "s", "lower", _DEPLOY),
    PerLayer("core.derive_s.tree", "s", "lower", _DEPLOY),
    PerLayer("core.derive_s.nb", "s", "lower", _DEPLOY),
    PerLayer("core.derive_s.cluster", "s", "lower", _DEPLOY),
    PerLayer("core.envelope_disjuncts", "count", "lower", _DEPLOY),
    PerLayer("core.envelope_atoms", "count", "lower", _DEPLOY),
    PerLayer("sql.plancache.lookup_ms", "ms", "lower", _PLAN),
    PerLayer("sql.plancache.hit_ratio", "ratio", "higher", _PLAN),
    PerLayer("core.optimize_ms", "ms", "lower", _PLAN),
    PerLayer("core.optimize_calls", "count", "lower", _PLAN),
    PerLayer("sql.plancache.cold_pass_extra_s", "s", "lower", _PLAN),
    PerLayer("sql.plan_capture_ms", "ms", "lower", _SQL),
    PerLayer("sql.fetch_ms", "ms", "lower", _SQL),
    PerLayer("sql.execute_self_ms", "ms", "lower", _SQL),
    PerLayer("sql.rows_fetched", "count", "lower", _SQL),
    PerLayer("sql.rows_fetched_per_returned", "ratio", "lower", _SQL),
    PerLayer("sql.index_path_share", "ratio", "higher", _SQL),
    PerLayer("ir.columnbatch_build_ms", "ms", "lower", _IR),
    PerLayer("ir.mask_eval_ms", "ms", "lower", _IR),
    PerLayer("mining.predict_batch_ms", "ms", "lower", _MINING),
    PerLayer("mining.rows_scored", "count", "lower", _MINING),
    PerLayer("mining.rows_scored_per_returned", "ratio", "lower", _MINING),
    PerLayer("serve.engine.submit_ms", "ms", "lower", _ENGINE),
    PerLayer("serve.engine.queue_wait_ms", "ms", "lower", _ENGINE),
    PerLayer("serve.engine.execute_ms", "ms", "lower", _ENGINE),
    PerLayer("serve.engine.overhead_ms", "ms", "lower", _ENGINE),
    PerLayer("serve.engine.collapsed_share", "ratio", "higher", _ENGINE),
    PerLayer("serve.engine.concurrency_ratio", "ratio", "higher", _ENGINE),
    PerLayer("contended.throughput_per_s", "1/s", "higher", _CONTENDED),
    PerLayer("contended.op_p50_ms", "ms", "lower", _CONTENDED),
    PerLayer("contended.op_p90_ms", "ms", "lower", _CONTENDED),
    PerLayer("serve.admission.shed", "count", "lower", _ADMIT),
    PerLayer("serve.admission.timeouts", "count", "lower", _ADMIT),
    PerLayer("serve.batcher.calls", "count", "lower", _BATCH),
    PerLayer("serve.batcher.coalesced_share", "ratio", "higher", _BATCH),
    PerLayer("serve.batcher.score_wait_ms", "ms", "lower", _BATCH),
    PerLayer("segments.batcher.coalesced_share", "ratio", "higher", _BATCH),
    PerLayer("serve.protocol.encode_request_ms", "ms", "lower", _WIRE),
    PerLayer("serve.protocol.decode_request_ms", "ms", "lower", _WIRE),
    PerLayer("serve.protocol.encode_response_ms", "ms", "lower", _WIRE),
    PerLayer("serve.protocol.decode_response_ms", "ms", "lower", _WIRE),
    PerLayer("serve.protocol.frame_encode_ms", "ms", "lower", _WIRE),
    PerLayer("serve.protocol.frame_decode_ms", "ms", "lower", _WIRE),
    PerLayer("serve.protocol.response_bytes", "bytes", "lower", _WIRE),
    PerLayer("serve.protocol.bytes_per_row", "bytes", "lower", _WIRE),
    PerLayer("serve.transport.send_ms", "ms", "lower", _WIRE),
    PerLayer("serve.transport.dispatch_ms", "ms", "lower", _WIRE),
    PerLayer("serve.transport.wire_self_ms", "ms", "lower", _WIRE),
    PerLayer("segments.match_ms", "ms", "lower", _SEG),
    PerLayer("segments.memberships_ms", "ms", "lower", _SEG),
    PerLayer("segments.masks_computed", "count", "lower", _SEG),
    PerLayer("segments.share_ratio", "ratio", "higher", _SEG),
    PerLayer("segments.rows_per_s", "1/s", "higher", _SEG),
    PerLayer("slo_rate_rps", "rps", "higher",
             "the headline of serve_wire: highest rung that meets the SLO"),
    PerLayer("wire.match_p50_ms", "ms", "lower",
             "match latency beside the queries on serve_wire"),
    PerLayer("rung_low.query_p50_ms", "ms", "lower", _RUNG),
    PerLayer("rung_low.over_limit_share", "ratio", "lower", _RUNG),
    PerLayer("rung_high.query_p50_ms", "ms", "lower", _RUNG),
    PerLayer("rung_high.over_limit_share", "ratio", "lower", _RUNG),
    PerLayer("rung_high.goodput_rps", "rps", "higher", _RUNG),
    PerLayer("bench.load.issue_lag_p50_ms", "ms", "lower", _RUNG),
    PerLayer("bench.load.issue_lag_max_ms", "ms", "lower", _RUNG),
    PerLayer("bench.load.offered_rps", "rps", "higher", _RUNG),
    PerLayer("bench.load.drain_s", "s", "lower", _RUNG),
    PerLayer("paper.blackbox_speedup", "ratio", "higher",
             "diagnostic only: a faster predict_batch lowers it while every "
             "end-to-end metric improves"),
    PerLayer("trace.coverage_share", "ratio", "higher",
             "health of the trace: attributed self time over client latency"),
    PerLayer("trace.overhead_share", "ratio", "lower",
             "health of the trace: traced op_p50_ms over untraced, minus 1"),
)

E2E_BY_NAME = {metric.name: metric for metric in END_TO_END}
LAYER_BY_NAME = {metric.name: metric for metric in PER_LAYER}


def manifest_entries() -> dict:
    """The ``end_to_end`` and ``per_layer`` lists as ``BENCHMARK.json`` holds them."""
    return {
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
        ],
    }
