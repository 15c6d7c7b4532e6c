"""Run one workload in this process and turn it into metrics.

Untraced (``trace=False``): set up ``SETUPS`` times, measure for the
whole window, run the oracle, report the end-to-end metrics.  Traced:
the same set-up, then an untraced reference window, then the timing
wrappers go in and the rest of the window is traced; the per-layer
metrics come out of that, and ``trace.overhead_share`` out of the two
windows' medians.
"""

from __future__ import annotations

import gc
import os
import resource
import shutil
import statistics
import tempfile
import time

from benchlib import probes, stats
from benchlib.metrics import END_TO_END, PER_LAYER
from benchlib.spans import Recorder, Summary
from benchlib.workloads import SETUPS, WORKLOADS, Measurement, Workload

#: Library environment knobs scrubbed before a workload runs.
SCRUBBED_ENV = ("REPRO_ENVELOPE_CACHE_DIR", "REPRO_TRACE_DIR", "REPRO_JOBS")
SCRUBBED_PREFIX = "REPRO_SWEEP_CACHE"
SMOKE_SECONDS = 2.0


def scrub_environment() -> None:
    for name in list(os.environ):
        if name in SCRUBBED_ENV or name.startswith(SCRUBBED_PREFIX):
            del os.environ[name]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _ratio(top: float | None, bottom: float | None) -> float | None:
    """``None`` stays ``None``; nothing over nothing is 0."""
    if top is None or bottom is None:
        return None
    return top / bottom if bottom else 0.0


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def end_to_end_metrics(
    workload: Workload, setups: list[dict], measurement: Measurement,
    rss_mb: float, wrong_ops: int,
) -> dict[str, float | None]:
    latencies = measurement.latencies_ms(workload.primary_kind)
    return {
        "setup_s": statistics.median(s["total_s"] for s in setups),
        "deploy_s": statistics.median(s["serve.registry.deploy_s"] for s in setups),
        "throughput_per_s": measurement.throughput() - wrong_ops / measurement.window_s,
        "op_p50_ms": stats.percentile_or_none(latencies, 50),
        "op_p90_ms": stats.percentile_or_none(latencies, 90),
        "peak_rss_mb": rss_mb,
    }


def _engine_times(ops: list) -> dict[str, float]:
    """What the engine reports about its own requests, and what is left of
    the client's latency after it; collapsed requests carry another
    request's times and are left out."""
    own = [op for op in ops if op.ok and not op.collapsed]
    return {
        "serve.engine.queue_wait_ms": stats.mean([op.queue_s for op in own]) * 1e3,
        "serve.engine.execute_ms": stats.mean([op.service_s for op in own]) * 1e3,
        "serve.engine.overhead_ms": stats.mean(
            [op.latency_s - op.queue_s - op.service_s for op in own]
        ) * 1e3,
    }


def layer_times(summary: Summary, n_ops: int) -> dict[str, float | None]:
    """Span self times as milliseconds per operation; ``None`` where a
    span's probe did not resolve."""
    out: dict[str, float | None] = {}
    for metric, names in probes.LAYER_METRICS.items():
        parts = [summary.value(name) for name in names]
        out[metric] = None if None in parts else sum(parts) / n_ops * 1e3
    waited = summary.value("serve.batcher.score", "total_s")
    predicted = summary.value("mining.predict_batch", "total_s")
    # Outside the engine models are scored in place and nobody waits.
    out["serve.batcher.score_wait_ms"] = (
        None if waited is None or predicted is None
        else (waited - predicted) / n_ops * 1e3 if waited else 0.0
    )
    return out


def per_layer_metrics(
    workload: Workload, fixture, setups: list[dict], side: "Measurement | None",
    reference: Measurement, traced: Measurement, summary: Summary,
    oracle_detail: dict,
) -> dict[str, float | None]:
    """Every declared per-layer metric; 0 where a layer does nothing on
    this workload, ``None`` where its probe did not resolve."""
    out: dict[str, float | None] = {metric.name: 0.0 for metric in PER_LAYER}
    ops = traced.ops
    n_ops = len(ops)
    latency_s = sum(op.latency_s for op in ops)

    # set-up stages: medians over the run's set-ups
    for key in setups[0]:
        if key in out:
            out[key] = statistics.median(s[key] for s in setups)
    for family, seconds in fixture.derive_seconds.items():
        out[f"core.derive_s.{family}"] = seconds
    out["core.envelope_disjuncts"] = fixture.envelope_disjuncts
    out["core.envelope_atoms"] = fixture.envelope_atoms

    out.update(layer_times(summary, n_ops))

    # counts and ratios
    lookups = traced.stats["plancache.hits"] + traced.stats["plancache.misses"]
    out["sql.plancache.hit_ratio"] = _ratio(traced.stats["plancache.hits"], lookups)
    out["core.optimize_calls"] = summary.value("core.optimize", "count")
    executed = summary.value("sql.execute", "count")
    fetched = summary.field("sql.execute", "rows_fetched")
    returned = summary.field("sql.execute", "rows_returned")
    out["sql.rows_fetched"] = _ratio(fetched, executed)
    out["sql.rows_fetched_per_returned"] = _ratio(fetched, returned)
    out["sql.index_path_share"] = _ratio(summary.field("sql.execute", "index_plans"), executed)
    scored = summary.field("mining.predict_batch", "rows_scored")
    out["mining.rows_scored"] = _ratio(scored, n_ops)
    out["mining.rows_scored_per_returned"] = _ratio(scored, returned)
    response_bytes = summary.field("serve.protocol.frame_encode", "response_bytes")
    out["serve.protocol.response_bytes"] = _ratio(response_bytes, n_ops)
    out["serve.protocol.bytes_per_row"] = _ratio(
        response_bytes, summary.field("serve.protocol.decode_response", "rows_decoded")
    )
    if traced.pass_seconds:
        warm_pass = statistics.median(traced.pass_seconds + reference.pass_seconds)
        out["sql.plancache.cold_pass_extra_s"] = (
            statistics.median(s["cold_pass_s"] for s in setups) - warm_pass
        )
        out["paper.blackbox_speedup"] = oracle_detail["naive_pass_seconds"] / warm_pass

    if fixture.engine is not None:
        out.update(_engine_times(ops))
        # Collapse and coalescing need concurrent callers: read them off
        # the window that has some.
        busy = side if side is not None else traced
        out["serve.engine.collapsed_share"] = _ratio(
            busy.stats["engine.collapsed"], busy.stats["engine.submitted"]
        )
        out["serve.batcher.coalesced_share"] = _ratio(
            busy.stats["batcher.coalesced"], busy.stats["batcher.requests"]
        )
        out["segments.batcher.coalesced_share"] = _ratio(
            busy.stats.get("matcher.coalesced", 0), busy.stats.get("matcher.requests", 0)
        )
        out["serve.admission.shed"] = busy.stats["engine.shed"]
        out["serve.admission.timeouts"] = busy.stats["engine.timeouts"]
        out["serve.batcher.calls"] = traced.stats["batcher.calls"] / n_ops

    matches = [op for op in ops if op.kind == "match" and op.ok]
    if matches:
        computed = sum(op.masks_computed for op in matches)
        shared = sum(op.masks_shared for op in matches)
        match_seconds = summary.value("segments.match", "total_s")
        out["segments.match_ms"] = _ratio(match_seconds, n_ops / 1e3)
        out["segments.masks_computed"] = computed / len(matches)
        out["segments.share_ratio"] = _ratio(shared, computed + shared)
        out["segments.rows_per_s"] = _ratio(
            summary.field("segments.batcher.match", "rows"), match_seconds
        )

    # the trace's own health
    attributed = sum(entry["attributed_self_s"] for entry in summary.values())
    queued = sum(op.queue_s for op in ops if op.ok and not op.collapsed)
    coverage = (attributed + queued) / latency_s
    out["trace.coverage_share"] = coverage
    kind = workload.primary_kind
    overhead = _ratio(
        stats.percentile_or_none(traced.latencies_ms(kind), 50),
        stats.percentile_or_none(reference.latencies_ms(kind), 50),
    )
    out["trace.overhead_share"] = None if overhead is None else overhead - 1.0
    if fixture.sizing.engine == "wire":
        out["serve.transport.wire_self_ms"] = latency_s / n_ops * (1.0 - coverage) * 1e3
    if side is not None:
        out.update(workload.side_metrics(side, reference))
    return out


# ---------------------------------------------------------------------------
# One run
# ---------------------------------------------------------------------------


def run_workload(
    name: str, seed: int, seconds: float, trace: bool, smoke: bool, scratch: str,
) -> dict:
    """Set up, measure, check; returns the full result document.

    ``scratch`` is a directory inside the checkout for the run's temporary
    envelope caches; everything made there is removed again.
    """
    scrub_environment()
    workload = WORKLOADS[name](smoke=smoke)
    setups: list[dict] = []
    fixture = None
    temp_root = tempfile.mkdtemp(prefix="envelopes-", dir=scratch)
    try:
        for index in range(1 if smoke else SETUPS):
            if fixture is not None:
                fixture.close()
            cache_dir = os.path.join(temp_root, f"setup-{index}")
            os.mkdir(cache_dir)
            started = time.perf_counter()
            fixture = workload.setup(cache_dir, seed)
            setups.append({**fixture.timings, "total_s": time.perf_counter() - started})
        # The discarded set-ups leave garbage behind; collect it off the clock.
        gc.collect()
        if trace:
            return _traced_run(workload, fixture, setups, seed, seconds)
        return _untraced_run(workload, fixture, setups, seed, seconds)
    finally:
        if fixture is not None:
            fixture.close()
        shutil.rmtree(temp_root, ignore_errors=True)


def _document(
    workload, windows, wrong_ops, oracle_detail, metrics, declared, setups,
    traced: bool, warnings: list[str],
) -> dict:
    errors: dict[str, int] = {}
    for window in windows:
        for op in window.ops:
            if not op.ok:
                errors[op.error] = errors.get(op.error, 0) + 1
    attempted = sum(len(w.ops) for w in windows)
    failed = sum(errors.values()) + wrong_ops
    return {
        "workload": workload.name,
        "why": workload.why,
        "traced": traced,
        "correct": wrong_ops == 0,
        "attempted": attempted,
        "failed": failed,
        "failed_share": failed / attempted,
        "errors": errors,
        "metrics": {
            m.name: {"value": metrics[m.name], "unit": m.unit} for m in declared
        },
        "samples": {
            "ops_per_window": [len(w.ops) for w in windows],
            "windows_s": [w.window_s for w in windows],
            "setups": setups,
        },
        "oracle": oracle_detail,
        "constants": workload.constants(),
        "warnings": warnings,
    }


def _untraced_run(workload, fixture, setups, seed, seconds) -> dict:
    measured = workload.measure(fixture, seconds, seed, "measured")
    rss_mb = peak_rss_mb()
    wrong_ops, oracle_detail = workload.oracle(fixture, [measured])
    metrics = end_to_end_metrics(workload, setups, measured, rss_mb, wrong_ops)
    return _document(
        workload, [measured], wrong_ops, oracle_detail, metrics, END_TO_END, setups,
        traced=False, warnings=[],
    )


def _traced_window(run, seconds: float, phase: str) -> tuple[Measurement, Recorder]:
    """``run(seconds, phase, recorder)`` with the timing wrappers installed."""
    recorder = Recorder()
    recorder.install(probes.PROBES)
    try:
        return run(seconds, phase, recorder), recorder
    finally:
        recorder.uninstall()


def _traced_run(workload, fixture, setups, seed, seconds) -> dict:
    side_share, reference_share, traced_share, side_traced_share = workload.trace_plan

    def measure(seconds, phase, recorder=None):
        return workload.measure(fixture, seconds, seed, phase, recorder)

    def side_run(seconds, phase, recorder=None):
        return workload.side_run(fixture, seconds, seed, phase, recorder)

    side = side_run(seconds * side_share, "side") if side_share else None
    reference = measure(seconds * reference_share, "reference")
    traced, recorder = _traced_window(measure, seconds * traced_share, "traced")
    windows = [w for w in (side, reference, traced) if w is not None]
    side_times = None
    if side_traced_share:
        # The same layer times with the side window's callers contending;
        # not declared metrics, kept for the per-layer table in the README.
        side_traced, side_recorder = _traced_window(
            side_run, seconds * side_traced_share, "side-traced"
        )
        windows.append(side_traced)
        side_times = {
            **layer_times(side_recorder.summary(), len(side_traced.ops)),
            **_engine_times(side_traced.ops),
            "throughput_per_s": side_traced.throughput(),
        }
    wrong_ops, oracle_detail = workload.oracle(fixture, windows)
    summary = recorder.summary()
    metrics = per_layer_metrics(
        workload, fixture, setups, side, reference, traced, summary, oracle_detail
    )
    document = _document(
        workload, windows, wrong_ops, oracle_detail, metrics, PER_LAYER, setups,
        traced=True, warnings=recorder.warnings,
    )
    return {**document, "side_layer_times": side_times, "trace": recorder.dump(summary)}
