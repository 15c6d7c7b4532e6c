"""Trace-directory summarization (the ``trace-report`` CLI).

Reads every ``*.jsonl`` file of a trace directory in sorted-filename order
(deterministic, like the sweep cache's shard merge) and aggregates:

* **spans** — per-name count, total/mean/max seconds, ranked by total time,
* **counters** — summed per name, with hit rates derived from every
  ``<name>.hit`` / ``<name>.miss`` pair (plan cache, prediction memos,
  the IR intern table),
* **simplification passes** — per-pass rewrite statistics from the
  ``ir.pass.<pass>.*`` counters the pass pipeline emits (runs, rewrites,
  atoms in/out, aborts),
* **gauges** — last value per name,
* **estimator accuracy** — absolute-error quantiles over the
  ``estimator_accuracy`` records the executor emits (estimated vs. actual
  selectivity of the pushed predicate),
* **calibration** — the feedback loop's health: observations fed into the
  :mod:`repro.sql.calibration` store, overlay hits/misses,
  divergence-triggered plan recalibrations, and before/after
  absolute-error quantiles (static estimate vs. the calibrated estimate
  acted on) from records that carry ``static_estimated``,
* **malformed lines** — counted, and fatal under ``strict``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from repro.exceptions import ReproError
from repro.obs.trace import TRACE_SUFFIX


class TraceError(ReproError):
    """A trace directory is missing, empty, or (under strict) malformed."""


@dataclass
class SpanSummary:
    """Aggregate over all spans sharing one name."""

    name: str
    count: int = 0
    total_seconds: float = 0.0
    max_seconds: float = 0.0

    @property
    def mean_seconds(self) -> float:
        return self.total_seconds / self.count if self.count else 0.0


@dataclass
class TraceSummary:
    """Everything ``trace-report`` prints, as plain data."""

    files: int
    lines: int
    malformed: list[str]
    spans: dict[str, SpanSummary]
    counters: dict[str, float]
    gauges: dict[str, float]
    events: dict[str, int]
    estimator_records: int = 0
    estimator_error_quantiles: dict[str, float] = field(default_factory=dict)
    #: Absolute errors of the *static* estimate, from records that carry
    #: ``static_estimated`` (i.e. executions with calibration wired) —
    #: paired with :attr:`calibrated_errors` for before/after quantiles.
    static_errors: list[float] = field(default_factory=list)
    #: Absolute errors of the estimate *acted on* for the same records.
    calibrated_errors: list[float] = field(default_factory=list)

    def top_spans(self, limit: int = 10) -> list[SpanSummary]:
        ranked = sorted(
            self.spans.values(),
            key=lambda s: (-s.total_seconds, s.name),
        )
        return ranked[:limit]

    def hit_rates(self) -> dict[str, float]:
        """Hit rate per ``<name>.hit``/``<name>.miss`` counter pair."""
        rates: dict[str, float] = {}
        for name, hits in sorted(self.counters.items()):
            if not name.endswith(".hit"):
                continue
            base = name[: -len(".hit")]
            misses = self.counters.get(base + ".miss", 0.0)
            total = hits + misses
            if total > 0:
                rates[base] = hits / total
        return rates

    def serving(self) -> dict[str, float]:
        """Serving-layer statistics from the ``serve.*`` telemetry.

        Empty when no serving ran.  Request counters come from
        ``serve.request.*``, batching from ``serve.batch.*``; the
        coalescing factor is scoring requests per underlying
        ``predict_batch`` call (1.0 = no cross-request sharing).
        """
        stats: dict[str, float] = {}
        request_fields = (
            "submitted",
            "completed",
            "collapsed",
            "shed",
            "timeout",
            "error",
            "cancelled",
        )
        for metric in request_fields:
            value = self.counters.get(f"serve.request.{metric}")
            if value is not None:
                stats[metric] = value
        for metric in ("requests", "calls", "rows", "coalesced"):
            value = self.counters.get(f"serve.batch.{metric}")
            if value is not None:
                stats[f"batch_{metric}"] = value
        calls = stats.get("batch_calls", 0.0)
        if calls:
            stats["coalescing_factor"] = stats["batch_requests"] / calls
        return stats

    def segments(self) -> dict[str, float]:
        """Segment-matching statistics from the ``segments.*`` telemetry.

        Empty when no segment matching ran.  Mask traffic comes from
        ``segments.mask.computed`` / ``segments.mask.shared`` (the share
        rate is the fraction of node evaluations answered from the
        per-batch cache); request coalescing from ``segments.batch.*``.
        """
        stats: dict[str, float] = {}
        for metric in ("computed", "shared"):
            value = self.counters.get(f"segments.mask.{metric}")
            if value is not None:
                stats[f"masks_{metric}"] = value
        skipped = self.counters.get("segments.constant.skipped")
        if skipped is not None:
            stats["constants_skipped"] = skipped
        total = stats.get("masks_computed", 0.0) + stats.get(
            "masks_shared", 0.0
        )
        if total:
            stats["share_rate"] = stats.get("masks_shared", 0.0) / total
        for metric in ("requests", "calls", "rows", "coalesced"):
            value = self.counters.get(f"segments.batch.{metric}")
            if value is not None:
                stats[f"batch_{metric}"] = value
        calls = stats.get("batch_calls", 0.0)
        if calls:
            stats["coalescing_factor"] = stats["batch_requests"] / calls
        return stats

    def transport(self) -> dict[str, float]:
        """Transport-layer statistics from the ``serve.transport.*`` /
        ``serve.router.*`` telemetry.

        Empty when no byte transport ran.  Frame and byte counters are
        summed across every shard (each router worker process writes its
        own ``trace_serve_worker_<i>.jsonl``, merged deterministically
        in sorted filename order), request counters are reported
        per-transport under ``requests_<name>``, and ``respawns`` counts
        router workers replaced after a crash.
        """
        stats: dict[str, float] = {}
        for metric in ("frames.in", "frames.out", "bytes.in", "bytes.out"):
            value = self.counters.get(f"serve.transport.{metric}")
            if value is not None:
                stats[metric.replace(".", "_")] = value
        prefix = "serve.transport.requests."
        for name in sorted(self.counters):
            if name.startswith(prefix):
                transport_name = name[len(prefix):]
                stats[f"requests_{transport_name}"] = self.counters[name]
        respawns = self.counters.get("serve.router.respawn")
        if respawns is not None:
            stats["respawns"] = respawns
        return stats

    def load(self) -> dict[str, float]:
        """Open-loop load-harness statistics from ``load.*`` telemetry.

        Empty when no load run happened.  Outcome counters come from
        ``load.request.<outcome>`` (one bucket per scheduled request);
        the rate/latency numbers are the ``load.*`` gauges the SLO
        summarizer publishes for its most recent run.
        """
        stats: dict[str, float] = {}
        for metric in (
            "issued",
            "ok",
            "late",
            "shed",
            "queued_timeout",
            "error",
        ):
            value = self.counters.get(f"load.request.{metric}")
            if value is not None:
                stats[metric] = value
        for gauge in (
            "offered_rate",
            "goodput",
            "miss_rate",
            "shed_rate",
        ):
            value = self.gauges.get(f"load.{gauge}")
            if value is not None:
                stats[gauge] = value
        for family in ("latency", "jitter"):
            for quantile in ("p50", "p95", "p99"):
                value = self.gauges.get(f"load.{family}.{quantile}")
                if value is not None:
                    stats[f"{family}_{quantile}"] = value
        return stats

    def disjunction(self) -> dict[str, float]:
        """Disjunction-execution statistics from ``ir.batch.*`` telemetry.

        Empty when no batch evaluation ran.  Mask traffic comes from
        ``ir.batch.mask.computed`` / ``ir.batch.mask.shared`` (the share
        rate is the fraction of node evaluations answered from the
        per-batch interned-node cache), operand planning from
        ``ir.batch.plan.hit`` / ``ir.batch.plan.miss``.
        """
        stats: dict[str, float] = {}
        for metric in ("computed", "shared"):
            value = self.counters.get(f"ir.batch.mask.{metric}")
            if value is not None:
                stats[f"masks_{metric}"] = value
        total = stats.get("masks_computed", 0.0) + stats.get(
            "masks_shared", 0.0
        )
        if total:
            stats["share_rate"] = stats.get("masks_shared", 0.0) / total
        for metric in ("hit", "miss"):
            value = self.counters.get(f"ir.batch.plan.{metric}")
            if value is not None:
                stats[f"plan_{metric}"] = value
        plans = stats.get("plan_hit", 0.0) + stats.get("plan_miss", 0.0)
        if plans:
            stats["plan_hit_rate"] = stats.get("plan_hit", 0.0) / plans
        return stats

    def calibration(self) -> dict[str, float]:
        """Feedback-loop statistics from the calibration telemetry.

        Empty when calibration never ran.  ``observations`` counts
        measured selectivities fed into the store, ``overlay_hits`` /
        ``overlay_misses`` how often a calibrated lookup found a usable
        entry, ``recalibrations`` cached plans dropped for estimate
        divergence.  When records carry ``static_estimated``, the
        before/after quantiles compare the static estimate's absolute
        error against the calibrated estimate actually acted on.
        """
        stats: dict[str, float] = {}
        pairs = (
            ("observations", "calibration.observation"),
            ("overlay_hits", "calibration.overlay.hit"),
            ("overlay_misses", "calibration.overlay.miss"),
            ("evictions", "calibration.evict"),
            ("recalibrations", "plan_cache.recalibration"),
        )
        for key, counter in pairs:
            value = self.counters.get(counter)
            if value is not None:
                stats[key] = value
        lookups = stats.get("overlay_hits", 0.0) + stats.get(
            "overlay_misses", 0.0
        )
        if lookups:
            stats["overlay_hit_rate"] = (
                stats.get("overlay_hits", 0.0) / lookups
            )
        if self.static_errors:
            before = sorted(self.static_errors)
            after = sorted(self.calibrated_errors)
            stats["paired_records"] = float(len(before))
            stats["static_p50"] = _quantile(before, 0.50)
            stats["static_p90"] = _quantile(before, 0.90)
            stats["calibrated_p50"] = _quantile(after, 0.50)
            stats["calibrated_p90"] = _quantile(after, 0.90)
        return stats

    def pass_rewrites(self) -> dict[str, dict[str, float]]:
        """Per-pass rewrite statistics from the ``ir.pass.*`` counters.

        Keyed by pass name; each row holds the summed ``runs``,
        ``rewrites``, ``atoms_before``, ``atoms_after``, and ``aborted``
        counters the pipeline emits (missing counters default to 0).
        """
        prefix = "ir.pass."
        fields = ("runs", "rewrites", "atoms_before", "atoms_after", "aborted")
        passes: dict[str, dict[str, float]] = {}
        for name, value in self.counters.items():
            if not name.startswith(prefix):
                continue
            base, _, metric = name[len(prefix):].rpartition(".")
            if not base or metric not in fields:
                continue
            row = passes.setdefault(base, {f: 0.0 for f in fields})
            row[metric] += value
        return dict(sorted(passes.items()))


def trace_files(directory: str | Path) -> list[Path]:
    """Trace files of a directory, in deterministic (sorted) order."""
    root = Path(directory)
    if not root.is_dir():
        raise TraceError(f"trace directory {root} does not exist")
    return sorted(root.glob(f"*{TRACE_SUFFIX}"))


def _quantile(ordered: list[float], q: float) -> float:
    """Linear-interpolation quantile of an already-sorted list."""
    if not ordered:
        return 0.0
    if len(ordered) == 1:
        return ordered[0]
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    weight = position - low
    return ordered[low] * (1.0 - weight) + ordered[high] * weight


def summarize(directory: str | Path, strict: bool = False) -> TraceSummary:
    """Aggregate a trace directory; ``strict`` raises on malformed lines."""
    files = trace_files(directory)
    if not files:
        raise TraceError(f"no {TRACE_SUFFIX} trace files in {directory}")
    lines = 0
    malformed: list[str] = []
    spans: dict[str, SpanSummary] = {}
    counters: dict[str, float] = {}
    gauges: dict[str, float] = {}
    events: dict[str, int] = {}
    errors: list[float] = []
    static_errors: list[float] = []
    calibrated_errors: list[float] = []
    for path in files:
        with path.open(encoding="utf-8") as stream:
            for line_number, line in enumerate(stream, start=1):
                line = line.strip()
                if not line:
                    continue
                lines += 1
                where = f"{path.name}:{line_number}"
                try:
                    payload = json.loads(line)
                except ValueError:
                    malformed.append(f"{where}: not valid JSON")
                    continue
                problem = _ingest(
                    payload,
                    spans,
                    counters,
                    gauges,
                    events,
                    errors,
                    static_errors,
                    calibrated_errors,
                )
                if problem is not None:
                    malformed.append(f"{where}: {problem}")
    if strict and malformed:
        shown = "; ".join(malformed[:5])
        raise TraceError(
            f"{len(malformed)} malformed trace line(s), e.g. {shown}"
        )
    ordered_errors = sorted(errors)
    quantiles = {}
    if ordered_errors:
        quantiles = {
            "p50": _quantile(ordered_errors, 0.50),
            "p90": _quantile(ordered_errors, 0.90),
            "max": ordered_errors[-1],
        }
    return TraceSummary(
        files=len(files),
        lines=lines,
        malformed=malformed,
        spans=spans,
        counters=counters,
        gauges=gauges,
        events=events,
        estimator_records=len(errors),
        estimator_error_quantiles=quantiles,
        static_errors=static_errors,
        calibrated_errors=calibrated_errors,
    )


def _ingest(
    payload: object,
    spans: dict[str, SpanSummary],
    counters: dict[str, float],
    gauges: dict[str, float],
    events: dict[str, int],
    errors: list[float],
    static_errors: list[float],
    calibrated_errors: list[float],
) -> str | None:
    """Fold one parsed line into the aggregates; describe any defect."""
    if not isinstance(payload, dict):
        return "line is not a JSON object"
    kind = payload.get("type")
    if not isinstance(kind, str):
        return "missing 'type' field"
    if kind == "span":
        name = payload.get("name")
        seconds = payload.get("seconds")
        if not isinstance(name, str) or not isinstance(
            seconds, (int, float)
        ):
            return "span needs string 'name' and numeric 'seconds'"
        summary = spans.get(name)
        if summary is None:
            summary = spans[name] = SpanSummary(name)
        summary.count += 1
        summary.total_seconds += float(seconds)
        summary.max_seconds = max(summary.max_seconds, float(seconds))
        return None
    if kind == "counter":
        name = payload.get("name")
        value = payload.get("value")
        if not isinstance(name, str) or not isinstance(value, (int, float)):
            return "counter needs string 'name' and numeric 'value'"
        counters[name] = counters.get(name, 0.0) + float(value)
        return None
    if kind == "gauge":
        name = payload.get("name")
        value = payload.get("value")
        if not isinstance(name, str) or not isinstance(value, (int, float)):
            return "gauge needs string 'name' and numeric 'value'"
        gauges[name] = float(value)
        return None
    if kind == "event":
        name = payload.get("name")
        if not isinstance(name, str):
            return "event needs a string 'name'"
        events[name] = events.get(name, 0) + 1
        return None
    if kind == "estimator_accuracy":
        estimated = payload.get("estimated")
        actual = payload.get("actual")
        if not isinstance(estimated, (int, float)) or not isinstance(
            actual, (int, float)
        ):
            return (
                "estimator_accuracy needs numeric 'estimated' and 'actual'"
            )
        errors.append(abs(float(estimated) - float(actual)))
        static = payload.get("static_estimated")
        if isinstance(static, (int, float)):
            # A record with the uncalibrated estimate alongside the one
            # acted on: a before/after pair for the calibration section.
            static_errors.append(abs(float(static) - float(actual)))
            calibrated_errors.append(abs(float(estimated) - float(actual)))
        return None
    # Unknown record types are forward-compatible, not malformed.
    return None


def format_report(summary: TraceSummary, top: int = 25) -> str:
    """Human-readable rendering of a :class:`TraceSummary`.

    ``top`` bounds the span ranking only; it is sized so every span name
    the library emits today fits (a lower bound silently hid names the
    CLI round-trip tests assert on).
    """
    out: list[str] = []
    out.append(
        f"trace files: {summary.files}   lines: {summary.lines}   "
        f"malformed: {len(summary.malformed)}"
    )
    out.append("")
    out.append(f"Top spans by total time (of {len(summary.spans)} names):")
    if summary.spans:
        width = max(len(s.name) for s in summary.top_spans(top))
        for entry in summary.top_spans(top):
            out.append(
                f"  {entry.name:<{width}}  n={entry.count:<6d} "
                f"total={entry.total_seconds:9.4f}s "
                f"mean={entry.mean_seconds:9.6f}s "
                f"max={entry.max_seconds:9.6f}s"
            )
    else:
        out.append("  (none)")
    out.append("")
    out.append(
        f"Estimator accuracy ({summary.estimator_records} records):"
    )
    if summary.estimator_error_quantiles:
        quantiles = summary.estimator_error_quantiles
        out.append(
            "  |estimated - actual| "
            f"p50={quantiles['p50']:.4f} "
            f"p90={quantiles['p90']:.4f} "
            f"max={quantiles['max']:.4f}"
        )
    else:
        out.append("  (none)")
    out.append("")
    calibration = summary.calibration()
    if calibration:
        out.append("Calibration:")
        parts = []
        for metric in (
            "observations",
            "overlay_hits",
            "overlay_misses",
            "recalibrations",
            "evictions",
        ):
            if metric in calibration:
                parts.append(f"{metric}={int(calibration[metric])}")
        if parts:
            out.append("  " + "  ".join(parts))
        if "overlay_hit_rate" in calibration:
            out.append(
                "  overlay hit rate: "
                f"{calibration['overlay_hit_rate']:.1%}"
            )
        if "paired_records" in calibration:
            out.append(
                f"  abs error over {int(calibration['paired_records'])} "
                "paired records: "
                f"static p50={calibration['static_p50']:.4f} "
                f"p90={calibration['static_p90']:.4f}  ->  "
                f"calibrated p50={calibration['calibrated_p50']:.4f} "
                f"p90={calibration['calibrated_p90']:.4f}"
            )
        out.append("")
    passes = summary.pass_rewrites()
    if passes:
        out.append("Simplification passes:")
        width = max(len(name) for name in passes)
        for name, row in passes.items():
            atoms = ""
            if row["atoms_before"] or row["atoms_after"]:
                atoms = (
                    f" atoms {int(row['atoms_before'])}"
                    f"->{int(row['atoms_after'])}"
                )
            aborted = (
                f" aborted={int(row['aborted'])}" if row["aborted"] else ""
            )
            out.append(
                f"  {name:<{width}}  runs={int(row['runs']):<6d} "
                f"rewrites={int(row['rewrites']):<6d}{atoms}{aborted}"
            )
        out.append("")
    serving = summary.serving()
    if serving:
        out.append("Serving:")
        request_span = summary.spans.get("serve.request")
        if request_span is not None:
            out.append(
                f"  requests: n={request_span.count} "
                f"mean={request_span.mean_seconds:.6f}s "
                f"max={request_span.max_seconds:.6f}s"
            )
        parts = []
        for metric in (
            "submitted",
            "completed",
            "collapsed",
            "shed",
            "timeout",
            "error",
            "cancelled",
        ):
            if metric in serving:
                parts.append(f"{metric}={int(serving[metric])}")
        if parts:
            out.append("  " + "  ".join(parts))
        if "batch_calls" in serving:
            factor = serving.get("coalescing_factor", 1.0)
            out.append(
                f"  batching: {int(serving.get('batch_requests', 0))} "
                f"scoring requests in {int(serving['batch_calls'])} "
                f"predict_batch calls "
                f"({int(serving.get('batch_rows', 0))} rows, "
                f"coalescing factor {factor:.2f})"
            )
        out.append("")
    transport = summary.transport()
    if transport:
        out.append("Transport:")
        frames_in = int(transport.get("frames_in", 0))
        frames_out = int(transport.get("frames_out", 0))
        bytes_in = int(transport.get("bytes_in", 0))
        bytes_out = int(transport.get("bytes_out", 0))
        if frames_in or frames_out:
            out.append(
                f"  frames: in={frames_in} out={frames_out} "
                f"(bytes in={bytes_in} out={bytes_out})"
            )
        request_names = sorted(
            key[len("requests_"):]
            for key in transport
            if key.startswith("requests_")
        )
        for name in request_names:
            count = int(transport[f"requests_{name}"])
            out.append(f"  requests[{name}]: {count}")
        if "respawns" in transport:
            out.append(
                f"  worker respawns: {int(transport['respawns'])}"
            )
        out.append("")
    load = summary.load()
    if load:
        out.append("Load / SLO:")
        parts = []
        for metric in (
            "issued",
            "ok",
            "late",
            "shed",
            "queued_timeout",
            "error",
        ):
            if metric in load:
                parts.append(f"{metric}={int(load[metric])}")
        if parts:
            out.append("  " + "  ".join(parts))
        if "offered_rate" in load or "goodput" in load:
            out.append(
                "  offered "
                f"{load.get('offered_rate', 0.0):.1f} req/s -> goodput "
                f"{load.get('goodput', 0.0):.1f} req/s "
                f"(miss rate {load.get('miss_rate', 0.0):.1%}, "
                f"shed rate {load.get('shed_rate', 0.0):.1%})"
            )
        if "latency_p99" in load:
            out.append(
                "  latency p50="
                f"{load.get('latency_p50', 0.0) * 1000:.2f}ms "
                f"p95={load.get('latency_p95', 0.0) * 1000:.2f}ms "
                f"p99={load['latency_p99'] * 1000:.2f}ms"
            )
        if "jitter_p99" in load:
            out.append(
                "  jitter  p50="
                f"{load.get('jitter_p50', 0.0) * 1000:.2f}ms "
                f"p95={load.get('jitter_p95', 0.0) * 1000:.2f}ms "
                f"p99={load['jitter_p99'] * 1000:.2f}ms"
            )
        out.append("")
    segments = summary.segments()
    if segments:
        out.append("Segment matching:")
        match_span = summary.spans.get("segments.match")
        if match_span is not None:
            out.append(
                f"  matches: n={match_span.count} "
                f"mean={match_span.mean_seconds:.6f}s "
                f"max={match_span.max_seconds:.6f}s"
            )
        if "masks_computed" in segments or "masks_shared" in segments:
            share = segments.get("share_rate", 0.0)
            out.append(
                f"  masks: {int(segments.get('masks_computed', 0))} "
                f"computed, {int(segments.get('masks_shared', 0))} "
                f"shared (share rate {share:.1%})"
            )
        if "constants_skipped" in segments:
            out.append(
                "  constant segments skipped: "
                f"{int(segments['constants_skipped'])}"
            )
        if "batch_calls" in segments:
            factor = segments.get("coalescing_factor", 1.0)
            out.append(
                f"  batching: {int(segments.get('batch_requests', 0))} "
                f"match requests in {int(segments['batch_calls'])} "
                f"evaluations "
                f"({int(segments.get('batch_rows', 0))} rows, "
                f"coalescing factor {factor:.2f})"
            )
        out.append("")
    disjunction = summary.disjunction()
    if disjunction:
        out.append("Disjunction execution:")
        if (
            "masks_computed" in disjunction
            or "masks_shared" in disjunction
        ):
            share = disjunction.get("share_rate", 0.0)
            out.append(
                f"  masks: {int(disjunction.get('masks_computed', 0))} "
                f"computed, {int(disjunction.get('masks_shared', 0))} "
                f"shared (share rate {share:.1%})"
            )
        if "plan_hit" in disjunction or "plan_miss" in disjunction:
            rate = disjunction.get("plan_hit_rate", 0.0)
            out.append(
                f"  operand plans: {int(disjunction.get('plan_hit', 0))} "
                f"reused, {int(disjunction.get('plan_miss', 0))} "
                f"planned (reuse rate {rate:.1%})"
            )
        out.append("")
    rates = summary.hit_rates()
    out.append("Cache hit rates:")
    if rates:
        for name, rate in rates.items():
            hits = summary.counters.get(name + ".hit", 0.0)
            misses = summary.counters.get(name + ".miss", 0.0)
            out.append(
                f"  {name}: {rate:6.1%} "
                f"({int(hits)} hits / {int(misses)} misses)"
            )
    else:
        out.append("  (none)")
    if summary.counters:
        out.append("")
        out.append("Counters:")
        for name in sorted(summary.counters):
            out.append(f"  {name} = {summary.counters[name]:g}")
    if summary.gauges:
        out.append("")
        out.append("Gauges:")
        for name in sorted(summary.gauges):
            out.append(f"  {name} = {summary.gauges[name]:g}")
    if summary.malformed:
        out.append("")
        out.append("Malformed lines:")
        for description in summary.malformed[:10]:
            out.append(f"  {description}")
        if len(summary.malformed) > 10:
            out.append(f"  ... {len(summary.malformed) - 10} more")
    return "\n".join(out)
