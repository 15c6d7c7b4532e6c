"""The probe table: which call each span wraps, and what it captures.

Targets are dotted strings resolved at install time (``spans.resolve``),
never imports: a refactor that moves or renames one turns the metrics
built on that span into ``null`` plus one warning line, and everything
else keeps working.  Class methods are patched on the class, module
functions at the module that calls them.

``LAYER_METRICS`` maps each per-layer *time* metric to the spans whose
self time it sums; ``benchlib.workloads`` divides by the operations of
the traced window.  Count and ratio metrics are computed there from the
public stats objects and from the fields captured below.
"""

from __future__ import annotations

from benchlib.spans import FIELDS, Probe, Recorder

KIND_REQUEST, KIND_RESPONSE = 1, 2


def _fields(span: list) -> dict:
    if span[FIELDS] is None:
        span[FIELDS] = {}
    return span[FIELDS]


# -- request-id hand-off between threads --------------------------------------


def _rid_of_first_arg(recorder: Recorder, state, args):
    """``method(self, obj, ...)``: the request ``obj`` was tagged with."""
    return recorder.tags.get(id(args[1]))


def _after_execute(recorder, state, span, args, report) -> None:
    fields = _fields(span)
    fields["rows_fetched"] = report.rows_fetched
    fields["rows_returned"] = len(report.rows)
    fields["index_plans"] = 1 if report.plan.uses_index else 0
    # ServeResult.rows is this very tuple: lets the reply path find its rid.
    recorder.tags[id(report.rows)] = span[4]


def _after_match(recorder, state, span, args, result) -> None:
    matches, _ = result
    _fields(span)["rows"] = len(args[1])
    recorder.tags[id(matches.memberships)] = span[4]


def _rid_of_response(recorder, state, args):
    result = args[0]
    payload = getattr(result, "rows", None)
    if payload is None:
        payload = getattr(result, "memberships", None)
    return recorder.tags.get(id(payload))


def _rid_of_frame(recorder, state, args):
    """``encode_frame(kind, request_id, payload)`` names its request."""
    return args[1]


def _after_encode_frame(recorder, state, span, args, frame) -> None:
    fields = _fields(span)
    fields["response_bytes" if args[0] == KIND_RESPONSE else "request_bytes"] = len(frame)


def _after_frame_feed(recorder, state, span, args, frames) -> None:
    for frame in frames:
        if frame.kind in (KIND_REQUEST, KIND_RESPONSE):
            state.frame_ids.append(frame.request_id)


def _rid_of_next_frame(recorder, state, args):
    return state.frame_ids.popleft() if state.frame_ids else None


def _after_decode_request(recorder, state, span, args, request) -> None:
    payload = getattr(request, "query", None)
    if payload is None:
        payload = getattr(request, "rows", None)
    recorder.tags[id(payload)] = span[4]


def _after_decode_response(recorder, state, span, args, result) -> None:
    rows = getattr(result, "rows", None)
    if rows is not None:
        _fields(span)["rows_decoded"] = len(rows)


def _after_predict(recorder, state, span, args, predictions) -> None:
    _fields(span)["rows_scored"] = len(args[1])


PROBES: list[Probe] = [
    # sql
    Probe("sql.execute", "repro.sql.miningext:PredictionJoinExecutor.execute",
          before=_rid_of_first_arg, after=_after_execute),
    Probe("sql.plancache.lookup", "repro.sql.plancache:PlanCache.get_or_optimize"),
    Probe("core.optimize", "repro.sql.plancache:optimize"),
    Probe("sql.plan_capture", "repro.sql.miningext:capture_select_plan"),
    Probe("sql.fetch", "repro.sql.database:Database.query_rows"),
    # ir
    Probe("ir.columnbatch_build", "repro.core.columns:ColumnBatch.column"),
    Probe("ir.columnbatch_build", "repro.core.columns:ColumnBatch.numeric"),
    Probe("ir.columnbatch_build", "repro.core.columns:ColumnBatch.matrix"),
    Probe("ir.mask_eval", "repro.core.predicates:Predicate.evaluate_batch"),
    # mining
    Probe("mining.predict_batch", "repro.mining.decision_tree:DecisionTreeModel.predict_batch",
          after=_after_predict),
    Probe("mining.predict_batch", "repro.mining.naive_bayes:NaiveBayesModel.predict_batch",
          after=_after_predict),
    Probe("mining.predict_batch",
          "repro.mining.discretized_cluster:DiscretizedClusterModel.predict_batch",
          after=_after_predict),
    # serve.engine and its batchers
    Probe("serve.engine.submit", "repro.serve.engine:ServeEngine.submit"),
    Probe("serve.batcher.score", "repro.serve.batcher:MicroBatcher.score"),
    Probe("segments.batcher.match", "repro.segments.batcher:MatchBatcher.match",
          before=_rid_of_first_arg, after=_after_match),
    # segments
    Probe("segments.match", "repro.segments.evaluator:PredicateSetEvaluator.match"),
    Probe("segments.memberships", "repro.segments.evaluator:_memberships"),
    # serve.protocol, at its use sites in serve.transport
    Probe("serve.protocol.encode_request", "repro.serve.transport:encode_request"),
    Probe("serve.protocol.decode_request", "repro.serve.transport:decode_request",
          before=_rid_of_next_frame, after=_after_decode_request),
    Probe("serve.protocol.encode_response", "repro.serve.transport:encode_response",
          before=_rid_of_response),
    Probe("serve.protocol.decode_response", "repro.serve.transport:decode_response",
          before=_rid_of_next_frame, after=_after_decode_response),
    Probe("serve.protocol.frame_encode", "repro.serve.transport:encode_frame",
          before=_rid_of_frame, after=_after_encode_frame),
    Probe("serve.protocol.frame_decode", "repro.serve.protocol:FrameDecoder.feed",
          after=_after_frame_feed),
    # serve.transport
    Probe("serve.transport.submit", "repro.serve.transport:SocketTransport.submit"),
    Probe("serve.transport.dispatch", "repro.serve.transport:EngineDispatcher.feed"),
]

#: metric -> spans whose self time it sums (milliseconds per operation).
LAYER_METRICS: dict[str, tuple[str, ...]] = {
    "sql.plancache.lookup_ms": ("sql.plancache.lookup",),
    "core.optimize_ms": ("core.optimize",),
    "sql.plan_capture_ms": ("sql.plan_capture",),
    "sql.fetch_ms": ("sql.fetch",),
    "sql.execute_self_ms": ("sql.execute",),
    "ir.columnbatch_build_ms": ("ir.columnbatch_build",),
    # In the segment evaluator the masks are what ``match`` itself does
    # once column builds and the membership fan-out are taken out.
    "ir.mask_eval_ms": ("ir.mask_eval", "segments.match"),
    "mining.predict_batch_ms": ("mining.predict_batch",),
    "serve.engine.submit_ms": ("serve.engine.submit",),
    "segments.memberships_ms": ("segments.memberships",),
    "serve.protocol.encode_request_ms": ("serve.protocol.encode_request",),
    "serve.protocol.decode_request_ms": ("serve.protocol.decode_request",),
    "serve.protocol.encode_response_ms": ("serve.protocol.encode_response",),
    "serve.protocol.decode_response_ms": ("serve.protocol.decode_response",),
    "serve.protocol.frame_encode_ms": ("serve.protocol.frame_encode",),
    "serve.protocol.frame_decode_ms": ("serve.protocol.frame_decode",),
    "serve.transport.send_ms": ("serve.transport.submit",),
    "serve.transport.dispatch_ms": ("serve.transport.dispatch",),
}
