"""Concurrent mining-query serving layer (``repro.serve``).

The ROADMAP's north star is serving mining predicates inside ordinary
query traffic, not one-shot benchmark scripts.  This package is that
serving path, assembled from the optimizer/executor stack the earlier
PRs built and split into engine / protocol / transport layers so *what
the service does* is independent of *how bytes reach it*:

* :mod:`repro.serve.registry` — :class:`ModelRegistry`: versioned
  ``register`` / ``deploy`` / ``retire`` of mining models.  Envelopes are
  derived **once at deploy time** (the paper's training-time precompute,
  Section 4.2), interned into the IR table, and warm-started from a
  fingerprint-keyed cache on redeploys.
* :mod:`repro.serve.pool` — :class:`ConnectionPool`: per-thread
  read-only SQLite connections over one shared database, fixing the
  single-connection :class:`~repro.sql.database.Database` thread
  affinity.
* :mod:`repro.serve.admission` — :class:`AdmissionController` and
  :class:`Deadline`: a bounded request queue with typed shedding and
  per-request timeouts; deadline misses lower the bound (AIMD) and a
  request predicted to miss its deadline is shed at admission.
* :mod:`repro.serve.batcher` — :class:`MicroBatcher`: coalesces residual
  model-scoring work from *concurrent* requests into shared
  ``predict_batch`` calls, bit-identical to per-request scoring.
* :mod:`repro.serve.engine` — :class:`ServeEngine`: the
  transport-neutral core (admission, in-flight collapsing,
  micro-batching, segment matching, worker-pool execution over shared
  caches) operating on typed request/response dataclasses
  (:class:`QueryRequest`, :class:`MatchRequest`, and deploy/retire
  control messages).
* :mod:`repro.serve.protocol` — the versioned, length-prefixed framed
  wire codec: every request kind and every typed
  :class:`~repro.exceptions.ServeError` subclass round-trips.
* :mod:`repro.serve.transport` — pluggable adapters over the engine:
  in-process :class:`LoopbackTransport`, a socketpair transport
  (:func:`serve_socketpair`), and a TCP transport
  (:class:`TCPServer` / :func:`connect_tcp`) whose accept thread hands
  each connection to the same :class:`SocketServer` loop.
* :mod:`repro.serve.router` — :class:`ProcessRouter`: fans requests out
  to N worker *processes* (one socketpair each), broadcasts
  deploy/retire as version-stamped catalog messages, fails in-flight
  requests of dead workers with typed errors, and respawns them.
* :mod:`repro.serve.fixture` — the serving fixture, router bootstrap
  and transport switch that ``load-bench`` and the ``serve`` subcommand
  share.

In process there are two ways to call one engine, and they are the two
ends of the transport seam: ``engine.execute(QueryRequest(query))`` /
``engine.submit(...)`` directly, or the same typed request through a
:class:`LoopbackTransport` when the caller should not care which
transport it holds.  Given a
:class:`~repro.segments.catalog.SegmentCatalog`, the engine also serves
:class:`MatchRequest` — the segment-matching workload of
:mod:`repro.segments` — through the same admission controller,
collapsing, and a dedicated match batcher.

Everything emits ``serve.*`` spans/counters/gauges through
:mod:`repro.obs`; ``trace-report`` renders them as dedicated "Serving"
and "Transport" sections.
"""

from repro.serve.admission import (
    AdmissionController,
    Deadline,
    ServiceTimeEstimator,
)
from repro.serve.batcher import BatchingCatalog, MicroBatcher
from repro.serve.engine import (
    DeployRequest,
    DeployResult,
    MatchRequest,
    QueryRequest,
    ResultCache,
    RetireRequest,
    RetireResult,
    SegmentMatchResult,
    ServeEngine,
    ServeResult,
    ServiceStats,
)
from repro.serve.pool import ConnectionPool
from repro.serve.registry import ModelRegistry, ModelVersion, model_fingerprint
from repro.serve.router import ProcessRouter
from repro.serve.transport import (
    LoopbackTransport,
    RetryingTransport,
    RetryPolicy,
    SocketServer,
    SocketTransport,
    TCPServer,
    Transport,
    connect_tcp,
    serve_socketpair,
)

__all__ = [
    "AdmissionController",
    "BatchingCatalog",
    "ConnectionPool",
    "Deadline",
    "DeployRequest",
    "DeployResult",
    "LoopbackTransport",
    "MatchRequest",
    "MicroBatcher",
    "ModelRegistry",
    "ModelVersion",
    "ProcessRouter",
    "QueryRequest",
    "ResultCache",
    "RetireRequest",
    "RetireResult",
    "RetryPolicy",
    "RetryingTransport",
    "SegmentMatchResult",
    "ServeEngine",
    "ServeResult",
    "ServiceStats",
    "ServiceTimeEstimator",
    "SocketServer",
    "SocketTransport",
    "TCPServer",
    "Transport",
    "connect_tcp",
    "model_fingerprint",
    "serve_socketpair",
]
