"""Open-loop SLO load harness (``repro.load``).

A closed-loop benchmark (issue, wait, issue again) silently slows its
own offered load down whenever the server slows — the *coordinated
omission* artifact — so it cannot answer the question serving actually
has to answer: what happens when traffic keeps arriving at a rate the
service does not control?  This package is the open-loop harness over
the serving fixture (:mod:`repro.serve.fixture`):

* :mod:`repro.load.arrivals` — seeded, deterministic arrival processes
  (constant / poisson / burst / ramp) materialized as absolute issue
  offsets, so the *same seed reproduces the exact same schedule*;
* :mod:`repro.load.runner` — fires requests at their scheduled times
  against any :class:`~repro.serve.transport.Transport`, regardless of
  completions, and measures each request from its **scheduled** time
  (not its issue time), so queueing delay the schedule caused is
  charged to the service, not hidden;
* :mod:`repro.load.slo` — per-run SLO accounting: latency and jitter
  percentiles, goodput vs offered load, deadline-miss and shed rates —
  published as ``load.*`` metrics for the trace report's "Load / SLO"
  section;
* :mod:`repro.load.bench` — the ``load-bench`` CLI artifact
  (``BENCH_load.json``): determinism gates and admission under
  overload (sheds at admit, not timeouts in queue).
"""

from repro.load.arrivals import (
    ARRIVAL_KINDS,
    ArrivalSchedule,
    build_arrivals,
    burst_arrivals,
    constant_arrivals,
    poisson_arrivals,
    ramp_arrivals,
)
from repro.load.runner import LoadResult, RequestRecord, run_load
from repro.load.slo import SLOReport, summarize_load

__all__ = [
    "ARRIVAL_KINDS",
    "ArrivalSchedule",
    "LoadResult",
    "RequestRecord",
    "SLOReport",
    "build_arrivals",
    "burst_arrivals",
    "constant_arrivals",
    "poisson_arrivals",
    "ramp_arrivals",
    "run_load",
    "summarize_load",
]
