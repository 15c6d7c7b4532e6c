#!/usr/bin/env python3
"""The ``serve_wire`` round trip with every row dict forced on the client.

``python3 bench/run.py --workload serve_wire`` times a client that reads
``len(result.rows)``; a lazily materialised result could win there by
deferring work the caller pays later.  This script runs the *same*
workload (``bench/benchlib``: same data, models, request mix, closed-loop
driver, oracle) with ``list(result.rows)`` inside the timed call, so the
client holds every row as a real ``dict`` before the operation counts as
done.  ``--lazy`` leaves the forcing out, which makes the difference the
cost of materialising.

Run it against any checkout that has ``bench/`` (``--root``), e.g. the
parent commit and this one:

    python3 benchmarks/wire_roundtrip.py --root /path/to/parent
    python3 benchmarks/wire_roundtrip.py

Prints one JSON object: throughput, p50/p90 of a query, operations,
whether the oracle passed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile


class _ForcingClient:
    """The wire client, except ``request`` builds every returned row."""

    def __init__(self, client) -> None:
        self._client = client

    def request(self, request):
        result = self._client.request(request)
        rows = getattr(result, "rows", None)
        if rows is not None:
            forced = list(rows)
            assert len(forced) == len(rows)
            assert not forced or type(forced[0]) is dict
        return result

    def __getattr__(self, name: str):
        return getattr(self._client, name)


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--root",
        default=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        help="checkout to measure (needs src/ and bench/)",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument(
        "--lazy", action="store_true", help="do not force the rows"
    )
    args = parser.parse_args(argv)
    sys.path[:0] = [
        os.path.join(args.root, "src"),
        os.path.join(args.root, "bench"),
    ]
    from benchlib import runner, stats
    from benchlib.workloads import WORKLOADS

    runner.scrub_environment()
    workload = WORKLOADS["serve_wire"](smoke=args.smoke)
    cache_dir = tempfile.mkdtemp(prefix="wire-roundtrip-")
    fixture = None
    try:
        fixture = workload.setup(cache_dir, args.seed)
        if not args.lazy:
            fixture.client = _ForcingClient(fixture.client)
        measured = workload.measure(
            fixture, args.seconds, args.seed, "measured"
        )
        wrong, _ = workload.oracle(fixture, [measured])
    finally:
        if fixture is not None:
            fixture.close()
        shutil.rmtree(cache_dir, ignore_errors=True)
    latencies = measured.latencies_ms("query")
    failed = sum(1 for op in measured.ops if not op.ok)
    print(
        json.dumps(
            {
                "root": os.path.abspath(args.root),
                "forced": not args.lazy,
                "seed": args.seed,
                "operations": len(measured.ops),
                "failed": failed,
                "correct": wrong == 0,
                "throughput_per_s": measured.throughput(),
                "query_p50_ms": stats.percentile_or_none(latencies, 50),
                "query_p90_ms": stats.percentile_or_none(latencies, 90),
            }
        )
    )
    return 0 if wrong == 0 and not failed else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
