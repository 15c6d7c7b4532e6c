#!/usr/bin/env python3
"""The repo's benchmark: ``python3 bench/run.py --workload NAME ...``.

Run from the root of a checkout.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
NAMES = ("paper_scan", "serve_loopback", "serve_wire", "segment_match")


def parse(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", default="all", choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0,
                        help="request mix, cut-offs, arrivals, pass order, segment catalog")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured window (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="1: report the per-layer metrics from a traced window")
    parser.add_argument("--smoke", action="store_true",
                        help="reduced rows, a few seconds per workload")
    parser.add_argument("--out", default=os.path.join(BENCH_DIR, "out"),
                        help="directory for the result files")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="compare two result directories and exit")
    return parser.parse_args(argv)


def run_all(args: argparse.Namespace) -> int:
    """Each workload in a fresh process; the worst exit code wins."""
    worst = 0
    for name in NAMES:
        command = [sys.executable, os.path.abspath(__file__), "--workload", name,
                   "--seed", str(args.seed), "--trace", str(args.trace), "--out", args.out]
        if args.seconds is not None:
            command += ["--seconds", str(args.seconds)]
        if args.smoke:
            command.append("--smoke")
        worst = max(worst, subprocess.run(command, check=False).returncode)
    return worst


def main(argv: list[str]) -> int:
    args = parse(argv)
    source = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(source, "repro")):
        print(f"bench: no src/repro beside {BENCH_DIR}; run from a checkout", file=sys.stderr)
        return 2
    # The checkout's own sources, never an installed copy.
    sys.path.insert(0, source)
    from benchlib import report, runner

    if args.compare:
        return report.compare(*args.compare)
    if args.workload == "all":
        return run_all(args)
    seconds = args.seconds
    if seconds is None:
        if args.smoke:
            seconds = runner.SMOKE_SECONDS
        else:
            with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as stream:
                seconds = float(json.load(stream)["run_seconds"])
    os.makedirs(args.out, exist_ok=True)
    document = runner.run_workload(
        args.workload, args.seed, seconds, bool(args.trace), args.smoke, scratch=args.out
    )
    document = {"stamp": report.stamp(ROOT, args.seed, seconds, args.smoke), **document}
    report.write_result(args.out, document)
    report.print_metrics(document)
    print(report.result_line(document))
    return 0 if document["correct"] and not document["failed"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
