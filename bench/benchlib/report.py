"""Output: the environment stamp, the result files, and ``--compare``."""

from __future__ import annotations

import json
import os
import platform
import sqlite3
import subprocess
import sys

import numpy

from benchlib.metrics import END_TO_END

#: Stand-in for a metric whose probe did not resolve, on the result line
#: only (the result files keep ``null``): that line must hold numbers.
UNRESOLVED_VALUE = -1.0


def git_sha(root: str) -> str:
    """The checkout's commit, or ``unknown`` outside a git repository."""
    try:
        done = subprocess.run(
            ["git", "-C", root, "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def stamp(root: str, seed: int, seconds: float, smoke: bool) -> dict:
    return {
        "git_sha": git_sha(root),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "sqlite": sqlite3.sqlite_version,
        "platform": platform.platform(),
        "seed": seed,
        "seconds": seconds,
        "smoke": smoke,
    }


def write_result(out_dir: str, document: dict) -> str:
    """``<workload>.json``, or ``<workload>.trace.json`` for a traced run."""
    os.makedirs(out_dir, exist_ok=True)
    suffix = ".trace.json" if document["traced"] else ".json"
    path = os.path.join(out_dir, document["workload"] + suffix)
    with open(path, "w", encoding="utf-8") as stream:
        json.dump(document, stream, indent=1, default=str)
        stream.write("\n")
    return path


def print_metrics(document: dict) -> None:
    print(
        f"# {document['workload']}: attempted={document['attempted']} "
        f"failed={document['failed']} correct={document['correct']} "
        f"ops_per_window={document['samples']['ops_per_window']}"
    )
    for name, entry in document["metrics"].items():
        value = entry["value"]
        shown = "null" if value is None else f"{value:.6g}"
        print(f"{name:40s} {shown:>14s} {entry['unit']}")
    for warning in document["warnings"]:
        print(warning, file=sys.stderr)


def result_line(document: dict) -> str:
    """The one JSON object the driver reads from the last line."""
    metrics = {
        name: {
            "value": UNRESOLVED_VALUE if entry["value"] is None else entry["value"],
            "unit": entry["unit"],
        }
        for name, entry in document["metrics"].items()
    }
    return json.dumps({
        "correct": document["correct"],
        "attempted": document["attempted"],
        "failed": document["failed"],
        "metrics": metrics,
    })


def _load_set(path: str) -> dict[str, dict]:
    """``workload -> document`` from a directory of untraced result files."""
    out = {}
    for entry in sorted(os.listdir(path)):
        if entry.endswith(".json") and not entry.endswith(".trace.json"):
            with open(os.path.join(path, entry), encoding="utf-8") as stream:
                document = json.load(stream)
            out[document["workload"]] = document
    return out


def compare(path_a: str, path_b: str) -> int:
    """Print both sets side by side; non-zero if any pair is outside its bound."""
    set_a, set_b = _load_set(path_a), _load_set(path_b)
    unresolved = 0
    print(f"{'workload':16s} {'metric':18s} {'A':>12s} {'B':>12s} {'diff':>8s} {'bound':>6s}")
    for workload in sorted(set(set_a) | set(set_b)):
        a, b = set_a.get(workload), set_b.get(workload)
        if a is None or b is None:
            print(f"{workload:16s} missing from {'A' if a is None else 'B'}  UNRESOLVED")
            unresolved += 1
            continue
        for side, document in (("A", a), ("B", b)):
            if document["failed"]:
                print(f"{workload:16s} {side} has {document['failed']} failed operations  UNRESOLVED")
                unresolved += 1
        for metric in END_TO_END:
            va = a["metrics"][metric.name]["value"]
            vb = b["metrics"][metric.name]["value"]
            if va is None or vb is None or va == 0:
                print(f"{workload:16s} {metric.name:18s} {va!s:>12s} {vb!s:>12s}  UNRESOLVED")
                unresolved += 1
                continue
            diff = (vb - va) / va
            verdict = "" if abs(diff) <= metric.bound else "  UNRESOLVED"
            unresolved += bool(verdict)
            print(
                f"{workload:16s} {metric.name:18s} {va:12.4f} {vb:12.4f} "
                f"{diff:+8.1%} {metric.bound:6.0%}{verdict}"
            )
    print(f"{unresolved} unresolved")
    return 1 if unresolved else 0
