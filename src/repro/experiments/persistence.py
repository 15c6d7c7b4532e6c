"""Disk persistence for measurement sweeps, sharded per task.

A full DEFAULT-scale sweep takes many minutes (it trains thirty models,
derives several hundred envelopes, and loads ten doubled datasets), so the
harness caches finished sweeps on disk keyed by a fingerprint of the
configuration and the library version.  Delete the cache directory (or set
``REPRO_SWEEP_CACHE=off``) to force fresh measurements.

Layout (format 3): each sweep owns a directory
``<cache_dir>/sweep_<fingerprint>/`` holding one JSON shard per
(dataset, model-family) task, e.g. ``task_diabetes__naive_bayes.json``.
Shards are written atomically (tempfile + ``os.replace``) so an
interrupted writer never leaves a half-written file behind and concurrent
workers of the parallel engine (:mod:`repro.experiments.parallel`) can
persist their tasks without clobbering each other.  The cache is
regenerable by definition, so anything that is not a valid format-3
shard — an older layout's file included — is a miss, never migrated.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import tempfile
from dataclasses import asdict
from pathlib import Path

from repro.experiments.config import ExperimentConfig
from repro.sql.planner import AccessPath
from repro.workload.measurement import QueryMeasurement

#: Cache format version: bump when QueryMeasurement's shape or the shard
#: layout changes.  Format 2 was one monolithic JSON file per sweep;
#: format 3 shards the sweep into per-task files (see module docstring).
_FORMAT = 3


def cache_enabled() -> bool:
    """Whether sweep caching is on (``REPRO_SWEEP_CACHE`` opt-out)."""
    return os.environ.get("REPRO_SWEEP_CACHE", "on").lower() not in (
        "off",
        "0",
        "no",
    )


def default_cache_dir() -> Path:
    """Cache directory (``REPRO_SWEEP_CACHE_DIR`` or ``.repro_cache``)."""
    override = os.environ.get("REPRO_SWEEP_CACHE_DIR")
    if override:
        return Path(override)
    return Path(".repro_cache")


def config_fingerprint(config: ExperimentConfig) -> str:
    """Stable hash of a configuration plus the library version."""
    from repro import __version__

    payload = json.dumps(
        {"config": asdict(config), "version": __version__, "fmt": _FORMAT},
        sort_keys=True,
        default=str,
    )
    return hashlib.sha256(payload.encode()).hexdigest()[:20]


def sweep_dir(
    config: ExperimentConfig, cache_dir: Path | None = None
) -> Path:
    """Directory holding one sweep's per-task shards."""
    directory = cache_dir if cache_dir is not None else default_cache_dir()
    return directory / f"sweep_{config_fingerprint(config)}"


def task_path(
    config: ExperimentConfig,
    dataset: str,
    family: str,
    cache_dir: Path | None = None,
) -> Path:
    """Shard file for one (dataset, family) task of a sweep."""
    return sweep_dir(config, cache_dir) / f"task_{dataset}__{family}.json"


def _measurement_to_dict(measurement: QueryMeasurement) -> dict:
    payload = asdict(measurement)
    payload["access_path"] = measurement.access_path.value
    return payload


def _measurement_from_dict(payload: dict) -> QueryMeasurement:
    payload = dict(payload)
    payload["access_path"] = AccessPath(payload["access_path"])
    return QueryMeasurement(**payload)


def _atomic_write_json(path: Path, payload: dict) -> None:
    """Write JSON via a same-directory tempfile and ``os.replace``.

    Readers either see the previous complete file or the new complete
    file, never a torn write — the invariant the parallel engine's
    concurrent workers rely on.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    handle, tmp_name = tempfile.mkstemp(
        dir=path.parent, prefix=f".{path.name}.", suffix=".tmp"
    )
    try:
        with os.fdopen(handle, "w") as stream:
            stream.write(json.dumps(payload))
        os.replace(tmp_name, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp_name)
        raise


def save_task(
    config: ExperimentConfig,
    dataset: str,
    family: str,
    measurements: list[QueryMeasurement],
    cache_dir: Path | None = None,
) -> Path:
    """Atomically write one task's measurements; returns the shard path."""
    path = task_path(config, dataset, family, cache_dir)
    payload = {
        "format": _FORMAT,
        "dataset": dataset,
        "family": family,
        "measurements": [_measurement_to_dict(m) for m in measurements],
    }
    _atomic_write_json(path, payload)
    return path


def load_task(
    config: ExperimentConfig,
    dataset: str,
    family: str,
    cache_dir: Path | None = None,
) -> list[QueryMeasurement] | None:
    """Load one task's cached measurements, or ``None`` if absent/stale."""
    path = task_path(config, dataset, family, cache_dir)
    if not path.exists():
        return None
    try:
        payload = json.loads(path.read_text())
        if (
            payload.get("format") != _FORMAT
            or payload.get("dataset") != dataset
            or payload.get("family") != family
        ):
            return None
        return [
            _measurement_from_dict(entry)
            for entry in payload["measurements"]
        ]
    except (ValueError, KeyError, TypeError):
        # A corrupt or torn shard is treated as a miss, never an error.
        return None


def save_sweep(
    config: ExperimentConfig,
    measurements: list[QueryMeasurement],
    cache_dir: Path | None = None,
) -> Path:
    """Write a finished sweep as per-task shards; returns the sweep dir."""
    by_task: dict[tuple[str, str], list[QueryMeasurement]] = {}
    for measurement in measurements:
        key = (measurement.dataset, measurement.family)
        by_task.setdefault(key, []).append(measurement)
    for (dataset, family), task_measurements in by_task.items():
        save_task(config, dataset, family, task_measurements, cache_dir)
    return sweep_dir(config, cache_dir)


def load_sweep(
    config: ExperimentConfig,
    cache_dir: Path | None = None,
) -> list[QueryMeasurement] | None:
    """Load a complete cached sweep for ``config``, or ``None``.

    A sweep is complete when every (dataset, family) task of the
    configuration has a valid shard; otherwise the harness re-runs only
    the missing tasks via :func:`load_task`.
    """
    measurements: list[QueryMeasurement] = []
    for dataset in config.datasets:
        for family in config.families:
            entry = load_task(config, dataset, family, cache_dir)
            if entry is None:
                return None
            measurements.extend(entry)
    return measurements
