"""Versioned model registry with deploy-time envelope derivation.

The paper precomputes atomic upper envelopes "during training of the
mining models" (Section 4.2); in a serving system that precompute belongs
to *deployment*, not to every query.  :class:`ModelRegistry` keeps a
versioned history of registered models and, on :meth:`~ModelRegistry.deploy`,
derives the deployed model's envelopes exactly once, interns every
envelope predicate into the IR table (so equal structures across models
share storage and fingerprint memos), and publishes the model into the
live :class:`~repro.core.catalog.ModelCatalog` the query service
executes against.

Derived envelopes are cached under a digest of everything derivation
reads: the model's *content fingerprint* (:func:`model_fingerprint`, a
digest of ``model.to_dict()``), the registry's ``max_nodes`` and ``bins``,
and the training rows that discretize clustering features.  So
retire-and-redeploy cycles — and deploys of a structurally identical
model under another version — warm-start instead of re-deriving
(``serve.registry.warm_start.hit`` / ``.miss`` counters), while a registry
with another budget never serves envelopes derived under this one.  With a
``cache_dir`` (or ``REPRO_ENVELOPE_CACHE_DIR``), the cache also
**persists**: every fresh derivation is written as
``envelopes_<cache key>.json`` with the sweep cache's atomic
tempfile + ``os.replace`` discipline, so a new process — a restarted
service, a respawned :class:`~repro.serve.router.ProcessRouter` worker —
skips re-derivation entirely (``serve.registry.warm_start.disk_hit`` /
``.disk_miss``).  Corrupt or version-skewed files are ignored, never
fatal: the fallback is simply re-deriving.

Publishing into the live catalog bumps the catalog entry's version, which
is what invalidates every cached plan built against the previous
envelopes (see :mod:`repro.sql.plancache`); retiring removes the entry,
so stale plans *fail* typed rather than replay.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import threading
from collections.abc import Sequence
from dataclasses import dataclass, field, replace
from pathlib import Path

from repro import obs
from repro.core.catalog import ModelCatalog
from repro.core.derive import derive_envelopes
from repro.core.envelope import UpperEnvelope
from repro.core.nb_envelope import DEFAULT_MAX_NODES
from repro.core.predicates import Value
from repro.exceptions import RegistryError
from repro.ir import fingerprint as ir_fingerprint
from repro.ir import intern
from repro.mining.base import MiningModel, ModelKind, Row

#: Environment fallback for the on-disk envelope cache directory.
ENV_ENVELOPE_CACHE_DIR = "REPRO_ENVELOPE_CACHE_DIR"

#: Format stamp of the on-disk envelope cache; bump on layout changes
#: (old files are then treated as misses, not errors).
_DISK_FORMAT = 2


def _digest(value: object) -> str:
    payload = json.dumps(
        value, sort_keys=True, default=str, separators=(",", ":")
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def model_fingerprint(model: MiningModel) -> str:
    """Stable content digest of a model (its ``to_dict`` serialization).

    Two models with identical content — same structure, same parameters —
    share a fingerprint and therefore, under equal derivation inputs,
    share derived envelopes in the registry's warm-start cache.
    """
    return _digest(model.to_dict())


@dataclass
class ModelVersion:
    """One registered version of one model name."""

    name: str
    version: int
    model: MiningModel
    fingerprint: str
    #: Warm-start cache key: digest of ``fingerprint`` with every other
    #: input of derivation (the registry's ``max_nodes`` and ``bins``, and
    #: ``rows``).
    cache_key: str
    #: Training rows retained for derivation (clustering families need
    #: them to discretize continuous features); ``None`` otherwise.
    rows: Sequence[Row] | None = None
    deployed: bool = False
    #: Envelopes resolved at deploy time (``None`` until first deployed).
    envelopes: dict[Value, UpperEnvelope] | None = field(
        default=None, repr=False
    )
    derive_seconds: float = 0.0
    #: IR fingerprints of the interned envelope predicates, per label.
    envelope_fingerprints: dict[Value, str] = field(default_factory=dict)


class ModelRegistry:
    """Thread-safe register/deploy/retire lifecycle over a live catalog.

    The registry owns the :class:`~repro.core.catalog.ModelCatalog` the
    query service executes against (:attr:`catalog`); only deployed
    versions are visible there.  All mutating operations serialize on one
    lock; catalog reads from worker threads are lock-free (publishing an
    entry is a single dict assignment under the GIL).
    """

    def __init__(
        self,
        catalog: ModelCatalog | None = None,
        max_nodes: int = DEFAULT_MAX_NODES,
        bins: int = 8,
        cache_dir: "str | Path | None" = None,
    ) -> None:
        self._catalog = catalog if catalog is not None else ModelCatalog()
        self._max_nodes = max_nodes
        self._bins = bins
        if cache_dir is None:
            cache_dir = os.environ.get(ENV_ENVELOPE_CACHE_DIR) or None
        self._cache_dir = None if cache_dir is None else Path(cache_dir)
        self._lock = threading.RLock()
        self._versions: dict[str, list[ModelVersion]] = {}
        self._deployed: dict[str, ModelVersion] = {}
        #: cache key -> interned envelopes (warm-start).
        self._envelope_cache: dict[
            str, tuple[dict[Value, UpperEnvelope], float]
        ] = {}

    @property
    def catalog(self) -> ModelCatalog:
        """The live catalog holding every *deployed* model."""
        return self._catalog

    # -- lifecycle ---------------------------------------------------------

    def register(
        self,
        model: MiningModel,
        rows: Sequence[Row] | None = None,
        deploy: bool = False,
    ) -> ModelVersion:
        """Add a new version of ``model.name``; optionally deploy it.

        Registration is cheap (digests of model content and ``rows``); the
        expensive envelope derivation happens at :meth:`deploy`.
        """
        with self._lock:
            history = self._versions.setdefault(model.name, [])
            fingerprint = model_fingerprint(model)
            entry = ModelVersion(
                name=model.name,
                version=len(history) + 1,
                model=model,
                fingerprint=fingerprint,
                cache_key=_digest(
                    [
                        fingerprint,
                        self._max_nodes,
                        self._bins,
                        None if rows is None else _digest(list(rows)),
                    ]
                ),
                rows=rows,
            )
            history.append(entry)
            obs.event(
                "serve.registry.register",
                model=model.name,
                version=entry.version,
            )
            if deploy:
                return self.deploy(model.name, entry.version)
            return entry

    def deploy(self, name: str, version: int | None = None) -> ModelVersion:
        """Make one registered version live (default: the newest).

        Derives and interns the version's envelopes unless a structurally
        identical model was deployed before under the same derivation
        inputs, in which case the envelope cache warm-starts the
        deployment.  Publishing bumps the catalog version, invalidating
        every cached plan against the old envelopes.
        """
        with self._lock:
            entry = self._resolve(name, version)
            with obs.span(
                "serve.deploy", model=name, version=entry.version
            ) as span:
                if entry.envelopes is None:
                    cached = self._envelope_cache.get(entry.cache_key)
                    if cached is None:
                        cached = self._disk_load(entry.cache_key)
                    if cached is not None:
                        obs.add_counter("serve.registry.warm_start.hit")
                        span.set("warm_start", True)
                        entry.envelopes, entry.derive_seconds = cached
                        self._envelope_cache[entry.cache_key] = cached
                    else:
                        obs.add_counter("serve.registry.warm_start.miss")
                        span.set("warm_start", False)
                        derived = derive_envelopes(
                            entry.model,
                            rows=entry.rows,
                            max_nodes=self._max_nodes,
                            bins=self._bins,
                        )
                        entry.envelopes = {
                            label: replace(
                                envelope,
                                predicate=intern(envelope.predicate),
                            )
                            for label, envelope in derived.items()
                        }
                        entry.derive_seconds = sum(
                            e.seconds for e in entry.envelopes.values()
                        )
                        self._envelope_cache[entry.cache_key] = (
                            entry.envelopes,
                            entry.derive_seconds,
                        )
                        self._disk_store(
                            entry.cache_key,
                            entry.envelopes,
                            entry.derive_seconds,
                        )
                    entry.envelope_fingerprints = {
                        label: ir_fingerprint(envelope.predicate)
                        for label, envelope in entry.envelopes.items()
                    }
                previous = self._deployed.get(name)
                if previous is not None and previous is not entry:
                    previous.deployed = False
                self._catalog.register(
                    entry.model, envelopes=entry.envelopes
                )
                entry.deployed = True
                self._deployed[name] = entry
                span.update(
                    catalog_version=self._catalog.entry(name).version,
                    labels=len(entry.envelopes),
                )
            return entry

    def retire(self, name: str) -> ModelVersion:
        """Remove a deployed model from serving.

        Later queries referencing it fail with a typed
        :class:`~repro.exceptions.CatalogError` (surfaced through the
        service as a request error), and cached plans keyed on it can
        never be replayed.  The version history is kept: the model can be
        redeployed, warm-starting from its cached envelopes.
        """
        with self._lock:
            entry = self._deployed.pop(name, None)
            if entry is None:
                raise RegistryError(
                    f"model {name!r} is not deployed; "
                    f"deployed: {self.deployed_names()}"
                )
            self._catalog.unregister(name)
            entry.deployed = False
            obs.event(
                "serve.registry.retire", model=name, version=entry.version
            )
            return entry

    # -- on-disk warm-start cache ------------------------------------------

    def _disk_path(self, key: str) -> Path:
        assert self._cache_dir is not None
        return self._cache_dir / f"envelopes_{key}.json"

    def _disk_load(
        self, key: str
    ) -> "tuple[dict[Value, UpperEnvelope], float] | None":
        """Warm-start envelopes from disk; ``None`` on any defect.

        A missing, corrupt, truncated, or format-skewed file is a cache
        miss (``serve.registry.warm_start.disk_miss``), never an error —
        the fallback is re-deriving, which is always correct.
        """
        if self._cache_dir is None:
            return None
        # The wire codec already round-trips predicates and values
        # exactly; imported lazily because protocol pulls in the engine,
        # which imports this module.
        from repro.serve.protocol import decode_predicate, decode_value

        try:
            with self._disk_path(key).open(
                encoding="utf-8"
            ) as stream:
                payload = json.load(stream)
            if (
                payload["format"] != _DISK_FORMAT
                or payload["fingerprint"] != key
            ):
                raise ValueError("format or fingerprint mismatch")
            envelopes: dict[Value, UpperEnvelope] = {}
            for item in payload["envelopes"]:
                envelope = UpperEnvelope(
                    model_name=item["model_name"],
                    model_kind=ModelKind(item["model_kind"]),
                    class_label=decode_value(item["class_label"]),
                    predicate=intern(
                        decode_predicate(item["predicate"])
                    ),
                    exact=bool(item["exact"]),
                    seconds=float(item["seconds"]),
                    derivation=item["derivation"],
                )
                envelopes[decode_value(item["label"])] = envelope
            derive_seconds = float(payload["derive_seconds"])
        except Exception:
            obs.add_counter("serve.registry.warm_start.disk_miss")
            return None
        obs.add_counter("serve.registry.warm_start.disk_hit")
        return envelopes, derive_seconds

    def _disk_store(
        self,
        key: str,
        envelopes: "dict[Value, UpperEnvelope]",
        derive_seconds: float,
    ) -> None:
        """Persist freshly derived envelopes, atomically.

        Same discipline as the sweep cache: write a tempfile in the
        target directory, then ``os.replace`` — readers only ever see a
        complete file.  I/O failures are swallowed: persistence is an
        optimization, not a correctness requirement.
        """
        if self._cache_dir is None:
            return
        from repro.serve.protocol import encode_predicate, encode_value

        payload = {
            "format": _DISK_FORMAT,
            "fingerprint": key,
            "derive_seconds": derive_seconds,
            "envelopes": [
                {
                    "label": encode_value(label),
                    "model_name": envelope.model_name,
                    "model_kind": envelope.model_kind.value,
                    "class_label": encode_value(envelope.class_label),
                    "predicate": encode_predicate(envelope.predicate),
                    "exact": envelope.exact,
                    "seconds": envelope.seconds,
                    "derivation": envelope.derivation,
                }
                for label, envelope in sorted(
                    envelopes.items(), key=lambda pair: str(pair[0])
                )
            ],
        }
        try:
            self._cache_dir.mkdir(parents=True, exist_ok=True)
            descriptor, temp_name = tempfile.mkstemp(
                prefix=f"envelopes_{key}.",
                suffix=".tmp",
                dir=self._cache_dir,
            )
            try:
                with os.fdopen(
                    descriptor, "w", encoding="utf-8"
                ) as stream:
                    json.dump(payload, stream, separators=(",", ":"))
                os.replace(temp_name, self._disk_path(key))
            except BaseException:
                os.unlink(temp_name)
                raise
        except OSError:
            return

    # -- introspection -----------------------------------------------------

    def versions(self, name: str) -> tuple[ModelVersion, ...]:
        """Every registered version of ``name``, oldest first."""
        with self._lock:
            try:
                return tuple(self._versions[name])
            except KeyError:
                raise RegistryError(
                    f"no model named {name!r} is registered; "
                    f"registered: {sorted(self._versions)}"
                ) from None

    def deployed_version(self, name: str) -> ModelVersion | None:
        """The live version of ``name`` (``None`` when not deployed)."""
        with self._lock:
            return self._deployed.get(name)

    def deployed_names(self) -> list[str]:
        with self._lock:
            return sorted(self._deployed)

    def registered_names(self) -> list[str]:
        with self._lock:
            return sorted(self._versions)

    def _resolve(self, name: str, version: int | None) -> ModelVersion:
        try:
            history = self._versions[name]
        except KeyError:
            raise RegistryError(
                f"no model named {name!r} is registered; "
                f"registered: {sorted(self._versions)}"
            ) from None
        if version is None:
            return history[-1]
        if not 1 <= version <= len(history):
            raise RegistryError(
                f"model {name!r} has no version {version}; "
                f"versions: 1..{len(history)}"
            )
        return history[version - 1]
