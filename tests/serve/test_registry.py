"""Model registry lifecycle: register / deploy / retire, warm-starts."""

from __future__ import annotations

import pytest

from repro.core.optimizer import MiningQuery
from repro.core.rewrite import PredictionEquals
from repro.exceptions import CatalogError, RegistryError
from repro.ir import intern
from repro.serve import ModelRegistry, model_fingerprint
from repro.sql.plancache import PlanCache


@pytest.fixture()
def registry(customer_tree):
    reg = ModelRegistry(max_nodes=100)
    reg.register(customer_tree)
    return reg


class TestRegister:
    def test_versions_increase(self, registry, customer_tree):
        second = registry.register(customer_tree)
        assert second.version == 2
        assert [v.version for v in registry.versions("risk_tree")] == [1, 2]

    def test_register_is_cheap(self, registry):
        entry = registry.versions("risk_tree")[0]
        assert entry.envelopes is None  # derivation deferred to deploy
        assert not entry.deployed

    def test_fingerprint_is_content_based(self, customer_tree, customer_nb):
        assert model_fingerprint(customer_tree) == model_fingerprint(
            customer_tree
        )
        assert model_fingerprint(customer_tree) != model_fingerprint(
            customer_nb
        )

    def test_unknown_name(self, registry):
        with pytest.raises(RegistryError, match="no model named"):
            registry.versions("nope")
        with pytest.raises(RegistryError, match="no model named"):
            registry.deploy("nope")


class TestDeploy:
    def test_deploy_derives_and_publishes(self, registry, customer_tree):
        entry = registry.deploy("risk_tree")
        assert entry.deployed
        assert entry.envelopes
        assert set(entry.envelope_fingerprints) == set(entry.envelopes)
        # Envelope predicates were interned: re-interning is the identity.
        for envelope in entry.envelopes.values():
            assert intern(envelope.predicate) is envelope.predicate
        assert registry.catalog.entry("risk_tree").model is customer_tree

    def test_deploy_specific_version(self, registry, customer_tree):
        registry.register(customer_tree)
        entry = registry.deploy("risk_tree", version=1)
        assert entry.version == 1
        assert registry.deployed_version("risk_tree") is entry
        with pytest.raises(RegistryError, match="no version 7"):
            registry.deploy("risk_tree", version=7)

    def test_redeploy_warm_starts(self, registry, customer_tree):
        first = registry.deploy("risk_tree")
        registry.retire("risk_tree")
        second_version = registry.register(customer_tree)
        second = registry.deploy("risk_tree")
        assert second is second_version
        # Same model content -> the envelope cache is reused wholesale.
        assert second.envelopes is first.envelopes

    def test_redeploy_invalidates_cached_plans(
        self, registry, customer_tree
    ):
        registry.deploy("risk_tree")
        cache = PlanCache(8)
        query = MiningQuery(
            "customers",
            mining_predicates=(PredictionEquals("risk_tree", "high"),),
        )
        cache.get_or_optimize(query, registry.catalog)
        registry.register(customer_tree, deploy=True)  # bumps version
        cache.get_or_optimize(query, registry.catalog)
        assert cache.stats.invalidations == 1
        assert cache.stats.hits == 0


class TestRetire:
    def test_retire_removes_from_catalog(self, registry):
        registry.deploy("risk_tree")
        entry = registry.retire("risk_tree")
        assert not entry.deployed
        assert registry.deployed_version("risk_tree") is None
        with pytest.raises(CatalogError):
            registry.catalog.entry("risk_tree")
        # The history survives for redeployment.
        assert registry.registered_names() == ["risk_tree"]

    def test_retire_not_deployed(self, registry):
        with pytest.raises(RegistryError, match="not deployed"):
            registry.retire("risk_tree")


class TestDiskEnvelopeCache:
    def _deploy(self, customer_tree, cache_dir):
        registry = ModelRegistry(max_nodes=100, cache_dir=cache_dir)
        registry.register(customer_tree)
        return registry, registry.deploy("risk_tree")

    def test_deploy_persists_an_envelope_file(
        self, tmp_path, customer_tree
    ):
        _, entry = self._deploy(customer_tree, tmp_path)
        target = tmp_path / f"envelopes_{entry.cache_key}.json"
        assert target.exists()
        # No stray tempfiles after the atomic replace.
        assert list(tmp_path.glob("*.tmp")) == []

    def test_fresh_registry_warm_starts_from_disk(
        self, tmp_path, customer_tree, monkeypatch
    ):
        from repro.serve import registry as registry_module

        _, cold = self._deploy(customer_tree, tmp_path)
        counted: list[str] = []
        monkeypatch.setattr(
            registry_module.obs,
            "add_counter",
            lambda name, value=1: counted.append(name),
        )
        _, warm = self._deploy(customer_tree, tmp_path)
        assert "serve.registry.warm_start.disk_hit" in counted
        assert set(warm.envelopes) == set(cold.envelopes)
        for label, envelope in warm.envelopes.items():
            expected = cold.envelopes[label]
            assert envelope.predicate is intern(expected.predicate)
            assert envelope.exact == expected.exact
            assert envelope.model_kind == expected.model_kind

    def test_warm_start_serves_identical_rows(
        self, tmp_path, customer_tree, serve_db
    ):
        from repro.sql.miningext import PredictionJoinExecutor

        query = MiningQuery(
            "customers",
            mining_predicates=(PredictionEquals("risk_tree", "high"),),
        )
        registries = [
            self._deploy(customer_tree, tmp_path)[0] for _ in range(2)
        ]
        rows = [
            PredictionJoinExecutor(serve_db, r.catalog)
            .execute(query)
            .rows
            for r in registries
        ]
        assert rows[0] == rows[1]

    def test_corrupt_cache_file_is_a_miss_not_an_error(
        self, tmp_path, customer_tree, monkeypatch
    ):
        from repro.serve import registry as registry_module

        _, entry = self._deploy(customer_tree, tmp_path)
        target = tmp_path / f"envelopes_{entry.cache_key}.json"
        target.write_text("{ not json", encoding="utf-8")
        counted: list[str] = []
        monkeypatch.setattr(
            registry_module.obs,
            "add_counter",
            lambda name, value=1: counted.append(name),
        )
        _, rederived = self._deploy(customer_tree, tmp_path)
        assert "serve.registry.warm_start.disk_miss" in counted
        assert rederived.envelopes
        # The re-derivation healed the cache file.
        assert "not json" not in target.read_text(encoding="utf-8")

    def test_registry_with_another_budget_rederives(
        self, tmp_path, customer_nb, monkeypatch
    ):
        """Derivation reads ``max_nodes``, so the cache key must too.

        A registry at a zero budget and one at 100 share a cache
        directory; the second must not serve the first's looser
        envelopes.
        """
        from repro.serve import registry as registry_module

        def predicates(entry):
            return {
                label: envelope.predicate
                for label, envelope in entry.envelopes.items()
            }

        small = ModelRegistry(max_nodes=0, cache_dir=tmp_path)
        loose = small.register(customer_nb, deploy=True)
        counted: list[str] = []
        monkeypatch.setattr(
            registry_module.obs,
            "add_counter",
            lambda name, value=1: counted.append(name),
        )
        large = ModelRegistry(max_nodes=100, cache_dir=tmp_path)
        served = large.register(customer_nb, deploy=True)
        assert "serve.registry.warm_start.disk_miss" in counted
        uncached = ModelRegistry(max_nodes=100).register(
            customer_nb, deploy=True
        )
        assert predicates(served) == predicates(uncached)
        assert predicates(loose) != predicates(uncached)

    def test_fingerprint_mismatch_is_rejected(
        self, tmp_path, customer_tree
    ):
        import json

        _, entry = self._deploy(customer_tree, tmp_path)
        target = tmp_path / f"envelopes_{entry.cache_key}.json"
        payload = json.loads(target.read_text(encoding="utf-8"))
        payload["fingerprint"] = "0" * 16
        target.write_text(json.dumps(payload), encoding="utf-8")
        registry = ModelRegistry(max_nodes=100, cache_dir=tmp_path)
        registry.register(customer_tree)
        entry = registry.deploy("risk_tree")  # re-derives, no crash
        assert entry.envelopes

    def test_environment_variable_configures_the_directory(
        self, tmp_path, customer_tree, monkeypatch
    ):
        from repro.serve.registry import ENV_ENVELOPE_CACHE_DIR

        monkeypatch.setenv(ENV_ENVELOPE_CACHE_DIR, str(tmp_path))
        registry = ModelRegistry(max_nodes=100)
        registry.register(customer_tree)
        entry = registry.deploy("risk_tree")
        target = tmp_path / f"envelopes_{entry.cache_key}.json"
        assert target.exists()

    def test_no_cache_dir_means_no_files(self, customer_tree, tmp_path):
        registry = ModelRegistry(max_nodes=100)
        registry.register(customer_tree)
        registry.deploy("risk_tree")
        assert list(tmp_path.iterdir()) == []
