"""Tests for the multi-model serving fleet (pool, router)."""

import io
import json
import socket
import threading

import numpy as np
import pytest

from repro.api import (
    Classifier,
    ModelFleet,
    ModelKey,
    ModelPool,
    ReproConfig,
    ScoringClient,
    ScoringDaemon,
    serve,
)
from repro.api.fleet.pool import cache_loader
from repro.api.protocol import MAX_REQUEST_BYTES
from repro.api.wire import JSON_CODEC
from repro.errors import FleetError, ScoringError

TAG = "unit"


@pytest.fixture()
def tree_clf(tiny_dataset) -> Classifier:
    return Classifier(ReproConfig(profile="unit")).train(tiny_dataset)


@pytest.fixture()
def forest_clf(tiny_dataset) -> Classifier:
    config = ReproConfig(profile="unit", model="forest",
                         model_params={"n_estimators": 5},
                         feature_set="static-agg")
    return Classifier(config).train(tiny_dataset)


@pytest.fixture()
def agg_clf(tiny_dataset) -> Classifier:
    config = ReproConfig(profile="unit", feature_set="static-agg")
    return Classifier(config).train(tiny_dataset)


def counting_loader(variants: dict):
    """A pool loader over prebuilt classifiers that counts loads."""
    calls = {"n": 0, "keys": []}

    def load(key: ModelKey) -> Classifier:
        calls["n"] += 1
        calls["keys"].append(key.spec)
        try:
            return variants[(key.family, key.feature_set)]
        except KeyError:
            raise FleetError(f"no artifact for {key.spec!r}")

    return load, calls


class TestModelKey:
    def test_parse_full_and_default_tag(self):
        key = ModelKey.parse("forest:dynamic:paper")
        assert key == ModelKey("forest", "dynamic", "paper")
        assert key.spec == "forest:dynamic:paper"
        short = ModelKey.parse("tree:static-all", default_tag="unit")
        assert short.dataset_tag == "unit"

    @pytest.mark.parametrize("bad", ["", "tree", "a:b:c:d", ":static-all",
                                     "tree::unit", None, 7, "  "])
    def test_parse_rejects_malformed_specs(self, bad):
        with pytest.raises(FleetError):
            ModelKey.parse(bad, default_tag="unit")

    def test_for_classifier(self, tree_clf):
        key = ModelKey.for_classifier(tree_clf)
        assert key == ModelKey("tree", "static-all", "unit")


class TestModelPool:
    def test_default_model_and_explicit_key(self, tree_clf, forest_clf):
        pool = ModelPool(loader=lambda key: forest_clf, default_tag=TAG)
        default_key = pool.add(tree_clf, default=True)
        assert pool.default_key == default_key
        assert pool.get() is tree_clf
        assert pool.get("tree:static-all") is tree_clf
        assert pool.get("forest:static-agg") is forest_clf  # lazy load
        assert len(pool) == 2

    def test_no_default_raises(self):
        pool = ModelPool(loader=lambda key: None, default_tag=TAG)
        with pytest.raises(FleetError, match="no default"):
            pool.get()

    def test_lru_eviction_then_transparent_reload(self, tree_clf, agg_clf,
                                                  forest_clf):
        loader, calls = counting_loader({
            ("tree", "static-all"): tree_clf,
            ("tree", "static-agg"): agg_clf,
            ("forest", "static-agg"): forest_clf,
        })
        pool = ModelPool(loader=loader, max_models=2, default_tag=TAG)
        pool.get("tree:static-all")
        pool.get("tree:static-agg")
        # touch static-all so static-agg is the LRU victim
        pool.get("tree:static-all")
        pool.get("forest:static-agg")  # admits a third -> evicts one
        assert len(pool) == 2
        assert "tree:static-agg:unit" not in pool
        assert pool.stats()["evictions"] == 1
        # the evicted key stays servable: next request reloads it
        before = calls["n"]
        assert pool.get("tree:static-agg") is agg_clf
        assert calls["n"] == before + 1
        # a resident key is served without a reload
        pool.get("tree:static-agg")
        assert calls["n"] == before + 1

    def test_memory_budget_eviction(self, tree_clf, agg_clf):
        loader, calls = counting_loader({
            ("tree", "static-all"): tree_clf,
            ("tree", "static-agg"): agg_clf,
        })
        pool = ModelPool(loader=loader, default_tag=TAG)
        pool.get("tree:static-all")
        size = pool.entries()[0]["size_bytes"]
        assert size > 0
        # budget holds one model but not two
        pool.memory_budget_bytes = int(size * 1.5)
        pool.get("tree:static-agg")
        assert len(pool) == 1
        assert "tree:static-agg:unit" in pool  # newest survives

    def test_pinned_default_is_never_evicted(self, tree_clf, agg_clf,
                                             forest_clf):
        loader, _ = counting_loader({
            ("tree", "static-agg"): agg_clf,
            ("forest", "static-agg"): forest_clf,
        })
        pool = ModelPool(loader=loader, max_models=1, default_tag=TAG)
        pool.add(tree_clf, default=True)
        pool.get("tree:static-agg")
        pool.get("forest:static-agg")
        assert "tree:static-all:unit" in pool  # pinned default survived
        with pytest.raises(FleetError, match="pinned"):
            pool.evict("tree:static-all")

    def test_evict_unknown_key_returns_false(self, tree_clf):
        pool = ModelPool(loader=lambda key: tree_clf, default_tag=TAG)
        assert pool.evict("tree:static-all") is False

    def test_loader_failure_is_a_fleet_error(self):
        loader, _ = counting_loader({})
        pool = ModelPool(loader=loader, default_tag=TAG)
        with pytest.raises(FleetError, match="no artifact"):
            pool.get("tree:static-all")
        # the failed load does not poison later attempts
        with pytest.raises(FleetError, match="no artifact"):
            pool.get("tree:static-all")

    def test_concurrent_cold_gets_load_once(self, tree_clf):
        loading = threading.Event()
        calls = {"n": 0}

        def slow_loader(key):
            calls["n"] += 1
            loading.wait(2)
            return tree_clf

        pool = ModelPool(loader=slow_loader, default_tag=TAG)
        results: list = []

        def get() -> None:
            results.append(pool.get("tree:static-all"))

        threads = [threading.Thread(target=get) for _ in range(6)]
        for thread in threads:
            thread.start()
        loading.set()
        for thread in threads:
            thread.join(10)
        assert results == [tree_clf] * 6
        assert calls["n"] == 1  # single-flight

    def test_cache_loader_miss_refuses_to_train(self, tmp_path):
        loader = cache_loader(cache_dir=str(tmp_path))
        with pytest.raises(FleetError, match="no cached artifact"):
            loader(ModelKey("tree", "static-all", "unit"))


class TestProtocolEdges:
    def test_oversized_request_line(self, monkeypatch):
        assert MAX_REQUEST_BYTES >= 1024 * 1024  # permissive but real
        assert JSON_CODEC.decode_request(b'{"cmd": "info"}')[0] == \
            {"cmd": "info"}
        monkeypatch.setattr("repro.api.wire.MAX_REQUEST_BYTES", 32)
        line = b'{"pad": "' + b"x" * 64 + b'"}'
        request, error = JSON_CODEC.decode_request(line)
        assert request is None
        assert error["ok"] is False
        assert error["code"] == "too_large"

    def test_oversized_line_through_the_fleet(self, tree_clf):
        fleet = ModelFleet(default=tree_clf)
        line = '{"pad": "' + "x" * (MAX_REQUEST_BYTES + 16) + '"}\n'
        out = io.StringIO()
        serve(fleet, io.StringIO(line), out)
        frame = json.loads(out.getvalue())
        assert frame["ok"] is False
        assert frame["code"] == "too_large"


class TestModelFleetRouter:
    def _fleet(self, tree_clf, variants=None):
        loader, calls = counting_loader(variants or {})
        pool = ModelPool(loader=loader, default_tag=TAG)
        fleet = ModelFleet(pool, default=tree_clf)
        return fleet, calls

    def test_default_model_serves_requests_without_model_field(
            self, tree_clf, tiny_dataset):
        fleet, _ = self._fleet(tree_clf)
        X = tiny_dataset.matrix(tree_clf.feature_names_)
        frame = fleet.handle_request({"rows": X.tolist(), "id": 1})
        assert frame["ok"] is True
        assert frame["predictions"] == \
            [int(p) for p in tree_clf.predict_batch(X)]
        assert frame["id"] == 1

    def test_model_field_routes_to_the_named_variant(
            self, tree_clf, forest_clf, tiny_dataset):
        fleet, calls = self._fleet(
            tree_clf, {("forest", "static-agg"): forest_clf})
        Xf = tiny_dataset.matrix(forest_clf.feature_names_)
        frame = fleet.handle_request(
            {"rows": Xf.tolist(), "model": "forest:static-agg"})
        assert frame["predictions"] == \
            [int(p) for p in forest_clf.predict_batch(Xf)]
        assert calls["keys"] == ["forest:static-agg:unit"]
        info = fleet.handle_request(
            {"cmd": "info", "model": "forest:static-agg"})
        assert info["info"]["model_family"] == "forest"

    def test_missing_artifact_answers_unknown_model(self, tree_clf):
        fleet, _ = self._fleet(tree_clf)
        frame = fleet.handle_request(
            {"features": [0.0], "model": "forest:static-agg", "id": 9})
        assert frame["ok"] is False
        assert frame["code"] == "unknown_model"
        assert frame["id"] == 9

    def test_malformed_model_spec_answers_bad_request(self, tree_clf):
        fleet, _ = self._fleet(tree_clf)
        frame = fleet.handle_request(
            {"features": [0.0], "model": "not-a-spec"})
        assert frame["ok"] is False
        assert frame["code"] == "bad_request"

    def test_unknown_verb_answers_bad_request(self, tree_clf):
        fleet, _ = self._fleet(tree_clf)
        # deliberately unknown verb: the bad_request path under test
        frame = fleet.handle_request(
            {"cmd": "frobnicate", "id": 3})  # repro: noqa[RPL001]
        assert frame["ok"] is False
        assert frame["code"] == "bad_request"
        assert frame["id"] == 3

    def test_admin_verbs(self, tree_clf, forest_clf):
        fleet, _ = self._fleet(
            tree_clf, {("forest", "static-agg"): forest_clf})
        loaded = fleet.handle_request(
            {"cmd": "load_model", "model": "forest:static-agg"})
        assert loaded["ok"] is True
        assert loaded["model"] == "forest:static-agg:unit"
        listing = fleet.handle_request({"cmd": "list_models"})
        specs = [m["model"] for m in listing["models"]]
        assert specs == ["tree:static-all:unit", "forest:static-agg:unit"]
        assert listing["models"][0]["pinned"] is True
        assert listing["stats"]["pool"]["resident_models"] == 2
        evicted = fleet.handle_request(
            {"cmd": "evict_model", "model": "forest:static-agg"})
        assert evicted["evicted"] is True
        assert len(fleet.pool) == 1

    def test_evicting_the_pinned_default_is_refused(self, tree_clf):
        fleet, _ = self._fleet(tree_clf)
        frame = fleet.handle_request(
            {"cmd": "evict_model", "model": "tree:static-all"})
        assert frame["ok"] is False
        assert frame["code"] == "bad_request"
        assert "pinned" in frame["error"]

    def test_admin_verbs_require_a_model_key(self, tree_clf):
        fleet, _ = self._fleet(tree_clf)
        for cmd in ("load_model", "evict_model"):
            frame = fleet.handle_request({"cmd": cmd})
            assert frame["ok"] is False
            assert frame["code"] == "bad_request"


class TestFleetDaemon:
    def test_two_models_concurrently_byte_identical(
            self, tree_clf, forest_clf, tiny_dataset, tmp_path):
        """Acceptance: one daemon, >= 2 distinct model/feature-set
        artifacts, concurrent clients, per-model byte-identical wire
        predictions vs direct Classifier.predict_batch."""
        loader, _ = counting_loader(
            {("forest", "static-agg"): forest_clf})
        pool = ModelPool(loader=loader, default_tag=TAG)
        fleet = ModelFleet(pool, default=tree_clf)
        Xt = tiny_dataset.matrix(tree_clf.feature_names_)
        Xf = tiny_dataset.matrix(forest_clf.feature_names_)
        expected = {
            None: [int(p) for p in tree_clf.predict_batch(Xt)],
            "forest:static-agg": [int(p) for p in
                                  forest_clf.predict_batch(Xf)],
        }
        unix_path = str(tmp_path / "fleet.sock")
        results: list = [None] * 8
        errors: list = []

        def worker(slot: int) -> None:
            model = None if slot % 2 == 0 else "forest:static-agg"
            X = Xt if model is None else Xf
            try:
                with ScoringClient(socket_path=unix_path) as client:
                    batch = client.predict_batch(X, model=model)
                    singles = [client.predict(list(row), model=model)
                               for row in X]
                    results[slot] = (model, batch, singles)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        daemon = ScoringDaemon(fleet=fleet, socket_path=unix_path,
                               workers=8)
        with daemon:
            threads = [threading.Thread(target=worker, args=(slot,))
                       for slot in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
        assert not errors
        for model, batch, singles in results:
            assert batch == expected[model]
            assert singles == expected[model]

    def test_old_clients_keep_working_against_a_fleet_daemon(
            self, tree_clf, tiny_dataset, tmp_path):
        """Protocol backward compatibility: requests without a 'model'
        field (the entire PR 3 client surface) serve from the pinned
        default with identical frames."""
        fleet = ModelFleet(default=tree_clf)
        X = tiny_dataset.matrix(tree_clf.feature_names_)
        unix_path = str(tmp_path / "compat.sock")
        with ScoringDaemon(fleet=fleet, socket_path=unix_path, workers=2):
            with ScoringClient(socket_path=unix_path) as client:
                # the PR 3 verbs, untouched: no model= anywhere
                assert client.predict_batch(X) == \
                    [int(p) for p in tree_clf.predict_batch(X)]
                assert client.predict(list(X[0])) == \
                    tree_clf.predict(X[0])
                mapping = dict(zip(tree_clf.feature_names_, X[1]))
                assert client.predict(mapping) == tree_clf.predict(X[1])
                assert client.info()["model_family"] == "tree"
                with pytest.raises(ScoringError) as excinfo:
                    client.predict({"op": 1.0})
                assert excinfo.value.code == "bad_request"

    def test_daemon_requires_exactly_one_scorer(self, tree_clf, tmp_path):
        from repro.errors import DaemonError
        fleet = ModelFleet(default=tree_clf)
        path = str(tmp_path / "x.sock")
        with pytest.raises(DaemonError, match="exactly one scorer"):
            ScoringDaemon(tree_clf, socket_path=path, fleet=fleet)
        with pytest.raises(DaemonError, match="exactly one scorer"):
            ScoringDaemon(socket_path=path)


class TestClientReconnect:
    def test_retry_survives_a_daemon_restart(self, tree_clf, tiny_dataset,
                                             tmp_path):
        X = tiny_dataset.matrix(tree_clf.feature_names_)
        expected = tree_clf.predict(X[0])
        unix_path = str(tmp_path / "restart.sock")
        first = ScoringDaemon(tree_clf, socket_path=unix_path, workers=1)
        first.start()
        client = ScoringClient(socket_path=unix_path)
        try:
            assert client.predict(list(X[0])) == expected
            first.stop()
            second = ScoringDaemon(tree_clf, socket_path=unix_path,
                                   workers=1)
            second.start()
            try:
                # the old connection is dead; the client reconnects and
                # the request succeeds instead of raising
                assert client.predict(list(X[0])) == expected
            finally:
                second.stop()
        finally:
            client.close()
            first.stop()

    def test_daemon_gone_for_good_raises_one_clean_error(
            self, tree_clf, tiny_dataset, tmp_path):
        X = tiny_dataset.matrix(tree_clf.feature_names_)
        unix_path = str(tmp_path / "gone.sock")
        daemon = ScoringDaemon(tree_clf, socket_path=unix_path, workers=1)
        daemon.start()
        client = ScoringClient(socket_path=unix_path)
        try:
            client.predict(list(X[0]))
            daemon.stop()  # socket unlinked; nothing to reconnect to
            with pytest.raises(ScoringError) as excinfo:
                client.predict(list(X[0]))
            assert excinfo.value.code == "transport"
            assert not isinstance(excinfo.value, OSError)
        finally:
            client.close()

    def test_reconnect_can_be_disabled(self, tmp_path):
        with pytest.raises(ScoringError):
            ScoringClient(socket_path=str(tmp_path / "x.sock"),
                          reconnect_retries=-1)


def test_numpy_roundtrip_is_byte_identical_through_batching(
        tree_clf, tiny_dataset, tmp_path):
    """JSON wire frames from the event loop's coalesced path carry
    plain ints."""
    X = tiny_dataset.matrix(tree_clf.feature_names_)
    unix_path = str(tmp_path / "ints.sock")
    with ScoringDaemon(fleet=ModelFleet(default=tree_clf),
                       socket_path=unix_path, workers=1):
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.settimeout(10.0)
        sock.connect(unix_path)
        with sock:
            sock.sendall(json.dumps(
                {"features": list(X[0])}).encode() + b"\n")
            frame = json.loads(sock.makefile("rb").readline())
    assert frame["prediction"] == tree_clf.predict(X[0])
    assert np.asarray(frame["prediction"]).dtype.kind == "i"

