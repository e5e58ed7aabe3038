"""The typed fleet-ops surface: :mod:`repro.api.admin`.

Covers the result dataclasses (ShardHealth / ModelInfo / ModelListing
/ FleetStats), AdminClient's borrow-vs-own connection semantics, every
admin verb against live daemons (stats, health, list_models,
load_model, evict_model, promote, drain), and the typed fleet-wide
``collect_stats``.
"""

import dataclasses
import os
import time

import numpy as np
import pytest

from repro.api import (
    AdminClient,
    Classifier,
    ModelFleet,
    ModelPool,
    ReproConfig,
    ScoringClient,
    ScoringDaemon,
)
from repro.api.admin import FleetStats, ModelInfo, ModelListing, ShardHealth
from repro.errors import FleetError, ScoringError

TREE = "tree:static-all:unit"
AGG = "tree:static-agg:unit"


@pytest.fixture()
def trained(tiny_dataset) -> Classifier:
    return Classifier(ReproConfig(profile="unit")).train(tiny_dataset)


@pytest.fixture()
def agg_clf(tiny_dataset) -> Classifier:
    return Classifier(ReproConfig(
        profile="unit", feature_set="static-agg")).train(tiny_dataset)


@pytest.fixture()
def unix_path(tmp_path) -> str:
    return str(tmp_path / "repro.sock")


def variant_fleet(trained, agg_clf) -> ModelFleet:
    variants = {TREE: trained, AGG: agg_clf}

    def loader(key):
        try:
            return variants[key.spec]
        except KeyError:
            raise FleetError(f"no artifact for {key.spec!r}")

    pool = ModelPool(loader=loader, default_tag="unit")
    return ModelFleet(pool, default=trained)


class TestShardHealth:
    def test_from_payload(self):
        payload = {"status": "serving", "pid": 4242, "draining": False,
                   "shard": {"index": 3, "pid": 4242}}
        health = ShardHealth.from_payload(payload)
        assert health.status == "serving"
        assert health.pid == 4242
        assert health.index == 3
        assert health.serving is True
        assert health.raw == payload

    def test_draining_and_missing_fields(self):
        health = ShardHealth.from_payload({"status": "draining",
                                           "draining": True})
        assert health.serving is False
        assert health.pid is None
        assert health.index is None
        # raw is carry-through only: it never affects equality
        assert health == ShardHealth(status="draining", pid=None,
                                     draining=True, raw={"x": 1})


class TestModelInfo:
    ROW = {"model": TREE, "family": "tree", "feature_set": "static-all",
           "dataset_tag": "unit", "size_bytes": 512, "hits": 3,
           "loads": 1, "pinned": True, "default": True}

    def test_row_round_trip(self):
        info = ModelInfo.from_row(self.ROW)
        assert info.model == TREE
        assert info.default and info.pinned
        assert dataclasses.asdict(info) == self.ROW

    def test_missing_fields_default(self):
        info = ModelInfo.from_row({"model": AGG})
        assert info.size_bytes == 0
        assert not info.default


class TestModelListing:
    def test_default_iter_len(self):
        rows = [dict(TestModelInfo.ROW),
                {**TestModelInfo.ROW, "model": AGG, "pinned": False,
                 "default": False}]
        listing = ModelListing(
            models=tuple(ModelInfo.from_row(r) for r in rows))
        assert len(listing) == 2
        assert [info.model for info in listing] == [TREE, AGG]
        assert listing.default.model == TREE

    def test_no_default(self):
        listing = ModelListing(models=())
        assert listing.default is None
        assert len(listing) == 0


class TestFleetStats:
    def test_live_shards_and_dict_shape(self):
        stats = FleetStats(
            requests_served=7, connections_served=2, active_connections=1,
            shards=({"server": {"requests_served": 7}},
                    {"shard": {"index": 1}, "error": "dead"}),
            codec=None)
        assert stats.live_shards == 1
        assert stats.as_dict() == {
            "shards": list(stats.shards),
            "requests_served": 7,
            "connections_served": 2,
            "active_connections": 1,
            "codec": None,
        }


class TestOwnership:
    def test_client_and_endpoint_is_an_error(self, unix_path):
        client = ScoringClient.__new__(ScoringClient)  # never dials
        with pytest.raises(ScoringError, match="not both"):
            AdminClient(client, socket_path=unix_path)

    def test_borrowed_client_survives_admin_close(self, trained,
                                                  tiny_dataset, unix_path):
        row = list(map(float,
                       tiny_dataset.matrix(trained.feature_names_)[0]))
        with ScoringDaemon(trained, socket_path=unix_path, workers=1):
            with ScoringClient(socket_path=unix_path) as client:
                with AdminClient(client) as admin:
                    assert admin.health().serving
                # the borrowed connection is still the caller's
                assert client.predict(row) == int(trained.predict(row))

    def test_owned_client_is_closed(self, trained, unix_path):
        with ScoringDaemon(trained, socket_path=unix_path, workers=1):
            with AdminClient(socket_path=unix_path) as admin:
                assert admin.stats()["server"]["requests_served"] >= 0
            with pytest.raises(ScoringError, match="closed"):
                admin.health()


class TestVerbs:
    def test_health_and_stats(self, trained, unix_path):
        with ScoringDaemon(trained, socket_path=unix_path, workers=1):
            with AdminClient(socket_path=unix_path) as admin:
                health = admin.health()
                assert health.status == "serving"
                assert health.serving
                assert health.pid == os.getpid()
                assert health.index is None  # standalone daemon
                assert "server" in admin.stats()

    def test_model_management(self, trained, agg_clf, unix_path):
        fleet = variant_fleet(trained, agg_clf)
        with ScoringDaemon(fleet=fleet, socket_path=unix_path, workers=1):
            with AdminClient(socket_path=unix_path) as admin:
                listing = admin.list_models()
                assert isinstance(listing, ModelListing)
                assert listing.default.model == TREE
                assert listing.default.pinned

                assert admin.load_model("tree:static-agg") == AGG
                assert {info.model for info in admin.list_models()} == \
                    {TREE, AGG}

                # promotion moves the pinned default
                assert admin.promote("tree:static-agg") == AGG
                listing = admin.list_models()
                assert listing.default.model == AGG
                by_model = {info.model: info for info in listing}
                assert not by_model[TREE].pinned

                # promote is resident-only: a cold key must not block
                # scoring behind an artifact load
                with pytest.raises(ScoringError) as excinfo:
                    admin.promote("tree:static-mca")
                assert excinfo.value.code == "unknown_model"

                assert admin.evict_model("tree:static-all") is True
                assert admin.evict_model("tree:static-all") is False

    def test_promote_rebinds_the_coalesced_default_route(
            self, trained, agg_clf, tiny_dataset, unix_path):
        """After promote, default-route rows score the promoted model on
        every coalesced framing: JSON single rows, binary-v2 single-row
        and multi-row stream frames, although its feature count
        differs."""
        assert len(agg_clf.feature_names_) != len(trained.feature_names_)
        rows = np.asarray(tiny_dataset.matrix(agg_clf.feature_names_),
                          dtype=np.float32).astype(np.float64)
        want = [int(p) for p in agg_clf.predict_batch(rows)]
        old_row = list(tiny_dataset.matrix(trained.feature_names_)[0])
        fleet = variant_fleet(trained, agg_clf)
        with ScoringDaemon(fleet=fleet, socket_path=unix_path, workers=1):
            with AdminClient(socket_path=unix_path) as admin:
                with ScoringClient(socket_path=unix_path) as client:
                    assert client.predict(old_row) == trained.predict(old_row)
                assert admin.load_model("tree:static-agg") == AGG
                assert admin.promote("tree:static-agg") == AGG
            for codec, single in (("json", True), ("binary-v2", True),
                                  ("binary-v2", False)):
                with ScoringClient(socket_path=unix_path,
                                   codec=codec) as client:
                    assert client.codec == codec
                    if single:
                        got = [client.predict(list(row)) for row in rows]
                    else:
                        got = client.predict_pipelined(rows)
                    assert got == want, codec

    def test_drain_stops_the_daemon(self, trained, unix_path):
        daemon = ScoringDaemon(trained, socket_path=unix_path, workers=1)
        with daemon:
            with AdminClient(socket_path=unix_path) as admin:
                assert admin.drain() is True
            deadline = time.monotonic() + 10
            while daemon.engine is not None and time.monotonic() < deadline:
                time.sleep(0.05)
            assert daemon.engine is None
