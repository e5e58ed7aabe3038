"""The fleet-ops surface: :mod:`repro.api.admin`.

Covers AdminClient's borrow-vs-own connection semantics and every
admin verb against live daemons (stats, health, list_models,
load_model, evict_model, promote, drain), each answering its wire
payload.
"""

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
    """The ``health`` payload of a shard, answered whole by health()."""

    def test_from_payload(self, trained, unix_path):
        shard = {"index": 3, "pid": os.getpid()}
        with ScoringDaemon(trained, socket_path=unix_path, workers=1,
                           stats_extra={"shard": shard}):
            with AdminClient(socket_path=unix_path) as admin:
                health = admin.health()
        assert health == {"status": "serving", "pid": os.getpid(),
                          "draining": False, "shard": shard}
        assert health["shard"]["index"] == 3

    def test_draining_and_missing_fields(self, trained, tiny_dataset,
                                         unix_path):
        row = list(map(float,
                       tiny_dataset.matrix(trained.feature_names_)[0]))
        with ScoringDaemon(trained, socket_path=unix_path,
                           workers=1) as daemon:
            with AdminClient(socket_path=unix_path) as admin:
                daemon.engine.draining = True
                health = admin.health()
                # answered mid-drain while scoring is refused
                with pytest.raises(ScoringError) as excinfo:
                    admin.client.predict(row)
                assert excinfo.value.code == "draining"
        assert health["status"] == "draining"
        assert health["draining"] is True
        # a standalone daemon has no shard identity to report
        assert "shard" not in health


class TestModelInfo:
    """One ``list_models`` row as it crosses the wire."""

    def test_row_round_trip(self, trained, agg_clf, unix_path):
        fleet = variant_fleet(trained, agg_clf)
        with ScoringDaemon(fleet=fleet, socket_path=unix_path, workers=1):
            with AdminClient(socket_path=unix_path) as admin:
                (row,) = admin.list_models()["models"]
                assert row == fleet.pool.entries()[0]
        assert list(row) == ["model", "family", "feature_set",
                             "dataset_tag", "size_bytes", "hits",
                             "loads", "default"]
        assert (row["model"], row["family"], row["feature_set"],
                row["dataset_tag"]) == (TREE, "tree", "static-all", "unit")
        assert row["default"] is True
        assert row["size_bytes"] > 0


class TestModelListing:
    """The ``list_models`` answer: rows plus the pool stats."""

    def test_default_iter_len(self, trained, agg_clf, unix_path):
        fleet = variant_fleet(trained, agg_clf)
        with ScoringDaemon(fleet=fleet, socket_path=unix_path, workers=1):
            with AdminClient(socket_path=unix_path) as admin:
                admin.load_model("tree:static-agg")
                listing = admin.list_models()
        rows = listing["models"]
        assert len(rows) == listing["stats"]["pool"]["resident_models"] == 2
        assert [row["model"] for row in rows] == [TREE, AGG]
        assert [row["model"] for row in rows if row["default"]] == [TREE]


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
                    assert admin.health()["status"] == "serving"
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
        with ScoringDaemon(trained, socket_path=unix_path,
                           workers=1) as daemon:
            with AdminClient(socket_path=unix_path) as admin:
                # a standalone daemon's payload has no shard section
                assert admin.health() == {"status": "serving",
                                          "pid": os.getpid(),
                                          "draining": False}
                assert "server" in admin.stats()
                daemon.engine.draining = True
                assert admin.health() == {"status": "draining",
                                          "pid": os.getpid(),
                                          "draining": True}

    def test_model_management(self, trained, agg_clf, unix_path):
        fleet = variant_fleet(trained, agg_clf)
        with ScoringDaemon(fleet=fleet, socket_path=unix_path, workers=1):
            with AdminClient(socket_path=unix_path) as admin:
                listing = admin.list_models()
                assert list(listing) == ["models", "stats"]
                assert [(row["model"], row["default"])
                        for row in listing["models"]] == [(TREE, True)]
                assert listing["stats"]["pool"]["default_model"] == TREE

                assert admin.load_model("tree:static-agg") == AGG
                # rows come least recently used first
                assert [row["model"] for row in
                        admin.list_models()["models"]] == [TREE, AGG]

                # promotion moves the pinned default
                assert admin.promote("tree:static-agg") == AGG
                listing = admin.list_models()
                assert {row["model"]: row["default"]
                        for row in listing["models"]} == {TREE: False,
                                                          AGG: True}
                assert listing["stats"]["pool"]["default_model"] == AGG

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
