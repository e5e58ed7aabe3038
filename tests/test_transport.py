"""Tests for the unified transport core, sharding and pipelining.

Covers the ISSUE 5 acceptance surface: byte-identical frames across
the stdio / classifier-daemon / fleet-daemon serving paths, the
``{"cmd": "stats"}`` verb, the pipelined client (bounded in-flight
window, out-of-order completion, typed error frames mid-pipeline,
reconnect-with-resend), and process-level sharding (1 vs N shard
byte-identity, crash -> retry lands on a live shard, registry
lifecycle, the ``repro serve --shards`` CLI).
"""

import functools
import io
import json
import os
import socket
import tempfile
import threading
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import (
    AdminClient,
    Classifier,
    ModelFleet,
    ReproConfig,
    ScoringClient,
    ScoringDaemon,
    ShardSupervisor,
    classifier_factory,
    serve,
)
from repro.api.client import DEFAULT_PIPELINE_WINDOW
from repro.api.protocol import ERROR_DRAINING
from repro.api.shard import read_registry, shard_socket_path, write_registry
from repro.api.transport import RequestEngine
from repro.api.wire import (
    BINARY_V2_CODEC,
    CODEC_BINARY_V2,
    CODEC_JSON,
    FRAME_JSON,
    HEADER,
    JSON_CODEC,
    NO_ID,
    BinaryV2Codec,
    WireSession,
)
from repro.dataset.registry import get_kernel_spec
from repro.errors import DaemonError, ScoringError
from repro.ir.types import parse_dtype
from repro.ml.tree import DecisionTreeClassifier
from tests.tree_oracle import predict_rowwise


@pytest.fixture()
def trained(tiny_dataset) -> Classifier:
    return Classifier(ReproConfig(profile="unit")).train(tiny_dataset)


@pytest.fixture()
def unix_path(tmp_path) -> str:
    return str(tmp_path / "repro.sock")


@pytest.fixture()
def artifact(trained, tmp_path) -> str:
    path = str(tmp_path / "model.json")
    trained.save(path)
    return path


def _raw_exchange(sock_path: str, lines: list) -> list:
    """Send raw protocol lines over one connection; return raw frames."""
    sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    sock.settimeout(30.0)
    sock.connect(sock_path)
    frames = []
    with sock:
        reader = sock.makefile("rb")
        for line in lines:
            sock.sendall((line + "\n").encode("utf-8"))
            frames.append(reader.readline())
    return frames


def _request_lines(trained, tiny_dataset) -> list:
    X = tiny_dataset.matrix(trained.feature_names_)
    mapping = dict(zip(trained.feature_names_, map(float, X[0])))
    return [
        json.dumps({"features": list(map(float, X[0])), "id": 1}),
        json.dumps({"features": mapping, "id": 2}),
        json.dumps({"rows": X[:4].tolist(), "id": 3}),
        json.dumps({"cmd": "info", "id": 4}),
        "this is not json",
        json.dumps({"features": {"bogus": 1.0}, "id": 5}),
        json.dumps({"cmd": "frobnicate", "id": 6}),
        json.dumps({"features": list(map(float, X[1]))}),  # no id
    ]


class TestByteIdenticalAcrossTransports:
    def test_three_serving_paths_emit_identical_frames(
            self, trained, tiny_dataset, tmp_path):
        """Acceptance: stdio, a classifier daemon and a fleet daemon all
        dispatch through the shared engine and answer byte-identical
        frames for the same request lines."""
        lines = _request_lines(trained, tiny_dataset)

        # (a) stdio
        out = io.StringIO()
        serve(trained, io.StringIO("\n".join(lines) + "\n"), out)
        stdio_frames = [(f + "\n").encode("utf-8")
                        for f in out.getvalue().splitlines()]

        # (b) classifier daemon (a one-model fleet)
        classifier_path = str(tmp_path / "classifier.sock")
        with ScoringDaemon(trained, socket_path=classifier_path,
                           workers=2):
            classifier_frames = _raw_exchange(classifier_path, lines)

        # (c) fleet daemon (same pinned model)
        fleet_path = str(tmp_path / "fleet.sock")
        fleet = ModelFleet(default=trained)
        with ScoringDaemon(fleet=fleet, socket_path=fleet_path,
                           workers=2):
            fleet_frames = _raw_exchange(fleet_path, lines)

        assert stdio_frames == classifier_frames
        assert classifier_frames == fleet_frames
        # sanity: the lines exercised success, error and id-less paths
        decoded = [json.loads(f) for f in stdio_frames]
        assert [f["ok"] for f in decoded] == \
            [True, True, True, True, False, False, False, True]


class TestStatsVerb:
    def test_stdio_stats(self, trained):
        out = io.StringIO()
        serve(trained, io.StringIO('{"cmd": "stats", "id": 9}\n'), out)
        frame = json.loads(out.getvalue())
        assert frame["ok"] is True and frame["id"] == 9
        assert isinstance(frame["stats"], dict)

    def test_classifier_daemon_stats(self, trained, unix_path):
        with ScoringDaemon(trained, socket_path=unix_path, workers=2):
            with ScoringClient(socket_path=unix_path) as client:
                client.info()
                stats = AdminClient(client).stats()
        server = stats["server"]
        assert server["requests_served"] >= 1
        assert server["connections_served"] >= 0
        assert stats["fleet"]["pool"]["resident_models"] == 1

    def test_fleet_daemon_stats_carry_pool_and_loop(
            self, trained, tiny_dataset, unix_path):
        X = tiny_dataset.matrix(trained.feature_names_)
        fleet = ModelFleet(default=trained)
        with ScoringDaemon(fleet=fleet, socket_path=unix_path,
                           workers=2):
            with ScoringClient(socket_path=unix_path) as client:
                client.predict(list(map(float, X[0])))
                stats = AdminClient(client).stats()
        assert stats["server"]["transport"] == "eventloop"
        assert stats["server"]["fast_rows"] >= 1
        assert "mean_fast_batch" in stats["server"]
        pool = stats["fleet"]["pool"]
        assert pool["resident_models"] == 1
        assert "evictions" in pool
        # the engine's stats verb counts itself once answered
        assert stats["server"]["requests_served"] >= 1


class TestClassifierDaemonModelField:
    def test_other_model_key_answers_unknown_model_without_loading(
            self, trained, tiny_dataset, unix_path, monkeypatch):
        """A classifier daemon is a one-model fleet: a request naming
        another key answers unknown_model on both the coalesced and the
        worker path, and never reaches the artifact cache."""
        import repro.api.artifact_cache as artifact_cache
        import repro.api.fleet.pool as pool_mod

        loads: list = []

        def spy(*args, **kwargs):
            loads.append(args)
            raise AssertionError("the artifact cache must not be read")

        monkeypatch.setattr(pool_mod, "load_cached", spy)
        monkeypatch.setattr(artifact_cache, "load_or_train", spy)
        X = tiny_dataset.matrix(trained.feature_names_)
        row = list(map(float, X[0]))
        with ScoringDaemon(trained, socket_path=unix_path, workers=2):
            frames = [json.loads(f) for f in _raw_exchange(unix_path, [
                json.dumps({"features": row, "id": 1,
                            "model": "tree:static-agg"}),
                json.dumps({"rows": [row], "id": 2,
                            "model": "tree:static-agg"}),
                json.dumps({"features": row, "id": 3,
                            "model": "tree:static-all"}),
            ])]
            with AdminClient(socket_path=unix_path) as admin:
                listing = admin.list_models()
        assert [(f["id"], f.get("code")) for f in frames[:2]] == \
            [(1, "unknown_model"), (2, "unknown_model")]
        # the classifier's own key still serves
        assert frames[2] == {"ok": True, "id": 3,
                             "prediction": trained.predict(X[0])}
        assert [row["model"] for row in listing["models"]] == \
            ["tree:static-all:unit"]
        assert loads == []


def _binary_frames(blob: bytes) -> list:
    """Split a blob of length-prefixed frames into decoded responses."""
    frames = []
    while blob:
        length, _ = HEADER.unpack_from(blob)
        frames.append(BINARY_V2_CODEC.decode_response(
            blob[4:HEADER.size + length]))
        blob = blob[HEADER.size + length:]
    return frames


def _distinct_f32_rows(trained, tiny_dataset) -> np.ndarray:
    return np.unique(tiny_dataset.matrix(trained.feature_names_).astype(
        np.float32), axis=0)


class TestCoalescedExecute:
    """The engine's one classify -> execute step, driven directly with
    stub tokens and a stub emit."""

    def _blocks(self, engine, rows):
        """JSON rows with an int, a string and no id, a JSON-embedded
        row on a binary-v2 session and a 4-row binary-v2 stream block
        (ids 20..23, one without)."""
        stream, _ = BINARY_V2_CODEC.decode_request(
            BINARY_V2_CODEC.encode_predict_stream(
                [20, 21, NO_ID, 23], rows[:4])[4:])
        v2_session = WireSession()
        v2_session.negotiate({"cmd": "hello", "codecs": [CODEC_BINARY_V2]})
        requests = [
            ("json-int", {"id": 7, "features": rows[1].tolist()},
             JSON_CODEC),
            ("json-str", {"id": "row-b", "features": rows[2].tolist()},
             JSON_CODEC),
            ("json-none", {"features": rows[3].tolist()}, JSON_CODEC),
            ("v2-json", {"id": 9, "features": rows[4].tolist()},
             v2_session),
            ("v2", stream, BINARY_V2_CODEC),
        ]
        return [engine.classify(request, codec, token)
                for token, request, codec in requests]

    def _run(self, engine, blocks) -> list:
        answers = []
        engine.execute(blocks, lambda block, encoded: answers.append(
            (block.token, encoded)))
        return answers

    def test_mixed_group_answers_every_id_once(self, trained,
                                              tiny_dataset):
        rows = _distinct_f32_rows(trained, tiny_dataset)
        engine = RequestEngine(trained)
        blocks = self._blocks(engine, rows)
        answers = self._run(engine, blocks)
        assert [token for token, _ in answers] == \
            ["json-int", "json-str", "json-none", "v2-json", "v2"]
        # byte-identical to scoring each request on its own
        alone = [self._run(engine, [block])[0] for block in blocks]
        assert answers == alone
        want = [int(p) for p in trained.predict_batch(rows[:5])]
        got = dict(answers)
        assert got["json-int"] == JSON_CODEC.encode_prediction(7, want[1])
        assert got["json-str"] == JSON_CODEC.encode_prediction(
            "row-b", want[2])
        assert got["json-none"] == JSON_CODEC.encode_prediction(
            None, want[3])
        assert got["v2-json"][4] == FRAME_JSON
        assert _binary_frames(got["v2-json"]) == [
            {"ok": True, "id": 9, "prediction": want[4]}]
        assert got["v2"] == BINARY_V2_CODEC.encode_predictions_stream(
            [20, 21, NO_ID, 23], want[:4])

    def test_poisoned_batch_falls_back_per_row(self, trained,
                                               tiny_dataset, monkeypatch):
        rows = _distinct_f32_rows(trained, tiny_dataset)
        want = [int(p) for p in trained.predict_batch(rows[:5])]
        engine = RequestEngine(trained)
        blocks = self._blocks(engine, rows)
        bad = rows[1].tolist()
        predict = trained.predict

        def poisoned_predict(row):
            if list(row) == bad:
                raise ValueError("poisoned row")
            return predict(row)

        def broken_batch(X):
            raise RuntimeError("batch scoring failed")

        monkeypatch.setattr(trained, "predict_batch", broken_batch)
        monkeypatch.setattr(trained, "predict", poisoned_predict)
        got = dict(self._run(engine, blocks))
        # the bad row is rows[1]: the JSON id-7 row and stream id 21
        assert json.loads(got["json-int"]) == {
            "ok": False, "code": "bad_request", "error": "poisoned row",
            "id": 7}
        assert got["json-str"] == JSON_CODEC.encode_prediction(
            "row-b", want[2])
        assert got["json-none"] == JSON_CODEC.encode_prediction(
            None, want[3])
        assert got["v2-json"] == BINARY_V2_CODEC.encode_prediction(
            9, want[4])
        error, packed = _binary_frames(got["v2"])
        assert error == {"ok": False, "code": "bad_request",
                         "error": "poisoned row", "id": 21}
        ids, predictions = packed["stream"]
        assert ids.tolist() == [20, NO_ID, 23]
        assert predictions.tolist() == [want[0], want[2], want[3]]


#: thresholds of the hand-built walk tree: 2**53 (the first float whose
#: int neighbours do not all round to themselves), zero, the smallest
#: subnormal, an f32-rounded value and the next float above 2**53
_WALK_THRESHOLDS = (2.0 ** 53, 0.0, float(np.float32(0.1)), 5e-324,
                    2.0 ** 53 + 2)


def _walk_tree_classifier() -> Classifier:
    """A three-feature tree whose six leaves all answer differently:
    every split on its threshold is visible in the prediction."""
    t53, zero, f32, tiny, above = _WALK_THRESHOLDS
    leaf = lambda k: [float(k == c) for c in range(6)]  # noqa: E731
    tree = DecisionTreeClassifier.from_dict({
        "params": {"max_depth": None, "min_samples_split": 2,
                   "min_samples_leaf": 1, "max_features": None,
                   "random_state": 0},
        "classes": [1, 2, 3, 4, 5, 8],
        "n_features": 3,
        "feature_importances": [0.0, 0.0, 0.0],
        "nodes": {
            "feature": [0, 1, -1, -1, 2, 1, -1, -1, 0, -1, -1],
            "threshold": [t53, zero, 0.0, 0.0, f32, tiny, 0.0, 0.0, above,
                          0.0, 0.0],
            "left": [1, 2, -1, -1, 5, 6, -1, -1, 9, -1, -1],
            "right": [4, 3, -1, -1, 8, 7, -1, -1, 10, -1, -1],
            "value": [None, None, leaf(0), leaf(1), None, None, leaf(3),
                      leaf(5), None, leaf(2), leaf(4)],
        },
    })
    clf = Classifier(ReproConfig(profile="unit"))
    clf.model_ = tree
    clf.feature_names_ = ["a", "b", "c"]
    clf.classes_ = [1, 2, 3, 4, 5, 8]
    return clf


@pytest.fixture(scope="module")
def walk_models(tiny_dataset) -> dict:
    """Each model of the walk property with its row-group strategy."""
    models = {"hand-built": _walk_tree_classifier(),
              "unit": Classifier(ReproConfig(profile="unit")).train(
                  tiny_dataset)}
    return {name: (clf, _walk_row_groups(
                clf.model_._table.threshold.tolist(), len(clf.feature_names_)))
            for name, clf in models.items()}


def _walk_row_groups(thresholds, n_features: int):
    """Groups of JSON feature rows for the list-row walk: mostly plain
    ints and floats at and around *thresholds*, some rows mixing in
    cells only the matrix path takes."""
    finite = [t for t in thresholds if np.isfinite(t)]
    near = [float(np.nextafter(t, d)) for t in finite for d in (-np.inf,
                                                                np.inf)]
    number = st.one_of(
        st.sampled_from([-0.0, 0.0, float("nan"), float("inf"),
                         float("-inf"), 5e-324, -5e-324,
                         2.2250738585072014e-308, *finite, *near]),
        st.floats(),
        st.floats(width=32).map(float),
        st.integers(2 ** 53 - 4, 2 ** 53 + 4),
        st.integers(-2 ** 53 - 4, -2 ** 53 + 4),
        st.sampled_from([int(t) for t in finite]),
        st.integers(-2 ** 65, 2 ** 65),
    )
    odd = st.one_of(
        st.booleans(), st.none(),
        st.sampled_from(["1.5", "2", "nan", "-inf", "abc", ""]),
        st.lists(st.floats(), max_size=2),
        st.integers(2 ** 1030, 2 ** 1040),
    )
    row = st.one_of(
        st.lists(number, min_size=n_features, max_size=n_features),
        st.lists(number | odd, min_size=n_features, max_size=n_features))
    return st.lists(row, min_size=1, max_size=4)


def _check_list_row_walk(clf, group) -> None:
    """Each coalesced JSON row answers the bytes of the matrix path
    (scoring with the walk patched off, so a row it refuses draws the
    same typed error frame), and a row that lifts to a float64 matrix
    the prediction of ``predict_batch``, itself the node-graph
    oracle's."""
    engine = RequestEngine(clf)

    def answers(rows) -> list:
        blocks = [engine.classify({"id": i, "features": list(row)},
                                  JSON_CODEC, i) for i, row in rows]
        got: list = []
        engine.execute(blocks, lambda block, encoded: got.append(encoded))
        return got

    walked = answers(list(enumerate(group)))
    with mock.patch.object(Classifier, "_walk_rows", lambda self, rows: None):
        matrix = [answers([(i, row)])[0] for i, row in enumerate(group)]
    assert walked == matrix
    for i, row in enumerate(group):
        try:
            X = np.asarray([row], dtype=np.float64)
        except (TypeError, ValueError, OverflowError):
            continue
        if X.shape != (1, len(row)):
            continue  # nested lists of one length lift to a 3-d array
        want = int(clf.predict_batch(X)[0])
        assert want == int(predict_rowwise(clf.model_, X)[0])
        assert walked[i] == JSON_CODEC.encode_prediction(i, want)


class TestListRowWalk:
    """JSON rows and memo-hit kernels walk the tree straight off their
    lists; every answer and typed error matches the matrix path."""

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_matches_matrix_path(self, walk_models, data):
        clf, groups = walk_models[data.draw(st.sampled_from(
            ["hand-built", "unit"]))]
        _check_list_row_walk(clf, data.draw(groups))

    def test_row_of_empty_lists_is_a_typed_error(self, walk_models):
        """A row of empty lists lifts to a (1, n, 0) block, which holds
        no cell: a bad_request frame, not an empty prediction array
        that fails the whole coalesced step."""
        clf, _ = walk_models["hand-built"]
        engine = RequestEngine(clf)
        block = engine.classify({"id": 5, "features": [[], [], []]},
                                JSON_CODEC, "t")
        got: list = []
        engine.execute([block], lambda block, encoded: got.append(encoded))
        frame = json.loads(got[0])
        assert (frame["ok"], frame["code"], frame["id"]) == (
            False, "bad_request", 5)

    def test_array_row_is_declined_without_iterating_it(self, walk_models):
        """A stream block's f32 row goes to the matrix path before its
        cells become numpy scalars; a list row beside it changes
        nothing."""
        class Uniterable(np.ndarray):
            def __iter__(self):
                raise AssertionError("the walk iterated an array row")

        clf, _ = walk_models["hand-built"]
        n = len(clf.feature_names_)
        row = np.zeros(n, dtype=np.float32).view(Uniterable)
        assert clf._walk_rows([row]) is None
        assert clf._walk_rows([[0.0] * n, row]) is None
        assert clf._walk_rows([[0.0] * n]) is not None

    def test_sampled_walk_records_predict_and_encode_spans(
            self, walk_models):
        from repro.obs import Tracer

        clf, _ = walk_models["hand-built"]
        engine = RequestEngine(clf)
        engine.tracer = Tracer(sample_rate=1.0)
        blocks = [engine.classify({"id": i, "features": [0.0, 1, 2.5]},
                                  JSON_CODEC, i) for i in range(3)]
        engine.execute(blocks, lambda block, encoded: None)
        spans = {event["name"]: event["args"]["rows"]
                 for event in engine.tracer.drain()}
        assert spans == {"predict": 3, "encode": 3}

    @pytest.mark.slow
    @settings(max_examples=3000, deadline=None)
    @given(data=st.data())
    def test_matches_matrix_path_long(self, walk_models, data):
        clf, groups = walk_models[data.draw(st.sampled_from(
            ["hand-built", "unit"]))]
        _check_list_row_walk(clf, data.draw(groups))


def _kernel_requests() -> list:
    """One 2048-B request per registry kernel and dtype, ids from 1."""
    from repro.dataset.registry import all_kernel_specs
    pairs = [(spec, dtype) for spec in all_kernel_specs()
             for dtype in spec.dtypes]
    return [({"kernel": spec.name, "dtype": dtype.value, "size": 2048,
              "id": rid}, spec.build(dtype, 2048))
            for rid, (spec, dtype) in enumerate(pairs, 1)]


def _count_static_features(monkeypatch) -> list:
    """Count kernel feature extractions on every serving path."""
    import repro.api.classifier as classifier_mod
    import repro.api.fleet.router as router_mod

    calls: list = []
    real = classifier_mod.static_features

    def counting(kernel):
        calls.append(kernel.name)
        return real(kernel)

    monkeypatch.setattr(classifier_mod, "static_features", counting)
    monkeypatch.setattr(router_mod, "static_features", counting,
                        raising=False)
    return calls


class TestKernelMemo:
    """A fleet extracts each kernel's static features once: the worker
    path fills ``ModelFleet.kernel_memo`` and later requests for the
    same kernel are scored on the coalesced step."""

    def _score(self, engine, request, session):
        """The answer to *request* as the socket server gives it, and
        whether it took the coalesced step."""
        verdict = engine.classify(request, session, "token")
        if verdict is None:
            return engine.turn(request, session.codec), False
        answers = []
        engine.execute([verdict], lambda block, encoded: answers.append(
            encoded))
        return answers[0], True

    def test_miss_hit_and_stdio_answers_are_identical(self, trained):
        """Every registry kernel x dtype at 2048 B, under JSON and
        binary-v2: the first request (worker path), the second (the
        coalesced step) and stdio answer the same bytes, all equal to
        ``Classifier.predict(kernel)``.  Catches a hit row built in
        another order than the model's feature names, or a kernel
        request that never joins the coalesced step."""
        requests = _kernel_requests()
        lines = [json.dumps(request) for request, _ in requests]
        out = io.StringIO()
        serve(trained, io.StringIO("\n".join(lines * 2) + "\n"), out)
        stdio = [(line + "\n").encode("utf-8")
                 for line in out.getvalue().splitlines()]
        assert stdio[:len(lines)] == stdio[len(lines):]
        v2_session = WireSession()
        v2_session.negotiate({"cmd": "hello", "codecs": [CODEC_BINARY_V2]})
        for session in (WireSession(), v2_session):
            engine = RequestEngine(trained)
            for (request, kernel), line in zip(requests, stdio):
                want = trained.predict(kernel)
                miss, coalesced = self._score(engine, request, session)
                assert not coalesced
                hit, coalesced = self._score(engine, request, session)
                assert coalesced, request
                assert hit == miss == session.encode_prediction(
                    request["id"], want)
                if session is v2_session:
                    assert _binary_frames(hit) == [json.loads(line)]
                else:
                    assert hit == line
            assert len(engine.fleet.kernel_memo) == len(requests)

    def test_daemon_answers_match_stdio_in_both_codecs(self, trained,
                                                      unix_path):
        requests = _kernel_requests()
        lines = [json.dumps(request) for request, _ in requests] * 2
        out = io.StringIO()
        serve(trained, io.StringIO("\n".join(lines) + "\n"), out)
        want = [trained.predict(kernel) for _, kernel in requests]
        daemon = ScoringDaemon(trained, socket_path=unix_path, workers=2)
        with daemon:
            frames = _raw_exchange(unix_path, lines)
            with ScoringClient(socket_path=unix_path,
                               codec=CODEC_BINARY_V2) as client:
                got = [client.predict_kernel(r["kernel"], r["dtype"],
                                             r["size"])
                       for r, _ in requests]
        assert b"".join(frames).decode("utf-8") == out.getvalue()
        assert got == want
        # only the JSON client's first sightings took the worker path
        assert daemon.stats()["slow_requests"] == len(requests)

    def test_repeat_extracts_once_and_skips_the_worker_pool(
            self, trained, unix_path, monkeypatch):
        """Catches a memo that is never filled or never read, which
        extracts the features on every request, each on the worker
        pool."""
        want = trained.predict(get_kernel_spec("gemm").build(
            parse_dtype("fp32"), 2048))
        calls = _count_static_features(monkeypatch)
        daemon = ScoringDaemon(trained, socket_path=unix_path, workers=2)
        with daemon:
            with ScoringClient(socket_path=unix_path) as client:
                got = [client.predict_kernel("gemm", "fp32", 2048)
                       for _ in range(5)]
                # "FP32" and 2048.0 normalise to the same entry
                got.append(client.predict_kernel("gemm", "FP32", 2048.0))
            assert got == [want] * 6
            assert calls == ["gemm"]
            assert daemon.stats()["slow_requests"] == 1

    def test_memo_stays_within_its_bound(self, trained, monkeypatch):
        """One kernel at many sizes: the oldest entries go, the newest
        stay.  Catches an off-by-one or a missing eviction."""
        monkeypatch.setattr(ModelFleet, "KERNEL_MEMO_ENTRIES", 4)
        engine = RequestEngine(trained)
        memo = engine.fleet.kernel_memo
        sizes = [256 * (i + 1) for i in range(10)]
        for size in sizes:
            frame = engine.handle({"kernel": "fir", "size": size})
            assert frame["ok"] is True
            assert len(memo) <= 4
        assert [key[2] for key in memo] == sizes[-4:]

    @pytest.mark.parametrize("request_", [
        {"kernel": "no_such_kernel"},
        {"kernel": "gemm", "dtype": "int7"},
        {"kernel": "gemm", "size": "big"},
        {"kernel": "gemm", "size": -5},
        {"kernel": "gemm", "size": None},
        {"kernel": "gemm", "size": [2048]},
    ], ids=["kernel", "dtype", "size-text", "size-negative", "size-null",
            "size-list"])
    def test_bad_requests_answer_bad_request_and_are_not_stored(
            self, trained, unix_path, request_):
        """Catches a memo filled before the kernel is built, or a key
        error raised on the IO thread instead of answered."""
        daemon = ScoringDaemon(trained, socket_path=unix_path, workers=2)
        line = json.dumps({**request_, "id": 1})
        with daemon:
            frames = [json.loads(f)
                      for f in _raw_exchange(unix_path, [line, line])]
            assert daemon.fleet.kernel_memo == {}
        assert [(f["id"], f["ok"], f["code"]) for f in frames] == \
            [(1, False, "bad_request")] * 2
        assert frames[0] == frames[1]

    def test_hit_while_draining_is_refused(self, trained, unix_path):
        """A kernel hit is refused with the typed draining frame, on the
        IO thread.  Catches a drain check placed after the memo lookup
        (the hit would be scored) and a refusal left to the worker
        pool."""
        kernel = json.dumps({"kernel": "atax", "id": 1})
        again = json.dumps({"kernel": "atax", "id": 3})
        daemon = ScoringDaemon(trained, socket_path=unix_path, workers=2)
        with daemon:
            frames = [json.loads(f) for f in _raw_exchange(unix_path, [
                kernel, json.dumps({"cmd": "drain", "id": 2}), again])]
        assert frames[0]["ok"] is True
        assert frames[1]["draining"] is True
        assert frames[2] == {"ok": False, "code": ERROR_DRAINING,
                             "error": frames[2]["error"], "id": 3}
        assert daemon.stats()["slow_requests"] == 2

    def test_named_model_scores_its_own_row(self, trained, tiny_dataset,
                                            unix_path, monkeypatch):
        """Two models share one memo entry per kernel, and a request
        naming a model is scored by that model on a hit.  Catches a hit
        scored by the default model."""
        agg = Classifier(ReproConfig(
            profile="unit", feature_set="static-agg")).train(tiny_dataset)
        fleet = ModelFleet(default=trained)
        agg_spec = fleet.pool.add(agg).spec
        requests = _kernel_requests()
        differ = [(request, kernel) for request, kernel in requests
                  if trained.predict(kernel) != agg.predict(kernel)]
        assert differ, "the two models must disagree on some kernel"
        request, kernel = differ[0]
        args = (request["kernel"], request["dtype"], request["size"])
        want_agg, want_default = agg.predict(kernel), trained.predict(kernel)
        calls = _count_static_features(monkeypatch)
        daemon = ScoringDaemon(fleet=fleet, socket_path=unix_path,
                               workers=2)
        with daemon:
            with ScoringClient(socket_path=unix_path) as client:
                got = [client.predict_kernel(*args, model=agg_spec),
                       client.predict_kernel(*args, model=agg_spec),
                       client.predict_kernel(*args),
                       client.predict_kernel(*args, model=agg_spec)]
        assert got == [want_agg, want_agg, want_default, want_agg]
        assert len(calls) == 1
        assert daemon.stats()["slow_requests"] == 1

    def test_dynamic_model_answers_through_the_worker_path(
            self, tiny_dataset, unix_path, monkeypatch):
        """A model on dynamic features never scores a memo row: its
        kernel requests keep simulating on the worker path, and the
        static features are still extracted once.  Catches a hit row
        that fills the missing dynamic features in."""
        dynamic = Classifier(ReproConfig(
            profile="unit", feature_set="dynamic")).train(tiny_dataset)
        kernel = get_kernel_spec("fir").build(parse_dtype("int32"), 512)
        want = dynamic.predict(kernel)
        calls = _count_static_features(monkeypatch)
        daemon = ScoringDaemon(dynamic, socket_path=unix_path, workers=2)
        with daemon:
            with ScoringClient(socket_path=unix_path) as client:
                got = [client.predict_kernel("fir", size=512)
                       for _ in range(2)]
            assert daemon.fleet.kernel_memo
        assert got == [want] * 2
        assert calls == ["fir"]
        assert daemon.stats()["slow_requests"] == 2


class _FakeServer:
    """A scripted one-connection-at-a-time server for client tests."""

    def __init__(self, unix_path: str, session) -> None:
        self.listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.listener.bind(unix_path)
        self.listener.listen(2)
        self.errors: list = []

        def run() -> None:
            try:
                session(self.listener)
            except Exception as exc:  # surfaced by the test
                self.errors.append(exc)

        self.thread = threading.Thread(target=run, daemon=True)
        self.thread.start()

    def close(self) -> None:
        self.listener.close()
        self.thread.join(timeout=10)


def _read_lines(conn, n: int) -> list:
    reader = conn.makefile("rb")
    return [json.loads(reader.readline()) for _ in range(n)]


class TestPipelinedClient:
    def test_out_of_order_completion(self, unix_path):
        """Responses arriving in reverse order still pair by id."""
        def session(listener) -> None:
            conn, _ = listener.accept()
            with conn:
                requests = _read_lines(conn, 3)
                for request in reversed(requests):
                    conn.sendall((json.dumps(
                        {"ok": True, "id": request["id"],
                         "echo": request["n"]}) + "\n").encode())

        server = _FakeServer(unix_path, session)
        try:
            with ScoringClient(socket_path=unix_path) as client:
                frames = client.request_pipelined(
                    [{"n": i} for i in range(3)], window=3)
            assert [f["echo"] for f in frames] == [0, 1, 2]
        finally:
            server.close()
        assert not server.errors

    def test_window_bounds_in_flight_requests(self, unix_path):
        """With window=2 the third request is only sent after a
        response frees a slot."""
        observed: dict = {}

        def session(listener) -> None:
            conn, _ = listener.accept()
            with conn:
                reader = conn.makefile("rb")
                first = [json.loads(reader.readline())
                         for _ in range(2)]
                # the client is now blocked: nothing else may arrive
                conn.settimeout(0.4)
                try:
                    extra = conn.recv(1)
                except socket.timeout:
                    extra = b""
                observed["extra_before_reply"] = extra
                conn.settimeout(30.0)
                conn.sendall((json.dumps(
                    {"ok": True, "id": first[0]["id"]}) + "\n").encode())
                third = json.loads(reader.readline())
                for request in (first[1], third):
                    conn.sendall((json.dumps(
                        {"ok": True, "id": request["id"]}) + "\n"
                    ).encode())

        server = _FakeServer(unix_path, session)
        try:
            with ScoringClient(socket_path=unix_path) as client:
                frames = client.request_pipelined(
                    [{"n": i} for i in range(3)], window=2)
            assert len(frames) == 3
            assert observed["extra_before_reply"] == b""
        finally:
            server.close()
        assert not server.errors

    def test_error_frames_mid_pipeline(self, trained, tiny_dataset,
                                       unix_path):
        """A typed error frame answers its own request and the rest of
        the pipeline completes; predict_pipelined raises the code."""
        X = tiny_dataset.matrix(trained.feature_names_)
        good = {"features": list(map(float, X[0]))}
        bad = {"features": {"bogus": 1.0}}
        fleet = ModelFleet(default=trained)
        with ScoringDaemon(fleet=fleet, socket_path=unix_path,
                           workers=2):
            with ScoringClient(socket_path=unix_path) as client:
                frames = client.request_pipelined(
                    [good, bad, good, bad, good], window=4)
                assert [f["ok"] for f in frames] == \
                    [True, False, True, False, True]
                assert frames[1]["code"] == "bad_request"
                assert frames[0]["prediction"] == \
                    trained.predict(X[0])
                with pytest.raises(ScoringError) as excinfo:
                    client.predict_pipelined([list(map(float, X[0])),
                                              {"bogus": 1.0}])
                assert excinfo.value.code == "bad_request"

    def test_reconnect_resends_unanswered(self, unix_path):
        """EOF mid-pipeline: the client reconnects and resends every
        request still unanswered (idempotent reads)."""
        def session(listener) -> None:
            conn, _ = listener.accept()
            with conn:
                requests = _read_lines(conn, 2)
                conn.sendall((json.dumps(
                    {"ok": True, "id": requests[0]["id"],
                     "echo": requests[0]["n"]}) + "\n").encode())
                # drop the connection with request 1 unanswered and
                # requests 2..4 unsent or in flight
            conn2, _ = listener.accept()
            with conn2:
                reader = conn2.makefile("rb")
                answered = 0
                while answered < 4:
                    request = json.loads(reader.readline())
                    conn2.sendall((json.dumps(
                        {"ok": True, "id": request["id"],
                         "echo": request["n"]}) + "\n").encode())
                    answered += 1

        server = _FakeServer(unix_path, session)
        try:
            with ScoringClient(socket_path=unix_path,
                               reconnect_retries=1) as client:
                frames = client.request_pipelined(
                    [{"n": i} for i in range(5)], window=2)
            assert [f["echo"] for f in frames] == [0, 1, 2, 3, 4]
        finally:
            server.close()
        assert not server.errors

    def test_exhausted_retries_raise_transport(self, unix_path):
        def session(listener) -> None:
            conn, _ = listener.accept()
            with conn:
                _read_lines(conn, 1)
            # EOF; no second accept with a useful reply
            conn2, _ = listener.accept()
            conn2.close()

        server = _FakeServer(unix_path, session)
        try:
            with ScoringClient(socket_path=unix_path,
                               reconnect_retries=1) as client:
                with pytest.raises(ScoringError) as excinfo:
                    client.request_pipelined([{"n": 0}, {"n": 1}],
                                             window=2)
            assert excinfo.value.code == "transport"
        finally:
            server.close()

    def test_idless_error_frame_surfaces_daemon_code(self, unix_path):
        """An error frame without an id (e.g. the server's flood
        guard) raises with the daemon's code, not a spurious
        id_mismatch, and tears the unusable stream down."""
        def session(listener) -> None:
            conn, _ = listener.accept()
            with conn:
                # drain both requests before answering, and half-close
                # instead of closing, so no RST can race ahead of the
                # response and discard it from the client's buffer
                _read_lines(conn, 2)
                conn.sendall(b'{"ok": false, "code": "too_large", '
                             b'"error": "request line exceeds ..."}\n')
                conn.shutdown(socket.SHUT_WR)
                try:
                    conn.recv(65536)  # wait for the client's close
                except OSError:
                    pass

        server = _FakeServer(unix_path, session)
        try:
            with ScoringClient(socket_path=unix_path,
                               reconnect_retries=0) as client:
                with pytest.raises(ScoringError) as excinfo:
                    client.request_pipelined([{"n": 0}, {"n": 1}],
                                             window=2)
            assert excinfo.value.code == "too_large"
        finally:
            server.close()

    def test_unknown_response_id_is_desync(self, unix_path):
        def session(listener) -> None:
            conn, _ = listener.accept()
            with conn:
                _read_lines(conn, 1)
                conn.sendall(b'{"ok": true, "id": 424242}\n')

        server = _FakeServer(unix_path, session)
        try:
            with ScoringClient(socket_path=unix_path) as client:
                with pytest.raises(ScoringError) as excinfo:
                    client.request_pipelined([{"n": 0}], window=1)
            assert excinfo.value.code == "id_mismatch"
        finally:
            server.close()

    def test_unencodable_payload_sends_nothing(self, unix_path):
        """A payload the codec cannot encode raises before any request
        of the call is sent, so no stale answer desynchronizes the
        next call."""
        def session(listener) -> None:
            conn, _ = listener.accept()
            with conn:
                for line in conn.makefile("rb"):
                    request = json.loads(line)
                    conn.sendall(_echo_line(request["id"], request["n"]))

        server = _FakeServer(unix_path, session)
        try:
            with ScoringClient(socket_path=unix_path) as client:
                with pytest.raises(TypeError):
                    client.request_pipelined(
                        [{"n": 0}, {"n": 1}, {"n": object()}], window=2)
                assert client.request({"n": 1})["echo"] == 1
        finally:
            server.close()
        assert not server.errors

    def test_window_validation_and_empty_input(self, unix_path,
                                               trained):
        with ScoringDaemon(trained, socket_path=unix_path, workers=1):
            with ScoringClient(socket_path=unix_path) as client:
                assert client.request_pipelined([]) == []
                with pytest.raises(ScoringError):
                    client.request_pipelined([{"n": 0}], window=0)
        assert DEFAULT_PIPELINE_WINDOW >= 1

    def test_pipelined_matches_sequential_against_daemon(
            self, trained, tiny_dataset, unix_path):
        X = tiny_dataset.matrix(trained.feature_names_)
        rows = [list(map(float, row)) for row in X] * 3
        expected = [int(trained.predict(row)) for row in rows]
        fleet = ModelFleet(default=trained)
        with ScoringDaemon(fleet=fleet, socket_path=unix_path,
                           workers=2):
            with ScoringClient(socket_path=unix_path) as client:
                assert client.predict_pipelined(rows,
                                                window=8) == expected


    @pytest.mark.parametrize("codec", [CODEC_JSON, CODEC_BINARY_V2])
    def test_drain_hands_pipelined_rows_to_live_daemon(
            self, trained, tiny_dataset, tmp_path, codec):
        """A pipelined client connected to a draining daemon requeues
        every refused row and finishes them all on the live daemon the
        shard registry names, in both framings."""
        X = np.asarray(tiny_dataset.matrix(trained.feature_names_),
                       dtype=np.float32).astype(np.float64)
        expected = [int(p) for p in trained.predict_batch(X)]
        base = str(tmp_path / "fleet.sock")
        paths = [str(tmp_path / f"d{i}.sock") for i in range(2)]
        shards = [{"index": i, "path": path, "pid": os.getpid()}
                  for i, path in enumerate(paths)]
        with ScoringDaemon(trained, socket_path=paths[0],
                           workers=1) as draining, \
                ScoringDaemon(trained, socket_path=paths[1],
                              workers=1) as live:
            draining.engine.draining = True
            write_registry(base, shards[:1])
            with ScoringClient(socket_path=base, codec=codec,
                               reconnect_retries=4) as client:
                assert client.codec == codec  # on the draining daemon
                write_registry(base, shards)
                assert client.predict_pipelined(X, window=8) == expected
            # the loop counts a chunk just after writing its answers
            deadline = time.monotonic() + 5.0
            while (live.stats()["fast_rows"] < len(X)
                   and time.monotonic() < deadline):
                time.sleep(0.01)
            assert live.stats()["fast_rows"] == len(X)
            assert draining.stats()["fast_rows"] == 0


class TestClientResponseBound:
    def test_newline_less_flood_raises_cleanly(self, unix_path,
                                               monkeypatch):
        import repro.api.client as client_mod
        monkeypatch.setattr(client_mod, "MAX_RESPONSE_BYTES", 4096)

        def session(listener) -> None:
            conn, _ = listener.accept()
            with conn:
                conn.makefile("rb").readline()
                conn.sendall(b"x" * 65536)  # no newline anywhere

        server = _FakeServer(unix_path, session)
        try:
            client = ScoringClient(socket_path=unix_path,
                                   reconnect_retries=0)
            with pytest.raises(ScoringError,
                               match="without a newline") as excinfo:
                client.request({"cmd": "info"})
            assert excinfo.value.code == "transport"
            client.close()
        finally:
            server.close()


class TestSharded:
    def _rows(self, trained, tiny_dataset, reps: int = 4) -> tuple:
        X = tiny_dataset.matrix(trained.feature_names_)
        rows = [list(map(float, row)) for row in X] * reps
        expected = [int(trained.predict(row)) for row in rows]
        return rows, expected

    def test_byte_identical_across_shard_counts(
            self, trained, tiny_dataset, artifact, tmp_path):
        """Acceptance: the same rows score identically through 1 and 2
        shards (and match the local classifier)."""
        rows, expected = self._rows(trained, tiny_dataset)
        factory = functools.partial(classifier_factory, artifact)
        results = {}
        for n_shards in (1, 2):
            base = str(tmp_path / f"shards{n_shards}.sock")
            with ShardSupervisor(factory, shards=n_shards,
                                 socket_path=base, workers=2):
                with ScoringClient(socket_path=base) as client:
                    results[n_shards] = client.predict_pipelined(
                        rows, window=8)
        assert results[1] == expected
        assert results[2] == expected

    def test_registry_lifecycle_and_per_shard_stats(
            self, trained, tiny_dataset, artifact, tmp_path):
        rows, expected = self._rows(trained, tiny_dataset, reps=1)
        base = str(tmp_path / "fleet.sock")
        factory = functools.partial(classifier_factory, artifact)
        with ShardSupervisor(factory, shards=2, socket_path=base,
                             workers=2) as supervisor:
            registry = read_registry(base)
            assert [s["index"] for s in registry] == [0, 1]
            assert sorted(s["pid"] for s in registry) == \
                sorted(supervisor.pids)
            # per-shard stats: query each shard socket directly
            seen = []
            for row in registry:
                with ScoringClient(socket_path=row["path"]) as client:
                    assert client.predict(rows[0]) == expected[0]
                    stats = AdminClient(client).stats()
                    assert stats["shard"]["pid"] == row["pid"]
                    assert stats["server"]["requests_served"] >= 1
                    seen.append(stats["shard"]["index"])
            assert seen == [0, 1]
        assert not os.path.exists(base)
        for i in range(2):
            assert not os.path.exists(shard_socket_path(base, i))

    def test_shard_crash_retry_lands_on_live_shard(
            self, trained, tiny_dataset, artifact, tmp_path):
        """Acceptance: kill the shard a client is connected to; its
        next (retried) request is served by a surviving shard."""
        rows, expected = self._rows(trained, tiny_dataset, reps=1)
        base = str(tmp_path / "crash.sock")
        factory = functools.partial(classifier_factory, artifact)
        # a health loop slower than the test keeps the victim dead, so
        # the retry can only land on the survivor
        with ShardSupervisor(factory, shards=2, socket_path=base,
                             workers=2, interval=3600.0) as supervisor:
            with ScoringClient(socket_path=base) as client:
                victim = AdminClient(client).stats()["shard"]["index"]
                os.kill(supervisor.pids[victim], 9)
                deadline = time.monotonic() + 10
                while supervisor.alive()[victim] and \
                        time.monotonic() < deadline:
                    time.sleep(0.05)
                assert client.predict(rows[0]) == expected[0]
                survivor = AdminClient(client).stats()["shard"]["index"]
                assert survivor != victim

    def test_shard_that_dies_during_startup_fails_fast(self, tmp_path):
        """A factory that raises (missing artifact) must fail start()
        within seconds, not after the full start timeout."""
        factory = functools.partial(classifier_factory,
                                    str(tmp_path / "missing.json"))
        supervisor = ShardSupervisor(factory, shards=1,
                                     socket_path=str(tmp_path / "x.sock"))
        start = time.monotonic()
        with pytest.raises(DaemonError, match="died during startup"):
            supervisor.start()
        assert time.monotonic() - start < 30

    def test_validation(self, artifact):
        factory = functools.partial(classifier_factory, artifact)
        with pytest.raises(DaemonError, match="shards"):
            ShardSupervisor(factory, shards=0, socket_path="/tmp/x.sock")

    def test_live_registry_is_not_stolen(self, trained, tiny_dataset,
                                         artifact, tmp_path):
        base = str(tmp_path / "taken.sock")
        factory = functools.partial(classifier_factory, artifact)
        with ShardSupervisor(factory, shards=1, socket_path=base,
                             workers=1):
            second = ShardSupervisor(factory, shards=1, socket_path=base,
                                     workers=1)
            with pytest.raises(DaemonError, match="live shard"):
                second.start()

    def test_stale_registry_is_reclaimed(self, artifact, tmp_path):
        base = str(tmp_path / "stale.sock")
        with open(base, "w") as handle:
            json.dump({"repro_shards": 1, "base": base,
                       "shards": [{"index": 0, "path": base + ".0",
                                   "pid": 2 ** 22 + 12345}]}, handle)
        factory = functools.partial(classifier_factory, artifact)
        with ShardSupervisor(factory, shards=1, socket_path=base,
                             workers=1):
            assert read_registry(base)  # fresh registry written over
        assert not os.path.exists(base)

    def test_unrelated_file_is_refused(self, artifact, tmp_path):
        base = str(tmp_path / "file.sock")
        with open(base, "w") as handle:
            handle.write("precious data\n")
        factory = functools.partial(classifier_factory, artifact)
        supervisor = ShardSupervisor(factory, shards=1, socket_path=base)
        with pytest.raises(DaemonError, match="refusing"):
            supervisor.start()
        with open(base) as handle:
            assert handle.read() == "precious data\n"


class TestUnterminatedFinalLine:
    def _half_close_exchange(self, sock_path: str, payload: bytes):
        """Send *payload* with no trailing newline, half-close, read."""
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.settimeout(10.0)
        sock.connect(sock_path)
        with sock:
            sock.sendall(payload)
            sock.shutdown(socket.SHUT_WR)
            return sock.makefile("rb").readline()

    @pytest.mark.parametrize("mode", ["classifier", "fleet"])
    def test_final_line_without_newline_is_answered(
            self, trained, mode, unix_path):
        """A client that half-closes after an unterminated final line
        still gets its response (PR 3 makefile behaviour, preserved
        by classifier and fleet daemons and matching stdio)."""
        kwargs = ({"classifier": trained} if mode == "classifier"
                  else {"fleet": ModelFleet(default=trained)})
        with ScoringDaemon(socket_path=unix_path, workers=2, **kwargs):
            frame = json.loads(self._half_close_exchange(
                unix_path, b'{"cmd": "info", "id": 7}'))
        assert frame["ok"] is True and frame["id"] == 7

    @pytest.mark.parametrize("mode", ["classifier", "fleet"])
    def test_half_close_after_terminated_slow_request_is_answered(
            self, trained, tiny_dataset, mode, unix_path):
        """shutdown(SHUT_WR) right after a newline-terminated worker-
        pool request: the response must still be written before the
        connection closes (the event loop defers the close until every
        outstanding answer is staged and flushed)."""
        X = tiny_dataset.matrix(trained.feature_names_)
        kwargs = ({"classifier": trained} if mode == "classifier"
                  else {"fleet": ModelFleet(default=trained)})
        payload = json.dumps({"rows": X[:4].tolist(), "id": 11}) + "\n"
        with ScoringDaemon(socket_path=unix_path, workers=2, **kwargs):
            frame = json.loads(self._half_close_exchange(
                unix_path, payload.encode("utf-8")))
        assert frame["ok"] is True and frame["id"] == 11
        assert frame["predictions"] == \
            [int(p) for p in trained.predict_batch(X[:4])]

    def test_half_close_after_fast_row_is_answered(
            self, trained, tiny_dataset, unix_path):
        """Same for a coalescible fast-path row on the event loop."""
        X = tiny_dataset.matrix(trained.feature_names_)
        payload = json.dumps(
            {"features": list(map(float, X[0])), "id": 12}) + "\n"
        fleet = ModelFleet(default=trained)
        with ScoringDaemon(fleet=fleet, socket_path=unix_path,
                           workers=2):
            frame = json.loads(self._half_close_exchange(
                unix_path, payload.encode("utf-8")))
        assert frame == {"ok": True, "id": 12,
                         "prediction": trained.predict(X[0])}


def _read_to_eof(sock) -> bytes:
    """Everything the server sends until it closes the connection."""
    chunks = []
    while True:
        chunk = sock.recv(1 << 16)
        if not chunk:
            return b"".join(chunks)
        chunks.append(chunk)


class TestFatalFramingAnswersQueuedWork:
    """A fatal framing error stops reading, but every request routed
    before it is still answered, then the typed error, then EOF."""

    def test_stream_before_unknown_frame_is_answered(
            self, trained, tiny_dataset, unix_path):
        rows = _distinct_f32_rows(trained, tiny_dataset)[:5]
        want = [int(p) for p in trained.predict_batch(rows)]
        with ScoringDaemon(trained, socket_path=unix_path, workers=1):
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            sock.settimeout(30.0)
            sock.connect(unix_path)
            with sock:
                sock.sendall(b'{"cmd": "hello", "codecs": ["binary-v2"]}\n')
                hello = sock.makefile("rb").readline()
                assert json.loads(hello)["codec"] == CODEC_BINARY_V2
                sock.sendall(BINARY_V2_CODEC.encode_predict_stream(
                    [1, 2, 3, 4, 5], rows) + HEADER.pack(0, 0x7F))
                frames = _binary_frames(_read_to_eof(sock))
        errors = [f for f in frames if not f["ok"]]
        assert [f["code"] for f in errors] == ["invalid_frame"]
        answered = {}
        for frame in frames:
            if "stream" in frame:
                ids, predictions = frame["stream"]
                answered.update(zip(ids.tolist(), predictions.tolist()))
        assert answered == dict(zip([1, 2, 3, 4, 5], want))

    @staticmethod
    def _flood(trained, X, n: int, overshoot: int, daemon_kwargs: dict,
               connect) -> None:
        """*n* rows and a newline-less flood *overshoot* bytes past the
        limit, from a client that does not read until it has sent
        everything; every row and the typed ``too_large`` come back."""
        from repro.api.protocol import MAX_REQUEST_BYTES

        lines = [json.dumps({"features": list(map(float, X[i % len(X)])),
                             "id": i}) + "\n" for i in range(n)]
        payload = ("".join(lines).encode("utf-8")
                   + b"x" * (MAX_REQUEST_BYTES + overshoot))
        with ScoringDaemon(trained, workers=1, **daemon_kwargs) as daemon:
            sock = connect(daemon.address)
            sock.settimeout(60.0)
            with sock:
                sock.sendall(payload)
                blob = _read_to_eof(sock)
        assert blob.endswith(b"\n")  # no answer cut short by the close
        frames = [json.loads(line) for line in blob.splitlines()]
        errors = [f for f in frames if not f["ok"]]
        assert [f["code"] for f in errors] == ["too_large"]
        want = [int(p) for p in trained.predict_batch(X)]
        assert {f["id"]: f["prediction"] for f in frames if f["ok"]} == \
            {i: want[i % len(X)] for i in range(n)}

    def test_queued_rows_before_flood_are_answered(
            self, trained, tiny_dataset, unix_path):
        """20,000 rows and a newline-less flood over a unix socket."""
        def connect(address):
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            sock.connect(address[1])
            return sock

        self._flood(trained, tiny_dataset.matrix(trained.feature_names_),
                    20000, 1, {"socket_path": unix_path}, connect)

    def test_flood_past_the_limit_is_answered_over_tcp(
            self, trained, tiny_dataset):
        """Over TCP the flood outlives the read side (it runs two reads
        past the limit): closing with its bytes unread would send RST
        and discard the queued answers, so the daemon shuts its write
        side and discards the rest first."""
        from repro.api.wire import RECV_BYTES

        def connect(address):
            return socket.create_connection(address[1:])

        self._flood(trained, tiny_dataset.matrix(trained.feature_names_),
                    5000, 2 * RECV_BYTES, {"tcp": ("127.0.0.1", 0)},
                    connect)


    def test_lingering_connection_closes_after_the_bound(
            self, trained, monkeypatch):
        """A peer that never closes is dropped once LINGER_S passes."""
        import repro.api.daemon as daemon_module
        from repro.api.protocol import MAX_REQUEST_BYTES
        from repro.api.wire import RECV_BYTES

        monkeypatch.setattr(daemon_module, "LINGER_S", 0.2)
        with ScoringDaemon(trained, workers=1,
                           tcp=("127.0.0.1", 0)) as daemon:
            sock = socket.create_connection(daemon.address[1:])
            sock.settimeout(30.0)
            with sock:
                sock.sendall(b"x" * (MAX_REQUEST_BYTES + 2 * RECV_BYTES))
                frames = [json.loads(line)
                          for line in _read_to_eof(sock).splitlines()]
                assert [f["code"] for f in frames] == ["too_large"]
                deadline = time.monotonic() + 10.0
                while (daemon.stats()["active_connections"]
                       and time.monotonic() < deadline):
                    time.sleep(0.05)
                assert daemon.stats()["active_connections"] == 0


class TestDaemonStats:
    def test_stats_is_the_server_section_and_survives_stop(
            self, trained, tiny_dataset, unix_path):
        X = tiny_dataset.matrix(trained.feature_names_)
        daemon = ScoringDaemon(trained, socket_path=unix_path, workers=1)
        with daemon:
            with ScoringClient(socket_path=unix_path) as client:
                client.predict_pipelined(X)
                served = AdminClient(client).stats()["server"]
                # the stats verb counts itself once its answer is staged
                assert daemon.stats() == {
                    **served, "requests_served": served["requests_served"] + 1}
        final = daemon.stats()
        assert final["requests_served"] == served["requests_served"] + 1
        assert final["fast_rows"] == served["fast_rows"] == len(X)
        assert final["connections_served"] == 1
        assert final["active_connections"] == 0
        assert final["codec"]["connections"] == {CODEC_JSON: 1}
        assert daemon.stats() == final

    def test_every_stats_counter_is_its_metrics_series(
            self, trained, tiny_dataset, unix_path):
        """JSON rows, a binary-v2 stream, a 0x02 BATCH frame, a kernel
        request and an admin verb: each ``stats`` counter equals the
        series it is read from in the same daemon's registry."""
        X = tiny_dataset.matrix(trained.feature_names_)
        X32 = np.asarray(X, dtype=np.float32).astype(np.float64)
        n = len(X)
        daemon = ScoringDaemon(trained, socket_path=unix_path, workers=2)
        with daemon:
            with ScoringClient(socket_path=unix_path) as client:
                client.predict_pipelined(X)
                client.predict_kernel("gemm")
                AdminClient(client).health()
            with ScoringClient(socket_path=unix_path,
                               codec=CODEC_BINARY_V2) as client:
                client.predict_pipelined(X32)
                client.predict_batch(X32)
            deadline = time.monotonic() + 5.0
            while (daemon.stats()["active_connections"]
                   and time.monotonic() < deadline):
                time.sleep(0.01)
            stats = daemon.stats()
            series = daemon.obs.snapshot()["series"]

        def total(name, field="value", **labels):
            return sum(row[field] for row in series
                       if row["name"] == name
                       and labels.items() <= row["labels"].items())

        def by_codec(name, **labels):
            return {row["labels"]["codec"]: row["value"] for row in series
                    if row["name"] == name
                    and labels.items() <= row["labels"].items()}

        opened = total("repro_loop_connections_total")
        fast_rows = (total("repro_loop_fast_batch_rows", "sum")
                     + total("repro_loop_stream_rows", "sum"))
        fast_batches = total("repro_loop_fast_batches_total")
        assert stats == {
            "transport": "eventloop",
            "requests_served": total("repro_loop_requests_total"),
            "connections_served": opened,
            "active_connections": (
                opened - total("repro_codec_connections_total")),
            "fast_rows": fast_rows,
            "fast_batches": fast_batches,
            "mean_fast_batch": round(fast_rows / fast_batches, 2),
            "largest_fast_batch": total(
                "repro_loop_largest_fast_batch_rows"),
            "slow_requests": total("repro_loop_queue_wait_us", "count"),
            "stream_frames": total("repro_loop_stream_frames_total"),
            "stream_rows": total("repro_loop_stream_rows", "sum"),
            "max_batch": daemon.max_batch,
            "codec": {
                "offered": [CODEC_BINARY_V2, CODEC_JSON],
                "connections": by_codec("repro_codec_connections_total"),
                "requests": by_codec("repro_codec_requests_total"),
                "bytes_in": by_codec("repro_codec_bytes_total",
                                     direction="in"),
                "bytes_out": by_codec("repro_codec_bytes_total",
                                      direction="out"),
            },
        }
        # and the series hold what the traffic was: n JSON rows, n
        # stream rows, a hello, a batch, a kernel request, a health
        # verb; the last three took the worker path
        assert stats["requests_served"] == 2 * n + 4
        assert stats["fast_rows"] == 2 * n
        assert stats["stream_rows"] == n and stats["stream_frames"] >= 1
        assert stats["slow_requests"] == 3
        assert stats["connections_served"] == 2
        assert stats["active_connections"] == 0
        assert stats["codec"]["connections"] == {CODEC_JSON: 1,
                                                 CODEC_BINARY_V2: 1}
        assert stats["codec"]["requests"] == {CODEC_JSON: n + 3,
                                              CODEC_BINARY_V2: n + 1}


class TestCoalescedStepBookkeeping:
    def test_metrics_count_a_fixed_mix(self, trained, tiny_dataset,
                                       unix_path, monkeypatch):
        """Sequential JSON rows, memo-hit kernels and binary-v2 stream
        frames (one block per coalesced chunk): the metrics verb counts
        exactly that mix, and with every chunk over the slow threshold
        each chunk logs exactly one slow_request."""
        from tests.test_obs import capture_log

        X = tiny_dataset.matrix(trained.feature_names_)
        X32 = np.asarray(X, dtype=np.float32)
        rows, hits, frames = 6, 4, (3, 5, 2)
        monkeypatch.setenv("REPRO_SLOW_REQUEST_US", "1")
        _, log_lines = capture_log("server")
        try:
            with ScoringDaemon(trained, socket_path=unix_path, workers=1):
                with ScoringClient(socket_path=unix_path) as client:
                    for row in X[:rows].tolist():
                        client.predict(row)
                    for _ in range(hits + 1):  # a miss, then memo hits
                        client.predict_kernel("gemm")
                with ScoringClient(socket_path=unix_path,
                                   codec=CODEC_BINARY_V2) as client:
                    start = 0
                    for n in frames:
                        client.predict_pipelined(X32[start:start + n])
                        start += n
                    series = AdminClient(client).metrics()["series"]
        finally:
            logged = log_lines()

        def one(name, **labels):
            (row,) = [row for row in series if row["name"] == name
                      and labels.items() <= row["labels"].items()]
            return row

        singles, chunks = rows + hits, rows + hits + len(frames)
        assert one("repro_loop_fast_batches_total")["value"] == chunks
        assert one("repro_loop_stream_frames_total")["value"] == len(frames)
        assert one("repro_loop_largest_fast_batch_rows")["value"] == max(
            frames)
        assert one("repro_loop_fast_batch_rows")["count"] == singles
        assert one("repro_loop_stream_rows")["count"] == len(frames)
        assert one("repro_request_latency_us",
                   codec="coalesced")["count"] == singles
        assert one("repro_request_latency_us",
                   codec="stream")["count"] == sum(frames)
        slow = [(r["codec"], r["rows"]) for r in logged
                if r["event"] == "slow_request"
                and r["codec"] in ("coalesced", "stream")]
        assert slow == [("coalesced", 1)] * singles + [
            ("stream", n) for n in frames]


class TestClientRedialsAfterDesync:
    def test_request_after_pipeline_desync_reconnects(self, trained,
                                                      unix_path,
                                                      tmp_path):
        """A desync teardown leaves the client usable: the next
        request dials a fresh connection instead of failing on the
        closed socket forever."""
        bad_path = str(tmp_path / "bad.sock")

        def session(listener) -> None:
            conn, _ = listener.accept()
            with conn:
                _read_lines(conn, 1)
                conn.sendall(b'{"ok": true, "id": 424242}\n')

        server = _FakeServer(bad_path, session)
        client = ScoringClient(socket_path=bad_path)
        try:
            with pytest.raises(ScoringError):
                client.request_pipelined([{"n": 0}], window=1)
            # swap a real daemon behind the same endpoint: the client
            # must redial and serve normally
            server.close()
            os.unlink(bad_path)
            with ScoringDaemon(trained, socket_path=bad_path,
                               workers=1):
                assert client.info()["model_family"] == "tree"
        finally:
            client.close()
            server.close()


class TestClientRedialsWhileNothingListens:
    def test_refused_redial_is_one_retried_attempt(self, trained,
                                                   tiny_dataset,
                                                   unix_path):
        """A re-dial that finds nothing listening (the daemon, or every
        shard of a fleet, still restarting) uses up one reconnect
        attempt and is retried; it does not end the call while attempts
        are left."""
        row = tiny_dataset.matrix(trained.feature_names_)[0].tolist()
        want = int(trained.predict(row))
        restarted: list = []

        def restart() -> None:
            time.sleep(0.3)
            restarted.append(ScoringDaemon(trained, socket_path=unix_path,
                                           workers=1).start())

        daemon = ScoringDaemon(trained, socket_path=unix_path,
                               workers=1).start()
        client = ScoringClient(socket_path=unix_path, reconnect_retries=16)
        thread = threading.Thread(target=restart)
        try:
            assert client.predict(row) == want
            daemon.stop()  # drops the connection and unlinks the socket
            thread.start()
            # the first re-dial runs while nothing listens
            assert client.predict(row) == want
        finally:
            client.close()
            daemon.stop()
            if thread.is_alive() or restarted:
                thread.join(10)
                for again in restarted:
                    again.stop()
        assert not thread.is_alive() and len(restarted) == 1

    def test_refused_redials_give_up_after_the_retries(self, trained,
                                                       tiny_dataset,
                                                       unix_path):
        row = tiny_dataset.matrix(trained.feature_names_)[0].tolist()
        daemon = ScoringDaemon(trained, socket_path=unix_path,
                               workers=1).start()
        client = ScoringClient(socket_path=unix_path, reconnect_retries=2)
        try:
            client.predict(row)
            daemon.stop()
            with pytest.raises(ScoringError,
                               match="not recovered after 3") as excinfo:
                client.predict(row)
            assert excinfo.value.code == "transport"
        finally:
            client.close()
            daemon.stop()


class TestClientTimeoutTeardown:
    def test_timeout_tears_down_and_next_request_redials(
            self, unix_path):
        """A recv timeout leaves queued responses untrusted: the
        connection is torn down and the next request dials fresh
        instead of reading a stale frame."""
        def session(listener) -> None:
            conn, _ = listener.accept()
            _read_lines(conn, 1)  # never answered; conn held open
            conn2, _ = listener.accept()
            with conn2:
                request = _read_lines(conn2, 1)[0]
                conn2.sendall((json.dumps(
                    {"ok": True, "id": request["id"],
                     "late": False}) + "\n").encode())
            conn.close()

        server = _FakeServer(unix_path, session)
        try:
            client = ScoringClient(socket_path=unix_path, timeout=0.5,
                                   reconnect_retries=0)
            with pytest.raises(ScoringError) as excinfo:
                client.request({"n": 0})
            assert excinfo.value.code == "transport"
            assert client.request({"n": 1})["late"] is False
            client.close()
        finally:
            server.close()


class TestRequestThroughPipeline:
    """request() is a 1-request pipeline: an unusable answer tears the
    connection down and the next call re-dials, as in a pipeline."""

    def _redial_session(self, first_reply, accepts: list):
        """Connection 1 gets *first_reply* and is held open (a client
        that reused it would hang); connection 2 echoes."""
        def session(listener) -> None:
            conn, _ = listener.accept()
            accepts.append(conn)
            _read_lines(conn, 1)
            conn.sendall(first_reply)
            conn2, _ = listener.accept()
            accepts.append(conn2)
            with conn2:
                request = _read_lines(conn2, 1)[0]
                conn2.sendall(_echo_line(request["id"], request["n"]))
            conn.close()

        return session

    @pytest.mark.parametrize("reply, code, match", [
        (b'{"ok": false, "code": "too_large", "error": "line too long"}\n',
         "too_large", "line too long"),
        (b"not json at all\n", "transport", "undecodable"),
    ])
    def test_unusable_answer_redials(self, unix_path, reply, code, match):
        accepts: list = []
        server = _FakeServer(unix_path, self._redial_session(reply, accepts))
        try:
            with ScoringClient(socket_path=unix_path, timeout=5.0) as client:
                with pytest.raises(ScoringError, match=match) as excinfo:
                    client.request({"n": 0})
                assert excinfo.value.code == code
                assert client.request({"n": 1})["echo"] == 1
        finally:
            server.close()
        assert not server.errors
        assert len(accepts) == 2

    def test_draining_without_retries_raises_draining(self, unix_path):
        def session(listener) -> None:
            conn, _ = listener.accept()
            with conn:
                request = _read_lines(conn, 1)[0]
                conn.sendall(_draining_frame(JSON_CODEC, request["id"]))
                conn.recv(65536)  # wait for the client's close

        server = _FakeServer(unix_path, session)
        try:
            with ScoringClient(socket_path=unix_path,
                               reconnect_retries=0) as client:
                with pytest.raises(ScoringError) as excinfo:
                    client.request({"n": 0})
            assert excinfo.value.code == "draining"
        finally:
            server.close()
        assert not server.errors


def _echo_line(req_id: int, n: int) -> bytes:
    return (json.dumps({"ok": True, "id": req_id, "echo": n}) + "\n").encode()


def _draining_frame(codec, req_id: int) -> bytes:
    return codec.encode_response({"ok": False, "code": ERROR_DRAINING,
                                  "error": "server is draining",
                                  "id": req_id})


@st.composite
def _pipeline_plans(draw, mode: str) -> dict:
    """One scripted pipelined exchange for :func:`_pipeline_session`."""
    n = draw(st.integers(1, 12))
    return {
        "mode": mode,
        "n": n,
        # request() is a pipeline with a window of one
        "window": 1 if mode == "request" else draw(st.integers(1, 4)),
        # each flush is answered in ascending key order
        "keys": draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)),
        # all answers of a flush in one send (one stream frame) or not
        "packed": draw(st.booleans()),
        # a half-close / a draining refusal when this many are answered
        "drop_after": draw(st.none() | st.integers(0, n - 1)),
        "drain_at": draw(st.none() | st.integers(0, n - 1)),
    }


def _pipeline_session(plan: dict, answered: list):
    """A fake daemon serving *plan*; logs each success as (id, n).

    Request ``n`` carries the value ``n`` (``{"n": n}`` in JSON, the
    first column of a binary-v2 stream row).  A client with *window*
    slots keeps ``min(window, unanswered)`` requests in flight, so
    the server reads exactly that many as one flush before answering.
    """
    n, window = plan["n"], plan["window"]
    stream = plan["mode"] == "stream"
    codec = BINARY_V2_CODEC if stream else JSON_CODEC
    # in answer-count order; at the same count the refusal comes first
    events = sorted(((count, kind) for kind, count in
                     (("drain", plan["drain_at"]), ("drop", plan["drop_after"]))
                     if count is not None), key=lambda event: event[0])

    def read_requests(reader) -> list:
        if not stream:
            request = json.loads(reader.readline())
            return [(request["id"], request["n"])]
        length, ftype = HEADER.unpack(reader.read(HEADER.size))
        rows, error = codec.decode_request(bytes([ftype]) + reader.read(length))
        assert error is None, error
        return list(zip(rows.ids.tolist(), rows.rows[:, 0].astype(int).tolist()))

    def encode(replies: list) -> list:
        if stream:
            ids, values = zip(*replies)
            return [codec.encode_predictions_stream(ids, values)]
        return [_echo_line(req_id, value) for req_id, value in replies]

    def serve(conn) -> None:
        reader = conn.makefile("rb")
        if stream:
            hello = json.loads(reader.readline())
            conn.sendall((json.dumps({"ok": True, "id": hello["id"],
                                      "codec": CODEC_BINARY_V2}) + "\n"
                          ).encode())
        while len(answered) < n:
            flush: list = []
            while len(flush) < min(window, n - len(answered)):
                flush += read_requests(reader)
            flush.sort(key=lambda request: plan["keys"][request[1]])
            replies: list = []
            event = None
            for request in flush:
                if events and events[0][0] == len(answered):
                    event = (events.pop(0)[1], request[0])
                    break
                replies.append(request)
                answered.append(request)
            sends = [replies] if plan["packed"] else [[r] for r in replies]
            for send in filter(None, sends):
                conn.sendall(b"".join(encode(send)))
            if event is not None:
                if event[0] == "drain":
                    conn.sendall(_draining_frame(codec, event[1]))
                # half-close so no reset can discard the answers sent,
                # then wait for the client to hang up
                conn.shutdown(socket.SHUT_WR)
                reader.read()
                return

    def session(listener) -> None:
        while len(answered) < n:
            conn, _ = listener.accept()
            conn.settimeout(10.0)
            with conn:
                serve(conn)

    return session


class TestPipelineProperty:
    @pytest.mark.parametrize("mode", ["json", "stream", "request"])
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_every_request_answered_once_in_order(self, mode, data):
        """Whatever the window, the answer order within each flush, a
        dropped connection or a draining refusal: the pipeline returns
        every answer in request order and the server answers each
        request id exactly once — JSON requests, binary-v2 stream rows
        and sequential request() calls alike."""
        plan = data.draw(_pipeline_plans(mode), label="plan")
        n, window = plan["n"], plan["window"]
        answered: list = []
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "s.sock")
            server = _FakeServer(path, _pipeline_session(plan, answered))
            codec = CODEC_BINARY_V2 if plan["mode"] == "stream" else CODEC_JSON
            try:
                with ScoringClient(socket_path=path, codec=codec, timeout=3.0,
                                   reconnect_retries=2) as client:
                    if plan["mode"] == "stream":
                        rows = np.zeros((n, 2), dtype=np.float32)
                        rows[:, 0] = np.arange(n)
                        got = client.predict_pipelined(rows, window=window)
                    elif plan["mode"] == "json":
                        frames = client.request_pipelined(
                            [{"n": i} for i in range(n)], window=window)
                        got = [frame["echo"] for frame in frames]
                    else:
                        got = [client.request({"n": i})["echo"]
                               for i in range(n)]
            finally:
                server.close()
        assert not server.errors
        assert got == list(range(n))
        ids = [req_id for req_id, _ in answered]
        assert len(set(ids)) == len(ids) == n
        assert sorted(value for _, value in answered) == list(range(n))

    def test_reordered_resend_pairs_ids_with_their_rows(self, monkeypatch):
        """Rows 3 and 2 are answered, rows 4 and 5 sent into the freed
        slots, then the connection drops: the resent flush is rows 0, 1,
        4 and 5, not one slice, and each id still travels with its own
        row (the fake daemon answers a row with its first cell)."""
        flushes: list = []
        encode = BinaryV2Codec.encode_predict_stream

        def recording(codec, ids, rows):
            flushes.append(np.asarray(ids).tolist())
            return encode(codec, ids, rows)

        monkeypatch.setattr(BinaryV2Codec, "encode_predict_stream",
                            recording)
        plan = {"mode": "stream", "n": 6, "window": 4,
                "keys": [3, 2, 1, 0, 0, 0], "packed": False,
                "drop_after": 2, "drain_at": None}
        answered: list = []
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "s.sock")
            server = _FakeServer(path, _pipeline_session(plan, answered))
            try:
                with ScoringClient(socket_path=path, codec=CODEC_BINARY_V2,
                                   timeout=3.0, reconnect_retries=1) as client:
                    rows = np.zeros((6, 2), dtype=np.float32)
                    rows[:, 0] = np.arange(6)
                    base = client._next_id
                    got = client.predict_pipelined(rows, window=4)
            finally:
                server.close()
        assert not server.errors
        assert got == list(range(6))
        assert [[rid - base for rid in flush] for flush in flushes] == [
            [0, 1, 2, 3], [4], [5], [0, 1, 4, 5]]


class TestCliShards:
    def test_shards_require_daemon_endpoint(self, capsys):
        from repro.cli import main
        with pytest.raises(SystemExit):
            main(["serve", "--shards", "2"])
        with pytest.raises(SystemExit):
            main(["serve", "--shards", "0", "--socket", "/tmp/x.sock"])
        # sharding is unix-socket only: --tcp is refused up front and
        # the error points at --socket
        capsys.readouterr()
        with pytest.raises(SystemExit):
            main(["serve", "--shards", "2", "--tcp", "127.0.0.1:0"])
        assert "--socket" in capsys.readouterr().err

    def test_shards_deploy_a_supervised_fleet(
            self, trained, tiny_dataset, artifact, tmp_path):
        """``--socket PATH --shards 1`` serves through a shard registry,
        heals a killed shard with no further flag, and stops cleanly on
        SIGINT."""
        import signal
        import subprocess
        import sys

        import repro

        row = list(map(float, tiny_dataset.matrix(trained.feature_names_)[0]))
        want = int(trained.predict(row))
        base = str(tmp_path / "cli.sock")
        src = os.path.dirname(os.path.dirname(repro.__file__))
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--model", artifact,
             "--socket", base, "--shards", "1"],
            env=dict(os.environ, PYTHONPATH=src),
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)

        def registry_pid(unlike=None):
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline:
                rows = read_registry(base) or []
                if rows and rows[0]["pid"] != unlike:
                    return rows[0]["pid"]
                time.sleep(0.05)
            raise AssertionError("no fresh shard registry row in 60 s")

        try:
            victim = registry_pid()
            with ScoringClient(socket_path=base) as client:
                assert client.predict(row) == want
            os.kill(victim, signal.SIGKILL)
            registry_pid(unlike=victim)
            with ScoringClient(socket_path=base) as client:
                assert client.predict(row) == want
        finally:
            proc.send_signal(signal.SIGINT)
            try:
                proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        assert proc.returncode == 0
        assert not os.path.exists(base)


class TestCleanStopUnderIgnoredSigint:
    @pytest.mark.parametrize("signame", ["SIGINT", "SIGTERM"])
    def test_serve_socket_stops_cleanly(self, artifact, unix_path, signame):
        """``repro serve --socket`` started with SIGINT ignored (as every
        child of a background shell job is) still stops on SIGINT, and
        SIGTERM reaches the same clean stop: exit 0 within 5 s, the
        socket unlinked and the "served" line on stderr."""
        import signal
        import subprocess
        import sys

        import repro

        src = os.path.dirname(os.path.dirname(repro.__file__))
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--model", artifact,
             "--socket", unix_path],
            env=dict(os.environ, PYTHONPATH=src),
            preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_IGN),
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
        try:
            deadline = time.monotonic() + 60
            while not os.path.exists(unix_path):
                assert proc.poll() is None and time.monotonic() < deadline
                time.sleep(0.02)
            with ScoringClient(socket_path=unix_path) as client:
                assert client.info()
            proc.send_signal(getattr(signal, signame))
            _, err = proc.communicate(timeout=5)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == 0
        assert b"served 1 request(s) over 1 connection(s)" in err
        assert not os.path.exists(unix_path)
