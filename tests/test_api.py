"""Tests for the :mod:`repro.api` service layer."""

import dataclasses
import io
import json

import numpy as np
import pytest

from repro.api import (
    DEFAULT_TOLERANCES,
    Classifier,
    ModelFleet,
    ReproConfig,
    available_feature_sets,
    available_model_families,
    evaluate_features,
    model_family,
    register_feature_set,
    register_model_family,
    resolve_feature_set,
    serve,
)
from repro.api.registry import ModelFamily
from repro.errors import ConfigError, MLError
from repro.features.sets import feature_names
from repro.ir.types import DType
from repro.ml.metrics import mean_tolerance_curve
from repro.ml.model_selection import repeated_cv_predict
from repro.ml.tree import DecisionTreeClassifier
from repro.version import CODE_VERSION

from tests.conftest import make_axpy


def _trained(tiny_dataset, model="tree", params=None,
             feature_set="static-all") -> Classifier:
    config = ReproConfig(profile="unit", feature_set=feature_set,
                         model=model, model_params=params or {})
    return Classifier(config).train(tiny_dataset)


class TestReproConfig:
    def test_defaults(self):
        config = ReproConfig()
        assert config.profile == "paper"
        assert config.model == "tree"
        assert config.resolved_repeats() >= 1

    def test_invalid_profile_rejected(self):
        with pytest.raises(ConfigError):
            ReproConfig(profile="bogus")

    def test_invalid_protocol_rejected(self):
        with pytest.raises(ConfigError):
            ReproConfig(n_splits=1)
        with pytest.raises(ConfigError):
            ReproConfig(repeats=0)

    def test_replace_revalidates(self):
        config = ReproConfig(profile="unit")
        assert dataclasses.replace(config, model="always-k").model == \
            "always-k"
        with pytest.raises(ConfigError):
            dataclasses.replace(config, profile="nope")

    def test_dict_round_trip(self):
        config = ReproConfig(profile="unit", model="tree",
                             model_params={"max_depth": 3}, seed=7)
        assert ReproConfig.from_dict(config.as_dict()) == config


class TestRegistries:
    def test_shipped_families_and_sets(self):
        assert {"tree", "always-k"} <= set(available_model_families())
        assert {"static-all", "static-opt", "dynamic", "dynamic-opt"} <= \
            set(available_feature_sets())

    def test_unknown_model_family(self):
        with pytest.raises(MLError, match="unknown model family"):
            model_family("boosted-stump")

    def test_unknown_feature_set(self):
        with pytest.raises(MLError, match="unknown feature set"):
            resolve_feature_set("static-imaginary")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(MLError, match="already registered"):
            register_model_family(ModelFamily(
                name="tree", factory=lambda: None,
                to_payload=lambda m: {}, from_payload=lambda d: None))
        with pytest.raises(MLError, match="already registered"):
            register_feature_set("static-all", names=("op",))

    def test_custom_feature_set_plugs_in(self):
        from repro.api.registry import _FEATURE_RESOLVERS
        register_feature_set("test-just-op", names=("op", "tcdm"))
        try:
            assert resolve_feature_set("test-just-op") == ["op", "tcdm"]
        finally:
            # the registry is process-global; leaking the entry would
            # make later tests order-dependent
            _FEATURE_RESOLVERS.pop("test-just-op", None)

    def test_fixed_sets_match_feature_names(self):
        assert resolve_feature_set("static-agg") == \
            feature_names("static-agg")

    def test_opt_set_needs_dataset(self):
        with pytest.raises(MLError, match="needs a dataset"):
            resolve_feature_set("static-opt")

    def test_opt_set_resolves_on_dataset(self, tiny_dataset):
        kept = resolve_feature_set("static-opt", tiny_dataset)
        assert set(kept) <= set(feature_names("static-all"))
        assert len(kept) >= 3


class TestTrainPredict:
    def test_untrained_predict_raises(self):
        with pytest.raises(MLError, match="not trained"):
            Classifier().predict([0.0])

    def test_predict_batch_agrees_with_rowwise_predict(self, tiny_dataset):
        clf = _trained(tiny_dataset)
        X = tiny_dataset.matrix(clf.feature_names_)
        batch = clf.predict_batch(X)
        rowwise = [clf.predict(row) for row in X]
        assert list(batch) == rowwise

    def test_predict_accepts_mapping(self, tiny_dataset):
        clf = _trained(tiny_dataset)
        X = tiny_dataset.matrix(clf.feature_names_)
        mapping = dict(zip(clf.feature_names_, X[0]))
        assert clf.predict(mapping) == clf.predict(X[0])

    def test_predict_mapping_missing_feature(self, tiny_dataset):
        clf = _trained(tiny_dataset)
        with pytest.raises(MLError, match="missing"):
            clf.predict({clf.feature_names_[0]: 1.0})

    def test_predict_bad_vector_shape(self, tiny_dataset):
        clf = _trained(tiny_dataset)
        with pytest.raises(MLError, match="shape"):
            clf.predict([1.0, 2.0])

    def test_predict_batch_of_dicts(self, tiny_dataset):
        clf = _trained(tiny_dataset)
        X = tiny_dataset.matrix(clf.feature_names_)
        rows = [dict(zip(clf.feature_names_, row)) for row in X[:4]]
        assert list(clf.predict_batch(rows)) == list(clf.predict_batch(X[:4]))

    def test_predict_batch_empty(self, tiny_dataset):
        clf = _trained(tiny_dataset)
        assert len(clf.predict_batch([])) == 0

    def test_predict_from_kernel_ir(self, tiny_dataset):
        clf = _trained(tiny_dataset)
        prediction = clf.predict(make_axpy(DType.INT32, 512))
        assert prediction in range(1, 9)

    def test_train_builds_dataset_when_omitted(self, tiny_dataset,
                                               monkeypatch):
        calls = {}

        def fake_build(profile, progress=None, jobs=None):
            calls["profile"] = profile
            return tiny_dataset

        monkeypatch.setattr("repro.api.classifier.build_dataset",
                            fake_build)
        clf = Classifier(ReproConfig(profile="unit")).train()
        assert calls["profile"] == "unit"
        assert clf.is_fitted


class TestArtifacts:
    @pytest.mark.parametrize("model,params", [
        ("tree", {}),
        ("tree", {"max_depth": 3}),
    ])
    def test_save_load_predict_round_trip(self, tiny_dataset, tmp_path,
                                          model, params):
        clf = _trained(tiny_dataset, model=model, params=params)
        X = tiny_dataset.matrix(clf.feature_names_)
        expected = clf.predict_batch(X)
        path = str(tmp_path / "model.json")
        clf.save(path)
        loaded = Classifier.load(path)
        assert loaded.feature_names_ == clf.feature_names_
        assert loaded.classes_ == clf.classes_
        assert np.array_equal(loaded.predict_batch(X), expected)

    def test_artifact_is_json_with_versions(self, tiny_dataset, tmp_path):
        clf = _trained(tiny_dataset)
        path = str(tmp_path / "model.json")
        clf.save(path)
        with open(path) as handle:
            payload = json.load(handle)
        assert payload["code_version"] == CODE_VERSION
        assert payload["model_family"] == "tree"
        assert payload["feature_set"] == "static-all"

    def _tampered(self, tiny_dataset, tmp_path, **changes) -> str:
        clf = _trained(tiny_dataset)
        path = str(tmp_path / "model.json")
        clf.save(path)
        with open(path) as handle:
            payload = json.load(handle)
        payload.update(changes)
        with open(path, "w") as handle:
            json.dump(payload, handle)
        return path

    def test_code_version_mismatch_raises(self, tiny_dataset, tmp_path):
        path = self._tampered(tiny_dataset, tmp_path,
                              code_version=CODE_VERSION + 1)
        with pytest.raises(MLError, match="code "):
            Classifier.load(path)

    def test_code_version_mismatch_asks_for_a_retrain(self, tiny_dataset,
                                                      tmp_path):
        """A stale artifact cannot be forced through: the refusal says
        to retrain and offers no override."""
        path = self._tampered(tiny_dataset, tmp_path,
                              code_version=CODE_VERSION + 1)
        with pytest.raises(MLError) as refused:
            Classifier.load(path)
        assert "retrain it (repro train)" in str(refused.value)
        assert "allow_version_mismatch" not in str(refused.value)

    def test_unknown_feature_set_raises(self, tiny_dataset, tmp_path):
        path = self._tampered(tiny_dataset, tmp_path,
                              feature_set="static-imaginary")
        with pytest.raises(MLError, match="unknown feature set"):
            Classifier.load(path)

    def test_unknown_model_family_raises(self, tiny_dataset, tmp_path):
        path = self._tampered(tiny_dataset, tmp_path,
                              model_family="boosted-stump")
        with pytest.raises(MLError, match="unknown model family"):
            Classifier.load(path)

    def test_future_format_version_raises(self, tiny_dataset, tmp_path):
        path = self._tampered(tiny_dataset, tmp_path, format_version=99)
        with pytest.raises(MLError, match="format version"):
            Classifier.load(path)

    def test_wrong_format_raises(self, tmp_path):
        path = str(tmp_path / "model.json")
        with open(path, "w") as handle:
            json.dump({"format": "something-else"}, handle)
        with pytest.raises(MLError, match="not a repro classifier"):
            Classifier.load(path)

    def test_cyclic_node_graph_raises(self, tiny_dataset, tmp_path):
        """Tampered child indices (cycles, negative aliasing) must be
        rejected instead of hanging the flattening traversal."""
        clf = _trained(tiny_dataset)
        path = str(tmp_path / "model.json")
        clf.save(path)
        with open(path) as handle:
            payload = json.load(handle)
        nodes = payload["model"]["nodes"]
        internal = next(i for i, f in enumerate(nodes["feature"])
                        if f >= 0)
        for bad_child in (internal, -2, len(nodes["feature"])):
            tampered = json.loads(json.dumps(payload))
            tampered["model"]["nodes"]["left"][internal] = bad_child
            with open(path, "w") as handle:
                json.dump(tampered, handle)
            with pytest.raises(MLError):
                Classifier.load(path)

    def test_unreadable_artifact_raises(self, tmp_path):
        with pytest.raises(MLError, match="cannot read"):
            Classifier.load(str(tmp_path / "missing.json"))
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(MLError, match="not valid JSON"):
            Classifier.load(str(bad))


class TestEvaluate:
    def test_matches_direct_protocol(self, tiny_dataset):
        """The API evaluation is numerically identical to the paper's
        hand-rolled repeated-CV pipeline (the experiments rely on it)."""
        names = feature_names("static-agg")
        X = tiny_dataset.matrix(names)
        preds, imps = repeated_cv_predict(
            lambda: DecisionTreeClassifier(random_state=0), X,
            tiny_dataset.labels, n_splits=10, repeats=2, seed=0)
        expected = mean_tolerance_curve(
            preds, tiny_dataset.energy_matrix, DEFAULT_TOLERANCES,
            tiny_dataset.team_sizes)
        report = evaluate_features(tiny_dataset, names, repeats=2)
        assert report.curve == expected
        assert np.array_equal(report.importances, imps)

    def test_baseline_family_skips_cv(self, tiny_dataset):
        clf = Classifier(ReproConfig(model="always-k",
                                     model_params={"k": 8}))
        report = clf.evaluate(tiny_dataset, repeats=2, feature_names=[])
        expected = mean_tolerance_curve(
            np.full(len(tiny_dataset), 8, dtype=int),
            tiny_dataset.energy_matrix, DEFAULT_TOLERANCES,
            tiny_dataset.team_sizes)
        assert report.curve == expected
        assert report.predictions.shape == (1, len(tiny_dataset))

    def test_accuracy_at(self, tiny_dataset):
        report = evaluate_features(tiny_dataset,
                                   feature_names("static-agg"), repeats=2)
        assert report.accuracy_at(0) == report.curve[0]


class TestServe:
    def test_rows_features_kernel_and_info(self, tiny_dataset):
        clf = _trained(tiny_dataset)
        X = tiny_dataset.matrix(clf.feature_names_)
        mapping = dict(zip(clf.feature_names_, X[0]))
        requests = "\n".join([
            json.dumps({"rows": X[:3].tolist(), "id": 1}),
            json.dumps({"features": mapping, "id": 2}),
            json.dumps({"kernel": "gemm", "size": 512, "id": 3}),
            json.dumps({"cmd": "info", "id": 4}),
        ]) + "\n"
        out = io.StringIO()
        handled = serve(clf, io.StringIO(requests), out)
        responses = [json.loads(line)
                     for line in out.getvalue().splitlines()]
        assert handled == 4
        assert all(r["ok"] for r in responses)
        assert responses[0]["predictions"] == \
            [int(p) for p in clf.predict_batch(X[:3])]
        assert responses[1]["prediction"] == clf.predict(X[0])
        assert responses[3]["info"]["model_family"] == "tree"
        assert [r["id"] for r in responses] == [1, 2, 3, 4]

    def test_errors_do_not_kill_the_service(self, tiny_dataset):
        clf = _trained(tiny_dataset)
        requests = "\n".join([
            "this is not json",
            json.dumps({"features": {"op": 1.0}}),
            json.dumps({"unknown": "request"}),
            json.dumps({"kernel": "no_such_kernel"}),
            json.dumps({"kernel": "gemm", "size": 512}),
        ]) + "\n"
        out = io.StringIO()
        handled = serve(clf, io.StringIO(requests), out)
        responses = [json.loads(line)
                     for line in out.getvalue().splitlines()]
        assert handled == 5
        assert [r["ok"] for r in responses] == \
            [False, False, False, False, True]

    def test_handle_request_rejects_non_object(self, tiny_dataset):
        clf = _trained(tiny_dataset)
        response = ModelFleet.single(clf).handle_request(
            ["not", "an", "object"])
        assert response["ok"] is False
        assert response["code"] == "bad_request"

    def test_malformed_json_yields_typed_frame_and_loop_survives(
            self, tiny_dataset):
        """A line that is not JSON must produce a structured error frame
        (ok=false + code) and leave the loop serving later lines."""
        clf = _trained(tiny_dataset)
        X = tiny_dataset.matrix(clf.feature_names_)
        requests = "\n".join([
            '{"rows": [',        # truncated JSON
            "plain garbage",
            json.dumps({"rows": X[:2].tolist(), "id": "after"}),
        ]) + "\n"
        out = io.StringIO()
        handled = serve(clf, io.StringIO(requests), out)
        frames = [json.loads(line)
                  for line in out.getvalue().splitlines()]
        assert handled == 3
        assert [f["ok"] for f in frames] == [False, False, True]
        assert frames[0]["code"] == "invalid_json"
        assert frames[1]["code"] == "invalid_json"
        assert "invalid JSON" in frames[0]["error"]
        assert frames[2]["id"] == "after"

    def test_missing_feature_keys_yield_typed_frame(self, tiny_dataset):
        """Rows / feature mappings missing feature keys must produce a
        structured error frame, not crash the loop."""
        clf = _trained(tiny_dataset)
        X = tiny_dataset.matrix(clf.feature_names_)
        incomplete = {clf.feature_names_[0]: 1.0}
        requests = "\n".join([
            json.dumps({"features": incomplete, "id": 1}),
            json.dumps({"rows": [incomplete], "id": 2}),
            json.dumps({"rows": [[1.0, 2.0]], "id": 3}),
            json.dumps({"features": X[0].tolist(), "id": 4}),
        ]) + "\n"
        out = io.StringIO()
        handled = serve(clf, io.StringIO(requests), out)
        frames = [json.loads(line)
                  for line in out.getvalue().splitlines()]
        assert handled == 4
        assert [f["ok"] for f in frames] == [False, False, False, True]
        for frame in frames[:3]:
            assert frame["code"] == "bad_request"
        assert "missing" in frames[0]["error"]
        assert [f["id"] for f in frames] == [1, 2, 3, 4]
