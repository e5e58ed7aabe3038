"""Tests for the model-artifact cache (keying, hits, invalidation)."""

import dataclasses
import json
import os

import numpy as np
import pytest

from repro.api import ReproConfig, artifact_key, artifact_path, dataset_tag
from repro.api import artifact_cache as ac
from repro.api.artifact_cache import load_or_train
from repro.dataset.build import Dataset
from repro.ml.tree import DecisionTreeClassifier


@pytest.fixture()
def fit_counter(monkeypatch):
    """Count every DecisionTreeClassifier.fit call."""
    counter = {"n": 0}
    real_fit = DecisionTreeClassifier.fit

    def counting_fit(self, X, y):
        counter["n"] += 1
        return real_fit(self, X, y)

    monkeypatch.setattr(DecisionTreeClassifier, "fit", counting_fit)
    return counter


@pytest.fixture()
def cache_dir(tmp_path) -> str:
    return str(tmp_path / "models")


CFG = dict(profile="unit", feature_set="static-all", model="tree")


class TestKeying:
    def test_same_inputs_same_path(self, tiny_dataset, cache_dir):
        config = ReproConfig(**CFG)
        assert artifact_path(config, tiny_dataset, cache_dir) == \
            artifact_path(config, tiny_dataset, cache_dir)

    def test_dataset_tag_includes_profile_and_size(self, tiny_dataset):
        assert dataset_tag(tiny_dataset).startswith(
            f"unit-{len(tiny_dataset)}-")
        assert dataset_tag(profile="paper") == "paper"

    def test_same_size_different_content_does_not_alias(
            self, tiny_dataset):
        """Two same-length datasets with different samples must key
        different artifacts (content digest, not just len())."""
        first = Dataset(samples=tiny_dataset.samples[:10],
                        profile=tiny_dataset.profile,
                        team_sizes=tiny_dataset.team_sizes)
        second = Dataset(samples=tiny_dataset.samples[10:20],
                         profile=tiny_dataset.profile,
                         team_sizes=tiny_dataset.team_sizes)
        assert len(first) == len(second)
        assert dataset_tag(first) != dataset_tag(second)

    def test_key_changes_with_every_component(self, tiny_dataset):
        config = ReproConfig(**CFG)
        base = artifact_key(config, dataset_tag(tiny_dataset))
        assert artifact_key(config, dataset_tag(profile="paper")) != base
        assert artifact_key(
            dataclasses.replace(config, feature_set="static-agg"),
            dataset_tag(tiny_dataset)) != base
        assert artifact_key(dataclasses.replace(config, model="always-k"),
                            dataset_tag(tiny_dataset)) != base
        assert artifact_key(
            dataclasses.replace(config, model_params={"max_depth": 3}),
            dataset_tag(tiny_dataset)) != base
        assert artifact_key(dataclasses.replace(config, seed=1),
                            dataset_tag(tiny_dataset)) != base

    def test_env_var_moves_the_cache(self, monkeypatch, tmp_path):
        target = str(tmp_path / "elsewhere")
        monkeypatch.setenv("REPRO_ARTIFACT_CACHE", target)
        path = artifact_path(ReproConfig(**CFG))
        assert path.startswith(target)


class TestHitsAndInvalidation:
    def test_identical_inputs_hit_cache_no_second_fit(
            self, tiny_dataset, cache_dir, fit_counter):
        config = ReproConfig(**CFG)
        clf1, hit1 = load_or_train(config, tiny_dataset, cache_dir)
        assert not hit1 and fit_counter["n"] == 1
        clf2, hit2 = load_or_train(config, tiny_dataset, cache_dir)
        assert hit2 and fit_counter["n"] == 1  # served from disk, no fit
        X = tiny_dataset.matrix(clf1.feature_names_)
        assert np.array_equal(clf1.predict_batch(X),
                              clf2.predict_batch(X))

    def test_code_version_change_forces_retrain(
            self, tiny_dataset, cache_dir, fit_counter, monkeypatch):
        config = ReproConfig(**CFG)
        load_or_train(config, tiny_dataset, cache_dir)
        assert fit_counter["n"] == 1
        monkeypatch.setattr(ac, "CODE_VERSION", ac.CODE_VERSION + 1)
        _, hit = load_or_train(config, tiny_dataset, cache_dir)
        assert not hit and fit_counter["n"] == 2

    def test_dataset_tag_change_forces_retrain(
            self, tiny_dataset, cache_dir, fit_counter):
        config = ReproConfig(**CFG)
        load_or_train(config, tiny_dataset, cache_dir)
        subset = Dataset(samples=tiny_dataset.samples[:12],
                         profile=tiny_dataset.profile,
                         team_sizes=tiny_dataset.team_sizes)
        _, hit = load_or_train(config, subset, cache_dir)
        assert not hit and fit_counter["n"] == 2

    def test_same_size_content_change_forces_retrain(
            self, tiny_dataset, cache_dir, fit_counter):
        config = ReproConfig(**CFG)
        first = Dataset(samples=tiny_dataset.samples[:10],
                        profile=tiny_dataset.profile,
                        team_sizes=tiny_dataset.team_sizes)
        second = Dataset(samples=tiny_dataset.samples[10:20],
                         profile=tiny_dataset.profile,
                         team_sizes=tiny_dataset.team_sizes)
        load_or_train(config, first, cache_dir)
        _, hit = load_or_train(config, second, cache_dir)
        assert not hit and fit_counter["n"] == 2

    def test_feature_set_change_forces_retrain(
            self, tiny_dataset, cache_dir, fit_counter):
        load_or_train(ReproConfig(**CFG), tiny_dataset, cache_dir)
        _, hit = load_or_train(
            ReproConfig(**{**CFG, "feature_set": "static-agg"}),
            tiny_dataset, cache_dir)
        assert not hit and fit_counter["n"] == 2

    def test_force_retrains_and_rewrites(self, tiny_dataset, cache_dir,
                                         fit_counter):
        config = ReproConfig(**CFG)
        load_or_train(config, tiny_dataset, cache_dir)
        _, hit = load_or_train(config, tiny_dataset, cache_dir,
                               force=True)
        assert not hit and fit_counter["n"] == 2
        # the forced artifact is still a valid cache entry afterwards
        _, hit = load_or_train(config, tiny_dataset, cache_dir)
        assert hit and fit_counter["n"] == 2

    def test_corrupt_artifact_is_retrained_over(self, tiny_dataset,
                                                cache_dir, fit_counter):
        config = ReproConfig(**CFG)
        load_or_train(config, tiny_dataset, cache_dir)
        path = artifact_path(config, tiny_dataset, cache_dir)
        with open(path, "w") as handle:
            handle.write("{corrupt")
        clf, hit = load_or_train(config, tiny_dataset, cache_dir)
        assert not hit and fit_counter["n"] == 2
        assert clf.is_fitted
        with open(path) as handle:
            assert json.load(handle)["model_family"] == "tree"

    def test_stale_code_version_artifact_is_retrained_over(
            self, tiny_dataset, cache_dir, fit_counter):
        """An artifact sitting at the right path but written under a
        different CODE_VERSION must not be served."""
        config = ReproConfig(**CFG)
        load_or_train(config, tiny_dataset, cache_dir)
        path = artifact_path(config, tiny_dataset, cache_dir)
        with open(path) as handle:
            payload = json.load(handle)
        payload["code_version"] = payload["code_version"] + 1
        with open(path, "w") as handle:
            json.dump(payload, handle)
        _, hit = load_or_train(config, tiny_dataset, cache_dir)
        assert not hit and fit_counter["n"] == 2

    def test_miss_writes_artifact_to_cache_dir(self, tiny_dataset,
                                               cache_dir):
        config = ReproConfig(**CFG)
        path = artifact_path(config, tiny_dataset, cache_dir)
        assert not os.path.exists(path)
        load_or_train(config, tiny_dataset, cache_dir)
        assert os.path.exists(path)


class TestTtlInvalidation:
    """REPRO_ARTIFACT_TTL: age-bounded reuse."""

    def _backdate(self, path: str, seconds: float) -> None:
        stamp = os.path.getmtime(path) - seconds
        os.utime(path, (stamp, stamp))

    def test_fresh_artifact_hits_within_ttl(self, tiny_dataset,
                                            cache_dir, fit_counter,
                                            monkeypatch):
        config = ReproConfig(**CFG)
        load_or_train(config, tiny_dataset, cache_dir)
        monkeypatch.setenv("REPRO_ARTIFACT_TTL", "3600")
        _, hit = load_or_train(config, tiny_dataset, cache_dir)
        assert hit and fit_counter["n"] == 1

    def test_aged_artifact_is_refit(self, tiny_dataset, cache_dir,
                                    fit_counter, monkeypatch):
        config = ReproConfig(**CFG)
        load_or_train(config, tiny_dataset, cache_dir)
        path = artifact_path(config, tiny_dataset, cache_dir)
        self._backdate(path, 7200.0)
        monkeypatch.setenv("REPRO_ARTIFACT_TTL", "3600")
        assert ac.load_cached(config, tiny_dataset, cache_dir) is None
        _, hit = load_or_train(config, tiny_dataset, cache_dir)
        assert not hit and fit_counter["n"] == 2
        # the refit refreshed the artifact: it hits again now
        _, hit = load_or_train(config, tiny_dataset, cache_dir)
        assert hit and fit_counter["n"] == 2

    def test_env_var_ttl(self, tiny_dataset, cache_dir, fit_counter,
                         monkeypatch):
        config = ReproConfig(**CFG)
        load_or_train(config, tiny_dataset, cache_dir)
        path = artifact_path(config, tiny_dataset, cache_dir)
        self._backdate(path, 600.0)
        monkeypatch.setenv("REPRO_ARTIFACT_TTL", "3600")
        _, hit = load_or_train(config, tiny_dataset, cache_dir)
        assert hit and fit_counter["n"] == 1
        monkeypatch.setenv("REPRO_ARTIFACT_TTL", "60")
        _, hit = load_or_train(config, tiny_dataset, cache_dir)
        assert not hit and fit_counter["n"] == 2

    def test_non_positive_ttl_always_refits(self, tiny_dataset,
                                            cache_dir, fit_counter,
                                            monkeypatch):
        config = ReproConfig(**CFG)
        load_or_train(config, tiny_dataset, cache_dir)
        monkeypatch.setenv("REPRO_ARTIFACT_TTL", "0")
        _, hit = load_or_train(config, tiny_dataset, cache_dir)
        assert not hit and fit_counter["n"] == 2

    def test_invalid_env_ttl_warns_and_never_expires(
            self, tiny_dataset, cache_dir, fit_counter, monkeypatch):
        config = ReproConfig(**CFG)
        load_or_train(config, tiny_dataset, cache_dir)
        monkeypatch.setenv("REPRO_ARTIFACT_TTL", "soon")
        with pytest.warns(RuntimeWarning, match="REPRO_ARTIFACT_TTL"):
            _, hit = load_or_train(config, tiny_dataset, cache_dir)
        assert hit and fit_counter["n"] == 1

    def test_no_ttl_means_no_expiry(self, tiny_dataset, cache_dir,
                                    fit_counter):
        config = ReproConfig(**CFG)
        load_or_train(config, tiny_dataset, cache_dir)
        path = artifact_path(config, tiny_dataset, cache_dir)
        self._backdate(path, 10 * 365 * 24 * 3600.0)
        _, hit = load_or_train(config, tiny_dataset, cache_dir)
        assert hit and fit_counter["n"] == 1
