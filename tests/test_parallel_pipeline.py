"""Parallel campaign, cache safety and batched-prediction equivalence."""

from __future__ import annotations

import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.api import evaluate_features, rank_features
from repro.dataset.build import Dataset, build_dataset
from repro.dataset.cache import SimCache, _safe_name
from repro.dataset.registry import get_kernel_spec
from repro.features.sets import feature_names
from repro.ml.model_selection import repeated_cv_predict
from repro.ml.tree import DecisionTreeClassifier
from repro.parallel import resolve_jobs
from tests.tree_oracle import predict_proba_rowwise, predict_rowwise

PARALLEL_KERNELS = ("gemm", "stream_triad", "fir")


class TestSafeNameCollisions:
    def test_distinct_ids_get_distinct_paths(self):
        assert _safe_name("a/b") != _safe_name("a_b")
        assert _safe_name("k:int32:512") != _safe_name("k:int32_512")

    def test_sanitised_output_is_filesystem_safe(self):
        name = _safe_name("weird/id with spaces:1")
        assert all(c.isalnum() or c in "._-" for c in name)

    def test_colliding_ids_do_not_cross_contaminate(self, tmp_path):
        cache = SimCache(str(tmp_path))
        cache.store("a/b", "fp", {"1": {"cycles": 1}})
        cache.store("a_b", "fp", {"1": {"cycles": 2}})
        assert cache.load("a/b", "fp") == {"1": {"cycles": 1}}
        assert cache.load("a_b", "fp") == {"1": {"cycles": 2}}


class TestConcurrentStore:
    def test_racing_writers_never_publish_torn_files(self, tmp_path):
        """Hammer one sample id from many threads; every observable
        state must be a complete entry from one writer."""
        cache = SimCache(str(tmp_path))
        payload = {str(t): {"cycles": t * 1000, "pad": "x" * 2000}
                   for t in range(1, 9)}

        def writer(worker: int) -> None:
            for _ in range(30):
                cache.store("shared:sample", f"fp{worker}", payload)

        with ThreadPoolExecutor(max_workers=8) as pool:
            list(pool.map(writer, range(8)))

        path = cache._path("shared:sample")
        with open(path) as handle:
            data = json.load(handle)  # complete, valid JSON
        assert data["teams"] == payload
        assert data["fingerprint"] in {f"fp{w}" for w in range(8)}

    def test_no_temp_droppings_after_store(self, tmp_path):
        cache = SimCache(str(tmp_path))
        cache.store("s1", "fp", {"1": {"cycles": 1}})
        leftovers = [f for f in os.listdir(tmp_path)
                     if f.endswith(".tmp")]
        assert leftovers == []


class TestParallelBuildEquality:
    @pytest.fixture(scope="class")
    def builds(self, tmp_path_factory):
        specs = [get_kernel_spec(name) for name in PARALLEL_KERNELS]
        serial_dir = str(tmp_path_factory.mktemp("serial_cache"))
        parallel_dir = str(tmp_path_factory.mktemp("parallel_cache"))
        serial = build_dataset("unit", specs=specs, cache_dir=serial_dir,
                               jobs=1)
        parallel = build_dataset("unit", specs=specs,
                                 cache_dir=parallel_dir, jobs=2)
        return serial, parallel

    def test_same_samples_labels_energies(self, builds):
        serial, parallel = builds
        assert [s.sample_id for s in serial.samples] \
            == [s.sample_id for s in parallel.samples]
        assert (serial.labels == parallel.labels).all()
        assert serial.energy_matrix.tolist() \
            == parallel.energy_matrix.tolist()
        assert [s.cycles for s in serial.samples] \
            == [s.cycles for s in parallel.samples]

    def test_saved_json_byte_identical(self, builds, tmp_path):
        serial, parallel = builds
        a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        serial.save(a)
        parallel.save(b)
        with open(a, "rb") as fa, open(b, "rb") as fb:
            assert fa.read() == fb.read()

    def test_parallel_build_populates_shared_cache(self, tmp_path):
        specs = [get_kernel_spec("stream_triad")]
        cache_dir = str(tmp_path)
        first = build_dataset("unit", specs=specs, cache_dir=cache_dir,
                              jobs=2)
        # force a rebuild from the sim cache (not the dataset JSON)
        for name in os.listdir(cache_dir):
            if name.startswith("dataset_"):
                os.unlink(os.path.join(cache_dir, name))
        second = build_dataset("unit", specs=specs, cache_dir=cache_dir,
                               jobs=1)
        assert first.energy_matrix.tolist() \
            == second.energy_matrix.tolist()


class TestBatchedPredictionEquivalence:
    @pytest.fixture(scope="class")
    def data(self):
        rng = np.random.default_rng(42)
        X_train = rng.standard_normal((300, 9))
        y_train = rng.integers(1, 9, size=300)
        X_test = rng.standard_normal((500, 9))
        return X_train, y_train, X_test

    def test_tree_predict_matches_rowwise(self, data):
        X_train, y_train, X_test = data
        tree = DecisionTreeClassifier(random_state=0)
        tree.fit(X_train, y_train)
        assert np.array_equal(tree.predict(X_test),
                              predict_rowwise(tree, X_test))

    def test_tree_proba_matches_rowwise(self, data):
        X_train, y_train, X_test = data
        tree = DecisionTreeClassifier(max_depth=4, random_state=1)
        tree.fit(X_train, y_train)
        assert np.array_equal(tree.predict_proba(X_test),
                              predict_proba_rowwise(tree, X_test))

    def test_single_leaf_tree(self):
        X = np.zeros((5, 3))
        y = np.ones(5, dtype=int)
        tree = DecisionTreeClassifier().fit(X, y)
        assert (tree.predict(np.random.default_rng(0)
                             .standard_normal((10, 3))) == 1).all()

    def test_predict_empty_batch(self, data):
        X_train, y_train, _ = data
        tree = DecisionTreeClassifier(random_state=0)
        tree.fit(X_train, y_train)
        assert len(tree.predict(np.empty((0, 9)))) == 0


class TestParallelCv:
    def test_jobs_do_not_change_predictions(self, monkeypatch):
        rng = np.random.default_rng(7)
        X = rng.standard_normal((80, 5))
        y = rng.integers(0, 3, size=80)
        factory = lambda: DecisionTreeClassifier(max_depth=4,  # noqa: E731
                                                 random_state=0)
        monkeypatch.setenv("REPRO_JOBS", "1")
        serial = repeated_cv_predict(factory, X, y, n_splits=4,
                                     repeats=3, seed=5)
        monkeypatch.setenv("REPRO_JOBS", "2")
        threaded = repeated_cv_predict(factory, X, y, n_splits=4,
                                       repeats=3, seed=5)
        assert np.array_equal(serial[0], threaded[0])
        assert serial[1].tobytes() == threaded[1].tobytes()

    def test_jobs_do_not_change_memoised_repeats(self, monkeypatch,
                                                 tiny_dataset):
        """Through the dataset's CV memo (a full fill, then a ranking
        that reuses two repeats and fits two more) serial and threaded
        runs give the same bytes."""
        names = feature_names("dynamic")
        runs = []
        for jobs in ("1", "2"):
            monkeypatch.setenv("REPRO_JOBS", jobs)
            dataset = Dataset(samples=tiny_dataset.samples,
                              profile=tiny_dataset.profile)
            report = evaluate_features(dataset, names, repeats=2, seed=1)
            ranking = rank_features(dataset, names, repeats=4, seed=1)
            runs.append((report.predictions.tobytes(),
                         report.importances.tobytes(), ranking))
        assert runs[0] == runs[1]

    def test_threads_sharing_a_dataset_agree(self, monkeypatch,
                                             tiny_dataset):
        """Callers on several threads fill and read one dataset's memo
        at once (with a short switch interval) and all get the serial
        bytes."""
        names = feature_names("static-agg")
        monkeypatch.setenv("REPRO_JOBS", "2")
        expected = evaluate_features(
            Dataset(samples=tiny_dataset.samples,
                    profile=tiny_dataset.profile), names, repeats=3)
        shared = Dataset(samples=tiny_dataset.samples,
                         profile=tiny_dataset.profile)

        def call(repeats: int):
            report = evaluate_features(shared, names, repeats=repeats)
            return report.predictions[:2].tobytes()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=6) as pool:
                futures = [pool.submit(call, 2 + i % 2) for i in range(12)]
                answers = [f.result(timeout=60) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        assert set(answers) == {expected.predictions[:2].tobytes()}
        assert len(shared.cv_memo) == 3


class TestResolveJobs:
    def test_explicit_value_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "7")
        assert resolve_jobs(3) == 3

    def test_env_value(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "5")
        assert resolve_jobs(None) == 5

    def test_default_when_unset(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert resolve_jobs(None) == 1

    def test_invalid_env_warns(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "many")
        with pytest.warns(RuntimeWarning):
            assert resolve_jobs(None) == 1

    def test_zero_means_all_cpus(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert resolve_jobs(0) == (os.cpu_count() or 1)
        assert resolve_jobs(-1) == (os.cpu_count() or 1)
