"""Dataset tests: sizing, registry, specs, cache, campaign."""

import json
import os
from dataclasses import replace
from pathlib import Path

import pytest

from repro.dataset import (
    PAPER_SIZES,
    all_kernel_specs,
    build_dataset,
    enumerate_samples,
    get_kernel_spec,
)
from repro.dataset._sizing import (
    cube_side,
    elements,
    matrix_side,
    pow2_floor,
    vector_len,
)
from repro.dataset.cache import SimCache, kernel_fingerprint
from repro.dataset.spec import profile_sizes
from repro.dataset.table import ColumnTable
from repro.errors import DatasetError
from repro.ir.types import DType
from repro.platform.config import ClusterConfig
from repro.sim.engine import simulate


class TestSizing:
    def test_elements(self):
        assert elements(512) == 128

    def test_vector_len_splits_budget(self):
        assert vector_len(2048, 2) == 256

    @pytest.mark.parametrize("size", PAPER_SIZES)
    def test_matrix_side_fits_budget(self, size):
        n = matrix_side(size, 3)
        assert 3 * n * n * 4 <= size + 4 * n  # small slack only

    @pytest.mark.parametrize("size", PAPER_SIZES)
    def test_cube_side_fits_budget(self, size):
        m = cube_side(size, 2)
        assert 2 * m ** 3 * 4 <= size * 1.3  # rounding slack

    def test_pow2_floor(self):
        assert pow2_floor(1) == 2
        assert pow2_floor(64) == 64
        assert pow2_floor(100) == 64


class TestRegistry:
    def test_59_kernels(self):
        specs = all_kernel_specs()
        assert len(specs) == 59
        suites = {}
        for spec in specs:
            suites[spec.suite] = suites.get(spec.suite, 0) + 1
        assert suites == {"polybench": 26, "utdsp": 16, "custom": 17}

    def test_six_integer_only_kernels(self):
        int_only = [s.name for s in all_kernel_specs()
                    if s.dtypes == (DType.INT32,)]
        assert len(int_only) == 6

    def test_paper_sample_count(self):
        samples = enumerate_samples(all_kernel_specs(), PAPER_SIZES)
        assert len(samples) == 448

    def test_unknown_kernel_rejected(self):
        with pytest.raises(DatasetError):
            get_kernel_spec("nonexistent")

    def test_sample_ids_unique(self):
        samples = enumerate_samples(all_kernel_specs(), PAPER_SIZES)
        ids = [s.sample_id for s in samples]
        assert len(set(ids)) == len(ids)

    def test_profiles(self):
        assert profile_sizes("paper") == PAPER_SIZES
        assert len(profile_sizes("quick")) == 3
        with pytest.raises(DatasetError):
            profile_sizes("bogus")

    def test_int_only_kernel_rejects_fp(self):
        spec = get_kernel_spec("histogram")
        with pytest.raises(DatasetError):
            spec.build(DType.FP32, 512)


@pytest.mark.slow
class TestEveryKernelSimulates:
    """Every registry kernel builds and simulates at the smallest size."""

    @pytest.mark.parametrize(
        "name", [s.name for s in all_kernel_specs()])
    def test_kernel_runs(self, name):
        spec = get_kernel_spec(name)
        kernel = spec.build(spec.dtypes[0], 512)
        counters = simulate(kernel, 4)
        counters.validate()
        assert counters.cycles > 0


class TestFingerprintAndCache:
    def test_fingerprint_stable(self):
        spec = get_kernel_spec("gemm")
        config = ClusterConfig()
        a = kernel_fingerprint(spec.build(DType.INT32, 512), config)
        b = kernel_fingerprint(spec.build(DType.INT32, 512), config)
        assert a == b

    def test_fingerprint_sensitive_to_inputs(self):
        spec = get_kernel_spec("gemm")
        config = ClusterConfig()
        base = kernel_fingerprint(spec.build(DType.INT32, 512), config)
        assert base != kernel_fingerprint(spec.build(DType.FP32, 512),
                                          config)
        assert base != kernel_fingerprint(spec.build(DType.INT32, 2048),
                                          config)
        assert base != kernel_fingerprint(
            spec.build(DType.INT32, 512), replace(config, l2_latency=20))

    def test_cache_roundtrip(self, tmp_path):
        cache = SimCache(str(tmp_path))
        cache.store("a:int32:512", "fp1", {"1": {"cycles": 5}})
        assert cache.load("a:int32:512", "fp1") == {"1": {"cycles": 5}}
        assert cache.load("a:int32:512", "other") == {}
        assert cache.load("missing", "fp1") == {}

    @pytest.mark.parametrize("kernel", ["gemm", "jacobi-2d", "bank_hammer"])
    def test_store_reproduces_committed_bytes(self, kernel, tmp_path):
        """Re-storing a committed counter file's payload publishes the
        same bytes under the same name."""
        golden_dir = Path(__file__).resolve().parent.parent / ".repro_cache"
        cache = SimCache(str(tmp_path))
        specs = [get_kernel_spec(kernel)]
        for sample in enumerate_samples(specs, profile_sizes("unit")):
            name = os.path.basename(cache._path(sample.sample_id))
            expected = (golden_dir / name).read_bytes()
            entry = json.loads(expected)
            cache.store(sample.sample_id, entry["fingerprint"],
                        entry["teams"])
            assert (tmp_path / name).read_bytes() == expected


class TestCampaign:
    def test_tiny_dataset_contents(self, tiny_dataset):
        assert len(tiny_dataset) > 10
        labels = tiny_dataset.labels
        assert labels.min() >= 1 and labels.max() <= 8
        assert tiny_dataset.energy_matrix.shape == (len(tiny_dataset), 8)

    def test_labels_are_energy_minima(self, tiny_dataset):
        energy = tiny_dataset.energy_matrix
        labels = tiny_dataset.labels
        assert (energy.argmin(axis=1) + 1 == labels).all()

    def test_feature_matrix_assembly(self, tiny_dataset):
        X = tiny_dataset.matrix(["F1", "F3", "F4"])
        assert X.shape == (len(tiny_dataset), 3)
        Xd = tiny_dataset.matrix(["PE_sleep@8", "PE_idle@1"])
        assert (Xd[:, 1] >= 0).all()

    def test_dataset_save_load_roundtrip(self, tiny_dataset, tmp_path):
        path = str(tmp_path / "ds.json")
        tiny_dataset.save(path)
        from repro.dataset.build import Dataset
        loaded = Dataset.load(path)
        assert len(loaded) == len(tiny_dataset)
        assert (loaded.labels == tiny_dataset.labels).all()
        assert loaded.samples[0].static == tiny_dataset.samples[0].static

    def test_save_reproduces_committed_dataset_bytes(self, tmp_path):
        """``save`` writes the frame by hand around one ``dumps`` per
        sample: the bytes are those of one ``json.dumps`` of the whole
        dataset, which the committed unit dataset was written with."""
        from repro.dataset.build import Dataset
        committed = (Path(__file__).resolve().parent.parent
                     / ".repro_cache" / "dataset_unit-112-ea0f08eafe.json")
        path = tmp_path / "ds.json"
        Dataset.load(str(committed)).save(str(path))
        assert path.read_bytes() == committed.read_bytes()
        empty = Dataset(samples=[], profile="none", team_sizes=(1, 2))
        empty.save(str(path))
        assert path.read_text() == json.dumps(
            {"profile": "none", "team_sizes": [1, 2], "samples": []})

    def test_cache_reuse_is_consistent(self, tmp_path):
        specs = [get_kernel_spec("stream_triad")]
        cache_dir = str(tmp_path)
        first = build_dataset("unit", specs=specs, cache_dir=cache_dir)
        second = build_dataset("unit", specs=specs, cache_dir=cache_dir)
        assert (first.labels == second.labels).all()
        assert first.energy_matrix.tolist() \
            == second.energy_matrix.tolist()


class TestColumnTable:
    def test_render_alignment(self):
        table = ColumnTable(["name", "value"])
        table.add_row("alpha", 1.5)
        table.add_row("b", 22)
        text = table.render()
        assert "alpha" in text and "1.500" in text and "22" in text

    def test_row_arity_checked(self):
        table = ColumnTable(["a", "b"])
        with pytest.raises(DatasetError):
            table.add_row(1)

    def test_duplicate_columns_rejected(self):
        with pytest.raises(DatasetError):
            ColumnTable(["a", "a"])
