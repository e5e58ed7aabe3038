"""Static feature tests: counts, RAW, AGG, and static/dynamic agreement."""

import random
import shutil
from dataclasses import fields
from pathlib import Path

import pytest

import repro.dataset.build as build
import repro.features.mca as mca
import repro.features.static_raw as static_raw
from repro.api.classifier import kernel_features
from repro.dataset.cache import SimCache
from repro.dataset.registry import get_kernel_spec
from repro.dataset.spec import SampleSpec
from repro.energy.model import EnergyModel
from repro.features import extract_agg, extract_raw
from repro.features.sets import feature_names
from repro.features.static_agg import agg_from_raw
from repro.features.static_counts import StaticCounts, summarize_kernel
from repro.ir import KernelBuilder, Load, Loop, ParallelFor
from repro.ir.expr import var
from repro.ir.types import DType
from repro.platform.config import ClusterConfig
from repro.sim.engine import simulate
from tests.conftest import make_axpy, make_matmul


class TestStaticCounts:
    def test_rectangular_nest_counts(self):
        kernel = make_matmul(DType.INT32, 768)  # n = 8
        n = 8
        summary = summarize_kernel(kernel)
        total = summary.total
        # loads: 2 per innermost iteration
        assert total.l1_loads == 2 * n ** 3
        assert total.l1_stores == n ** 2
        # mul_add: 2 alu-class ops per innermost iteration, plus loop
        # overhead (setup 2 + induction 1 per iteration, at 3 levels)
        assert total.jump == n ** 3 + n ** 2 + n
        assert total.iterations == n ** 3 + n ** 2 + n

    def test_triangular_nest_counts(self):
        b = KernelBuilder("tri", DType.INT32, 512)
        b.array("A", 64)
        i, j = var("i"), var("j")
        b.parallel_for("i", 0, 8, [
            Loop("j", 0, i, [Load("A", j)]),
        ])
        summary = summarize_kernel(b.build())
        # sum of trips 0..7 = 28 loads
        assert summary.total.l1_loads == 28

    def test_sequential_for_instances_counted(self):
        b = KernelBuilder("sf", DType.INT32, 512)
        b.array("A", 64)
        region = ParallelFor("j", 0, var("t") + 1, (Load("A", var("j")),))
        b.sequential_for("t", 0, 4, [region])
        summary = summarize_kernel(b.build())
        assert len(summary.region_trips) == 4
        assert summary.region_trips == [1, 2, 3, 4]
        assert summary.total.l1_loads == 10

    def test_tcdm_counts_lock_traffic(self):
        counts = StaticCounts(l1_loads=3, l1_stores=2, lock_ops=1)
        assert counts.tcdm == 7  # lock probe + unlock store

    def test_add_covers_every_field(self):
        """``add`` spells each field out; a field it misses fails here."""
        rng = random.Random(0)
        names = [f.name for f in fields(StaticCounts)]
        for _ in range(20):
            mine = StaticCounts(**{n: rng.uniform(-1e6, 1e6) for n in names})
            other = StaticCounts(**{n: rng.uniform(-1e6, 1e6) for n in names})
            times = rng.choice([1.0, rng.uniform(0, 1e4)])
            expected = {n: getattr(mine, n) + times * getattr(other, n)
                        for n in names}
            mine.add(other, times)
            assert vars(mine) == expected


class TestSummariseOnce:
    """A kernel request and a campaign sample walk the IR once."""

    @pytest.fixture
    def walks(self, monkeypatch):
        calls = []

        def counting(kernel):
            calls.append(kernel.name)
            return summarize_kernel(kernel)

        for module in (build, static_raw, mca):
            monkeypatch.setattr(module, "summarize_kernel", counting)
        return calls

    def test_kernel_features(self, walks):
        kernel = make_matmul(DType.FP32, 768)
        kernel_features(kernel, feature_names("static-all"))
        assert walks == [kernel.name]

    def test_build_sample(self, walks, tmp_path):
        golden = Path(__file__).resolve().parent.parent / ".repro_cache"
        for path in golden.glob("gemm_int32_512-*.json"):
            shutil.copy(path, tmp_path)
        spec = SampleSpec(get_kernel_spec("gemm"), DType.INT32, 512)
        sample = build.build_sample(spec, ClusterConfig(),
                                    EnergyModel.paper_table1(),
                                    SimCache(str(tmp_path)))
        assert walks == ["gemm"]
        assert set(sample.static) == set(feature_names("static-all"))


class TestRawFeatures:
    def test_names(self):
        raw = extract_raw(make_axpy(DType.INT32, 512))
        assert set(raw) == {"op", "tcdm", "transfer", "avgws"}

    def test_transfer_is_array_bytes(self):
        kernel = make_axpy(DType.INT32, 512)
        assert extract_raw(kernel)["transfer"] == kernel.total_array_bytes

    def test_avgws_is_parallel_trip(self):
        kernel = make_axpy(DType.INT32, 512)
        n = kernel.array("x").length
        assert extract_raw(kernel)["avgws"] == n

    def test_dtype_changes_no_counts(self):
        # int and fp variants have identical structure -> identical RAW
        raw_i = extract_raw(make_axpy(DType.INT32, 512))
        raw_f = extract_raw(make_axpy(DType.FP32, 512))
        assert raw_i == raw_f


class TestAggFeatures:
    def test_formulas(self):
        raw = {"op": 10.0, "tcdm": 5.0, "transfer": 300.0, "avgws": 7.0}
        agg = agg_from_raw(raw)
        assert agg["F1"] == pytest.approx(300.0 / 15.0)
        assert agg["F3"] == 7.0
        assert agg["F4"] == pytest.approx(2.0)

    def test_zero_denominators_safe(self):
        agg = agg_from_raw({"op": 0.0, "tcdm": 0.0, "transfer": 5.0,
                            "avgws": 1.0})
        assert agg["F1"] == 0.0 and agg["F4"] == 0.0

    def test_extract_agg_matches_raw_pipeline(self):
        kernel = make_matmul(DType.FP32, 768)
        assert extract_agg(kernel) == agg_from_raw(extract_raw(kernel))


class TestStaticDynamicConsistency:
    """Static trip-weighted counts must equal dynamic counts for the
    kernel body (runtime fork/join overhead accounts for the rest)."""

    @pytest.mark.parametrize("team", [1, 4])
    def test_memory_counts_match_simulation(self, team):
        kernel = make_matmul(DType.INT32, 768)
        summary = summarize_kernel(kernel)
        counters = simulate(kernel, team)
        dyn_l1 = sum(c.l1_ops for c in counters.cores)
        assert dyn_l1 == summary.total.tcdm

    def test_fp_counts_match_simulation(self):
        kernel = make_matmul(DType.FP32, 768)
        summary = summarize_kernel(kernel)
        counters = simulate(kernel, 8)
        dyn_fp = sum(c.fp_ops + c.fpdiv_ops for c in counters.cores)
        assert dyn_fp == summary.total.fp + summary.total.fpdiv

    def test_jump_counts_match_simulation(self):
        kernel = make_matmul(DType.INT32, 768)
        summary = summarize_kernel(kernel)
        counters = simulate(kernel, 2)
        dyn_jumps = sum(c.jump_ops for c in counters.cores)
        assert dyn_jumps == summary.total.jump
