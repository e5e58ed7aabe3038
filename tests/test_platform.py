"""Unit tests for the cluster configuration and memory map."""

from dataclasses import replace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import LayoutError, SimulationError
from repro.ir import Critical, KernelBuilder, Load, OpKind
from repro.ir.expr import var
from repro.ir.nodes import Compute
from repro.ir.types import DType
from repro.platform import ClusterConfig, MemoryMap, bank_of_word


class TestClusterConfig:
    def test_defaults_match_paper_instance(self):
        config = ClusterConfig()
        assert config.n_cores == 8
        assert config.n_fpus == 4
        assert config.n_l1_banks == 16
        assert config.n_l2_banks == 32
        assert config.tcdm_bytes == 64 * 1024
        assert config.l2_bytes == 512 * 1024
        assert config.l2_latency == 15

    def test_fpu_mapping_is_two_to_one(self):
        config = ClusterConfig()
        for fpu in range(4):
            sharers = [core for core in range(config.n_cores)
                       if config.fpu_of_core(core) == fpu]
            assert sharers == [fpu, fpu + 4]

    @pytest.mark.parametrize("kwargs", [
        {"n_cores": 0}, {"n_fpus": 0}, {"n_fpus": 9},
        {"n_l1_banks": 12}, {"n_l2_banks": 0}, {"l2_latency": 0},
    ])
    def test_rejects_invalid_topologies(self, kwargs):
        with pytest.raises(SimulationError):
            ClusterConfig(**kwargs)

    def test_replace_returns_validated_copy(self):
        config = ClusterConfig()
        other = replace(config, l2_latency=20)
        assert other.l2_latency == 20 and config.l2_latency == 15
        with pytest.raises(SimulationError):
            replace(config, l2_latency=0)

    def test_cache_key_changes_with_fields(self):
        assert (ClusterConfig().cache_key()
                != ClusterConfig(l2_latency=20).cache_key())


def _kernel_with_arrays(arrays, body_extra=()):
    builder = KernelBuilder("k", DType.INT32, 512)
    for name, length, space in arrays:
        builder.array(name, length, space=space)
    first = arrays[0][0]
    builder.parallel_for("i", 0, 4,
                         [Load(first, var("i"))] + list(body_extra))
    return builder.build()


class TestMemoryMap:
    def test_sequential_bump_allocation(self):
        kernel = _kernel_with_arrays([("A", 10, "l1"), ("B", 6, "l1")])
        memmap = MemoryMap(kernel, 16, 32, 64 * 1024, 512 * 1024)
        assert memmap.base_word("A") == 0
        assert memmap.base_word("B") == 10
        assert memmap.l1_words_used == 16

    def test_l2_arrays_allocate_separately(self):
        kernel = _kernel_with_arrays([("A", 8, "l1"), ("Z", 100, "l2")])
        memmap = MemoryMap(kernel, 16, 32, 64 * 1024, 512 * 1024)
        assert memmap.space("Z") == "l2"
        assert memmap.base_word("Z") == 0
        assert memmap.l2_words_used == 100

    def test_capacity_overflow_raises(self):
        kernel = _kernel_with_arrays([("A", 64, "l1")])
        with pytest.raises(LayoutError):
            MemoryMap(kernel, 16, 32, tcdm_bytes=128, l2_bytes=1024)

    def test_lock_words_are_allocated(self):
        kernel = _kernel_with_arrays(
            [("A", 10, "l1")],
            body_extra=[Critical([Compute(OpKind.ALU, 1)], name="sec")])
        memmap = MemoryMap(kernel, 16, 32, 64 * 1024, 512 * 1024)
        assert memmap.lock_bank("sec") == 10 % 16
        assert memmap.l1_words_used == 11

    def test_unknown_array_raises(self):
        kernel = _kernel_with_arrays([("A", 10, "l1")])
        memmap = MemoryMap(kernel, 16, 32, 64 * 1024, 512 * 1024)
        with pytest.raises(LayoutError):
            memmap.base_word("missing")

    @given(st.integers(min_value=0, max_value=10 ** 6),
           st.sampled_from([4, 8, 16, 32]))
    def test_bank_of_word_in_range(self, word, banks):
        assert 0 <= bank_of_word(word, banks) < banks
