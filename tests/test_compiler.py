"""Compiler tests: scheduling, codegen-vs-interpreter, lowering shape."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compiler import LoweredProgram, lower_kernel, static_chunks
from repro.compiler.codegen import compile_segment, segment_sites
from repro.compiler.interp import expand_stream, interpret_segment
from repro.errors import LoweringError
from repro.ir import Compute, Critical, KernelBuilder, Load, Loop, OpKind, Store
from repro.ir.expr import var
from repro.ir.types import DType
from repro.isa.opcodes import OP_ALU, OP_JMP
from repro.platform.config import ClusterConfig
from repro.platform.memory import MemoryMap
from tests.conftest import make_matmul


class TestStaticChunks:
    @given(st.integers(min_value=-50, max_value=50),
           st.integers(min_value=0, max_value=300),
           st.integers(min_value=1, max_value=8))
    def test_chunks_partition_range(self, lower, total, team):
        upper = lower + total
        chunks = static_chunks(lower, upper, team)
        assert len(chunks) == team
        # contiguous cover, no overlap
        cursor = lower
        for lo, hi in chunks:
            assert lo == cursor and hi >= lo
            cursor = hi
        assert cursor == upper

    @given(st.integers(min_value=0, max_value=300),
           st.integers(min_value=1, max_value=8))
    def test_chunk_sizes_differ_by_at_most_one(self, total, team):
        chunks = static_chunks(0, total, team)
        sizes = [hi - lo for lo, hi in chunks]
        assert max(sizes) - min(sizes) <= 1
        assert sizes == sorted(sizes, reverse=True)  # earlier get larger

    def test_rejects_empty_team(self):
        with pytest.raises(LoweringError):
            static_chunks(0, 10, 0)


def _memmap(kernel, config):
    return MemoryMap(kernel, config.n_l1_banks, config.n_l2_banks,
                     config.tcdm_bytes, config.l2_bytes)


class TestCodegenVsInterpreter:
    """The generated Python must replay the reference interpretation."""

    def _compare(self, body, kernel, loop_var=None, loop_range=(0, 0),
                 prologue=0, env=None):
        config = ClusterConfig()
        memmap = _memmap(kernel, config)
        free_vars = tuple(sorted(env)) if env else ()
        fn, sites = compile_segment(body, memmap, 16, 32,
                                    loop_var=loop_var,
                                    free_vars=free_vars,
                                    prologue_alu=prologue)
        values = tuple(env[name] for name in free_vars) if env else ()
        generated = list(expand_stream(fn(loop_range[0], loop_range[1],
                                          *values)))
        reference = list(interpret_segment(
            body, memmap, 16, 32, loop_var=loop_var,
            loop_range=loop_range, prologue_alu=prologue, env=env))
        assert generated == reference
        assert sites >= 1

    def test_parallel_chunk(self, axpy_kernel):
        region = axpy_kernel.body[0]
        self._compare(region.body, axpy_kernel, loop_var=region.var,
                      loop_range=(3, 17), prologue=5)

    def test_nested_loops(self):
        kernel = make_matmul(DType.FP32, 1024)
        region = kernel.body[0]
        self._compare(region.body, kernel, loop_var=region.var,
                      loop_range=(0, 4), prologue=2)

    def test_empty_chunk_still_generator(self, axpy_kernel):
        region = axpy_kernel.body[0]
        self._compare(region.body, axpy_kernel, loop_var=region.var,
                      loop_range=(5, 5), prologue=0)

    def test_free_variables(self):
        from repro.ir.nodes import ParallelFor
        b = KernelBuilder("k", DType.INT32, 512)
        b.array("A", 64)
        body = (Load("A", var("t") * 3 + var("i")),)
        b.sequential_for("t", 0, 3, [ParallelFor("i", 0, 4, body)])
        kernel = b.build()
        self._compare(body, kernel, loop_var="i", loop_range=(0, 4),
                      env={"t": 7})

    def test_critical_section(self):
        b = KernelBuilder("k", DType.INT32, 512)
        b.array("A", 16)
        body = (Critical([Load("A", var("i"))], name="sec"),)
        b.parallel_for("i", 0, 4, list(body))
        kernel = b.build()
        self._compare(body, kernel, loop_var="i", loop_range=(0, 4))

    @settings(max_examples=25, deadline=None)
    @given(counts=st.lists(st.integers(min_value=1, max_value=6),
                           min_size=1, max_size=5),
           trip=st.integers(min_value=0, max_value=6))
    def test_random_compute_bodies(self, counts, trip):
        b = KernelBuilder("k", DType.INT32, 512)
        b.array("A", 64)
        kinds = [OpKind.ALU, OpKind.FP, OpKind.DIV, OpKind.NOP]
        body = tuple(Compute(kinds[n % len(kinds)], n) for n in counts)
        body = body + (Load("A", var("i")),)
        b.parallel_for("i", 0, max(trip, 1), list(body))
        kernel = b.build()
        self._compare(body, kernel, loop_var="i", loop_range=(0, trip))


class TestCoalescing:
    def test_adjacent_alu_runs_merge(self, axpy_kernel):
        config = ClusterConfig()
        memmap = _memmap(axpy_kernel, config)
        body = (Compute(OpKind.ALU, 2), Compute(OpKind.ALU, 3),
                Store("x", var("i")))
        fn, _ = compile_segment(body, memmap, 16, 32, loop_var="i")
        stream = list(fn(0, 1))
        alu_macros = [arg for op, arg in stream if op == OP_ALU]
        # induction(1) + 2 + 3 merge into a single macro of 6
        assert alu_macros == [6]

    def test_jumps_never_merge(self, axpy_kernel):
        memmap = _memmap(axpy_kernel, ClusterConfig())
        body = (Compute(OpKind.JUMP, 1), Compute(OpKind.JUMP, 1))
        fn, _ = compile_segment(body, memmap, 16, 32, loop_var="i")
        stream = [instr for instr in fn(0, 1) if instr[0] == OP_JMP]
        assert len(stream) == 3  # two explicit + loop back-branch


class TestLowering:
    def test_program_shape_single_region(self, axpy_kernel):
        config = ClusterConfig()
        lowered = lower_kernel(axpy_kernel, 4, config)
        assert isinstance(lowered, LoweredProgram)
        # master: fork-run, fork-barrier, chunk, join-barrier, join-run,
        # final barrier
        kinds0 = [seg[0] for seg in lowered.programs[0]]
        assert kinds0 == ["r", "b", "r", "b", "r", "b"]
        for core in range(1, 4):
            assert [s[0] for s in lowered.programs[core]] \
                == ["b", "r", "b", "b"]
        for core in range(4, 8):
            assert lowered.programs[core] == []

    def test_barrier_team_sizes(self, axpy_kernel):
        lowered = lower_kernel(axpy_kernel, 3, ClusterConfig())
        assert set(lowered.barrier_team.values()) == {3}

    def test_team_bounds_checked(self, axpy_kernel):
        with pytest.raises(LoweringError):
            lower_kernel(axpy_kernel, 0, ClusterConfig())
        with pytest.raises(LoweringError):
            lower_kernel(axpy_kernel, 9, ClusterConfig())

    def test_unknown_backend_rejected(self, axpy_kernel):
        with pytest.raises(LoweringError):
            lower_kernel(axpy_kernel, 2, ClusterConfig(), backend="jit")

    def test_sequential_for_reuses_compiled_body(self):
        kernel = _sequential_for_kernel()
        lowered = lower_kernel(kernel, 2, ClusterConfig())
        # 6 iterations x (fork-run + fork-b + chunk + join-b + join-run)
        kinds = [seg[0] for seg in lowered.programs[0]]
        assert kinds.count("b") == 2 * 6 + 1  # fork+join per iter + final

    def test_segment_bodies_compile_once_per_kernel(self, monkeypatch):
        from repro.compiler import lowering

        calls = []

        def counting(*args, **kwargs):
            calls.append(args[0])
            return compile_segment(*args, **kwargs)

        monkeypatch.setattr(lowering, "compile_segment", counting)
        config = ClusterConfig()
        kernel = make_matmul(DType.FP32, 512)
        lower_kernel(kernel, 1, config)
        at_team_1 = len(calls)
        assert at_team_1 > 0
        for team in range(2, 9):
            lower_kernel(kernel, team, config)
        assert len(calls) == at_team_1
        # the cache matches the kernel object, not its value
        twin = make_matmul(DType.FP32, 512)
        assert twin == kernel and twin is not kernel
        lower_kernel(twin, 4, config)
        assert len(calls) == 2 * at_team_1

    def test_segment_sites_positive(self):
        body = (Loop("j", 0, 4, (Compute(OpKind.ALU, 100),)),)
        assert segment_sites(body, "i", 48) >= 3


def _sequential_for_kernel():
    from repro.ir.nodes import ParallelFor
    b = KernelBuilder("seqfor", DType.INT32, 512)
    b.array("A", 32)
    region = ParallelFor("j", 0, var("t") + 1, (Load("A", var("j")),))
    b.sequential_for("t", 0, 6, [region])
    return b.build()
