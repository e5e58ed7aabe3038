"""Unit tests for IR nodes, the builder and validation."""

import pytest

from repro.errors import IRError
from repro.ir import (
    Array,
    Barrier,
    Compute,
    Critical,
    KernelBuilder,
    Load,
    Loop,
    OpKind,
    ParallelFor,
    Sequential,
    SequentialFor,
    validate_kernel,
)
from repro.ir.expr import var
from repro.ir.nodes import walk_body
from repro.ir.types import DType, parse_dtype


class TestTypes:
    def test_sizes(self):
        assert DType.INT32.size_bytes == 4
        assert DType.FP32.size_bytes == 4

    def test_float_flag(self):
        assert DType.FP32.is_float and not DType.INT32.is_float

    def test_parse(self):
        assert parse_dtype("FP32") is DType.FP32
        assert parse_dtype(" int32 ") is DType.INT32
        with pytest.raises(ValueError):
            parse_dtype("double")


class TestNodeInvariants:
    def test_array_rejects_bad_space(self):
        with pytest.raises(IRError):
            Array("A", 10, DType.INT32, space="l3")

    def test_array_rejects_zero_length(self):
        with pytest.raises(IRError):
            Array("A", 0, DType.INT32)

    def test_compute_rejects_zero_count(self):
        with pytest.raises(IRError):
            Compute(OpKind.ALU, 0)

    def test_loop_rejects_empty_body(self):
        with pytest.raises(IRError):
            Loop("i", 0, 4, [])

    def test_parallel_for_bounds_may_reference_seq_var(self):
        region = ParallelFor("j", 0, var("i"), [Compute(OpKind.ALU, 1)])
        assert region.upper.variables() == {"i"}

    def test_sequential_for_requires_constant_bounds(self):
        region = ParallelFor("j", 0, 4, [Compute(OpKind.ALU, 1)])
        with pytest.raises(IRError):
            SequentialFor("i", 0, var("n"), [region])

    def test_walk_body_visits_nested(self):
        body = (Loop("i", 0, 2, [Critical([Compute(OpKind.ALU, 1)])]),)
        kinds = [type(stmt).__name__ for stmt in walk_body(body)]
        assert kinds == ["Loop", "Critical", "Compute"]


class TestBuilder:
    def test_op_kind_follows_dtype(self):
        b_int = KernelBuilder("k", DType.INT32, 512)
        b_fp = KernelBuilder("k", DType.FP32, 512)
        assert b_int.op().kind is OpKind.ALU
        assert b_fp.op().kind is OpKind.FP
        assert b_int.div().kind is OpKind.DIV
        assert b_fp.div().kind is OpKind.FPDIV
        assert b_fp.int_op().kind is OpKind.ALU

    def test_sizing_helpers(self):
        b = KernelBuilder("k", DType.INT32, 4096)
        assert b.elements == 1024
        assert b.split_elements(2) == 512
        side = b.square_side(3)
        assert 3 * side * side <= 1024

    def test_build_validates(self):
        b = KernelBuilder("k", DType.INT32, 512)
        b.array("A", 8)
        b.parallel_for("i", 0, 8, [Load("BOGUS", var("i"))])
        with pytest.raises(IRError):
            b.build()

    def test_barrier_appends_a_region(self):
        b = KernelBuilder("k", DType.INT32, 512)
        b.array("A", 8)
        b.parallel_for("i", 0, 8, [Load("A", var("i"))])
        b.barrier()
        kernel = b.build()
        assert isinstance(kernel.body[-1], Barrier)
        validate_kernel(kernel)

    def test_meta_includes_suite(self):
        b = KernelBuilder("k", DType.INT32, 512, suite="custom")
        b.array("A", 8)
        b.parallel_for("i", 0, 8, [Load("A", var("i"))])
        kernel = b.build(note="hello")
        assert kernel.meta["suite"] == "custom"
        assert kernel.meta["note"] == "hello"


class TestValidation:
    def _kernel(self, body):
        from repro.ir.nodes import Kernel
        return Kernel("k", DType.INT32, 512,
                      arrays=(Array("A", 64, DType.INT32),), body=body)

    def test_requires_parallel_region(self):
        kernel = self._kernel((Sequential((Compute(OpKind.ALU, 1),)),))
        with pytest.raises(IRError, match="no parallel region"):
            validate_kernel(kernel)

    def test_rejects_unbound_index_variable(self):
        kernel = self._kernel((
            ParallelFor("i", 0, 4, (Load("A", var("z")),)),
        ))
        with pytest.raises(IRError, match="unbound"):
            validate_kernel(kernel)

    def test_rejects_shadowed_loop_variable(self):
        kernel = self._kernel((
            ParallelFor("i", 0, 4, (
                Loop("i", 0, 2, (Compute(OpKind.ALU, 1),)),
            )),
        ))
        with pytest.raises(IRError, match="shadows"):
            validate_kernel(kernel)

    def test_rejects_nested_sequential_for(self):
        inner = SequentialFor("t", 0, 2, (
            ParallelFor("i", 0, 4, (Compute(OpKind.ALU, 1),)),
        ))
        kernel = self._kernel((SequentialFor("s", 0, 2, (inner,)),))
        with pytest.raises(IRError):
            validate_kernel(kernel)

    def test_accepts_triangular_regions(self):
        region = ParallelFor("j", 0, var("i"), (Load("A", var("j")),))
        kernel = self._kernel((SequentialFor("i", 1, 5, (region,)),))
        validate_kernel(kernel)  # no raise

    def test_rejects_parallel_bounds_with_unknown_vars(self):
        region = ParallelFor("j", 0, var("q"), (Load("A", var("j")),))
        kernel = self._kernel((SequentialFor("i", 1, 5, (region,)),))
        with pytest.raises(IRError, match="not bound"):
            validate_kernel(kernel)
