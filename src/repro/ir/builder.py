"""Fluent construction helper used by the dataset suites.

The builder keeps kernel definitions close to the C they transcribe::

    b = KernelBuilder("gemm", dtype, size_bytes)
    n = b.square_side(3)                      # three n*n matrices
    A, B, C = b.array("A", n * n), b.array("B", n * n), b.array("C", n * n)
    i, j, k = var("i"), var("j"), var("k")
    b.parallel_for("i", 0, n, [
        Loop("j", 0, n, [
            Store(C.name, i * n + j),
            Loop("k", 0, n, [
                Load(A.name, i * n + k),
                Load(B.name, k * n + j),
                b.mul_add(),
            ]),
        ]),
    ])
    kernel = b.build()

``b.op(...)``/``b.mul_add()`` pick the ALU or FP op kind from the kernel's
data type, which is how the paper's "parametric concerning the type of
data" kernels behave.
"""

from __future__ import annotations

import math
from typing import Sequence

from repro.errors import IRError
from repro.ir.nodes import (
    Array,
    Barrier,
    Compute,
    Kernel,
    OpKind,
    ParallelFor,
    Sequential,
    SequentialFor,
)
from repro.ir.types import DType
from repro.ir.validate import validate_kernel


class KernelBuilder:
    """Accumulates arrays and top-level regions, then builds a Kernel."""

    def __init__(self, name: str, dtype: DType, size_bytes: int,
                 suite: str = "custom") -> None:
        if size_bytes <= 0:
            raise IRError(f"size_bytes must be positive, got {size_bytes}")
        self.name = name
        self.dtype = dtype
        self.size_bytes = size_bytes
        self.suite = suite
        self._arrays: list[Array] = []
        self._body: list = []

    # -- sizing helpers ------------------------------------------------------

    @property
    def elements(self) -> int:
        """Total payload element budget implied by ``size_bytes``."""
        return max(1, self.size_bytes // self.dtype.size_bytes)

    def split_elements(self, n_arrays: int) -> int:
        """Element count per array when the payload is split *n_arrays* ways."""
        return max(1, self.elements // n_arrays)

    def square_side(self, n_matrices: int) -> int:
        """Side of square matrices such that *n_matrices* fill the payload."""
        return max(2, math.isqrt(self.elements // n_matrices))

    # -- declaration ---------------------------------------------------------

    def array(self, name: str, length: int, space: str = "l1") -> Array:
        arr = Array(name, length, self.dtype, space)
        self._arrays.append(arr)
        return arr

    # -- op constructors parametric in dtype ----------------------------------

    def op(self, count: int = 1) -> Compute:
        """*count* arithmetic ops of the kernel's natural kind."""
        kind = OpKind.FP if self.dtype.is_float else OpKind.ALU
        return Compute(kind, count)

    def mul_add(self) -> Compute:
        """A multiply-accumulate: two arithmetic ops of the natural kind."""
        return self.op(2)

    def div(self, count: int = 1) -> Compute:
        kind = OpKind.FPDIV if self.dtype.is_float else OpKind.DIV
        return Compute(kind, count)

    # -- region constructors ---------------------------------------------------

    def parallel_for(self, loop_var: str, lower: int, upper: int,
                     body: Sequence) -> None:
        self._body.append(ParallelFor(loop_var, lower, upper, tuple(body)))

    def sequential(self, body: Sequence) -> None:
        self._body.append(Sequential(tuple(body)))

    def sequential_for(self, loop_var: str, lower, upper,
                       regions: Sequence) -> None:
        """A serial outer loop whose body is a list of regions
        (:class:`ParallelFor` / :class:`Sequential` instances built by
        the caller, typically referencing *loop_var* symbolically)."""
        self._body.append(SequentialFor(loop_var, lower, upper,
                                        tuple(regions)))

    def barrier(self) -> None:
        self._body.append(Barrier())

    def add_region(self, region) -> None:
        """Append a region node built directly (ParallelFor, Sequential,
        SequentialFor or Barrier)."""
        if not isinstance(region, (ParallelFor, Sequential, SequentialFor,
                                   Barrier)):
            raise IRError(f"{type(region).__name__} is not a region")
        self._body.append(region)

    # -- finalisation ----------------------------------------------------------

    def build(self, **meta: str) -> Kernel:
        merged = {"suite": self.suite}
        merged.update(meta)
        kernel = Kernel(
            name=self.name,
            dtype=self.dtype,
            size_bytes=self.size_bytes,
            arrays=tuple(self._arrays),
            body=tuple(self._body),
            meta=merged,
        )
        validate_kernel(kernel)
        return kernel
