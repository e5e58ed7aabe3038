"""Shared fixtures.

The ``tiny_dataset`` fixture runs a real (small) labelling campaign once
per session: ten kernels at 512 B, both dtypes where supported — enough
samples for the ML/experiment layers to train on without slowing the
suite down.

Hypothesis runs under one loaded profile: derandomized (each property
draws the same examples on every run) and without an example database
(no failure saved by an earlier run is replayed), so tier-1 is
deterministic.  Per-test ``@settings`` only adjust example counts and
deadlines on top.
"""

from __future__ import annotations

import os
import re

import pytest
from hypothesis import settings

from repro.dataset.build import build_dataset
from repro.dataset.registry import get_kernel_spec
from repro.ir import KernelBuilder, Load, Loop, Store
from repro.ir.expr import var
from repro.ir.types import DType
from repro.platform.config import ClusterConfig

TINY_KERNELS = (
    "gemm", "atax", "fir", "stream_triad", "fpu_saturate",
    "bank_hammer", "critical_update", "trisolv", "histogram",
    "compute_dense", "seq_then_par", "jacobi-1d",
)

settings.register_profile("repro", derandomize=True, database=None)
settings.load_profile("repro")


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "slow: a long-running test (a full campaign, an "
                   "example run or a serving soak); CI runs these in "
                   "the daemon-smoke job")
    config.addinivalue_line(
        "markers", "paper: a check of the paper's claims on the "
                   "448-sample paper profile; deselected unless the -m "
                   "expression names it (CI runs these in the paper job)")


def pytest_collection_modifyitems(config, items):
    """Deselect the ``paper`` tests unless ``-m`` names ``paper``, so a
    plain run never builds the paper dataset."""
    if re.search(r"\bpaper\b", config.getoption("markexpr") or ""):
        return
    paper = [item for item in items if item.get_closest_marker("paper")]
    if paper:
        config.hook.pytest_deselected(items=paper)
        items[:] = [item for item in items
                    if not item.get_closest_marker("paper")]


@pytest.fixture(scope="session", autouse=True)
def _isolated_artifact_cache(tmp_path_factory):
    """Point the model-artifact cache at a session temp dir, so tests
    never pollute (or get poisoned by) the developer's .repro_cache."""
    previous = os.environ.get("REPRO_ARTIFACT_CACHE")
    os.environ["REPRO_ARTIFACT_CACHE"] = str(
        tmp_path_factory.mktemp("artifact_cache"))
    yield
    if previous is None:
        os.environ.pop("REPRO_ARTIFACT_CACHE", None)
    else:
        os.environ["REPRO_ARTIFACT_CACHE"] = previous


@pytest.fixture(scope="session")
def config() -> ClusterConfig:
    return ClusterConfig()


@pytest.fixture()
def axpy_kernel():
    """A small dual-array streaming kernel (int32, 512 B)."""
    return make_axpy(DType.INT32, 512)


@pytest.fixture()
def axpy_fp_kernel():
    return make_axpy(DType.FP32, 512)


def make_axpy(dtype: DType, size_bytes: int):
    builder = KernelBuilder("axpy", dtype, size_bytes)
    n = builder.split_elements(2)
    x, y = builder.array("x", n), builder.array("y", n)
    i = var("i")
    builder.parallel_for("i", 0, n, [
        Load(x.name, i), Load(y.name, i), builder.mul_add(),
        Store(y.name, i),
    ])
    return builder.build()


def make_matmul(dtype: DType, size_bytes: int):
    builder = KernelBuilder("mini_matmul", dtype, size_bytes)
    n = builder.square_side(3)
    a = builder.array("A", n * n)
    b = builder.array("B", n * n)
    c = builder.array("C", n * n)
    i, j, k = var("i"), var("j"), var("k")
    builder.parallel_for("i", 0, n, [
        Loop("j", 0, n, [
            Loop("k", 0, n, [
                Load(a.name, i * n + k), Load(b.name, k * n + j),
                builder.mul_add(),
            ]),
            Store(c.name, i * n + j),
        ]),
    ])
    return builder.build()


@pytest.fixture(scope="session")
def tiny_dataset(tmp_path_factory):
    """A real labelled mini-dataset (ten kernels, 512 B)."""
    cache_dir = str(tmp_path_factory.mktemp("repro_cache"))
    specs = [get_kernel_spec(name) for name in TINY_KERNELS]
    return build_dataset("unit", specs=specs, cache_dir=cache_dir)
