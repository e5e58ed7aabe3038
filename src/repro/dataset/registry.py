"""The 59-kernel registry (26 Polybench + 16 UTDSP + 17 Custom).

Six kernels are integer-only; the rest support both data types.  The
resulting sample grid at the paper's four sizes is
``53 * 2 * 4 + 6 * 4 = 448`` samples, matching §IV-B.
"""

from __future__ import annotations

from repro.errors import DatasetError
from repro.ir.types import DType
from repro.dataset.spec import KernelSpec
from repro.dataset.polybench import POLYBENCH_KERNELS
from repro.dataset.utdsp import INT_ONLY as UTDSP_INT_ONLY
from repro.dataset.utdsp import UTDSP_KERNELS
from repro.dataset.custom import CUSTOM_KERNELS
from repro.dataset.custom import INT_ONLY as CUSTOM_INT_ONLY

_INT_ONLY = set(UTDSP_INT_ONLY) | set(CUSTOM_INT_ONLY)


def _specs() -> list[KernelSpec]:
    specs: list[KernelSpec] = []
    for suite, kernels in (("polybench", POLYBENCH_KERNELS),
                           ("utdsp", UTDSP_KERNELS),
                           ("custom", CUSTOM_KERNELS)):
        for name, builder in kernels.items():
            dtypes = ((DType.INT32,) if name in _INT_ONLY
                      else (DType.INT32, DType.FP32))
            specs.append(KernelSpec(name=name, suite=suite,
                                    builder=builder, dtypes=dtypes))
    return specs


_ALL = _specs()
_BY_NAME = {spec.name: spec for spec in _ALL}

if len(_ALL) != 59:  # the paper's count; guards against registry drift
    raise DatasetError(f"kernel registry has {len(_ALL)} kernels, "
                       f"expected 59")


def all_kernel_specs() -> list[KernelSpec]:
    """All 59 kernels in stable (suite, definition) order."""
    return list(_ALL)


def get_kernel_spec(name: str) -> KernelSpec:
    try:
        return _BY_NAME[name]
    except KeyError:
        raise DatasetError(f"unknown kernel {name!r}")
