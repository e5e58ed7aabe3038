"""Shared dimensioning helpers for dataset kernels.

Every kernel receives a payload budget in bytes and derives its array
dimensions so the declared arrays together consume roughly that budget
(the paper's *transfer* parameter).
"""

from __future__ import annotations

import math


def elements(size_bytes: int) -> int:
    """4-byte elements in *size_bytes*."""
    return max(1, size_bytes // 4)


def vector_len(size_bytes: int, n_arrays: int) -> int:
    """Length of each of *n_arrays* equally-sized vectors."""
    return max(4, elements(size_bytes) // n_arrays)


def matrix_side(size_bytes: int, n_matrices: int,
                n_vectors: int = 0) -> int:
    """Side n of square matrices filling the budget.

    Solves ``n_matrices * n^2 + n_vectors * n ~= elements`` (the vector
    term is ignored when small, as in the paper's kernels).
    """
    e = elements(size_bytes)
    n = max(2, math.isqrt(max(1, e // n_matrices)))
    while n_matrices * n * n + n_vectors * n > e and n > 2:
        n -= 1
    return n


def cube_side(size_bytes: int, n_cubes: int) -> int:
    """Side n of cubic (n^3) arrays filling the budget."""
    e = elements(size_bytes)
    n = max(2, round((e / max(1, n_cubes)) ** (1.0 / 3.0)))
    while n_cubes * n ** 3 > e and n > 2:
        n -= 1
    return n


def pow2_floor(value: int) -> int:
    """Largest power of two <= value (>= 2)."""
    if value < 2:
        return 2
    return 1 << (value.bit_length() - 1)
