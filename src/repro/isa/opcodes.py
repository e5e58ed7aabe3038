"""Opcode constants for the lowered instruction stream.

Instructions are plain ``(opcode, arg)`` tuples rather than objects: the
cycle-lockstep simulator consumes millions of them per run and tuple
dispatch on small integers is the fastest portable representation in
CPython.  The meaning of ``arg`` depends on the opcode:

=============  =======================================================
opcode         arg
=============  =======================================================
``OP_ALU``     number of back-to-back single-cycle integer ops
``OP_FP``      number of floating-point ops (each needs an FPU slot)
``OP_LD``      TCDM bank index of the word read
``OP_ST``      TCDM bank index of the word written
``OP_LD2``     L2 bank index of the word read
``OP_ST2``     L2 bank index of the word written
``OP_JMP``     number of taken branches
``OP_NOP``     number of explicit NOP cycles
``OP_DIV``     number of integer divisions (multi-cycle)
``OP_FDIV``    number of FP divisions (multi-cycle, occupies the FPU)
``OP_LOCK``    packed ``(lock_id, bank)`` — test-and-set in TCDM
``OP_UNLOCK``  packed ``(lock_id, bank)`` — release store in TCDM
=============  =======================================================

Coalescing runs of single-cycle integer ops into one ``(OP_ALU, n)``
macro-instruction preserves cycle counts and event counts exactly on an
in-order single-issue core, because no shared resource is touched while
the run executes.
"""

from __future__ import annotations

from typing import NamedTuple

OP_ALU = 0
OP_FP = 1
OP_LD = 2
OP_ST = 3
OP_LD2 = 4
OP_ST2 = 5
OP_JMP = 6
OP_NOP = 7
OP_DIV = 8
OP_FDIV = 9
OP_LOCK = 10
OP_UNLOCK = 11
#: blocking DMA transfer of ``arg`` words between L2 and TCDM; the
#: issuing core waits clock-gated on the event unit until completion
#: (the paper's future-work extension, see tests/test_dma.py).
OP_DMA = 12

#: Human-readable mnemonics, indexed by opcode.
OPCODE_NAMES = (
    "alu",
    "fp",
    "lw",
    "sw",
    "lw.l2",
    "sw.l2",
    "jmp",
    "nop",
    "div",
    "fdiv",
    "lock",
    "unlock",
    "dma",
)

_N_OPCODES = len(OPCODE_NAMES)

# Width (in bits) reserved for the bank index inside a packed lock arg.
_LOCK_BANK_BITS = 8
_LOCK_BANK_MASK = (1 << _LOCK_BANK_BITS) - 1


class Instr(NamedTuple):
    """A decoded instruction; interchangeable with a raw ``(op, arg)`` tuple."""

    op: int
    arg: int


def is_l1_access(op: int) -> bool:
    """Return True if *op* touches a TCDM bank (including lock traffic)."""
    return op in (OP_LD, OP_ST, OP_LOCK, OP_UNLOCK)


def is_l2_access(op: int) -> bool:
    """Return True if *op* touches an L2 bank."""
    return op in (OP_LD2, OP_ST2)


def pack_lock(lock_id: int, bank: int) -> int:
    """Pack a lock identifier and the TCDM bank holding the lock word."""
    if lock_id < 0:
        raise ValueError(f"lock_id must be non-negative, got {lock_id}")
    if not 0 <= bank <= _LOCK_BANK_MASK:
        raise ValueError(f"bank out of range [0, {_LOCK_BANK_MASK}]: {bank}")
    return (lock_id << _LOCK_BANK_BITS) | bank


def unpack_lock(arg: int) -> tuple[int, int]:
    """Inverse of :func:`pack_lock`; returns ``(lock_id, bank)``."""
    return arg >> _LOCK_BANK_BITS, arg & _LOCK_BANK_MASK


def validate_opcode(op: int) -> None:
    """Raise ``ValueError`` when *op* is not a known opcode constant."""
    if not 0 <= op < _N_OPCODES:
        raise ValueError(f"unknown opcode {op}")
