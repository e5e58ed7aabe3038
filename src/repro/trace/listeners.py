"""Listener hierarchy rebuilding platform state from trace events.

The paper's trace-analysis software consists of a hierarchical set of
listeners aggregated in a ``PULPListeners`` class (8 core listeners, 16
L1-bank listeners, 32 L2-bank listeners), each registering the component
path it wants to observe.  We reproduce that structure; each listener
accumulates the counters its component contributes to the energy model
and to the dynamic features of paper Table III.
"""

from __future__ import annotations

from repro.errors import TraceError
from repro.isa.encoding import parse_instr
from repro.isa.opcodes import (
    OP_ALU,
    OP_DIV,
    OP_DMA,
    OP_FDIV,
    OP_FP,
    OP_JMP,
    OP_LD,
    OP_LD2,
    OP_LOCK,
    OP_NOP,
    OP_ST,
    OP_ST2,
    OP_UNLOCK,
)
from repro.sim.counters import BankCounters, ClusterCounters, CoreCounters
from repro.trace.format import (
    DMA_PATH,
    ICACHE_PATH,
    l1_bank_path,
    l2_bank_path,
    pe_insn_path,
    pe_state_path,
)


class CoreListener:
    """Tracks one processing element's opcode mix and power states."""

    def __init__(self, core: int) -> None:
        self.core = core
        self.counters = CoreCounters()
        self._cg_entered_at: int | None = None

    def paths(self) -> list[str]:
        return [pe_insn_path(self.core), pe_state_path(self.core)]

    def on_event(self, cycle: int, path: str, payload: str) -> None:
        if path.endswith("/insn"):
            self._on_insn(payload)
        else:
            self._on_state(cycle, payload)

    def _on_insn(self, payload: str) -> None:
        op, arg = parse_instr(payload)
        counters = self.counters
        if op == OP_ALU:
            counters.alu_ops += arg
        elif op == OP_FP:
            counters.fp_ops += arg
        elif op in (OP_LD, OP_ST, OP_LOCK, OP_UNLOCK):
            counters.l1_ops += 1
        elif op in (OP_LD2, OP_ST2):
            counters.l2_ops += 1
        elif op == OP_JMP:
            counters.jump_ops += arg
        elif op == OP_NOP:
            counters.nop_ops += arg
        elif op == OP_DIV:
            counters.div_ops += arg
        elif op == OP_FDIV:
            counters.fpdiv_ops += arg
        elif op == OP_DMA:
            counters.alu_ops += 1  # the descriptor write
        else:  # pragma: no cover - parse_instr rejects unknown mnemonics
            raise TraceError(f"unexpected opcode {op} in insn trace")

    def _on_state(self, cycle: int, payload: str) -> None:
        if payload == "cg_enter":
            if self._cg_entered_at is not None:
                raise TraceError(
                    f"core {self.core}: nested cg_enter at cycle {cycle}")
            self._cg_entered_at = cycle
        elif payload == "cg_exit":
            if self._cg_entered_at is None:
                raise TraceError(
                    f"core {self.core}: cg_exit without cg_enter at "
                    f"cycle {cycle}")
            self.counters.cg_cycles += cycle - self._cg_entered_at
            self._cg_entered_at = None
        elif payload.startswith("stall"):
            try:
                self.counters.stall_cycles += int(payload.split()[1])
            except (IndexError, ValueError) as exc:
                raise TraceError(f"malformed stall event {payload!r}") from exc
        else:
            raise TraceError(f"unknown core state event {payload!r}")


class _BankListener:
    """Shared implementation for L1 and L2 bank listeners."""

    def __init__(self, bank: int, path: str) -> None:
        self.bank = bank
        self._path = path
        self.counters = BankCounters()

    def paths(self) -> list[str]:
        return [self._path]

    def on_event(self, cycle: int, path: str, payload: str) -> None:
        if payload == "read":
            self.counters.reads += 1
        elif payload == "write":
            self.counters.writes += 1
        elif payload == "conflict":
            self.counters.conflicts += 1
        else:
            raise TraceError(f"unknown bank event {payload!r}")


class L1BankListener(_BankListener):
    def __init__(self, bank: int) -> None:
        super().__init__(bank, l1_bank_path(bank))


class L2BankListener(_BankListener):
    def __init__(self, bank: int) -> None:
        super().__init__(bank, l2_bank_path(bank))


class IcacheListener:
    """Tracks instruction-cache refills (fetches derive from core issues)."""

    def __init__(self) -> None:
        self.refills = 0

    def paths(self) -> list[str]:
        return [ICACHE_PATH]

    def on_event(self, cycle: int, path: str, payload: str) -> None:
        kind, _, count = payload.partition(" n=")
        if kind != "refill":
            raise TraceError(f"unknown icache event {payload!r}")
        self.refills += int(count) if count else 1


class DmaListener:
    """Tracks words moved by the cluster DMA."""

    def __init__(self) -> None:
        self.transfers = 0

    def paths(self) -> list[str]:
        return [DMA_PATH]

    def on_event(self, cycle: int, path: str, payload: str) -> None:
        kind, _, count = payload.partition(" n=")
        if kind != "transfer":
            raise TraceError(f"unknown DMA event {payload!r}")
        self.transfers += int(count) if count else 1


class PULPListeners:
    """Aggregate of every component listener for one platform instance.

    Exposes query methods over the reconstructed platform state, and can
    materialise a :class:`ClusterCounters` equivalent to the simulator's
    own (the cross-check the tests perform).
    """

    def __init__(self, n_cores: int = 8, n_l1_banks: int = 16,
                 n_l2_banks: int = 32, n_fpus: int = 4) -> None:
        self.n_cores = n_cores
        self.n_l1_banks = n_l1_banks
        self.n_l2_banks = n_l2_banks
        self.n_fpus = n_fpus
        self.cores = [CoreListener(i) for i in range(n_cores)]
        self.l1_banks = [L1BankListener(i) for i in range(n_l1_banks)]
        self.l2_banks = [L2BankListener(i) for i in range(n_l2_banks)]
        self.icache = IcacheListener()
        self.dma = DmaListener()
        self.kernel_begin: int | None = None
        self.kernel_end: int | None = None

    def all_listeners(self):
        yield from self.cores
        yield from self.l1_banks
        yield from self.l2_banks
        yield self.icache
        yield self.dma

    # -- queries -------------------------------------------------------------

    @property
    def window_cycles(self) -> int:
        if self.kernel_begin is None or self.kernel_end is None:
            raise TraceError("kernel begin/end markers not observed")
        return self.kernel_end - self.kernel_begin

    def to_counters(self) -> ClusterCounters:
        """Materialise the reconstructed :class:`ClusterCounters`."""
        counters = ClusterCounters(
            n_cores=self.n_cores, n_l1_banks=self.n_l1_banks,
            n_l2_banks=self.n_l2_banks, n_fpus=self.n_fpus)
        counters.cycles = self.window_cycles
        counters.cores = [c.counters for c in self.cores]
        counters.l1_banks = [b.counters for b in self.l1_banks]
        counters.l2_banks = [b.counters for b in self.l2_banks]
        fpu_ops = [0] * self.n_fpus
        for core_idx, listener in enumerate(self.cores):
            fpu = core_idx % self.n_fpus
            fpu_ops[fpu] += (listener.counters.fp_ops
                             + listener.counters.fpdiv_ops)
        counters.fpu_ops = fpu_ops
        counters.icache_refills = self.icache.refills
        counters.icache_fetches = sum(c.counters.issue_cycles
                                      for c in self.cores)
        counters.dma_transfers = self.dma.transfers
        return counters
