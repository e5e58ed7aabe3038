"""Static (compile-time) instruction counting over the kernel IR.

Loop bounds in the dataset are compile-time constants or affine in
enclosing loop variables, so exact trip-weighted opcode counts are a
*static* quantity — the compiler knows them without running anything.
The counting convention mirrors :mod:`repro.compiler.codegen` exactly
(one induction ALU and one taken branch per iteration, two setup ALU ops
per loop entry), which lets tests tie static counts to dynamic ones on
conflict-free kernels.

Rectangular sub-nests (no bound referencing an outer variable) are
counted once and multiplied by the trip count, so counting is fast even
for large O(N^3) nests; triangular nests fall back to enumeration of the
outer ranges only.

:func:`summarize_kernel` is the one walk of a kernel's IR: the RAW and
MCA extractors read their features off its summary, and
:func:`repro.dataset.build.static_features` hands one summary to both,
so a scoring request or a campaign sample summarises its kernel once.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import FeatureError
from repro.ir.nodes import (
    Compute,
    Critical,
    DmaCopy,
    Kernel,
    Load,
    Loop,
    OpKind,
    ParallelFor,
    Sequential,
    SequentialFor,
    Store,
)


@dataclass
class StaticCounts:
    """Trip-weighted instruction-class counts of a body (or kernel)."""

    alu: float = 0.0
    fp: float = 0.0
    div: float = 0.0
    fpdiv: float = 0.0
    jump: float = 0.0
    nop: float = 0.0
    l1_loads: float = 0.0
    l1_stores: float = 0.0
    l2_loads: float = 0.0
    l2_stores: float = 0.0
    lock_ops: float = 0.0
    dma_words: float = 0.0   # words moved by DMA transfers
    iterations: float = 0.0  # iterations executed by the subtree's loops

    def add(self, other: "StaticCounts", times: float = 1.0) -> None:
        self.alu += times * other.alu
        self.fp += times * other.fp
        self.div += times * other.div
        self.fpdiv += times * other.fpdiv
        self.jump += times * other.jump
        self.nop += times * other.nop
        self.l1_loads += times * other.l1_loads
        self.l1_stores += times * other.l1_stores
        self.l2_loads += times * other.l2_loads
        self.l2_stores += times * other.l2_stores
        self.lock_ops += times * other.lock_ops
        self.dma_words += times * other.dma_words
        self.iterations += times * other.iterations

    @property
    def tcdm(self) -> float:
        """TCDM accesses (the paper's ``tcdm`` RAW metric)."""
        return self.l1_loads + self.l1_stores + self.lock_ops * 2

    @property
    def mem(self) -> float:
        return self.tcdm + self.l2_loads + self.l2_stores

    @property
    def comp(self) -> float:
        """Computational opcodes: ALU + FP + JUMP families (paper IIa)."""
        return self.alu + self.fp + self.div + self.fpdiv + self.jump

    @property
    def instructions(self) -> float:
        return self.comp + self.nop + self.mem


@dataclass
class KernelStaticSummary:
    """Per-kernel static counting results used by the feature extractors."""

    total: StaticCounts
    region_counts: list = field(default_factory=list)  # per ParallelFor
    region_trips: list = field(default_factory=list)   # parallel iterations
    sequential: StaticCounts = field(default_factory=StaticCounts)


_KIND_SLOT = {OpKind.ALU: "alu", OpKind.FP: "fp", OpKind.DIV: "div",
              OpKind.FPDIV: "fpdiv", OpKind.JUMP: "jump",
              OpKind.NOP: "nop"}


def _references_outer(body: tuple, bound_vars: set[str]) -> bool:
    """Does any loop bound in *body* reference a variable outside its nest?"""
    for stmt in body:
        if isinstance(stmt, Loop):
            outside = ((stmt.lower.variables() | stmt.upper.variables())
                       - bound_vars)
            if outside:
                return True
            if _references_outer(stmt.body, bound_vars | {stmt.var}):
                return True
        elif isinstance(stmt, Critical):
            if _references_outer(stmt.body, bound_vars):
                return True
    return False


def _uniform(body: tuple, memo: dict) -> bool:
    """Is every iteration of a loop over *body* counted alike?

    Uniform (rectangular) iterations require that no nested loop bound
    references the loop's variable or any outer one: only variables
    bound inside the subtree are allowed.  *memo* keeps each body's
    answer (and the body, so its id is not reused) for one kernel.
    """
    hit = memo.get(id(body))
    if hit is None:
        hit = memo[id(body)] = (body, not _references_outer(body, set()))
    return hit[1]


def count_body(body: tuple, env: dict[str, int], spaces: dict[str, str],
               memo: dict) -> StaticCounts:
    """Exact trip-weighted counts of *body* under loop bindings *env*.

    *memo* caches :func:`_uniform` across the calls of one kernel.
    """
    counts = StaticCounts()
    for stmt in body:
        if isinstance(stmt, Compute):
            slot = _KIND_SLOT[stmt.kind]
            setattr(counts, slot, getattr(counts, slot) + stmt.count)
        elif isinstance(stmt, Load):
            if spaces[stmt.array] == "l1":
                counts.l1_loads += 1
            else:
                counts.l2_loads += 1
        elif isinstance(stmt, Store):
            if spaces[stmt.array] == "l1":
                counts.l1_stores += 1
            else:
                counts.l2_stores += 1
        elif isinstance(stmt, DmaCopy):
            counts.alu += 1  # the descriptor write
            counts.dma_words += stmt.words
        elif isinstance(stmt, Critical):
            counts.lock_ops += 1
            counts.add(count_body(stmt.body, env, spaces, memo))
        elif isinstance(stmt, Loop):
            lo = stmt.lower.evaluate(env)
            hi = stmt.upper.evaluate(env)
            trip = max(0, hi - lo)
            counts.alu += 2  # loop setup
            if trip == 0:
                continue
            if _uniform(stmt.body, memo):
                # Rectangular: per-iteration cost is uniform (bank indices
                # differ but counts do not) — evaluate once at the first
                # iteration and scale.
                env[stmt.var] = lo
                inner = count_body(stmt.body, env, spaces, memo)
                del env[stmt.var]
                counts.add(inner, times=trip)
            else:
                for value in range(lo, hi):
                    env[stmt.var] = value
                    counts.add(count_body(stmt.body, env, spaces, memo))
                del env[stmt.var]
            counts.alu += trip      # induction updates
            counts.jump += trip     # back branches
            counts.iterations += trip
        else:
            raise FeatureError(f"cannot count {type(stmt).__name__} "
                               f"inside a body")
    return counts


def summarize_kernel(kernel: Kernel) -> KernelStaticSummary:
    """Count the whole kernel, keeping per-parallel-region breakdowns.

    Each dynamic *instance* of a parallel region (one per iteration of an
    enclosing sequential-for) contributes one entry to
    ``region_counts``/``region_trips`` — the paper's ``avgws`` averages
    over the work-sharing occurrences the runtime actually opens.
    """
    spaces = {arr.name: arr.space for arr in kernel.arrays}
    summary = KernelStaticSummary(total=StaticCounts())
    memo: dict = {}

    def visit_region(region, env: dict[str, int]) -> None:
        if isinstance(region, ParallelFor):
            lo = region.lower.evaluate(env)
            hi = region.upper.evaluate(env)
            trip = max(0, hi - lo)
            wrapper = Loop(region.var, region.lower, region.upper,
                           region.body)
            counts = count_body((wrapper,), dict(env), spaces, memo)
            summary.region_counts.append(counts)
            summary.region_trips.append(trip)
            summary.total.add(counts)
        elif isinstance(region, Sequential):
            counts = count_body(region.body, dict(env), spaces, memo)
            summary.sequential.add(counts)
            summary.total.add(counts)
        elif isinstance(region, SequentialFor):
            for value in range(region.lower.const, region.upper.const):
                for inner in region.body:
                    visit_region(inner, {region.var: value})

    for region in kernel.body:
        visit_region(region, {})
    return summary
