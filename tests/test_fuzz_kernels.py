"""Property-based fuzzing of the whole pipeline.

Hypothesis generates random (small) kernels — arbitrary mixes of compute
ops, loads/stores with random affine indices, nested loops, critical
sections and DMA transfers — and every one must satisfy the system's
global invariants:

* the per-core cycle budget closes (issue + stall + cg == window);
* both lowering backends produce identical counters;
* the engine's solo drain matches its plain per-cycle loop (the traced
  path) exactly, also with L2 banks that stay busy past the stall;
* the trace -> regex -> listeners pipeline reconstructs the counters;
* useful work (memory ops, arithmetic) is conserved across team sizes;
* energy accounting accepts the counters and is strictly positive.
"""

from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.energy.accounting import compute_energy
from repro.energy.model import EnergyModel
from repro.ir import KernelBuilder, Load, Loop, Store
from repro.ir.nodes import Compute, Critical, DmaCopy, OpKind
from repro.ir.expr import Affine
from repro.ir.types import DType
from repro.platform.config import ClusterConfig
from repro.sim.engine import simulate
from repro.trace import TraceWriter
from repro.trace.analyser import analyse_trace

_KINDS = (OpKind.ALU, OpKind.FP, OpKind.DIV, OpKind.FPDIV, OpKind.NOP,
          OpKind.JUMP)


@st.composite
def leaf_stmt(draw, loop_vars):
    choice = draw(st.integers(min_value=0, max_value=4))
    if choice == 0:
        kind = draw(st.sampled_from(_KINDS))
        return Compute(kind, draw(st.integers(min_value=1, max_value=6)))
    if choice in (1, 2):
        coefs = {
            name: draw(st.integers(min_value=0, max_value=5))
            for name in loop_vars
        }
        index = Affine(draw(st.integers(min_value=0, max_value=7)), coefs)
        array = draw(st.sampled_from(["A", "B"]))
        return (Load(array, index) if choice == 1
                else Store(array, index))
    if choice == 3:
        return DmaCopy(draw(st.integers(min_value=1, max_value=12)))
    inner = Compute(OpKind.ALU, draw(st.integers(min_value=1,
                                                 max_value=3)))
    return Critical([inner], name="fuzz_sec")


@st.composite
def bodies(draw, loop_vars, depth=0):
    n_stmts = draw(st.integers(min_value=1, max_value=3))
    stmts = [draw(leaf_stmt(loop_vars)) for _ in range(n_stmts)]
    if depth < 2 and draw(st.booleans()):
        inner_var = f"v{depth}"
        trip = draw(st.integers(min_value=0, max_value=4))
        inner = draw(bodies(loop_vars + (inner_var,), depth + 1))
        stmts.append(Loop(inner_var, 0, trip, inner))
    return stmts


@st.composite
def serial_stmt(draw, loop_vars):
    """A sequential-region leaf: an FP/FPDIV op or an access to ``B``
    (an L2 access when ``B`` is placed in L2)."""
    if draw(st.integers(min_value=0, max_value=2)) == 0:
        kind = draw(st.sampled_from((OpKind.FP, OpKind.FPDIV)))
        return Compute(kind, draw(st.integers(min_value=1, max_value=4)))
    # mostly B[0], so back-to-back accesses usually share a bank
    coefs = {name: draw(st.integers(min_value=0, max_value=1))
             for name in loop_vars}
    index = Affine(0, coefs)
    return Load("B", index) if draw(st.booleans()) else Store("B", index)


@st.composite
def serial_bodies(draw):
    stmts = [draw(serial_stmt(()))
             for _ in range(draw(st.integers(min_value=1, max_value=3)))]
    if draw(st.booleans()):
        inner = [draw(serial_stmt(("s",)))
                 for _ in range(draw(st.integers(min_value=1, max_value=3)))]
        trip = draw(st.integers(min_value=1, max_value=4))
        stmts.append(Loop("s", 0, trip, inner))
    return stmts


@st.composite
def kernels(draw):
    dtype = draw(st.sampled_from([DType.INT32, DType.FP32]))
    builder = KernelBuilder("fuzz", dtype, 512)
    builder.array("A", 64)
    builder.array("B", 64, space=draw(st.sampled_from(["l2", "l1"])))
    if draw(st.booleans()):
        builder.sequential(draw(serial_bodies()))
    trip = draw(st.integers(min_value=1, max_value=12))
    builder.parallel_for("i", 0, trip, draw(bodies(("i",))))
    if draw(st.booleans()):
        builder.sequential(draw(serial_bodies()))
    return builder.build()


_DEFAULT = ClusterConfig()
#: with the default config every core that opens an L2, FPU or DMA busy
#: window stalls at least that long itself, so no drained core ever waits
#: on one; an L2 bank busy for twice the latency makes those waits fire.
configs = st.sampled_from([
    replace(_DEFAULT, l2_bank_occupancy=2 * _DEFAULT.l2_latency), _DEFAULT])


class TestFuzzedKernels:
    @settings(max_examples=30, deadline=None)
    @given(kernel=kernels(), team=st.integers(min_value=1, max_value=8))
    def test_budget_and_energy_invariants(self, kernel, team):
        counters = simulate(kernel, team)
        counters.validate()
        breakdown = compute_energy(counters, EnergyModel.paper_table1())
        assert breakdown.total > 0

    @settings(max_examples=15, deadline=None)
    @given(kernel=kernels(), team=st.integers(min_value=1, max_value=8))
    def test_backend_equivalence(self, kernel, team):
        fast = simulate(kernel, team).as_dict()
        slow = simulate(kernel, team, backend="interp").as_dict()
        assert fast == slow

    @settings(max_examples=60, deadline=None)
    @given(kernel=kernels(), team=st.integers(min_value=1, max_value=8),
           config=configs)
    def test_drained_engine_matches_per_cycle_engine(self, kernel, team,
                                                      config):
        # a trace writer keeps the engine on its per-cycle loop
        drained = simulate(kernel, team, config).as_dict()
        per_cycle = simulate(kernel, team, config,
                             trace=TraceWriter()).as_dict()
        assert drained == per_cycle

    @settings(max_examples=15, deadline=None)
    @given(kernel=kernels(), team=st.integers(min_value=1, max_value=8))
    def test_trace_reconstruction(self, kernel, team):
        writer = TraceWriter()
        engine = simulate(kernel, team, trace=writer)
        rebuilt = analyse_trace(writer.lines).to_counters()
        assert rebuilt.as_dict() == engine.as_dict()

    @settings(max_examples=10, deadline=None)
    @given(kernel=kernels())
    def test_work_conservation_across_teams(self, kernel):
        from repro.ir.nodes import walk_body

        has_critical = any(
            isinstance(stmt, Critical)
            for region in kernel.parallel_regions()
            for stmt in walk_body(region.body))
        references = None
        for team in (1, 4, 8):
            counters = simulate(kernel, team)
            work = (
                # contended locks spin and issue extra probe *reads*, so
                # reads are only team-invariant without critical sections
                counters.total_l1_reads if not has_critical else 0,
                counters.total_l1_writes,
                sum(c.fp_ops + c.fpdiv_ops for c in counters.cores),
                sum(c.div_ops for c in counters.cores),
                counters.dma_transfers,
            )
            if references is None:
                references = work
            else:
                assert work == references
