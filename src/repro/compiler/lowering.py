"""Lower a kernel to per-core segment programs for a given team size.

A lowered program is, per core, a list of segments:

* ``("r", factory, code_sites)`` — run the instruction stream produced
  by ``factory()`` (``code_sites`` drives I-cache cold refills);
* ``("b", barrier_id)`` — arrive at a team barrier and sleep in clock
  gating until everyone arrived.

Region structure (mirrors the PULP OpenMP runtime):

* a ``ParallelFor`` opens with the master running ``fork_instrs``
  runtime ops, a *fork barrier* releasing the team, each member running
  its chunk prologue + static chunk, an implicit *join barrier*
  (unless ``nowait``) and ``join_instrs`` on the master;
* a ``Sequential`` region runs on the master only — the workers are
  already parked at the next barrier in clock gating;
* a ``SequentialFor`` re-emits its inner regions once per iteration,
  paying the full fork/join tax every time (region bodies are compiled
  once and re-instantiated with the loop value, so lowering cost does
  not scale with the trip count);
* a trailing *final barrier* closes the measurement window for the team.

Cores outside the team get an empty program: the engine keeps them
clock-gated for the whole window, exactly like unused PULP cores.

Segment bodies do not depend on the team size (only chunk bounds do),
so :func:`lower_kernel` keeps the segment compiler of the kernel it
lowered last and reuses it when the same kernel object comes back with
an equal config and the same backend: a sweep over team sizes 1..8
compiles each body once per kernel.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import LoweringError
from repro.ir.nodes import (
    Barrier,
    Kernel,
    ParallelFor,
    Sequential,
    SequentialFor,
)
from repro.compiler.codegen import compile_segment, segment_sites
from repro.compiler.interp import interpret_segment
from repro.compiler.schedule import static_chunks
from repro.platform.config import ClusterConfig
from repro.platform.memory import MemoryMap


@dataclass
class LoweredProgram:
    """Per-core segment programs plus barrier metadata."""

    kernel_name: str
    team_size: int
    programs: list = field(default_factory=list)
    barrier_team: dict = field(default_factory=dict)

    @property
    def n_cores(self) -> int:
        return len(self.programs)


class _SegmentCompiler:
    """Compiles region bodies once and hands out bound factories."""

    def __init__(self, memmap: MemoryMap, config: ClusterConfig,
                 backend: str) -> None:
        self._memmap = memmap
        self._config = config
        self._backend = backend
        self._cache: dict[tuple, tuple] = {}

    def factory(self, body: tuple, loop_var: str | None,
                chunk: tuple[int, int], free_vars: tuple[str, ...],
                env: dict[str, int], prologue: int):
        """A zero-arg generator factory for one segment instance."""
        lo, hi = chunk
        values = tuple(env[name] for name in free_vars)
        if self._backend == "codegen":
            key = (id(body), loop_var, free_vars, prologue)
            entry = self._cache.get(key)
            if entry is None:
                entry = compile_segment(
                    body, self._memmap, self._config.n_l1_banks,
                    self._config.n_l2_banks, loop_var=loop_var,
                    free_vars=free_vars, prologue_alu=prologue)
                self._cache[key] = entry
            fn, sites = entry

            def make(fn=fn, lo=lo, hi=hi, values=values):
                return fn(lo, hi, *values)

            return ("r", make, sites)

        memmap, config = self._memmap, self._config
        bound_env = dict(env)

        def make_interp():
            return interpret_segment(
                body, memmap, config.n_l1_banks, config.n_l2_banks,
                loop_var=loop_var, loop_range=(lo, hi),
                prologue_alu=prologue, env=bound_env)

        return ("r", make_interp, segment_sites(body, loop_var, prologue))


#: ``(kernel, config, backend, compiler)`` of the last lowering.
_last_lowered: tuple | None = None


def lower_kernel(kernel: Kernel, team_size: int, config: ClusterConfig,
                 backend: str = "codegen") -> LoweredProgram:
    """Lower *kernel* for a team of *team_size* cores on *config*."""
    if not 1 <= team_size <= config.n_cores:
        raise LoweringError(
            f"team size {team_size} outside [1, {config.n_cores}]")
    if backend not in ("codegen", "interp"):
        raise LoweringError(f"unknown backend {backend!r}")

    global _last_lowered
    last = _last_lowered
    if (last is not None and last[0] is kernel and last[1] == config
            and last[2] == backend):
        compiler = last[3]
    else:
        memmap = MemoryMap(kernel, config.n_l1_banks, config.n_l2_banks,
                           config.tcdm_bytes, config.l2_bytes)
        compiler = _SegmentCompiler(memmap, config, backend)
        # the strong reference keeps the body ids in the cache keys valid
        _last_lowered = (kernel, config, backend, compiler)
    lowered = LoweredProgram(kernel.name, team_size,
                             programs=[[] for _ in range(config.n_cores)])
    state = {"next_barrier": 0}

    def new_barrier() -> int:
        bid = state["next_barrier"]
        state["next_barrier"] += 1
        lowered.barrier_team[bid] = team_size
        return bid

    team = range(team_size)

    def emit_parallel_for(region: ParallelFor, free_vars: tuple,
                          env: dict[str, int]) -> None:
        fork_id = new_barrier()
        join_id = None if region.nowait else new_barrier()
        lo = region.lower.evaluate(env)
        hi = region.upper.evaluate(env)
        chunks = static_chunks(lo, hi, team_size)
        for core in team:
            program = lowered.programs[core]
            if core == 0 and config.fork_instrs > 0:
                program.append(compiler.factory(
                    (), None, (0, 0), (), {},
                    prologue=config.fork_instrs))
            program.append(("b", fork_id))
            program.append(compiler.factory(
                region.body, region.var, chunks[core], free_vars, env,
                prologue=config.worker_prologue_instrs))
            if join_id is not None:
                program.append(("b", join_id))
                if core == 0 and config.join_instrs > 0:
                    program.append(compiler.factory(
                        (), None, (0, 0), (), {},
                        prologue=config.join_instrs))

    def emit_region(region, free_vars: tuple, env: dict[str, int]) -> None:
        if isinstance(region, ParallelFor):
            emit_parallel_for(region, free_vars, env)
        elif isinstance(region, Sequential):
            lowered.programs[0].append(compiler.factory(
                region.body, None, (0, 0), free_vars, env, prologue=0))
        elif isinstance(region, Barrier):
            bid = new_barrier()
            for core in team:
                lowered.programs[core].append(("b", bid))
        elif isinstance(region, SequentialFor):
            if free_vars:
                raise LoweringError("sequential-for loops cannot nest")
            lo = region.lower.const
            hi = region.upper.const
            for value in range(lo, hi):
                inner_env = {region.var: value}
                for inner in region.body:
                    emit_region(inner, (region.var,), inner_env)
        else:
            raise LoweringError(f"unexpected top-level region "
                                f"{type(region).__name__}")

    for region in kernel.body:
        emit_region(region, (), {})

    final_id = new_barrier()
    for core in team:
        lowered.programs[core].append(("b", final_id))
    return lowered
