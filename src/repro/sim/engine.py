"""Cycle-lockstep simulation of the PULP cluster.

Each simulated cycle, every team core in (rotating) priority order either
issues one instruction, retries a conflicted access, or sleeps:

* a TCDM bank serves one request per cycle; additional requesters record
  a *conflict* on the bank and an active-wait cycle on the core;
* FP ops arbitrate for the core's statically-mapped shared FPU (one op
  per cycle per FPU; FP divisions occupy the unit for their latency);
* L2 accesses stall the core for ``l2_latency`` cycles, taken branches
  for ``jump_cycles``, dividers for their latency;
* barrier arrivals park the core in clock gating through the event unit;
  the last arrival releases the team after ``barrier_wakeup_cycles``;
* lock probes (critical sections) are TCDM reads on the lock's bank,
  retried every ``lock_retry_cycles`` — spinning burns real bank energy.

Cores outside the team stay clock-gated for the whole window.  When no
core can issue, the engine jumps straight to the next wake-up cycle, so
barrier-heavy and long-latency phases cost little host time.

When exactly one team core is live (running or stalled) and every other
one is parked at a barrier or done, nothing can contend with it: a
*solo drain* then runs that core one instruction at a time, charging
each instruction's full cost and jumping ``cycle`` over its own stalls
and over the busy windows that other cores left on the L2 banks, FPUs
and DMA channel.  The drain stops at the core's next barrier segment or
the end of its program, and the per-cycle loop handles the arrival.
That covers every team-1 run and the sequential regions and fork/join
tails of larger teams.  Runs with a trace writer attached keep the
per-cycle loop throughout, so the traced engine is the oracle the
drained one is tested against.

Accounting invariant (checked by ``ClusterCounters.validate``): for every
team core, ``issue_cycles + stall_cycles + cg_cycles == window cycles``.
"""

from __future__ import annotations

from itertools import chain

from repro.compiler.lowering import LoweredProgram, lower_kernel
from repro.errors import SimulationError
from repro.ir.nodes import Kernel
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
from repro.platform.config import ClusterConfig
from repro.sim.counters import BankCounters, ClusterCounters, CoreCounters

# Core scheduling states.
_RUN = 0
_STALL = 1
_BARRIER = 2
_DONE = 3

# Per-core counter slots (lists are faster than attribute access here).
_ALU, _JMPC, _DIVC, _FPC, _FPDIVC, _L1C, _L2C, _NOPC, _STALLC, _CGC = range(10)

_DEFAULT_MAX_CYCLES = 200_000_000


def run_lowered(lowered: LoweredProgram, config: ClusterConfig,
                trace=None, max_cycles: int | None = None) -> ClusterCounters:
    """Execute a lowered program and return the event counters."""
    n_cores = config.n_cores
    team = [c for c in range(n_cores) if lowered.programs[c]]
    if not team:
        raise SimulationError("lowered program has no active cores")
    limit = max_cycles if max_cycles is not None else _DEFAULT_MAX_CYCLES

    # --- mutable per-core state -------------------------------------------------
    status = [_DONE] * n_cores
    resume = [0] * n_cores
    iters: list = [None] * n_cores
    pending: list = [None] * n_cores
    seg_idx = [0] * n_cores
    sleep_from = [0] * n_cores
    finish = [0] * n_cores
    cnt = [[0] * 10 for _ in range(n_cores)]
    for c in team:
        status[c] = _RUN

    # --- shared resources ----------------------------------------------------------
    n_l1 = config.n_l1_banks
    n_l2 = config.n_l2_banks
    l1_stamp = [-1] * n_l1
    l2_stamp = [-1] * n_l2
    l1_reads = [0] * n_l1
    l1_writes = [0] * n_l1
    l1_conf = [0] * n_l1
    l2_reads = [0] * n_l2
    l2_writes = [0] * n_l2
    l2_conf = [0] * n_l2
    l2_busy_until = [0] * n_l2
    fpu_stamp = [-1] * config.n_fpus
    fpu_busy_until = [0] * config.n_fpus
    fpu_ops = [0] * config.n_fpus
    fpu_map = [config.fpu_of_core(c) for c in range(n_cores)]
    lock_holder: dict[int, int | None] = {}
    barrier_count: dict[int, int] = {}
    barrier_waiters: dict[int, list[int]] = {}
    icache_refills = 0
    dma_busy_until = 0
    dma_transfers = 0

    programs = lowered.programs
    barrier_team = lowered.barrier_team
    wakeup = config.barrier_wakeup_cycles
    jump_cycles = config.jump_cycles
    l2_latency = config.l2_latency
    l2_occupancy = config.l2_bank_occupancy
    div_latency = config.div_latency
    fpdiv_latency = config.fpdiv_latency
    lock_retry = config.lock_retry_cycles
    line_instrs = config.icache_line_instrs

    n_team = len(team)
    orders = [[team[(r + k) % n_team] for k in range(n_team)]
              for r in range(n_team)]

    done_count = 0
    live = n_team  # team cores in _RUN or _STALL
    cycle = 0
    tw = trace
    if tw is not None:
        tw.kernel_marker(0, "begin")

    while done_count < n_team:
        if cycle > limit:
            raise SimulationError(
                f"simulation of {lowered.kernel_name!r} exceeded "
                f"{limit} cycles (deadlock or runaway kernel)")
        if live == 1 and tw is None:
            # -- solo drain (see the module docstring).  Every stamp
            # predates this cycle, so no bank port or FPU slot can
            # conflict and the drain leaves the stamps alone.
            for c in team:
                if status[c] <= _STALL:
                    break
            if status[c] == _STALL:
                if resume[c] > cycle:
                    cycle = resume[c]
                status[c] = _RUN
            ccnt = cnt[c]
            segs = programs[c]
            f = fpu_map[c]
            it = iters[c]
            if pending[c] is not None:
                it = chain((pending[c],), it)
                pending[c] = None
            while True:
                if it is None:
                    si = seg_idx[c]
                    if si >= len(segs) or segs[si][0] != "r" \
                            or cycle > limit:
                        break
                    seg = segs[si]
                    seg_idx[c] = si + 1
                    it = seg[1]()
                    icache_refills += -(-seg[2] // line_instrs)
                for op, arg in it:
                    if op == OP_ALU:
                        ccnt[_ALU] += arg
                        cycle += arg
                    elif op == OP_LD or op == OP_ST:
                        if op == OP_LD:
                            l1_reads[arg] += 1
                        else:
                            l1_writes[arg] += 1
                        ccnt[_L1C] += 1
                        cycle += 1
                    elif op == OP_FP or op == OP_FDIV:
                        if fpu_busy_until[f] > cycle:
                            ccnt[_STALLC] += fpu_busy_until[f] - cycle
                            cycle = fpu_busy_until[f]
                        fpu_ops[f] += arg
                        if op == OP_FP:
                            ccnt[_FPC] += arg
                            cycle += arg
                        else:
                            ccnt[_FPDIVC] += arg
                            ccnt[_STALLC] += arg * (fpdiv_latency - 1)
                            cycle += arg * fpdiv_latency
                            fpu_busy_until[f] = cycle
                    elif op == OP_JMP:
                        ccnt[_JMPC] += arg
                        ccnt[_STALLC] += arg * (jump_cycles - 1)
                        cycle += arg * jump_cycles
                    elif op == OP_NOP:
                        ccnt[_NOPC] += arg
                        cycle += arg
                    elif op == OP_LD2 or op == OP_ST2:
                        if l2_busy_until[arg] > cycle:
                            wait = l2_busy_until[arg] - cycle
                            l2_conf[arg] += wait
                            ccnt[_STALLC] += wait
                            cycle += wait
                        if op == OP_LD2:
                            l2_reads[arg] += 1
                        else:
                            l2_writes[arg] += 1
                        l2_busy_until[arg] = cycle + l2_occupancy
                        ccnt[_L2C] += 1
                        ccnt[_STALLC] += l2_latency - 1
                        cycle += l2_latency
                    elif op == OP_DIV:
                        ccnt[_DIVC] += arg
                        ccnt[_STALLC] += arg * (div_latency - 1)
                        cycle += arg * div_latency
                    elif op == OP_LOCK:
                        if lock_holder.get(arg >> 8) is not None:
                            # no other core can release it: leave the
                            # spin to the per-cycle loop and its limit
                            pending[c] = (op, arg)
                            break
                        lock_holder[arg >> 8] = c
                        l1_reads[arg & 0xFF] += 1
                        ccnt[_L1C] += 1
                        cycle += 1
                    elif op == OP_UNLOCK:
                        if lock_holder.get(arg >> 8) != c:
                            raise SimulationError(
                                f"core {c} released lock {arg >> 8} it "
                                f"does not hold")
                        lock_holder[arg >> 8] = None
                        l1_writes[arg & 0xFF] += 1
                        ccnt[_L1C] += 1
                        cycle += 1
                    elif op == OP_DMA:
                        ccnt[_ALU] += 1
                        done = max(cycle + 1, dma_busy_until) + arg
                        dma_busy_until = done
                        dma_transfers += arg
                        ccnt[_CGC] += done - cycle - 1
                        cycle = done
                    else:
                        raise SimulationError(f"unknown opcode {op}")
                else:
                    it = None
                    continue
                break
            iters[c] = it
        any_run = False
        for c in orders[cycle % n_team]:
            st = status[c]
            if st == _STALL:
                if resume[c] > cycle:
                    continue
                st = status[c] = _RUN
            elif st != _RUN:
                continue

            ins = pending[c]
            ccnt = cnt[c]
            # -- fetch next instruction / advance segments -------------------
            if ins is None:
                while True:
                    it = iters[c]
                    if it is not None:
                        ins = next(it, None)
                        if ins is not None:
                            break
                        iters[c] = None
                        continue
                    segs = programs[c]
                    si = seg_idx[c]
                    if si >= len(segs):
                        status[c] = _DONE
                        finish[c] = cycle
                        done_count += 1
                        live -= 1
                        break
                    seg = segs[si]
                    seg_idx[c] = si + 1
                    if seg[0] == "r":
                        iters[c] = seg[1]()
                        lines = -(-seg[2] // line_instrs)
                        icache_refills += lines
                        if tw is not None:
                            tw.icache(cycle, "refill", lines)
                        continue
                    # barrier arrival: costs one ALU-class issue cycle
                    bid = seg[1]
                    ccnt[_ALU] += 1
                    if tw is not None:
                        tw.instr(cycle, c, OP_ALU, 1)
                    arrived = barrier_count.get(bid, 0) + 1
                    if arrived >= barrier_team[bid]:
                        barrier_count[bid] = 0
                        rel = cycle + wakeup
                        for w in barrier_waiters.pop(bid, ()):
                            live += 1
                            status[w] = _STALL
                            resume[w] = rel
                            cnt[w][_CGC] += rel - sleep_from[w]
                            if tw is not None:
                                tw.core_state(rel, w, "cg_exit")
                        status[c] = _STALL
                        resume[c] = rel
                        ccnt[_STALLC] += wakeup - 1
                        if tw is not None and wakeup > 1:
                            tw.core_state(cycle, c, f"stall {wakeup - 1}")
                    else:
                        barrier_count[bid] = arrived
                        barrier_waiters.setdefault(bid, []).append(c)
                        status[c] = _BARRIER
                        live -= 1
                        sleep_from[c] = cycle + 1
                        if tw is not None:
                            tw.core_state(cycle + 1, c, "cg_enter")
                    any_run = True  # the arrival consumed this cycle
                    break
                if ins is None:
                    continue

            # -- dispatch ------------------------------------------------------
            op = ins[0]
            arg = ins[1]
            if op == OP_ALU:
                ccnt[_ALU] += arg
                pending[c] = None
                if arg > 1:
                    status[c] = _STALL
                    resume[c] = cycle + arg  # busy issuing, not waiting
                if tw is not None:
                    tw.instr(cycle, c, op, arg)
            elif op == OP_LD or op == OP_ST:
                if l1_stamp[arg] == cycle:
                    l1_conf[arg] += 1
                    ccnt[_STALLC] += 1
                    pending[c] = ins
                    if tw is not None:
                        tw.l1(cycle, arg, "conflict")
                        tw.core_state(cycle, c, "stall 1")
                else:
                    l1_stamp[arg] = cycle
                    ccnt[_L1C] += 1
                    pending[c] = None
                    if op == OP_LD:
                        l1_reads[arg] += 1
                    else:
                        l1_writes[arg] += 1
                    if tw is not None:
                        tw.instr(cycle, c, op, arg)
                        tw.l1(cycle, arg,
                              "read" if op == OP_LD else "write")
            elif op == OP_FP:
                f = fpu_map[c]
                if fpu_stamp[f] == cycle or fpu_busy_until[f] > cycle:
                    ccnt[_STALLC] += 1
                    pending[c] = ins
                    if tw is not None:
                        tw.core_state(cycle, c, "stall 1")
                else:
                    fpu_stamp[f] = cycle
                    fpu_ops[f] += 1
                    ccnt[_FPC] += 1
                    pending[c] = (OP_FP, arg - 1) if arg > 1 else None
                    if tw is not None:
                        tw.instr(cycle, c, op, 1)
            elif op == OP_JMP:
                ccnt[_JMPC] += arg
                extra = arg * (jump_cycles - 1)
                ccnt[_STALLC] += extra
                status[c] = _STALL
                resume[c] = cycle + arg * jump_cycles
                pending[c] = None
                if tw is not None:
                    tw.instr(cycle, c, op, arg)
                    if extra:
                        tw.core_state(cycle, c, f"stall {extra}")
            elif op == OP_NOP:
                ccnt[_NOPC] += arg
                pending[c] = None
                if arg > 1:
                    status[c] = _STALL
                    resume[c] = cycle + arg
                if tw is not None:
                    tw.instr(cycle, c, op, arg)
            elif op == OP_LD2 or op == OP_ST2:
                if l2_stamp[arg] == cycle or l2_busy_until[arg] > cycle:
                    l2_conf[arg] += 1
                    ccnt[_STALLC] += 1
                    pending[c] = ins
                    if tw is not None:
                        tw.l2(cycle, arg, "conflict")
                        tw.core_state(cycle, c, "stall 1")
                else:
                    l2_stamp[arg] = cycle
                    l2_busy_until[arg] = cycle + l2_occupancy
                    ccnt[_L2C] += 1
                    ccnt[_STALLC] += l2_latency - 1
                    status[c] = _STALL
                    resume[c] = cycle + l2_latency
                    pending[c] = None
                    if op == OP_LD2:
                        l2_reads[arg] += 1
                    else:
                        l2_writes[arg] += 1
                    if tw is not None:
                        tw.instr(cycle, c, op, arg)
                        tw.l2(cycle, arg,
                              "read" if op == OP_LD2 else "write")
                        tw.core_state(cycle, c, f"stall {l2_latency - 1}")
            elif op == OP_DIV:
                ccnt[_DIVC] += arg
                extra = arg * (div_latency - 1)
                ccnt[_STALLC] += extra
                status[c] = _STALL
                resume[c] = cycle + arg * div_latency
                pending[c] = None
                if tw is not None:
                    tw.instr(cycle, c, op, arg)
                    tw.core_state(cycle, c, f"stall {extra}")
            elif op == OP_FDIV:
                f = fpu_map[c]
                if fpu_stamp[f] == cycle or fpu_busy_until[f] > cycle:
                    ccnt[_STALLC] += 1
                    pending[c] = ins
                    if tw is not None:
                        tw.core_state(cycle, c, "stall 1")
                else:
                    fpu_stamp[f] = cycle
                    fpu_busy_until[f] = cycle + fpdiv_latency
                    fpu_ops[f] += 1
                    ccnt[_FPDIVC] += 1
                    ccnt[_STALLC] += fpdiv_latency - 1
                    status[c] = _STALL
                    resume[c] = cycle + fpdiv_latency
                    pending[c] = (OP_FDIV, arg - 1) if arg > 1 else None
                    if tw is not None:
                        tw.instr(cycle, c, op, 1)
                        tw.core_state(cycle, c,
                                      f"stall {fpdiv_latency - 1}")
            elif op == OP_LOCK:
                bank = arg & 0xFF
                lock_id = arg >> 8
                if l1_stamp[bank] == cycle:
                    l1_conf[bank] += 1
                    ccnt[_STALLC] += 1
                    pending[c] = ins
                    if tw is not None:
                        tw.l1(cycle, bank, "conflict")
                        tw.core_state(cycle, c, "stall 1")
                else:
                    l1_stamp[bank] = cycle
                    l1_reads[bank] += 1
                    ccnt[_L1C] += 1
                    if tw is not None:
                        tw.instr(cycle, c, op, arg)
                        tw.l1(cycle, bank, "read")
                    if lock_holder.get(lock_id) is None:
                        lock_holder[lock_id] = c
                        pending[c] = None
                    else:
                        ccnt[_STALLC] += lock_retry
                        status[c] = _STALL
                        resume[c] = cycle + 1 + lock_retry
                        pending[c] = ins  # re-probe after the backoff
                        if tw is not None:
                            tw.core_state(cycle, c, f"stall {lock_retry}")
            elif op == OP_DMA:
                # descriptor write, then sleep on the event unit until
                # the (single-channel) DMA finishes moving `arg` words
                ccnt[_ALU] += 1
                start = cycle + 1
                if dma_busy_until > start:
                    start = dma_busy_until
                done = start + arg
                dma_busy_until = done
                dma_transfers += arg
                ccnt[_CGC] += done - cycle - 1
                status[c] = _STALL
                resume[c] = done
                pending[c] = None
                if tw is not None:
                    tw.instr(cycle, c, op, arg)
                    tw.dma(cycle, arg)
                    if done > cycle + 1:
                        tw.core_state(cycle + 1, c, "cg_enter")
                        tw.core_state(done, c, "cg_exit")
            elif op == OP_UNLOCK:
                bank = arg & 0xFF
                lock_id = arg >> 8
                if l1_stamp[bank] == cycle:
                    l1_conf[bank] += 1
                    ccnt[_STALLC] += 1
                    pending[c] = ins
                    if tw is not None:
                        tw.l1(cycle, bank, "conflict")
                        tw.core_state(cycle, c, "stall 1")
                else:
                    l1_stamp[bank] = cycle
                    l1_writes[bank] += 1
                    ccnt[_L1C] += 1
                    if lock_holder.get(lock_id) != c:
                        raise SimulationError(
                            f"core {c} released lock {lock_id} it does "
                            f"not hold")
                    lock_holder[lock_id] = None
                    pending[c] = None
                    if tw is not None:
                        tw.instr(cycle, c, op, arg)
                        tw.l1(cycle, bank, "write")
            else:
                raise SimulationError(f"unknown opcode {op}")
            any_run = True

        if done_count >= n_team:
            break
        if any_run:
            cycle += 1
        else:
            next_wake = min((resume[c] for c in team
                             if status[c] == _STALL), default=-1)
            if next_wake < 0:
                raise SimulationError(
                    f"deadlock at cycle {cycle} in "
                    f"{lowered.kernel_name!r}: no runnable core and no "
                    f"pending wake-up")
            cycle = next_wake if next_wake > cycle else cycle + 1

    total = max(finish[c] for c in team)
    if tw is not None:
        tw.kernel_marker(total, "end")

    counters = ClusterCounters(
        n_cores=n_cores, n_l1_banks=n_l1, n_l2_banks=n_l2,
        n_fpus=config.n_fpus)
    counters.cycles = total
    team_set = set(team)
    for c in range(n_cores):
        k = cnt[c]
        core = CoreCounters(
            alu_ops=k[_ALU], jump_ops=k[_JMPC], div_ops=k[_DIVC],
            fp_ops=k[_FPC], fpdiv_ops=k[_FPDIVC], l1_ops=k[_L1C],
            l2_ops=k[_L2C], nop_ops=k[_NOPC], stall_cycles=k[_STALLC],
            cg_cycles=k[_CGC])
        if c in team_set:
            core.cg_cycles += total - finish[c]
            if tw is not None and total > finish[c]:
                tw.core_state(finish[c], c, "cg_enter")
                tw.core_state(total, c, "cg_exit")
        else:
            core.cg_cycles = total
            if tw is not None and total > 0:
                tw.core_state(0, c, "cg_enter")
                tw.core_state(total, c, "cg_exit")
        counters.cores[c] = core
    for b in range(n_l1):
        counters.l1_banks[b] = BankCounters(
            reads=l1_reads[b], writes=l1_writes[b], conflicts=l1_conf[b])
    for b in range(n_l2):
        counters.l2_banks[b] = BankCounters(
            reads=l2_reads[b], writes=l2_writes[b], conflicts=l2_conf[b])
    counters.fpu_ops = fpu_ops
    counters.icache_refills = icache_refills
    counters.icache_fetches = sum(core.issue_cycles
                                  for core in counters.cores)
    counters.dma_transfers = dma_transfers
    return counters


def simulate(kernel: Kernel, team_size: int,
             config: ClusterConfig | None = None, trace=None,
             backend: str = "codegen",
             max_cycles: int | None = None) -> ClusterCounters:
    """Lower *kernel* for *team_size* cores and simulate it."""
    config = config or ClusterConfig()
    lowered = lower_kernel(kernel, team_size, config, backend=backend)
    counters = run_lowered(lowered, config, trace=trace,
                           max_cycles=max_cycles)
    counters.validate()
    return counters
