"""The repository benchmark: one workload, one run, one JSON result line.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload campaign_cold --seed 1 \\
        --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs an
untraced and a traced phase of ``--seconds / 2`` each and reports the
per-layer ledger instead.  Metric names and units come from
``BENCHMARK.json``.  The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``; the exit code is 0 only
when every correctness gate passed.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import shutil
import sys
import tempfile

import campaign
import serving
from common import Ctx

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: personality(2): read the current persona; turn off layout randomization.
PERSONALITY_QUERY = 0xFFFFFFFF
ADDR_NO_RANDOMIZE = 0x0040000
#: scratch and kept state (curve references, ledgers); gitignored.
WORK_DIR = ".perfbench_work"


def _environment() -> dict:
    """The environment of this process and of every interpreter it
    starts: the checkout's sources, fixed string hashing, one worker,
    telemetry on, no sampled tracing and nothing else inherited from
    ``REPRO_*``."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("REPRO_")}
    env.update(PYTHONPATH=os.path.join(ROOT, "src"), PYTHONHASHSEED="0",
               REPRO_JOBS="1",
               REPRO_METRICS="1", REPRO_PROFILE="unit",
               REPRO_ARTIFACT_CACHE=os.path.join(ROOT, WORK_DIR,
                                                 "artifacts"))
    return env


WORKLOADS = {"campaign_cold": campaign.campaign_cold,
             "figure2_warm": campaign.figure2_warm,
             "serve_stream": serving.serve_stream,
             "serve_json": serving.serve_json}


def result_line(spec: dict, outcome, trace: bool) -> dict:
    """The result object; fails loudly on a metric BENCHMARK.json lacks."""
    declared = {m["name"]: m["unit"]
                for m in spec["per_layer" if trace else "end_to_end"]}
    measured = outcome.layers if trace else outcome.e2e
    unknown = sorted(set(measured) - set(declared))
    if unknown:
        raise KeyError(f"metrics not declared in BENCHMARK.json: {unknown}")
    if not trace and set(measured) != set(declared):
        raise KeyError(f"end-to-end metrics not measured: "
                       f"{sorted(set(declared) - set(measured))}")
    # a layer this workload does not exercise reads 0
    metrics = {name: {"value": float(measured.get(name, 0.0)), "unit": unit}
               for name, unit in declared.items()}
    return {"correct": outcome.failed == 0,
            "attempted": int(outcome.attempted),
            "failed": int(outcome.failed),
            "metrics": metrics}


def run(name: str, seed: int, seconds: float, trace: bool,
        scale: int | None = None):
    """Run one workload in this process; returns its :class:`Outcome`."""
    # one CPU for every process of the run, so that the meter's
    # reference loop measures the speed of the CPU doing the work
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    env = _environment()
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    os.environ.update(env)
    if env["PYTHONPATH"] not in sys.path:
        sys.path.insert(0, env["PYTHONPATH"])
    keep = os.path.join(ROOT, WORK_DIR)
    os.makedirs(keep, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{name}-", dir=keep)
    try:
        ctx = Ctx(name=name, root=ROOT, keep=keep, work=work, seed=seed,
                  seconds=seconds, trace=trace, env=env, scale=scale)
        return WORKLOADS[name](ctx)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro",
                                       "__init__.py")):
        print(f"no repro sources under {ROOT}/src; run from the root of "
              f"a checkout", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    outcome = run(args.workload, args.seed, args.seconds, bool(args.trace))
    result = result_line(spec, outcome, bool(args.trace))
    if outcome.attempted:
        print(f"error_frac={outcome.failed / outcome.attempted}",
              file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def steady_process() -> None:
    """Re-execute this script, at most once, with a fixed hash seed and
    without address-space layout randomization.

    String hashing and memory layout must not differ between runs: with
    both random, a run of ``serve_json`` lands in a fast or a slow layout
    and whole runs differ by 10-15%.  Every interpreter the run starts
    inherits both settings.
    """
    libc = ctypes.CDLL(None, use_errno=True)
    libc.personality.argtypes = [ctypes.c_ulong]
    libc.personality.restype = ctypes.c_int
    persona = libc.personality(PERSONALITY_QUERY)
    relayout = False
    if persona != -1 and not persona & ADDR_NO_RANDOMIZE:
        libc.personality(persona | ADDR_NO_RANDOMIZE)
        relayout = bool(libc.personality(PERSONALITY_QUERY)
                        & ADDR_NO_RANDOMIZE)
    if relayout or os.environ.get("PYTHONHASHSEED") != "0":
        os.execve(sys.executable, [sys.executable, *sys.argv],
                  dict(os.environ, PYTHONHASHSEED="0"))


if __name__ == "__main__":
    steady_process()
    sys.exit(main())
