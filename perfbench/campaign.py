"""The labelling-campaign workloads: ``campaign_cold`` and ``figure2_warm``.

``campaign_cold`` labels the full ``unit`` grid (112 samples) through
``build_dataset`` into an empty SimCache, so simulation and lowering do
nearly all of the work.  ``figure2_warm`` rebuilds the same dataset from a
SimCache pre-seeded with the committed counters, which bypasses the
simulator, and then runs the Figure 2 left panel, where repeated-CV tree
fitting does nearly all of the work.  Both run in this process, so its
peak RSS is the campaign's.
"""

from __future__ import annotations

import glob
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import common
from common import GOLDEN_DATASET, Meter, Outcome, percentile
from ledger import Ledger, instrument, peak_rss_mb

PROFILE = "unit"
#: the committed golden counters.
GOLDEN_GLOB = "*_512-*.json"
#: fresh interpreters timed for ``setup_s`` (the median is reported).
SETUP_REPEATS = 5
#: rescaled seconds of one pass of each workload (see :func:`measure`).
CAMPAIGN_PASS_S = 2.5
FIGURE2_PASS_S = 15.0

# A fresh interpreter imports the workload's modules and prepares the
# SimCache the first pass uses: empty for the cold campaign, seeded with
# the committed counters for the warm one.
_SETUP_SCRIPT = """
import shutil, sys
import {module}
from repro.dataset.cache import SimCache
SimCache(sys.argv[1])
for path in sys.argv[2:]:
    shutil.copy(path, sys.argv[1])
"""


def golden_counters(root: str) -> dict:
    """``{file name: bytes}`` of every committed counter file."""
    golden = {}
    for path in sorted(glob.glob(os.path.join(root, ".repro_cache",
                                              GOLDEN_GLOB))):
        with open(path, "rb") as handle:
            golden[os.path.basename(path)] = handle.read()
    return golden


def counter_mismatches(cache_dir: str, golden: dict) -> int:
    """Golden counter files that *cache_dir* lacks or holds different."""
    bad = 0
    for name, expected in golden.items():
        try:
            with open(os.path.join(cache_dir, name), "rb") as handle:
                bad += handle.read() != expected
        except FileNotFoundError:
            bad += 1
    return bad


def timed_setup(ctx, meter: Meter, module: str, seed_files=()) -> tuple:
    """Median rescaled time of SETUP_REPEATS set-up interpreters, and
    the cache directory the last one prepared."""
    times = []
    cache_dir = None
    for _ in range(SETUP_REPEATS):
        if cache_dir is not None:
            shutil.rmtree(cache_dir)
        cache_dir = tempfile.mkdtemp(prefix="cache-", dir=ctx.work)
        _, stamps = meter.timed(
            subprocess.run, [sys.executable, "-c",
                             _SETUP_SCRIPT.format(module=module), cache_dir,
                             *seed_files], env=ctx.env, check=True)
        times.append(meter.scaled(*stamps))
    return statistics.median(times), cache_dir


# -- the traced layers -------------------------------------------------------


def _count_lookup(ledger, args, result) -> None:
    ledger.add("cache.lookups")
    ledger.add("cache.hits", bool(result))


def _count_cycles(ledger, args, result) -> None:
    ledger.add("sim.cycles", result.cycles)


def campaign_patches() -> list:
    """Spans around every stage of labelling one sample."""
    import repro.dataset.build as build
    import repro.sim.engine as engine
    from repro.dataset.build import Dataset
    from repro.dataset.cache import SimCache
    from repro.dataset.spec import SampleSpec
    from repro.sim.counters import ClusterCounters

    return [
        (SampleSpec, "build", "dataset.kernel_build"),
        (build, "kernel_fingerprint", "dataset.cache_load"),
        (SimCache, "load", "dataset.cache_load", _count_lookup),
        (ClusterCounters, "from_dict", "dataset.cache_load"),
        (SimCache, "store", "dataset.cache_store"),
        (build, "extract_raw", "features.static"),
        (build, "agg_from_raw", "features.static"),
        (build, "extract_mca", "features.static"),
        (build, "simulate", "sim.simulate"),
        (engine, "lower_kernel", "compiler.lower"),
        (engine, "run_lowered", "sim.run", _count_cycles),
        (build, "compute_energy", "energy.compute"),
        (build, "extract_dynamic", "features.dynamic"),
        (build, "flatten_dynamic", "features.dynamic"),
        (Dataset, "save", "dataset.save"),
    ]


def ml_patches() -> list:
    """Spans around the training and evaluation stages of Figure 2."""
    import repro.api.classifier as classifier
    import repro.experiments.figure2 as figure2
    from repro.dataset.build import Dataset
    from repro.ml.tree import DecisionTreeClassifier

    return [
        (DecisionTreeClassifier, "fit", "ml.fit"),
        (DecisionTreeClassifier, "predict", "ml.predict"),
        (classifier, "mean_tolerance_curve", "ml.tolerance_curve"),
        (Dataset, "matrix", "dataset.matrix"),
        (figure2, "optimised_set", "api.select"),
    ]


def span_layers(ledger: Ledger, passes: int, factor: float,
                program_s: float) -> dict:
    """Per-pass layer metrics from one traced phase; times are rescaled
    by the phase's mean meter *factor*.  *program_s* is the phase's wall
    time outside the meter's reference loops."""

    def seconds(name: str) -> float:
        return ledger.self_s(name) * factor / passes

    cycles = ledger.counts.get("sim.cycles", 0)
    lookups = ledger.counts.get("cache.lookups", 0)
    return {
        "sim.run_s": seconds("sim.run"),
        "sim.runs": ledger.calls("sim.run") / passes,
        "sim.simulated_cycles": cycles / passes,
        "sim.host_ns_per_cycle":
            seconds("sim.run") * passes * 1e9 / cycles if cycles else 0.0,
        "compiler.lower_s": seconds("compiler.lower"),
        "compiler.lowerings": ledger.calls("compiler.lower") / passes,
        "features.static_s": seconds("features.static"),
        "features.dynamic_s": seconds("features.dynamic"),
        "energy.compute_s": seconds("energy.compute"),
        "dataset.kernel_build_s": seconds("dataset.kernel_build"),
        "dataset.cache_load_s": seconds("dataset.cache_load"),
        "dataset.cache_store_s": seconds("dataset.cache_store"),
        "dataset.cache_hit_ratio":
            ledger.counts.get("cache.hits", 0) / lookups if lookups else 0.0,
        "dataset.save_s": seconds("dataset.save"),
        "dataset.matrix_s": seconds("dataset.matrix"),
        "ml.fit_s": seconds("ml.fit"),
        "ml.fits": ledger.calls("ml.fit") / passes,
        "ml.predict_s": seconds("ml.predict"),
        "ml.tolerance_curve_s": seconds("ml.tolerance_curve"),
        "api.select_s": seconds("api.select"),
        "residual_frac": (program_s - ledger.layer_self_s()) / program_s,
    }


# -- the pass loop -----------------------------------------------------------


def run_passes(count: int, work, check, meter: Meter, ledger=None) -> list:
    """Run ``work()`` *count* times.

    Each pass is bracketed by meter boundaries, and its wall stamps
    cover ``work`` alone; ``check`` (the correctness gate) runs after
    it.  With a *ledger*, each pass is the root span of the traced
    phase.  Returns ``[(begin, end, state, failed)]``.
    """
    passes = []
    for _ in range(count):
        state, (begin, end) = (meter.timed(ledger.call, "phase", work)
                               if ledger else meter.timed(work))
        passes.append((begin, end, state, check(state)))
    return passes


def measure(ctx, meter: Meter, work, check, ops_per_pass: int,
            pass_s: float, patches) -> tuple:
    """The untraced phase, then (with ``ctx.trace``) the traced one.

    A phase of B seconds runs ``round(B / pass_s)`` passes (at least
    one), *pass_s* being the rescaled length of one pass when the
    benchmark was defined: every run, and every commit, does the same
    work, and no pass count depends on how fast the CPU was.

    In both phases the meter places boundaries before the calls the
    traced phase spans; there its reference loops are spans of their
    own, so no layer's self time includes them.  Returns
    ``(plain, traced, layers)``: the passes of each phase and, when
    traced, the layer metrics.
    """
    budget = ctx.seconds / 2 if ctx.trace else ctx.seconds
    count = max(1, round(budget / pass_s))
    with instrument(meter, patches):
        plain = run_passes(count, work, check, meter)
    if not ctx.trace:
        return plain, [], {}
    ledger = Ledger()
    with instrument(ledger, patches + [(common, "reference_loop", "meter")]):
        with instrument(meter, patches):
            traced = run_passes(count, work, check, meter, ledger)
    ctx.save_ledger(ledger)
    spans = [(begin, end) for begin, end, _, _ in traced]
    layers = span_layers(
        ledger, len(traced), meter.factor(spans),
        sum(meter.scaled(b, e, rescale=False) for b, e in spans))
    plain_op, traced_op = (
        sum(meter.scaled(p[0], p[1]) for p in group)
        / (ops_per_pass * len(group)) for group in (plain, traced))
    layers["trace.overhead_frac"] = traced_op / plain_op - 1
    return plain, traced, layers


def _e2e(meter: Meter, setup_s: float, ops: int, plain: list,
         latencies_s: list) -> dict:
    """End-to-end metrics of the untraced passes."""
    busy = sum(meter.scaled(begin, end) for begin, end, _, _ in plain)
    return {"setup_s": setup_s,
            "throughput": ops * len(plain) / busy,
            "latency_p50_us": percentile(latencies_s, 50) * 1e6,
            "latency_p99_us": percentile(latencies_s, 99) * 1e6,
            "rss_peak_mb": peak_rss_mb()}


def campaign_cold(ctx) -> Outcome:
    """Label the ``unit`` grid into an empty SimCache, pass after pass;
    an op is one sample labelled."""
    from repro.dataset.build import build_dataset
    from repro.dataset.registry import all_kernel_specs

    specs = list(all_kernel_specs())
    random.Random(ctx.seed).shuffle(specs)
    golden = golden_counters(ctx.root)
    if ctx.scale is not None:
        specs = specs[:ctx.scale]
        prefixes = tuple(f"{spec.name}_{dtype.value}_" for spec in specs
                         for dtype in spec.dtypes)
        golden = {name: data for name, data in golden.items()
                  if name.startswith(prefixes)}
    n_samples = len(golden)
    meter = Meter()
    setup_s, first_dir = timed_setup(ctx, meter, "repro.dataset.build")
    dirs = [first_dir]

    def work():
        cache_dir = dirs.pop() if dirs else tempfile.mkdtemp(
            prefix="cache-", dir=ctx.work)
        stamps = []  # build_dataset reports before each sample
        build_dataset(PROFILE, cache_dir=cache_dir, specs=specs, jobs=1,
                      progress=lambda _msg: stamps.append(
                          time.perf_counter()))
        stamps.append(time.perf_counter())
        return cache_dir, stamps

    def check(state):
        cache_dir, _ = state
        bad = counter_mismatches(cache_dir, golden)
        shutil.rmtree(cache_dir)
        return bad

    plain, traced, layers = measure(ctx, meter, work, check, n_samples,
                                    CAMPAIGN_PASS_S, campaign_patches())
    sample_s = [meter.scaled(a, b) for _, _, (_, stamps), _ in plain
                for a, b in zip(stamps, stamps[1:])]
    passes = plain + traced
    return Outcome(attempted=n_samples * len(passes),
                   failed=sum(p[3] for p in passes),
                   e2e=_e2e(meter, setup_s, n_samples, plain, sample_s),
                   layers=layers)


def _curves(result) -> dict:
    return {"series": result.series, "opt_features": result.opt_features}


def figure2_warm(ctx) -> Outcome:
    """Rebuild the dataset from the seeded SimCache, then run Figure 2
    (left panel), pass after pass; an op is one CV series and a latency
    is one pass."""
    from repro.dataset.build import build_dataset
    from repro.experiments.figure2 import PANELS, run_figure2

    golden_dir = os.path.join(ctx.root, ".repro_cache")
    with open(os.path.join(golden_dir, GOLDEN_DATASET), "rb") as handle:
        golden_dataset = handle.read()
    seeds = sorted(glob.glob(os.path.join(golden_dir, GOLDEN_GLOB)))
    meter = Meter()
    setup_s, cache_dir = timed_setup(ctx, meter,
                                     "repro.experiments.figure2", seeds)
    n_series = len(PANELS["left"])
    dataset_path = os.path.join(cache_dir, GOLDEN_DATASET)
    # the curves of one seed must never change: the first pass of the
    # first run with this seed records them, every later pass compares
    reference_path = os.path.join(
        ctx.keep, f"figure2-curves-seed{ctx.seed}-r{ctx.scale}.json")
    reference = []
    if os.path.exists(reference_path):
        with open(reference_path) as handle:
            reference.append(json.load(handle))

    def work():
        for stale in glob.glob(os.path.join(cache_dir, "dataset_*.json")):
            os.unlink(stale)  # else build_dataset reloads, not rebuilds
        dataset = build_dataset(PROFILE, cache_dir=cache_dir, jobs=1)
        return run_figure2(dataset, "left", seed=ctx.seed,
                           repeats=ctx.scale)

    def check(result):
        try:
            with open(dataset_path, "rb") as handle:
                rebuilt = handle.read()
        except FileNotFoundError:
            rebuilt = None
        if rebuilt != golden_dataset:
            return n_series
        curves = json.loads(json.dumps(_curves(result)))
        if not reference:
            reference.append(curves)
            with open(reference_path, "w") as handle:
                json.dump(curves, handle)
        return sum(curves["series"][name] != reference[0]["series"][name]
                   or curves["opt_features"].get(name)
                   != reference[0]["opt_features"].get(name)
                   for name in curves["series"])

    plain, traced, layers = measure(ctx, meter, work, check, n_series,
                                    FIGURE2_PASS_S,
                                    campaign_patches() + ml_patches())
    pass_s = [meter.scaled(begin, end) for begin, end, _, _ in plain]
    passes = plain + traced
    return Outcome(attempted=n_series * len(passes),
                   failed=sum(p[3] for p in passes),
                   e2e=_e2e(meter, setup_s, n_series, plain, pass_s),
                   layers=layers)
