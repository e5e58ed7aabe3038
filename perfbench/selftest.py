"""Tests of the benchmark itself (not collected by the tier-1 suite).

Run from the root of the checkout::

    python3 -m pytest -q perfbench/selftest.py

Each workload runs at smoke size, traced and untraced, and must emit
every metric BENCHMARK.json names with its unit; the correctness gates
must fire on an injected mismatch.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys

import pytest

import campaign
import run as bench
import serving

sys.path.insert(0, os.path.join(bench.ROOT, "src"))

with open(os.path.join(bench.ROOT, "BENCHMARK.json")) as _handle:
    SPEC = json.load(_handle)

#: the smoke size of each workload (see ``Ctx.scale``): campaign_cold
#: labels the first N shuffled kernels, figure2_warm runs N CV repeats.
SMOKE = {"campaign_cold": 2, "figure2_warm": 1, "serve_stream": None,
         "serve_json": None}

#: the layers each workload exercises: non-zero in its traced run.
EXERCISED = {
    "campaign_cold": [
        "sim.run_s", "sim.runs", "sim.simulated_cycles",
        "sim.host_ns_per_cycle", "compiler.lower_s", "compiler.lowerings",
        "features.static_s", "features.dynamic_s", "energy.compute_s",
        "dataset.kernel_build_s", "dataset.cache_load_s",
        "dataset.cache_store_s", "dataset.save_s"],
    "figure2_warm": [
        "dataset.cache_load_s", "dataset.cache_hit_ratio", "ml.fit_s",
        "ml.fits", "ml.predict_s", "ml.tolerance_curve_s",
        "dataset.matrix_s", "api.select_s"],
    "serve_stream": [
        "client.cpu_us_per_op", "client.wait_us", "wire.encode_us",
        "wire.decode_us", "wire.bytes_in_per_row", "wire.bytes_out_per_row",
        "wire.rows_per_stream_frame", "server.cpu_us_per_op",
        "transport.service_us_p50.score.stream",
        "transport.service_us_p50.score.binary-v2",
        "transport.queue_wait_us_p50", "transport.stream_rows_mean"],
    "serve_json": [
        "client.cpu_us_per_op", "client.wait_us", "wire.encode_us",
        "wire.decode_us", "server.cpu_us_per_op",
        "transport.service_us_p50.score.coalesced",
        "transport.service_us_p50.score.json",
        "transport.fast_batch_rows_mean"],
}


def _smoke(workload: str, trace: bool, seed: int = 3):
    return bench.run(workload, seed=seed, seconds=0.5, trace=trace,
                     scale=SMOKE[workload])


@pytest.mark.parametrize("workload", sorted(SMOKE))
def test_every_metric_is_emitted_with_its_unit(workload):
    for trace in (False, True):
        line = bench.result_line(SPEC, _smoke(workload, trace), trace)
        assert line["correct"] and line["failed"] == 0
        assert line["attempted"] > 0
        kind = "per_layer" if trace else "end_to_end"
        assert {name: m["unit"] for name, m in line["metrics"].items()} \
            == {m["name"]: m["unit"] for m in SPEC[kind]}
        values = {name: m["value"] for name, m in line["metrics"].items()}
        if trace:
            assert all(values[name] > 0 for name in EXERCISED[workload])
            assert -1 < values["residual_frac"] < 1
            assert values["trace.overhead_frac"] > -1
        else:
            assert all(value > 0 for value in values.values())


def test_campaign_gate_fires_on_an_altered_golden_counter(monkeypatch):
    from repro.dataset.registry import all_kernel_specs

    specs = list(all_kernel_specs())
    random.Random(3).shuffle(specs)
    first = specs[0]
    real = campaign.golden_counters

    def altered(root):
        golden = real(root)
        name = next(n for n in sorted(golden)
                    if n.startswith(f"{first.name}_{first.dtypes[0].value}_"))
        golden[name] += b" "
        return golden

    monkeypatch.setattr(campaign, "golden_counters", altered)
    outcome = _smoke("campaign_cold", trace=False)
    samples = sum(len(spec.dtypes) for spec in specs[:SMOKE["campaign_cold"]])
    assert outcome.failed == outcome.attempted // samples >= 1


def test_figure2_gate_fires_on_changed_curves():
    seed = 5
    first = _smoke("figure2_warm", trace=False, seed=seed)
    assert first.failed == 0
    path = os.path.join(bench.ROOT, bench.WORK_DIR,
                        f"figure2-curves-seed{seed}-r1.json")
    with open(path) as handle:
        reference = json.load(handle)
    try:
        reference["series"]["dynamic"][0] += 0.5
        with open(path, "w") as handle:
            json.dump(reference, handle)
        assert _smoke("figure2_warm", trace=False, seed=seed).failed == 1
    finally:
        os.unlink(path)


@pytest.mark.parametrize("workload", ["serve_stream", "serve_json"])
def test_serving_gate_fires_on_a_wrong_prediction(monkeypatch, workload):
    real = serving.expected_predictions

    def wrong(model, rows):
        expected = real(model, rows).copy()
        expected[0] = expected[0] % 8 + 1  # another team size
        return expected

    monkeypatch.setattr(serving, "expected_predictions", wrong)
    outcome = _smoke(workload, trace=False)
    assert 0 < outcome.failed < outcome.attempted
    assert not bench.result_line(SPEC, outcome, False)["correct"]


def test_cli_prints_one_result_line():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "serve_json",
         "--seed", "7", "--seconds", "0.5", "--trace", "0"],
        cwd=bench.ROOT, capture_output=True, text=True, timeout=180)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True


def test_cli_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(bench.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.dirname(os.path.abspath(__file__)),
                    tmp_path / "perfbench")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "serve_json",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""
