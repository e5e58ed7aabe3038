"""A1 — energy-model sensitivity ablation (ours).

Re-labels the dataset under Table-I variants; cached simulation counters
are reused, so only the energy integration reruns.  Shows how the label
distribution shifts when leakage/background or active-wait pricing
change — the design choice DESIGN.md calls out.
"""


from repro.experiments.ablation import run_energy_model_ablation
from repro.api.config import active_profile

from benchmarks.conftest import write_artifact


def test_energy_model_ablation(dataset, benchmark):
    profile = active_profile()

    result = benchmark.pedantic(
        run_energy_model_ablation, args=(profile,), rounds=1, iterations=1)
    write_artifact("ablation_energy_model.txt", result.render())

    table1 = result.distributions["table1"]
    zero_leak = result.distributions["zero-leakage"]
    # with no background cost, shortening the runtime stops paying:
    # high-parallelism labels must lose mass
    assert zero_leak.get(8, 0) < table1.get(8, 0)
    # pricier active waits also push away from max parallelism
    nop4 = result.distributions["nop-x4"]
    assert nop4.get(8, 0) <= table1.get(8, 0)
    for dist in result.distributions.values():
        assert sum(dist.values()) == len(dataset)
