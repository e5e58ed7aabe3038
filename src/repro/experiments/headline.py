"""E7 — the paper's headline scalar claims, computed from Figure 2.

* static features reach ~57% at 0% tolerance, static-opt ~61%;
* static-opt approaches ~80% at 5% tolerance and exceeds 85% at 8%;
* the static-vs-dynamic gap stays below 10 points;
* every learned model dominates the always-8 policy.

A thin client twice over: it reads everything off the Figure-2 result,
which itself is computed through :mod:`repro.api`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.dataset.build import Dataset
from repro.experiments.figure2 import Figure2Result, run_figure2


@dataclass
class HeadlineResult:
    static_agg_at_0: float
    static_opt_at_0: float
    static_opt_at_5: float
    static_opt_at_8: float
    dynamic_at_0: float
    max_static_dynamic_gap: float
    learned_beats_always8: bool
    figure2: Figure2Result

    def render(self) -> str:
        return "\n".join([
            "Headline numbers (paper expectation in parentheses)",
            f"  static-agg accuracy @0% tol:  "
            f"{self.static_agg_at_0:6.1%}  (~57%)",
            f"  static-opt accuracy @0% tol:  "
            f"{self.static_opt_at_0:6.1%}  (~61%)",
            f"  static-opt accuracy @5% tol:  "
            f"{self.static_opt_at_5:6.1%}  (~79-80%)",
            f"  static-opt accuracy @8% tol:  "
            f"{self.static_opt_at_8:6.1%}  (>85%)",
            f"  dynamic accuracy    @0% tol:  "
            f"{self.dynamic_at_0:6.1%}",
            f"  max static-dynamic gap:       "
            f"{self.max_static_dynamic_gap:6.1%}  (<10%)",
            f"  learned models beat always-8: "
            f"{self.learned_beats_always8}  (True)",
        ])


def run_headline(dataset: Dataset, repeats: int | None = None,
                 seed: int = 0) -> HeadlineResult:
    fig = run_figure2(dataset, "left", repeats=repeats, seed=seed)
    gaps = [d - s for d, s in zip(fig.series["dynamic"],
                                  fig.series["static-opt"])]
    baseline = fig.series["always-8"]
    beats = all(
        fig.series[name][i] >= baseline[i]
        for name in ("static-agg", "static-opt", "dynamic", "dynamic-opt")
        for i in range(len(baseline))
    )
    return HeadlineResult(
        static_agg_at_0=fig.accuracy_at("static-agg", 0),
        static_opt_at_0=fig.accuracy_at("static-opt", 0),
        static_opt_at_5=fig.accuracy_at("static-opt", 5),
        static_opt_at_8=fig.accuracy_at("static-opt", 8),
        dynamic_at_0=fig.accuracy_at("dynamic", 0),
        max_static_dynamic_gap=max(gaps),
        learned_beats_always8=beats,
        figure2=fig,
    )
