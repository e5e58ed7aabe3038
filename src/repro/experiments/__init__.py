"""Experiment drivers regenerating the paper's tables and figures.

Experiment index (checked on the paper profile by tests/test_paper.py,
see README "Reproducing the paper"):

* E1 — Figure 2 left: accuracy vs energy tolerance for static-agg,
  static-opt, dynamic, dynamic-opt and the always-8 baseline;
* E2 — Figure 2 right: static feature-set exploration;
* E3 — Table IV: most relevant dynamic and static features;
* E4 — §IV.B dataset statistics (class balance);
* E7 — headline scalar claims;
* A1/A2 — our ablations (energy model sensitivity, pruning sweep).
"""

from repro.experiments.runner import load_dataset
from repro.experiments.figure2 import Figure2Result, run_figure2
from repro.experiments.table4 import Table4Result, run_table4
from repro.experiments.dataset_stats import DatasetStats, run_dataset_stats
from repro.experiments.headline import HeadlineResult, run_headline

__all__ = [
    "load_dataset",
    "Figure2Result",
    "run_figure2",
    "Table4Result",
    "run_table4",
    "DatasetStats",
    "run_dataset_stats",
    "HeadlineResult",
    "run_headline",
]
