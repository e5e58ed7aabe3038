"""Shared experiment plumbing: dataset loading and evaluation defaults.

The evaluation protocol follows §IV.B: stratified 10-fold CV; the paper
repeats it 100 times — our default is 10 repeats (set
``REPRO_CV_REPEATS=100`` to match exactly; curves move by well under a
point beyond ~10 repeats).  The configuration readers
(``REPRO_PROFILE`` / ``REPRO_CV_REPEATS`` / ``REPRO_JOBS``) live in
:mod:`repro.api.config`.
"""

from __future__ import annotations

from repro.api.config import active_profile
from repro.dataset.build import Dataset, build_dataset


def load_dataset(profile: str | None = None) -> Dataset:
    """Build or reload the dataset for the active profile."""
    return build_dataset(profile or active_profile())
