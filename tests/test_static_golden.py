"""Byte-identity gates for the static features and the unit dataset.

* The unit dataset, rebuilt from the committed ``.repro_cache`` counters
  (they bypass the simulator, so only the static and dynamic extractors,
  the energy model and the labelling run), must equal the committed
  dataset JSON byte for byte.
* The ``static-all`` vectors of every registry kernel at 2048 B, the
  size the JSON scoring workload sends, must hash to the digest in
  ``tests/golden/static_all_2048.sha256``.  The counter files pin only
  512 B, so this is the one check of the static features above it.

After an intended change to the static features, rewrite the digest
with::

    PYTHONPATH=src python tests/test_static_golden.py
"""

from __future__ import annotations

import hashlib
import shutil
from pathlib import Path

from repro.api.classifier import kernel_features
from repro.dataset.build import build_dataset
from repro.dataset.registry import all_kernel_specs
from repro.dataset.spec import enumerate_samples
from repro.features.sets import feature_names

ROOT = Path(__file__).resolve().parent.parent
CACHE = ROOT / ".repro_cache"
DATASET = "dataset_unit-112-ea0f08eafe.json"
DIGEST = ROOT / "tests" / "golden" / "static_all_2048.sha256"
DIGEST_SIZE = 2048


def static_digest(size: int) -> str:
    """sha256 over every registry sample's ``static-all`` vector at
    *size*, one ``sample_id hex hex ...`` line per sample."""
    names = feature_names("static-all")
    lines = []
    for spec in enumerate_samples(all_kernel_specs(), (size,)):
        vector = kernel_features(spec.build(), names)
        lines.append(" ".join([spec.sample_id,
                               *(float(v).hex() for v in vector)]))
    return hashlib.sha256(("\n".join(lines) + "\n").encode()).hexdigest()


def test_static_all_2048_matches_digest():
    assert static_digest(DIGEST_SIZE) == DIGEST.read_text().split()[0]


def test_unit_dataset_rebuilds_byte_identical(tmp_path):
    for path in CACHE.glob("*_512-*.json"):
        shutil.copy(path, tmp_path)
    build_dataset("unit", cache_dir=str(tmp_path), jobs=1)
    assert ((tmp_path / DATASET).read_bytes()
            == (CACHE / DATASET).read_bytes())


if __name__ == "__main__":
    DIGEST.write_text(f"{static_digest(DIGEST_SIZE)}  static-all "
                      f"@ {DIGEST_SIZE} B\n")
    print(f"wrote {DIGEST}")
