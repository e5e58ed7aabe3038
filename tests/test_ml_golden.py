"""Golden vectors for the ML half of the paper's artefacts.

The committed unit dataset (112 samples, ``.repro_cache``) is fed
through the Figure 2 panels, Table IV, the headline scalars and a
fitted tree; the result must match ``tests/golden/ml_unit.json`` byte
for byte.  Seed and CV repeat count are passed explicitly, so the
``REPRO_CV_REPEATS`` environment variable cannot change the output.

After an intended change to the ML results, rewrite the golden file
with::

    PYTHONPATH=src python tests/test_ml_golden.py
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.dataset.build import Dataset
from repro.experiments.figure2 import run_figure2
from repro.experiments.headline import run_headline
from repro.experiments.table4 import run_table4
from repro.features.sets import feature_names
from repro.ml import DecisionTreeClassifier

ROOT = Path(__file__).resolve().parent.parent
DATASET = ROOT / ".repro_cache" / "dataset_unit-112-ea0f08eafe.json"
GOLDEN = ROOT / "tests" / "golden" / "ml_unit.json"
SEED = 0
REPEATS = 2


def _panel(result) -> dict:
    return {"series": result.series, "opt_features": result.opt_features}


def compute_artefacts() -> dict:
    """Every golden artefact, as a JSON-safe dict."""
    dataset = Dataset.load(str(DATASET))
    # run_headline computes the Figure 2 left panel and keeps it
    headline = run_headline(dataset, seed=SEED, repeats=REPEATS)
    right = run_figure2(dataset, "right", seed=SEED, repeats=REPEATS)
    table4 = run_table4(dataset, seed=SEED, repeats=REPEATS)
    scalars = {name: value for name, value in vars(headline).items()
               if name != "figure2"}
    y = dataset.labels
    tree = DecisionTreeClassifier(random_state=0).fit(
        dataset.matrix(feature_names("static-all")), y)
    return {
        "figure2_left": _panel(headline.figure2),
        "figure2_right": _panel(right),
        "table4": {"dynamic_rows": table4.dynamic_rows,
                   "static_rows": table4.static_rows},
        "headline": scalars,
        "tree_static_all": tree.to_dict(),
    }


def render(artefacts: dict) -> str:
    return json.dumps(artefacts, sort_keys=True, indent=1) + "\n"


def test_ml_artefacts_match_golden():
    assert render(compute_artefacts()) == GOLDEN.read_text()


def test_committed_tree_payload_loads_and_reserialises():
    """The committed tree payload, written by an earlier version of the
    code, loads, writes itself back unchanged and scores the unit
    dataset exactly as a fresh fit does."""
    golden = json.loads(GOLDEN.read_text())["tree_static_all"]
    loaded = DecisionTreeClassifier.from_dict(golden)
    assert render(loaded.to_dict()) == render(golden)
    dataset = Dataset.load(str(DATASET))
    X = dataset.matrix(feature_names("static-all"))
    fresh = DecisionTreeClassifier(random_state=0).fit(X, dataset.labels)
    assert loaded.predict(X).tobytes() == fresh.predict(X).tobytes()
    assert loaded.predict_proba(X).tobytes() == \
        fresh.predict_proba(X).tobytes()


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(render(compute_artefacts()))
    print(f"wrote {GOLDEN}")
