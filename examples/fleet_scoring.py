"""Serve a fleet of model variants from one daemon, route per request.

Run with::

    python examples/fleet_scoring.py

This is the multi-model deployment shape of :mod:`repro.api.fleet`:
train several model/feature-set variants once (all artifact-cached),
host them in one :class:`repro.api.ModelPool` behind a single
:class:`repro.api.ScoringDaemon`, and let each request pick its
variant with the ``model`` field — the paper's decision tree on its
full static feature set by default, or a tree on one of the narrower
static sets.  Admin verbs manage the resident set
over the wire, and concurrent single-row requests are transparently
coalesced into batched predictions by the daemon's event loop.
"""

from __future__ import annotations

import os
import shutil
import tempfile

from repro.api import (
    AdminClient,
    Classifier,
    ModelFleet,
    ModelPool,
    ReproConfig,
    ScoringClient,
    ScoringDaemon,
)
from repro.dataset.build import build_dataset
from repro.dataset.registry import get_kernel_spec
from repro.errors import ScoringError

TRAIN_KERNELS = ("gemm", "atax", "fir", "stream_triad")
VARIANTS = (
    ("tree", "static-all", {}),             # the paper's model
    ("tree", "static-agg", {}),             # coarser features
    ("tree", "static-raw", {}),             # raw instruction counts
)


def main() -> None:
    workdir = tempfile.mkdtemp(prefix="fleet_example_")
    try:
        # -- train the variants once -----------------------------------
        specs = [get_kernel_spec(name) for name in TRAIN_KERNELS]
        dataset = build_dataset(
            "unit", specs=specs,
            cache_dir=os.path.join(workdir, "sim_cache"))
        trained = {}
        for family, feature_set, params in VARIANTS:
            clf = Classifier(ReproConfig(
                profile="unit", model=family, feature_set=feature_set,
                model_params=params)).train(dataset)
            trained[f"{family}:{feature_set}:unit"] = clf
        default_spec = "tree:static-all:unit"

        # -- pool them behind one daemon -------------------------------
        pool = ModelPool(loader=lambda key: trained[key.spec],
                         default_tag="unit", max_models=8)
        fleet = ModelFleet(pool, default=trained.pop(default_spec))
        for spec in list(trained):
            pool.add(trained[spec], key=spec)

        socket_path = os.path.join(workdir, "repro.sock")
        with ScoringDaemon(fleet=fleet, socket_path=socket_path,
                           workers=4, max_batch=32):
            with ScoringClient(socket_path=socket_path) as client:
                admin = AdminClient(client)
                listing = admin.list_models()
                print(f"fleet serves {len(listing)} models "
                      f"on {socket_path}:")
                for entry in listing:
                    marker = " (default)" if entry.default else ""
                    print(f"  {entry.model:<28}"
                          f"{entry.size_bytes:>8} B{marker}")

                print("\nkernel      default  tree:agg  tree:raw")
                for name in ("trisolv", "histogram", "jacobi-1d"):
                    row = [client.predict_kernel(name, size=1024)]
                    for spec in ("tree:static-agg", "tree:static-raw"):
                        row.append(client.predict_kernel(
                            name, size=1024, model=spec))
                    print(f"{name:<12}{row[0]:^7}{row[1]:^10}{row[2]:^10}")

                # -- admin: evict, then transparently reload -----------
                admin.evict_model("tree:static-raw")
                cores = client.predict_kernel("trisolv", size=1024,
                                              model="tree:static-raw")
                print(f"\ntree:static-raw evicted and transparently "
                      f"reloaded on next use (trisolv -> {cores} cores)")

                try:
                    client.predict_kernel("gemm", model="svm:static-all")
                except ScoringError as exc:
                    print(f"unknown variant answers a typed frame: "
                          f"code={exc.code!r}")
        print("\ndaemon stopped cleanly; socket unlinked")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    main()
