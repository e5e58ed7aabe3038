"""Multi-model serving fleet: pool + router.

The serving subsystem that turns the single-model scoring daemon into
a model fleet (see ``ISSUE 4`` / the ROADMAP's sharded-serving item):

* :class:`ModelPool` — many resident artifacts keyed by
  :class:`ModelKey` *(family, feature set, dataset tag)*, warm
  pre-loading, LRU eviction under a memory budget, lazy cold loads;
* :class:`ModelFleet` — the protocol router: ``"model"`` request
  field, ``list_models`` / ``load_model`` / ``evict_model`` admin
  verbs, typed ``unknown_model`` error frames.

Concurrent single-row requests are coalesced into ``predict_batch``
calls by the daemon's event loop (see
:class:`repro.api.daemon.ScoringDaemon`), not by the fleet.

Wiring it behind a socket::

    pool = ModelPool(memory_budget_bytes=64 << 20)
    fleet = ModelFleet(pool, default=classifier)
    ScoringDaemon(fleet=fleet, socket_path="/tmp/repro.sock").start()
"""

from repro.api.fleet.pool import ModelKey, ModelPool, cache_loader
from repro.api.fleet.router import ModelFleet

__all__ = [
    "ModelKey",
    "ModelPool",
    "ModelFleet",
    "cache_loader",
]
