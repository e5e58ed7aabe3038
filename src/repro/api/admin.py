"""Fleet-ops surface: the admin verbs of the scoring protocol.

:class:`AdminClient` owns every admin/ops verb of the scoring protocol
— ``stats``, ``metrics``, ``health``, ``list_models``, ``load_model``,
``evict_model``, ``promote`` and ``drain`` — and answers with the
payload each verb carries on the wire.  The scoring verbs stay on
:class:`repro.api.client.ScoringClient`.

An ``AdminClient`` has two connection modes.  It either *borrows* an
existing ``ScoringClient`` (``AdminClient(client)`` — the caller keeps
ownership and the admin wrapper never closes it, so admin verbs can
share a scoring connection) or *owns* a fresh one
(``AdminClient(socket_path=...)`` / ``AdminClient(tcp=...)`` — closed
by :meth:`close` / the context manager), which is what operational
tooling wants::

    with AdminClient(socket_path="/tmp/repro.sock") as admin:
        admin.health()["status"]       # "serving" | "draining"
        admin.list_models()["models"]  # one dict per resident model
        admin.promote("tree:static-agg")
        admin.drain()                  # graceful shard shutdown

:func:`collect_stats` and :func:`collect_metrics` aggregate the
``stats`` and ``metrics`` verbs across every shard of a deployment.
"""

from __future__ import annotations

from repro.api.client import ScoringClient
from repro.api.daemon import server_stats
from repro.errors import ScoringError
from repro.obs import merge_series

__all__ = [
    "AdminClient",
    "collect_metrics",
    "collect_stats",
]


class AdminClient:
    """The admin/ops surface over one scoring connection.

    Pass an existing :class:`~repro.api.client.ScoringClient` to
    *client* to borrow its connection (the admin wrapper never closes
    a borrowed client), or pass an endpoint (``socket_path`` / ``tcp``)
    to own a dedicated connection, closed by :meth:`close` or the
    context manager.
    """

    def __init__(
        self,
        client: ScoringClient | None = None,
        *,
        socket_path: str | None = None,
        tcp: tuple | None = None,
        timeout: float = 30.0,
        reconnect_retries: int = 1,
    ) -> None:
        if client is not None:
            if socket_path is not None or tcp is not None:
                raise ScoringError(
                    "pass either an existing client to borrow or an "
                    "endpoint to own, not both")
            self.client = client
            self._owned = False
            return
        self.client = ScoringClient(
            socket_path=socket_path, tcp=tcp, timeout=timeout,
            reconnect_retries=reconnect_retries)
        self._owned = True

    # -- introspection verbs -----------------------------------------------

    def stats(self) -> dict:
        """The server's stats tree (the ``{"cmd": "stats"}`` verb).

        Carries a ``server`` section (transport counters — requests,
        connections, event-loop coalesced batch sizes, per-codec
        subsection), a ``fleet`` section against fleet daemons (pool
        hits/evictions, batching) and a ``shard`` section against
        sharded daemons (see :func:`collect_stats` for the fleet-wide
        aggregate).
        """
        return dict(self.client.request({"cmd": "stats"})["stats"])

    def metrics(self) -> dict:
        """One server's telemetry snapshot (the ``metrics`` verb).

        The payload carries ``enabled`` (always true), the registry
        snapshot's ``series`` list and the tracer's ``trace`` summary;
        see :func:`collect_metrics` for the fleet-wide merge.
        """
        return dict(self.client.request({"cmd": "metrics"})["metrics"])

    def health(self) -> dict:
        """One liveness/drain probe (the ``{"cmd": "health"}`` verb).

        The payload carries ``status`` (``"serving"`` or
        ``"draining"``), ``pid`` and ``draining``, plus a ``shard``
        section on a shard of a sharded deployment.  Unlike ``stats``
        this verb is answered even mid-drain, so the supervisor can
        watch a draining shard finish.
        """
        return dict(self.client.request({"cmd": "health"})["health"])

    def list_models(self) -> dict:
        """The fleet's resident set: ``{"models": rows, "stats": pool}``.

        *rows* are :meth:`repro.api.fleet.ModelPool.entries`, least
        recently used first; *pool* is the pool's stats section.
        Requires a fleet daemon; a single-model daemon answers
        ``bad_request`` (raised as :class:`ScoringError`).
        """
        response = self.client.request({"cmd": "list_models"})
        return {"models": response["models"], "stats": response.get("stats", {})}

    # -- model management verbs --------------------------------------------

    def load_model(self, model: str) -> str:
        """Warm-load one model key into the fleet; returns the full spec."""
        response = self.client.request(
            {"cmd": "load_model", "model": str(model)})
        return str(response["model"])

    def evict_model(self, model: str) -> bool:
        """Evict one model key; ``False`` when it was not resident."""
        response = self.client.request(
            {"cmd": "evict_model", "model": str(model)})
        return bool(response["evicted"])

    def promote(self, model: str) -> str:
        """Make an already-resident key the fleet's pinned default.

        Returns the promoted full spec.  The key must be resident
        (warm it with :meth:`load_model` first) — promotion must never
        block scoring traffic behind an artifact load, so a cold key
        answers ``unknown_model``.
        """
        response = self.client.request(
            {"cmd": "promote", "model": str(model)})
        return str(response["model"])

    # -- lifecycle verbs ----------------------------------------------------

    def drain(self) -> bool:
        """Ask the server to drain: finish in-flight work, then stop.

        The ack is synchronous with the refusal of new scoring
        requests, so once this returns the server sends no fresh work
        to its old connections.  Returns ``True`` when this call
        started the drain (``False``: one was already running).  The
        underlying connection is dropped after the ack — a draining
        server waits for its connections to empty, so holding ours
        open would pin the drain until its grace deadline.
        """
        response = self.client.request({"cmd": "drain"})
        self.client.disconnect()
        return bool(response.get("started"))

    # -- lifecycle ----------------------------------------------------------

    def close(self) -> None:
        """Close the connection if this admin client owns it."""
        if self._owned:
            self.client.close()

    def __enter__(self) -> "AdminClient":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


def _fan_out(base_path: str, timeout: float, verb) -> tuple:
    """Run ``verb(admin)`` on one :class:`AdminClient` per shard.

    *base_path* is the unix endpoint clients connect to.  When it
    holds a shard registry (see :mod:`repro.api.shard`), every
    registered shard is queried directly — the registry rotation would
    otherwise only ever show one shard per connection; a plain daemon
    socket is queried as a single "deployment of one".

    Returns ``(rows, live)``.  *rows* has one dict per shard in
    registry order: the verb's payload, or for a dead or malformed
    shard ``{"shard": {...}, "error": str}`` plus a ``"code"`` field
    when the failure carried a typed :class:`~repro.errors.ScoringError`
    code.  *live* lists ``(shard, payload)`` for the answering shards,
    where *shard* is ``{"index", "path"}`` and *payload* is the same
    object as its row.  A shard dying between the registry read and the
    connect is an expected race, not a reason to lose the answers of
    the survivors.
    """
    from repro.api.shard import read_registry

    registry = read_registry(base_path)
    if registry is None:
        endpoints = [(None, base_path)]
    else:
        endpoints = [(s.get("index"), s.get("path")) for s in registry]
    rows: list = []
    live: list = []
    for index, path in endpoints:
        shard = {"index": index, "path": path}
        if not isinstance(path, str) or not path:
            rows.append({"shard": shard, "error": "registry row has no usable 'path'"})
            continue
        try:
            with AdminClient(socket_path=path, timeout=timeout) as admin:
                payload = verb(admin)
        except Exception as exc:  # dead shard: report, do not fail
            row = {"shard": shard, "error": str(exc)}
            if isinstance(exc, ScoringError) and exc.code is not None:
                row["code"] = exc.code
            rows.append(row)
            continue
        rows.append(payload)
        live.append((shard, payload))
    return rows, live


def collect_stats(base_path: str, timeout: float = 10.0) -> dict:
    """Aggregate the ``stats`` verb across every shard of a deployment.

    Returns ``{"shards", "requests_served", "connections_served",
    "active_connections", "codec"}``: *shards* has one row per shard
    (see :func:`_fan_out`; a dead or malformed shard is an error row
    rather than a failed collection), the counters are fleet-wide sums
    and *codec* is the merged per-codec section (``None`` when no shard
    answered).  Each live shard answers ``metrics`` and then ``stats``
    on one connection; the totals are
    :func:`repro.api.daemon.server_stats` of the
    :func:`repro.obs.merge_series` of the metrics snapshots, the merge
    :func:`collect_metrics` uses, and ``offered`` is the union of the
    shards' offered codecs.
    """
    snapshots: list = []

    def probe(admin: AdminClient) -> dict:
        series = admin.metrics()["series"]
        payload = admin.stats()
        snapshots.append({"series": series})
        return payload

    rows, live = _fan_out(base_path, timeout, probe)
    offered: list = []
    for shard, payload in live:
        if shard["index"] is not None:
            payload.setdefault("shard", {"index": shard["index"]})
        server = payload.get("server")
        codec = server.get("codec") if isinstance(server, dict) else None
        if isinstance(codec, dict):
            offered += [n for n in codec.get("offered", []) if n not in offered]
    totals = server_stats(merge_series(snapshots))
    return {
        "shards": rows,
        "requests_served": totals["requests_served"],
        "connections_served": totals["connections_served"],
        "active_connections": totals["active_connections"],
        "codec": {"offered": offered, **totals["codec"]} if live else None,
    }


def collect_metrics(base_path: str, timeout: float = 10.0) -> dict:
    """Merge the ``metrics`` verb across every shard of a deployment.

    Returns ``{"series": merged, "shards": rows}``.  Mirrors
    :func:`collect_stats` (both fan out through :func:`_fan_out`, so
    *rows* are alike), and merges the surviving snapshots
    **bucket-wise** with :func:`repro.obs.merge_series` — adding
    histogram bucket counts preserves exact fleet-wide percentiles,
    where averaging per-shard percentiles would fabricate them.
    """
    rows, live = _fan_out(base_path, timeout, AdminClient.metrics)
    snapshots: list = []
    for shard, payload in live:
        payload.setdefault("shard", shard)
        if payload.get("series"):
            snapshots.append({"series": payload["series"]})
    return {"series": merge_series(snapshots), "shards": rows}
