"""What belongs to one shard: the registry format, scorer factories, main.

A sharded deployment (:class:`repro.api.supervisor.ShardSupervisor`,
``repro serve --socket PATH --shards N``) runs N scoring daemons, one
per process.  Shard *i* listens at ``PATH.<i>`` and ``PATH`` itself
holds the **shard registry**: a small JSON file with the shard socket
paths and PIDs plus a refresh epoch.  :class:`repro.api.ScoringClient`
recognizes the registry, picks a shard (rotating across connections)
and re-reads it on reconnect, so a request retried after a shard crash
lands on a live shard.

Shard processes are forked before they serve anything, so each child
starts clean; the scorer is built inside the child by a picklable
*factory* callable (:func:`classifier_factory` /
:func:`fleet_factory`), which also keeps spawn-based platforms
working.  Each shard daemon carries a ``shard`` stats section
(``{"index": i, "pid": ...}``) so the ``{"cmd": "stats"}`` verb
reports per-shard request counts.
"""

from __future__ import annotations

import json
import os
import signal
import tempfile
import threading

from repro.api.daemon import ScoringDaemon
from repro.api.fleet import ModelFleet
from repro.obs import get_logger

#: registry format marker (bumped on incompatible layout changes).
REGISTRY_VERSION = 1


def shard_socket_path(base: str, index: int) -> str:
    """Where shard *index* of a unix-socket deployment listens."""
    return f"{base}.{index}"


def write_registry(path: str, shards: list, epoch: int = 0) -> None:
    """Atomically write the shard registry file at *path*.

    *epoch* counts registry refreshes (respawns, deregistrations) so
    observers can tell "the fleet changed under me" apart from "I read
    the same snapshot twice" without diffing rows.
    """
    payload = {
        "repro_shards": REGISTRY_VERSION,
        "base": path,
        "epoch": int(epoch),
        "shards": shards,
    }
    directory = os.path.dirname(os.path.abspath(path))
    fd, staging = tempfile.mkstemp(prefix=".shards-", dir=directory)
    try:
        with os.fdopen(fd, "w") as handle:
            json.dump(payload, handle, indent=2)
            handle.write("\n")
        os.replace(staging, path)
    except BaseException:
        try:
            os.unlink(staging)
        except OSError:
            pass
        raise


def _load_registry(path: str) -> dict | None:
    """The registry document at *path*; ``None`` unless well-formed."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except (OSError, ValueError, UnicodeDecodeError):
        return None
    if (not isinstance(payload, dict)
            or payload.get("repro_shards") != REGISTRY_VERSION):
        return None
    return payload


def read_registry(path: str) -> list | None:
    """The shard rows of the registry at *path*, or ``None``.

    ``None`` means "not a shard registry": the path is missing, is a
    socket, or holds anything but a well-formed registry document —
    callers fall back to treating the path as a plain socket.  Never
    raises on malformed input.
    """
    payload = _load_registry(path)
    if payload is None:
        return None
    shards = payload.get("shards")
    if not isinstance(shards, list) or not shards:
        return None
    rows = [s for s in shards if isinstance(s, dict) and s.get("path")]
    return rows or None


def registry_epoch(path: str) -> int | None:
    """The refresh epoch of the registry at *path*, or ``None``.

    ``None`` means the path does not hold a well-formed registry;
    registries written before epochs read as ``0``.
    """
    payload = _load_registry(path)
    if payload is None:
        return None
    epoch = payload.get("epoch")
    return epoch if isinstance(epoch, int) else 0


# -- picklable scorer factories (run inside the shard process) -------------


def classifier_factory(artifact_path: str):
    """A factory loading one saved model artifact (single-model shards)."""
    from repro.api.classifier import Classifier

    return Classifier.load(artifact_path)


def fleet_factory(
    model_path: str | None = None,
    profile: str = "paper",
    models: tuple = (),
    preload: bool = False,
    memory_budget_bytes: int | None = None,
    max_models: int | None = None,
    default=None,
    on_preload=None,
):
    """Build the serving fleet ``repro serve`` deploys.

    The default model is *default* (an already-fitted classifier —
    the un-sharded CLI passes the one it just loaded), or is built
    here from *model_path* (a saved artifact) / the artifact cache's
    static-all tree for *profile*, training on a miss.  Extra
    *models* specs are warm pre-loaded (*on_preload* is called per
    loaded key, for progress reporting).  Both serve paths assemble
    through this one function: the CLI calls it inline for a
    single-process fleet, and
    :class:`~repro.api.supervisor.ShardSupervisor` runs it (picklable,
    built-in defaults) inside every shard process so each shard owns
    its own pool and event loop.
    """
    from repro.api.artifact_cache import load_or_train
    from repro.api.classifier import Classifier
    from repro.api.config import ReproConfig
    from repro.api.fleet import ModelPool, cache_loader

    if default is None:
        if model_path:
            default = Classifier.load(model_path)
        else:
            config = ReproConfig(profile=profile)
            default, _ = load_or_train(config)
    pool = ModelPool(loader=cache_loader(train_on_miss=preload),
                     memory_budget_bytes=memory_budget_bytes,
                     max_models=max_models,
                     default_tag=profile)
    fleet = ModelFleet(pool, default=default)
    if models:
        keys = pool.preload([s for s in models if str(s).strip()])
        if on_preload is not None:
            for key in keys:
                on_preload(key)
    return fleet


def _shard_main(factory, path, index, ready, options) -> None:
    """One shard process: build the scorer, serve until SIGTERM.

    *options* are the :class:`ScoringDaemon` keyword arguments every
    shard of the deployment shares (workers, codecs, max_batch).
    """
    stop = threading.Event()

    def request_stop(signum, frame) -> None:
        stop.set()

    signal.signal(signal.SIGTERM, request_stop)
    signal.signal(signal.SIGINT, request_stop)
    scorer = factory()
    kwargs: dict = {}
    if isinstance(scorer, ModelFleet):
        kwargs["fleet"] = scorer
    else:
        kwargs["classifier"] = scorer
    daemon = ScoringDaemon(
        socket_path=path,
        stats_extra={"shard": {"index": index, "pid": os.getpid()}},
        **options,
        **kwargs,
    )
    # a {"cmd": "drain"} verb finishes in-flight work, stops the daemon
    # and then fires this hook: flip the same flag SIGTERM uses so the
    # shard process exits cleanly and its supervisor can retire or
    # replace it
    daemon.on_drained = stop.set
    daemon.start()
    ready.send(True)
    log = get_logger("shard", shard=index)
    log.info("serving", endpoint=path, workers=options["workers"])
    try:
        # a plain flag + timed wait is robust to signal delivery
        # semantics across platforms (handlers only set the flag)
        while not stop.wait(0.2):
            pass
    finally:
        daemon.stop()
        log.info("exit")
