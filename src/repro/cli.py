"""Command-line interface.

Examples::

    repro build-dataset --profile paper
    repro build-dataset --profile quick --jobs 4
    repro dataset-stats
    repro figure2 --panel left
    repro table4
    repro headline
    repro simulate gemm --dtype fp32 --size 2048
    repro mca gemm --dtype fp32 --size 2048

    repro train --features static-all --model tree -o model.json
    repro predict gemm --model model.json --dtype fp32 --size 2048
    repro serve --model model.json < requests.jsonl
    repro serve --model model.json --socket /tmp/repro.sock --workers 8
    repro serve --model model.json --tcp 127.0.0.1:7878
    repro serve --socket /tmp/repro.sock \\
        --models tree:static-agg,tree:static-raw --preload \\
        --max-batch 64 --memory-budget-mb 64
    repro serve --socket /tmp/repro.sock --shards 4

    repro fleet stats --socket /tmp/repro.sock
    repro fleet metrics --prom --socket /tmp/repro.sock
    repro fleet health --socket /tmp/repro.sock --shard 0
    repro fleet models --socket /tmp/repro.sock
    repro fleet load tree:static-agg --socket /tmp/repro.sock
    repro fleet promote tree:static-agg --socket /tmp/repro.sock
    repro fleet drain --socket /tmp/repro.sock --shard 2
    repro fleet restart --socket /tmp/repro.sock

    repro lint src tests scripts
    repro lint --select RPL001,RPL005 --format json

``--jobs N`` (or ``REPRO_JOBS=N``) runs the labelling campaign on N
worker processes; ``--jobs 0`` uses every CPU.  The on-disk simulation
cache is shared safely between workers (atomic, collision-free writes)
and the assembled dataset is identical for any worker count.

``train`` / ``predict`` / ``serve`` are thin clients of
:mod:`repro.api`: ``train`` fits the configured model family once and
writes a JSON artifact (skipping the fit entirely when the artifact
cache already holds an up-to-date model — ``--force`` overrides),
``predict`` scores a kernel against it, and ``serve`` answers
JSON-lines scoring requests on stdin/stdout, or — with ``--socket
PATH`` / ``--tcp HOST:PORT`` — as a persistent daemon serving many
concurrent clients (see :mod:`repro.api.fleet.router` and
:mod:`repro.api.daemon` for the protocol).  The daemon is a **model
fleet** (:mod:`repro.api.fleet`): requests pick a resident model with
a ``"model"`` key, ``--models``/``--preload`` warm-load extra variants
at startup, ``--memory-budget-mb``/``--max-models`` bound the resident
set with LRU eviction, and ``--max-batch`` bounds the micro-batching
that coalesces concurrent single-row requests into batched
predictions.  ``--socket PATH --shards N`` scales the daemon to N
processes behind one unix endpoint (a shard registry at PATH — see
:mod:`repro.api.shard`) owned by a :class:`repro.api.ShardSupervisor`:
crashed shards are respawned (registry refreshed), drained shards hand
their traffic to siblings, and ``repro fleet restart`` composes the
two into a rolling restart.  ``repro fleet`` is the operator surface
over the typed :class:`repro.api.AdminClient` — stats/health/model
listing, warm loads, eviction, default promotion and graceful drains
against a running deployment.  ``repro lint`` hands its arguments,
unparsed, to :func:`repro.analysis.main` (``python -m repro.analysis``),
the one parser of the lint options.
"""

from __future__ import annotations

import argparse
import sys

from repro.api import (
    Classifier,
    ReproConfig,
    ScoringDaemon,
    active_profile,
    artifact_path,
    fleet_factory,
    load_or_train,
    parse_tcp_endpoint,
    serve,
)
from repro.api.daemon import (DEFAULT_MAX_BATCH, DEFAULT_WORKERS,
                              stop_on_signals, wait_for_stop)
from repro.api.wire import CODEC_JSON
from repro.api.registry import (
    available_feature_sets,
    available_model_families,
)
from repro.dataset.build import build_dataset
from repro.dataset.registry import all_kernel_specs, get_kernel_spec
from repro.energy.model import EnergyModel
from repro.energy.report import format_breakdown, format_model_table
from repro.experiments.dataset_stats import run_dataset_stats
from repro.experiments.figure2 import run_figure2
from repro.experiments.headline import run_headline
from repro.experiments.table4 import run_table4
from repro.features.mca import mca_report
from repro.ir.types import parse_dtype
from repro.sim.results import minimum_energy_label, sweep_cores
from repro.version import CODE_VERSION, __version__


def _add_dataset_opts(parser: argparse.ArgumentParser) -> None:
    """Accept --profile/--jobs after the subcommand as well as before.

    SUPPRESS keeps an omitted subcommand-position option from
    clobbering a value parsed from the main-parser position.
    """
    parser.add_argument("--profile", default=argparse.SUPPRESS,
                        help="dataset profile: paper, quick or unit")
    parser.add_argument("--jobs", type=int, default=argparse.SUPPRESS,
                        help="worker processes; 0 means one per CPU")


def _add_kernel_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("kernel", help="kernel name (see list-kernels)")
    parser.add_argument("--dtype", default="int32",
                        help="int32 or fp32 (default int32)")
    parser.add_argument("--size", type=int, default=2048,
                        help="payload bytes (default 2048)")


def _build_kernel(args):
    spec = get_kernel_spec(args.kernel)
    return spec.build(parse_dtype(args.dtype), args.size)


def _load_or_train(args, profile: str, progress) -> Classifier:
    """The classifier behind ``predict`` / ``serve``: a saved artifact
    when ``--model`` is given, otherwise the artifact cache (which
    trains the default static-all tree on a miss and reuses it
    afterwards)."""
    if args.model:
        return Classifier.load(args.model)
    config = ReproConfig(profile=profile, jobs=args.jobs)
    print(f"no --model artifact given; consulting the artifact cache "
          f"(profile {profile!r}, {config.model}:"
          f"{config.feature_set})...", file=sys.stderr)
    clf, hit = load_or_train(config, progress=progress)
    print("artifact cache hit" if hit else
          f"trained and cached {artifact_path(config)}", file=sys.stderr)
    return clf


def _serve_codecs(args) -> tuple | None:
    """``--codec`` to the daemon's offered-codec tuple (None = default)."""
    if getattr(args, "codec", "auto") == "json":
        return (CODEC_JSON,)
    return None


def _serve_sharded(args, profile: str, progress) -> int:
    """``repro serve --socket PATH --shards N``: a supervised fleet.

    The parent warms the artifact cache once (default model plus any
    ``--models`` specs when ``--preload`` is set) so the N shard
    processes all load from disk instead of racing N training
    campaigns, then hands off to :class:`repro.api.ShardSupervisor`
    and blocks until SIGINT or SIGTERM.
    """
    import functools

    from repro.api.fleet.pool import ModelKey
    from repro.api.supervisor import ShardSupervisor

    specs = tuple(s.strip() for s in (args.models or "").split(",")
                  if s.strip())
    if not args.model:
        _load_or_train(args, profile, progress)  # warm the cache once
    if args.preload:
        for spec in specs:
            key = ModelKey.parse(spec, default_tag=profile)
            config = ReproConfig(profile=key.dataset_tag,
                                 model=key.family,
                                 feature_set=key.feature_set)
            _, hit = load_or_train(config, progress=progress)
            print(f"{'cached' if hit else 'trained'} shard model "
                  f"{key.spec}", file=sys.stderr)
    budget = (int(args.memory_budget_mb * 1024 * 1024)
              if args.memory_budget_mb else None)
    factory = functools.partial(
        fleet_factory,
        model_path=args.model,
        profile=profile,
        models=specs,
        preload=args.preload,
        memory_budget_bytes=budget,
        max_models=args.max_models,
    )
    supervisor = ShardSupervisor(factory, shards=args.shards,
                                 socket_path=args.socket,
                                 workers=args.workers,
                                 codecs=_serve_codecs(args),
                                 max_batch=args.max_batch)
    stop = stop_on_signals()
    supervisor.start()
    print(f"supervised scoring fleet: {args.shards} shard(s) behind unix "
          f"{args.socket} (pids {', '.join(map(str, supervisor.pids))}); "
          f"crashed shards respawn, 'repro fleet drain/restart' operate "
          f"it, Ctrl-C or SIGTERM stops cleanly", file=sys.stderr)
    try:
        wait_for_stop(stop)
    finally:
        supervisor.stop()
        print(f"stopped {args.shards} shard(s) cleanly", file=sys.stderr)
    return 0


def _fleet_endpoint(args) -> dict:
    """The AdminClient endpoint behind ``repro fleet`` options."""
    if args.socket:
        path = args.socket
        if getattr(args, "shard", None) is not None:
            from repro.api.shard import shard_socket_path

            path = shard_socket_path(path, args.shard)
        return {"socket_path": path}
    return {"tcp": parse_tcp_endpoint(args.tcp)}


def _fleet_rolling_restart(base: str, timeout: float) -> int:
    """``repro fleet restart``: drain shards one at a time, letting the
    serve process's supervisor respawn each before the next goes.

    Works entirely over the wire: the drain verb retires the shard and
    the ``repro serve --shards N`` supervisor respawns it (new pid,
    bumped registry epoch); this loop just sequences the drains and
    waits for each replacement to answer its health probe, so the
    fleet never drops below N-1 serving shards.
    """
    import time

    from repro.api.admin import AdminClient
    from repro.api.shard import read_registry
    from repro.errors import ScoringError

    rows = read_registry(base)
    if rows is None:
        print("fleet restart needs a unix-socket shard registry "
              "endpoint (serve --socket PATH --shards N)",
              file=sys.stderr)
        return 2
    for row in sorted(rows, key=lambda r: r.get("index") or 0):
        index, old_pid = row.get("index"), row.get("pid")
        try:
            with AdminClient(socket_path=row["path"],
                             timeout=timeout) as admin:
                admin.drain()
        except ScoringError as exc:
            print(f"shard {index}: drain failed ({exc}); assuming it "
                  f"is already down", file=sys.stderr)
        deadline = time.monotonic() + max(timeout, 60.0)
        replacement = None
        while time.monotonic() < deadline:
            fresh = read_registry(base) or []
            match = next((r for r in fresh if r.get("index") == index),
                         None)
            if match is not None and match.get("pid") != old_pid:
                try:
                    with AdminClient(socket_path=match["path"],
                                     timeout=timeout) as admin:
                        if admin.health().serving:
                            replacement = match
                            break
                except ScoringError:
                    pass  # still coming up
            time.sleep(0.2)
        if replacement is None:
            print(f"shard {index} was not respawned in time; is the "
                  f"deployment a 'serve --shards N' fleet?",
                  file=sys.stderr)
            return 1
        print(f"shard {index}: pid {old_pid} -> {replacement['pid']}")
    print("rolling restart complete")
    return 0


def _fleet_command(args) -> int:
    """The ``repro fleet`` operator verbs over the typed admin API."""
    import json as _json

    from repro.api.admin import AdminClient
    from repro.api.admin import collect_metrics as collect_fleet_metrics
    from repro.api.admin import collect_stats as collect_fleet_stats
    from repro.obs import render_prometheus

    if (args.socket is None) == (args.tcp is None):
        print("fleet: configure exactly one endpoint (--socket PATH "
              "or --tcp HOST:PORT)", file=sys.stderr)
        return 2
    if args.verb == "restart":
        if not args.socket:
            print("fleet restart needs --socket (a shard registry)",
                  file=sys.stderr)
            return 2
        return _fleet_rolling_restart(args.socket, args.timeout)
    if (args.verb == "stats" and args.socket
            and getattr(args, "shard", None) is None):
        # fleet-wide aggregation across every registered shard
        stats = collect_fleet_stats(args.socket, timeout=args.timeout)
        print(_json.dumps(stats.as_dict(), indent=2))
        return 0
    if (args.verb == "metrics" and args.socket
            and getattr(args, "shard", None) is None):
        # bucket-wise merge across every registered shard: adding
        # histogram counts keeps fleet percentiles exact
        merged = collect_fleet_metrics(args.socket, timeout=args.timeout)
        if args.prom:
            sys.stdout.write(render_prometheus(list(merged.series)))
        else:
            print(_json.dumps(merged.as_dict(), indent=2))
        return 0
    with AdminClient(timeout=args.timeout, **_fleet_endpoint(args)) as admin:
        if args.verb == "stats":
            print(_json.dumps(admin.stats(), indent=2))
        elif args.verb == "metrics":
            payload = admin.metrics()
            if args.prom:
                sys.stdout.write(
                    render_prometheus(payload.get("series") or []))
            else:
                print(_json.dumps(payload, indent=2))
        elif args.verb == "health":
            health = admin.health()
            where = "" if health.index is None else f" shard {health.index}"
            print(f"{health.status}{where} (pid {health.pid})")
            return 0 if health.serving else 1
        elif args.verb == "models":
            listing = admin.list_models()
            for info in listing.models:
                marks = "".join((" [pinned]" if info.pinned else "",
                                 " [default]" if info.default else ""))
                print(f"{info.model:42s} {info.size_bytes:>10d} B  "
                      f"hits {info.hits:>6d}  loads {info.loads:>3d}"
                      f"{marks}")
            print(f"{len(listing)} resident model(s)")
        elif args.verb == "load":
            print(f"loaded {admin.load_model(args.spec)}")
        elif args.verb == "evict":
            evicted = admin.evict_model(args.spec)
            print("evicted" if evicted else "not resident")
        elif args.verb == "promote":
            print(f"promoted {admin.promote(args.spec)} to default")
        elif args.verb == "drain":
            started = admin.drain()
            print("drain started" if started else "already draining")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Source Code Classification for "
                    "Energy Efficiency in Parallel Ultra Low-Power "
                    "Microcontrollers' (DATE 2021)")
    parser.add_argument(
        "--version", action="version",
        version=f"repro {__version__} (code version {CODE_VERSION})")
    parser.add_argument("--profile", default=None,
                        help="dataset profile: paper, quick or unit "
                             "(default: $REPRO_PROFILE or 'paper')")
    parser.add_argument("--jobs", type=int, default=None,
                        help="worker processes for the labelling "
                             "campaign; 0 means one per CPU "
                             "(default: $REPRO_JOBS or 1)")
    sub = parser.add_subparsers(dest="command", required=True)

    n_kernels = len(all_kernel_specs())
    sub.add_parser("list-kernels",
                   help=f"list the {n_kernels} dataset kernels")
    sub.add_parser("energy-model", help="print the Table-I energy model")
    for name, text in (("build-dataset", "run the labelling campaign"),
                       ("dataset-stats", "class balance (paper §IV.B)"),
                       ("table4", "most relevant features (Table IV)"),
                       ("headline", "headline accuracy numbers")):
        _add_dataset_opts(sub.add_parser(name, help=text))

    fig = sub.add_parser("figure2", help="accuracy vs tolerance curves")
    fig.add_argument("--panel", choices=("left", "right"), default="left")
    _add_dataset_opts(fig)

    simp = sub.add_parser("simulate",
                          help="sweep team sizes for one kernel")
    _add_kernel_args(simp)

    mca = sub.add_parser("mca", help="LLVM-MCA-style report for a kernel")
    _add_kernel_args(mca)

    train = sub.add_parser(
        "train", help="train a classifier and save a model artifact")
    train.add_argument("--features", default="static-all",
                       help="feature set: "
                            + ", ".join(available_feature_sets()))
    train.add_argument("--model", default="tree",
                       help="model family: "
                            + ", ".join(available_model_families()))
    train.add_argument("--output", "-o", default="model.json",
                       help="artifact path (default model.json)")
    train.add_argument("--force", action="store_true",
                       help="retrain even when the artifact cache holds "
                            "an up-to-date model for this configuration")
    _add_dataset_opts(train)

    pred = sub.add_parser(
        "predict", help="predict the minimum-energy team size for a "
                        "kernel")
    _add_kernel_args(pred)
    pred.add_argument("--model", default=None,
                      help="model artifact from 'repro train' (the "
                           "artifact cache supplies a warm default "
                           "when omitted)")
    _add_dataset_opts(pred)

    srv = sub.add_parser(
        "serve", help="JSON-lines scoring service (stdin/stdout, or a "
                      "persistent socket daemon with --socket/--tcp)")
    srv.add_argument("--model", default=None,
                     help="model artifact from 'repro train' (the "
                          "artifact cache supplies a default when "
                          "omitted)")
    transport = srv.add_mutually_exclusive_group()
    transport.add_argument("--socket", default=None, metavar="PATH",
                           help="serve as a daemon on a Unix domain "
                                "socket at PATH")
    transport.add_argument("--tcp", default=None, metavar="HOST:PORT",
                           help="serve as a daemon on a TCP endpoint "
                                "(port 0 binds an ephemeral port)")
    srv.add_argument("--workers", type=int, default=DEFAULT_WORKERS,
                     help=f"daemon worker threads for slow requests "
                          f"(kernels, batches, admin verbs, cold-model "
                          f"loads); connections are not bounded by it "
                          f"(default {DEFAULT_WORKERS})")
    srv.add_argument("--models", default=None, metavar="SPEC[,SPEC...]",
                     help="extra model keys to serve, as "
                          "family:feature_set[:dataset_tag] specs; "
                          "warm pre-loaded from the artifact cache at "
                          "startup")
    srv.add_argument("--preload", action="store_true",
                     help="train-and-cache any --models key whose "
                          "artifact is missing instead of refusing to "
                          "start (also lets cold lazy loads train)")
    srv.add_argument("--max-batch", type=int, default=DEFAULT_MAX_BATCH,
                     help=f"micro-batching: most single-row requests "
                          f"the event loop coalesces into one "
                          f"predict_batch call (default "
                          f"{DEFAULT_MAX_BATCH}; 0 disables batching; "
                          f"daemon mode only)")
    srv.add_argument("--memory-budget-mb", type=float, default=None,
                     help="evict least-recently-used non-default models "
                          "once the resident set exceeds this many MiB "
                          "(default: unbounded)")
    srv.add_argument("--max-models", type=int, default=None,
                     help="evict least-recently-used non-default models "
                          "beyond this count (default: unbounded)")
    srv.add_argument("--shards", type=int, default=None, metavar="N",
                     help="serve N supervised daemon processes behind "
                          "--socket PATH (a shard registry): crashed "
                          "shards respawn and 'repro fleet "
                          "drain/restart' operate the fleet (default: "
                          "one plain daemon)")
    srv.add_argument("--codec", choices=("auto", "json"), default="auto",
                     help="wire codecs offered to hello negotiation: "
                          "auto offers binary-v2 with JSON fallback, "
                          "json pins JSON-lines only (daemon mode; "
                          "stdin/stdout is always JSON-lines)")
    _add_dataset_opts(srv)

    flt = sub.add_parser(
        "fleet", help="operate a running scoring deployment over the "
                      "typed admin API (stats, metrics, health, "
                      "models, load, evict, promote, drain, restart)")
    fleet_sub = flt.add_subparsers(dest="verb", required=True)

    def _add_fleet_endpoint(p, shardable: bool = True) -> None:
        p.add_argument("--socket", default=None, metavar="PATH",
                       help="unix endpoint of the deployment (a shard "
                            "registry or a plain daemon socket)")
        p.add_argument("--tcp", default=None, metavar="HOST:PORT",
                       help="TCP endpoint of the deployment")
        if shardable:
            p.add_argument("--shard", type=int, default=None, metavar="N",
                           help="address shard N of a unix-socket "
                                "deployment directly (<socket>.N)")
        p.add_argument("--timeout", type=float, default=10.0,
                       help="per-request timeout in seconds "
                            "(default 10)")

    _add_fleet_endpoint(fleet_sub.add_parser(
        "stats", help="stats tree (fleet-wide aggregate on a shard "
                      "registry; --shard for one shard)"))
    mtr = fleet_sub.add_parser(
        "metrics", help="telemetry snapshot (bucket-wise merged "
                        "across a shard registry; --shard for one "
                        "shard)")
    mtr.add_argument("--prom", action="store_true",
                     help="render Prometheus text exposition instead "
                          "of JSON")
    _add_fleet_endpoint(mtr)
    _add_fleet_endpoint(fleet_sub.add_parser(
        "health", help="liveness/drain probe (exit 0 serving, "
                       "1 draining)"))
    _add_fleet_endpoint(fleet_sub.add_parser(
        "models", help="resident models of the serving fleet"))
    for verb, text in (
        ("load", "warm-load a model key into the fleet pool"),
        ("evict", "drop a resident model key"),
        ("promote", "make an already-resident key the serving default "
                    "(hot swap endgame)"),
    ):
        vp = fleet_sub.add_parser(verb, help=text)
        vp.add_argument("spec", metavar="SPEC",
                        help="model key: family:feature_set[:dataset_tag]")
        _add_fleet_endpoint(vp)
    _add_fleet_endpoint(fleet_sub.add_parser(
        "drain", help="gracefully retire one server: finish in-flight "
                      "work, refuse new requests, exit"))
    _add_fleet_endpoint(fleet_sub.add_parser(
        "restart", help="rolling restart of a 'serve --shards N' "
                        "deployment (drain one shard at a time, wait "
                        "for its respawn)"), shardable=False)

    # repro.analysis owns the lint options: its arguments (--help too)
    # pass through unparsed
    sub.add_parser(
        "lint", add_help=False,
        help="protocol- and concurrency-aware static analysis of the "
             "repro sources (rules RPL001-RPL005; same as 'python -m "
             "repro.analysis')")

    args, lint_argv = parser.parse_known_args(argv)
    if args.command == "lint":
        from repro.analysis import main as lint_main

        return lint_main(lint_argv)
    if lint_argv:
        parser.error(f"unrecognized arguments: {' '.join(lint_argv)}")
    profile = args.profile or active_profile()

    if args.command == "list-kernels":
        for spec in all_kernel_specs():
            dtypes = "/".join(d.value for d in spec.dtypes)
            print(f"{spec.suite:10s} {spec.name:22s} [{dtypes}]")
        return 0

    if args.command == "energy-model":
        print(format_model_table(EnergyModel.paper_table1()))
        return 0

    if args.command == "fleet":
        return _fleet_command(args)

    if args.command == "simulate":
        kernel = _build_kernel(args)
        results = sweep_cores(kernel)
        for res in results:
            marker = " <- minimum" if (res.team_size ==
                                       minimum_energy_label(results)) else ""
            print(f"cores={res.team_size}  cycles={res.cycles:>10d}  "
                  f"energy={res.total_energy_fj / 1e6:>12.3f} nJ{marker}")
        print()
        best = min(results, key=lambda r: r.total_energy_fj)
        print(format_breakdown(best.energy,
                               f"({kernel.name}, {best.team_size} cores)"))
        return 0

    if args.command == "mca":
        print(mca_report(_build_kernel(args)))
        return 0

    def progress(msg: str) -> None:
        print(msg, file=sys.stderr)

    if args.command == "train":
        config = ReproConfig(profile=profile, jobs=args.jobs,
                             feature_set=args.features, model=args.model)
        clf, cache_hit = load_or_train(config, force=args.force,
                                       progress=progress)
        clf.save(args.output)
        info = clf.info()
        verb = "reused cached artifact:" if cache_hit else "trained"
        print(f"{verb} {info['model_family']!r} on "
              f"{info['n_training_samples']} samples "
              f"(profile {profile!r}, feature set "
              f"{info['feature_set']!r}, {info['n_features']} features)")
        print(f"model artifact written to {args.output} "
              f"(code version {info['code_version']})")
        return 0

    if args.command == "predict":
        clf = _load_or_train(args, profile, progress)
        kernel = _build_kernel(args)
        prediction = clf.predict(kernel)
        print(f"{kernel.name} ({args.dtype}, {args.size} B): "
              f"predicted minimum-energy team size = {prediction}")
        return 0

    if args.command == "serve":
        if args.shards is not None:
            if not args.socket:
                parser.error("--shards needs --socket PATH: sharded "
                             "serving is unix-socket only")
            if args.shards < 1:
                parser.error(f"--shards must be >= 1, got {args.shards}")
            return _serve_sharded(args, profile, progress)
        clf = _load_or_train(args, profile, progress)
        budget = (int(args.memory_budget_mb * 1024 * 1024)
                  if args.memory_budget_mb else None)
        # the single-process fleet assembles through the same factory
        # the shard processes run, so the two paths cannot drift
        fleet = fleet_factory(
            profile=profile,
            models=tuple(s for s in (args.models or "").split(",")
                         if s.strip()),
            preload=args.preload,
            memory_budget_bytes=budget,
            max_models=args.max_models,
            default=clf,
            on_preload=lambda key: print(f"pre-loaded model {key.spec}",
                                         file=sys.stderr),
        )
        if args.socket or args.tcp:
            tcp = parse_tcp_endpoint(args.tcp) if args.tcp else None
            daemon = ScoringDaemon(fleet=fleet, socket_path=args.socket,
                                   tcp=tcp, workers=args.workers,
                                   codecs=_serve_codecs(args),
                                   max_batch=args.max_batch)
            daemon.start()
            endpoint = ":".join(str(p) for p in daemon.address[1:])
            batching = (f"adaptive micro-batching <= {args.max_batch} "
                        f"rows" if args.max_batch > 1
                        else "micro-batching off")
            print(f"scoring daemon listening on {daemon.address[0]} "
                  f"{endpoint} ({args.workers} workers, "
                  f"{len(fleet.pool)} resident model(s), {batching}); "
                  f"Ctrl-C stops cleanly", file=sys.stderr)
            try:
                daemon.serve_forever()
            finally:
                daemon.stop()
                stats = daemon.stats()
                print(f"served {stats['requests_served']} request(s) "
                      f"over {stats['connections_served']} "
                      f"connection(s)", file=sys.stderr)
            return 0
        handled = serve(fleet)
        print(f"served {handled} request(s)", file=sys.stderr)
        return 0

    # dataset-backed experiment commands
    dataset = build_dataset(profile, progress=progress, jobs=args.jobs)
    if args.command == "build-dataset":
        print(f"built {len(dataset)} samples (profile {profile!r})")
        print(run_dataset_stats(dataset).render())
    elif args.command == "dataset-stats":
        print(run_dataset_stats(dataset).render())
    elif args.command == "figure2":
        print(run_figure2(dataset, args.panel).render())
    elif args.command == "table4":
        print(run_table4(dataset).render())
    elif args.command == "headline":
        print(run_headline(dataset).render())
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
