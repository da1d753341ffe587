"""Command-line interface: ``repro-opt`` (or ``python -m repro``).

Subcommands:

* ``run``     — optimize a named test function with one of the paper's
  algorithms under the eq. 1.1/1.2 noise model.
* ``water``   — reparameterize TIP4P on the calibrated surrogate from the
  Table 3.4a initial simplex.
* ``scaleup`` — the Fig. 3.18 scale-up study on the virtual cluster.
* ``optroot`` — inspect an $OPTROOT directory tree (systems, phases,
  processor count, property specs).
* ``campaign`` — durable, parallel, resumable experiment sweeps
  (``campaign run | serve | status | watch | metrics | summary |
  compare | compact | migrate-store | store-serve``); see
  :mod:`repro.campaign` and ``docs/CAMPAIGNS.md``.  ``run DIR``
  initialises or resumes one directory's spec; ``serve DIR1 DIR2 …``
  drains many campaigns (tenants) through one worker fleet, sharing
  dispatch slots by deficit-weighted round-robin (``--weight``,
  ``--quota``) and placing constrained jobs on capable workers
  (``--worker-caps``, ``mw-worker --caps``).  Past that they are one
  command: one option group (``--transport``, ``--async``,
  ``--lease-ttl``, ``--telemetry``, …) and one handler over the one
  claim → dispatch → record loop, whose claim leases let several
  masters drain one store.  ``run --store jsonl|sqlite|store://host:port``
  picks the store engine (``store://`` talks to ``campaign
  store-serve`` over TCP); ``--transport tcp://host:port`` listens for
  remote workers.
* ``mw-worker`` — standalone TCP worker: connects to a master at
  ``tcp://host:port`` and serves tasks until the master shuts down.
  Start any number of these on any hosts that can reach the master; no
  shared filesystem is needed.  ``--caps md,fast`` declares the
  capability vector the worker advertises in its hello handshake.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional


def _cmd_run(args: argparse.Namespace) -> int:
    import numpy as np

    from repro.core import optimize

    extra = {}
    if args.algorithm.upper() == "ANDERSON":
        extra["k1"] = args.k1
    result = optimize(
        args.function,
        dim=args.dim,
        algorithm=args.algorithm,
        sigma0=args.sigma0,
        seed=args.seed,
        tau=args.tau,
        walltime=args.walltime,
        max_steps=args.max_steps,
        **extra,
    )
    print(f"algorithm : {result.algorithm}")
    print(f"best theta: {np.array2string(result.best_theta, precision=5)}")
    print(f"estimate  : {result.best_estimate:.6g}")
    print(f"true value: {result.best_true:.6g}")
    print(f"steps     : {result.n_steps} ({result.reason})")
    print(f"walltime  : {result.walltime:.4g} virtual seconds")
    return 0


def _cmd_water(args: argparse.Namespace) -> int:
    from repro.water import TIP4P_PUBLISHED, parameterize_water

    result = parameterize_water(
        algorithm=args.algorithm,
        seed=args.seed,
        walltime=args.walltime,
        max_steps=args.max_steps,
        tau=args.tau,
    )
    eps, sig, qh = result.best_theta
    print(f"algorithm : {result.algorithm}")
    print(f"epsilon   : {eps:.4f} kcal/mol  (published TIP4P: {TIP4P_PUBLISHED[0]})")
    print(f"sigma     : {sig:.4f} A         (published TIP4P: {TIP4P_PUBLISHED[1]})")
    print(f"qH        : {qh:.4f} e          (published TIP4P: {TIP4P_PUBLISHED[2]})")
    print(f"final cost: {result.best_true:.4f}")
    print(f"steps     : {result.n_steps} ({result.reason})")
    return 0


def _cmd_scaleup(args: argparse.Namespace) -> int:
    import numpy as np

    from repro.cluster import Cluster, SimulatedMWPool
    from repro.core import MaxNoise, default_termination
    from repro.functions import Rosenbrock, random_vertices
    from repro.noise import StochasticFunction

    cluster = Cluster.palmetto(n_nodes=args.nodes)
    for d in args.dims:
        func = StochasticFunction(Rosenbrock(d), sigma0=0.0, rng=np.random.default_rng(d))
        pool = SimulatedMWPool(func, cluster, dim=d, ns=args.ns)
        vertices = random_vertices(d, low=-5.0, high=5.0, rng=np.random.default_rng(args.seed))
        opt = MaxNoise(
            func,
            vertices,
            k=2.0,
            pool=pool,
            termination=default_termination(
                tau=1e-12, walltime=args.walltime, max_steps=args.max_steps
            ),
        )
        result = opt.run()
        print(
            f"d={d:4d}  cores={pool.allocation.total:4d}  steps={result.n_steps:4d}  "
            f"time/step={result.walltime / max(result.n_steps, 1):8.3f}  "
            f"overhead={pool.comm_overhead:9.2f}"
        )
    return 0


def _cmd_optroot(args: argparse.Namespace) -> int:
    from repro.optroot import OptRoot, load_input, load_property_specs

    root = OptRoot(args.root)
    systems = root.systems()
    print(f"OPTROOT : {root.root}")
    print(f"systems : {systems}")
    for system in systems:
        phases = root.phases(system)
        print(f"  {system}: {len(phases)} phase(s)")
    print(f"processors required: {root.n_processors_required()}")
    try:
        config = load_input(root)
        print(f"parameters: {config.names} ({len(config.vertices)} vertex rows)")
    except FileNotFoundError:
        print("parameters: <no input file>")
    try:
        specs = load_property_specs(root)
        print(f"properties: {sorted(specs)}")
    except (FileNotFoundError, ValueError):
        print("properties: <none>")
    return 0


def _campaign_spec_from_args(args: argparse.Namespace):
    from repro.campaign import CampaignSpec

    if args.spec is not None:
        return CampaignSpec.load(args.spec)
    return CampaignSpec(
        name=args.name,
        algorithms=list(args.algorithms),
        functions=list(args.functions),
        dims=list(args.dims),
        sigma0s=list(args.sigma0s),
        seeds=args.seeds,
        n_seeds=args.n_seeds,
        base_seed=args.base_seed,
        noise_mode=args.noise_mode,
        tau=args.tau,
        walltime=args.walltime,
        max_steps=args.max_steps,
    )


def _open_campaign(directory):
    """Open an existing campaign or exit with a clean error (rc 2)."""
    from repro.campaign import Campaign

    try:
        return Campaign(directory)
    except (FileNotFoundError, ValueError) as exc:  # no spec, bad manifest
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(2)


def _loop_options(args: argparse.Namespace) -> dict:
    """The dispatch-loop settings both ``campaign run`` and ``campaign
    serve`` take, under the parameter names the loop's builders share
    (each names its transport itself)."""
    from repro.campaign import DEFAULT_LEASE_TTL

    return dict(
        max_workers=args.max_workers,
        batch_size=args.batch_size,
        mw_max_retries=args.mw_max_retries,
        async_mode=args.async_mode,
        max_inflight=args.max_inflight,
        eval_batch=args.eval_batch,
        flush_interval=args.flush_interval,
        lease_ttl=(DEFAULT_LEASE_TTL if args.lease_ttl is None
                   else args.lease_ttl),
    )


def _campaign_runner(args: argparse.Namespace):
    """``campaign run``: initialise or resume the directory's spec as a
    one-tenant loop.  Returns the loop, its banner and its report row."""
    from pathlib import Path

    from repro.campaign import SPEC_FILENAME, Campaign

    spec = None
    if (Path(args.directory) / SPEC_FILENAME).exists():
        if args.spec is not None:
            spec = _campaign_spec_from_args(args)  # mismatch is an error
        else:
            print("resuming existing campaign (grid flags ignored; spec.json rules)")
    else:
        spec = _campaign_spec_from_args(args)
    campaign = Campaign(args.directory, spec=spec, store=args.store)
    backend = args.backend or ("mw" if args.async_mode else "serial")
    runner = campaign.runner(backend=backend, mw_transport=args.transport,
                             mw_affinity=args.mw_affinity, **_loop_options(args))
    banner = [
        f"campaign  : {campaign.spec.name}",
        f"directory : {campaign.directory}",
        f"backend   : {backend}" + (" (async)" if args.async_mode else ""),
    ]
    return runner, banner, "report    : {report}"


def _parse_name_value(pairs, flag, cast):
    """``NAME=VALUE`` repeatable-flag pairs -> {name: cast(value)}."""
    out = {}
    for pair in pairs or []:
        name, sep, value = pair.partition("=")
        if not sep or not name:
            raise ValueError(f"{flag} expects NAME=VALUE, got {pair!r}")
        out[name] = cast(value)
    return out


def _campaign_master(args: argparse.Namespace):
    """``campaign serve``: one tenant per directory under the tenant-policy
    flags.  Returns the loop, its banner and its report row."""
    from repro.campaign import MultiCampaignMaster

    worker_caps = {}
    for pair in args.worker_caps or []:
        rank, sep, caps = pair.partition("=")
        if not sep or not rank.isdigit():
            raise ValueError(f"--worker-caps expects RANK=cap1,cap2, got {pair!r}")
        worker_caps[int(rank)] = [c for c in caps.split(",") if c.strip()]
    master = MultiCampaignMaster(
        args.directories,
        transport=args.transport,
        weights=_parse_name_value(args.weight, "--weight", float),
        quotas=_parse_name_value(args.quota, "--quota", int),
        worker_caps=worker_caps,
        **_loop_options(args),
    )
    banner = [f"serving {len(master.tenants)} campaign(s) on {args.transport}: "
              f"{', '.join(sorted(master.tenants))}"]
    return master, banner, "{name:<20} : {report}"


def _cmd_campaign_drain(args: argparse.Namespace) -> int:
    """``campaign run`` and ``campaign serve``: build the dispatch loop,
    drain it, print one report row per campaign."""
    import os

    from repro.telemetry import TELEMETRY_ENV

    progress = None
    if args.progress:
        def progress(snap):
            print(snap.line(), flush=True)

    # Parsed by scripts and tests (ephemeral tcp ports), so the bound
    # address line is printed as soon as the transport is listening.
    def on_start(driver):
        address = getattr(driver.transport, "address", None)
        if address:
            print(f"listening at {address}", flush=True)

    # --telemetry goes through the environment so mw worker subprocesses
    # inherit it; an in-process caller of main() gets the old value back.
    saved_env = os.environ.get(TELEMETRY_ENV)
    if args.telemetry:
        os.environ[TELEMETRY_ENV] = "1"
    try:
        # Bad options (--batch-size 0, --async with --backend serial, a
        # typo'd --transport, a policy serve --async would ignore) raise
        # ValueError here, before any claim.
        build = _campaign_master if args.campaign_command == "serve" else _campaign_runner
        try:
            loop, banner, row = build(args)
        except (FileNotFoundError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        for line in banner:
            print(line, flush=True)
        try:
            reports = loop.serve(timeout=args.timeout, on_start=on_start,
                                 max_jobs=args.max_jobs, progress=progress)
        except TimeoutError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        except KeyboardInterrupt:
            reports = {name: t.report(interrupted=True)
                       for name, t in loop.tenants.items()}
    finally:
        if saved_env is None:
            os.environ.pop(TELEMETRY_ENV, None)
        else:
            os.environ[TELEMETRY_ENV] = saved_env
    for name in sorted(reports):
        print(row.format(name=name, report=reports[name]))
    if any(r.interrupted or r.n_remaining > 0 for r in reports.values()):
        print("resume    : re-run the same command to finish the remaining jobs")
    return 130 if any(r.interrupted for r in reports.values()) else 0


def _cmd_campaign_serve(args: argparse.Namespace) -> int:
    import json

    from repro.campaign import serve_status

    if not args.status:
        if args.json:
            print("error: --json only applies with --status", file=sys.stderr)
            return 2
        return _cmd_campaign_drain(args)
    # --status starts no master: refuse any other serve option, not ignore it
    defaults = vars(build_parser().parse_args(
        ["campaign", "serve", "--status", "--", *args.directories]))
    ignored = ["--async" if key == "async_mode" else "--" + key.replace("_", "-")
               for key, value in vars(args).items()
               if key != "json" and value != defaults[key]]
    if ignored:
        print(f"error: --status starts no master; drop {', '.join(ignored)}",
              file=sys.stderr)
        return 2
    try:
        rows = serve_status(args.directories)
    except (FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for row in rows:
        if args.json:
            print(json.dumps(row), flush=True)
        else:
            cons = ",".join(row["constraints"]) or "-"
            quota = row["max_inflight"] if row["max_inflight"] else "-"
            print(f"{row['name']:<20} {row['done']:>6}/{row['n_jobs']:<6} "
                  f"done  {row['pending']:>5} pending  "
                  f"w={row['weight']:g} prio={row['priority']} "
                  f"caps={cons} quota={quota}")
    return 0


def _cmd_campaign_watch(args: argparse.Namespace) -> int:
    import json

    from repro.campaign import watch_campaign

    campaign = _open_campaign(args.directory)
    try:
        for snap in watch_campaign(
            campaign,
            interval=args.interval,
            max_ticks=1 if args.once else None,
        ):
            if args.json:
                print(json.dumps(snap.to_dict()), flush=True)
                continue
            print(snap.line(), flush=True)
            if args.cells:
                for cell in snap.cells:
                    print(cell.line(), flush=True)
                for worker in snap.workers:
                    print(worker.line(), flush=True)
    except KeyboardInterrupt:
        return 130
    return 0


def _cmd_campaign_metrics(args: argparse.Namespace) -> int:
    import json
    from pathlib import Path

    from repro.telemetry import (
        TELEMETRY_FILENAME,
        merge_snapshots,
        read_trace,
        render_prometheus,
    )

    campaign = _open_campaign(args.directory)
    path = Path(campaign.directory) / TELEMETRY_FILENAME
    if not path.exists():
        print(
            f"error: no {TELEMETRY_FILENAME} in {campaign.directory}; "
            f"run the campaign with --telemetry (or $REPRO_TELEMETRY=1) first",
            file=sys.stderr,
        )
        return 2
    # Registries are process-local, so runners persist snapshots into the
    # trace; keep the latest snapshot per (run, runner) and merge those.
    latest = {}
    for event in read_trace(path):
        if event.get("event") == "metrics":
            latest[(event.get("run_id"), event.get("runner"))] = event["metrics"]
    if not latest:
        print(
            "error: the telemetry trace holds no metrics snapshots yet "
            "(is a run still in flight?)",
            file=sys.stderr,
        )
        return 2
    merged = merge_snapshots(latest.values())
    if args.json:
        print(json.dumps(merged, indent=2, sort_keys=True))
    else:
        print(render_prometheus(merged), end="")
    return 0


def _cmd_mw_worker(args: argparse.Namespace) -> int:
    import os

    # One OpenBLAS thread, set before numpy loads: the fleet's
    # parallelism is its worker processes, and an unpinned pool starts
    # an extra thread per core in every worker.  A value the user set wins.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    from repro.mw.codec import CodecError
    from repro.mw.tcp import run_worker
    from repro.mw.transport import resolve_executor

    executor = None
    if args.executor is not None:
        try:
            executor = resolve_executor({"kind": "executor", "spec": args.executor})
        except (ImportError, AttributeError, ValueError) as exc:
            print(f"error: cannot resolve executor {args.executor!r}: {exc}",
                  file=sys.stderr)
            return 2
    caps = [c.strip() for c in (args.caps or "").split(",") if c.strip()]
    try:
        stats = run_worker(
            args.url, executor=executor, connect_timeout=args.connect_timeout,
            caps=caps,
        )
    except KeyboardInterrupt:
        return 130
    except (ImportError, AttributeError) as exc:
        # the master-advertised executor spec did not resolve on this host
        print(f"error: cannot resolve the master's executor spec: {exc}",
              file=sys.stderr)
        return 1
    except (OSError, CodecError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if stats.get("refused"):
        print(f"refused by master: {stats['refused']}", file=sys.stderr)
        return 1
    print(
        f"worker rank {stats['rank']} finished: "
        f"{stats['executed']} tasks executed, {stats['errors']} errors"
    )
    return 0


def _cmd_campaign_store_serve(args: argparse.Namespace) -> int:
    from repro.campaign.backends import (
        ENGINE_SQLITE,
        ENGINE_STORE,
        StoreServer,
        is_store_url,
        open_store,
        parse_store_spec,
        read_manifest,
    )

    try:
        engine = parse_store_spec(args.store)
        if engine is not None and is_store_url(engine):
            raise ValueError(
                "store-serve serves a *local* store; --store must be a "
                "local engine (jsonl, sqlite), not a store:// URL"
            )
        manifest = read_manifest(args.directory)
        if manifest is not None and manifest.get("engine") == ENGINE_STORE:
            raise ValueError(
                f"{args.directory} is a store:// *client* directory "
                f"(server {manifest.get('url')!r}); point store-serve at "
                f"the directory that holds the data"
            )
        if engine is None and manifest is None:
            engine = ENGINE_SQLITE  # fresh directories default to sqlite
        backend = open_store(args.directory, engine=engine)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    server = StoreServer(backend, listen=args.listen)
    try:
        server.bind()
    except OSError as exc:
        print(f"error: cannot listen on {args.listen}: {exc}", file=sys.stderr)
        backend.close()
        return 2
    # Install our own INT/TERM handlers: a server backgrounded with `&`
    # from a non-interactive shell (the CI pattern) inherits SIGINT as
    # ignored, and SIGTERM is how process managers stop services — both
    # must shut the listener down cleanly, not leak it.  They go in
    # before the address line, so a stop sent on seeing it is clean.
    import signal

    def _stop(signum, frame):
        raise KeyboardInterrupt

    for sig in (signal.SIGINT, signal.SIGTERM):
        try:
            signal.signal(sig, _stop)
        except (ValueError, OSError):  # pragma: no cover - exotic platforms
            pass
    try:
        # Parsed by scripts and tests (ephemeral --listen ports), so the
        # address line goes first and is flushed immediately.
        print(f"serving {args.directory} ({backend.engine}) at {server.address}",
              flush=True)
        print("press Ctrl-C to stop", flush=True)
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.close()
        backend.close()
    return 0


def _cmd_campaign_compact(args: argparse.Namespace) -> int:
    campaign = _open_campaign(args.directory)
    stats = campaign.compact()
    print(f"store     : {campaign.store.path}")
    print(
        f"records   : {stats.n_records_before} -> {stats.n_records_after} "
        f"({stats.n_dropped} duplicate/stale dropped)"
    )
    print(f"bytes     : {stats.bytes_before} -> {stats.bytes_after}")
    return 0


def _cmd_campaign_migrate_store(args: argparse.Namespace) -> int:
    from repro.campaign import migrate_store, parse_store_spec

    try:
        store, n_copied = migrate_store(
            args.source, args.dest, engine=parse_store_spec(args.store)
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"source    : {args.source}")
    print(f"dest      : {args.dest}")
    print(f"engine    : {store.engine}")
    print(f"records   : {n_copied} copied (leases are not migrated)")
    return 0


def _cmd_campaign_status(args: argparse.Namespace) -> int:
    from repro.analysis import format_table

    campaign = _open_campaign(args.directory)
    status = campaign.status()
    print(f"campaign  : {status['name']}")
    print(f"directory : {status['directory']}")
    if status["engine"] != "jsonl":
        print(f"store     : {status['engine']}")
    claimed = f", {status['claimed']} claimed" if status["claimed"] else ""
    print(
        f"jobs      : {status['n_jobs']} total, {status['done']} done, "
        f"{status['failed']} failed (retried on next run), "
        f"{status['pending']} pending{claimed}"
    )
    rows = [
        [label, function, dim, f"{sigma0:g}",
         f"{counts['done']}/{counts['total']}", counts["claimed"]]
        for (label, _algo, function, dim, sigma0), counts in sorted(
            status["cells"].items()
        )
    ]
    print(format_table(
        ["variant", "function", "dim", "sigma0", "done", "claimed"], rows
    ))
    return 0


def _cmd_campaign_summary(args: argparse.Namespace) -> int:
    from repro.analysis import format_table
    from repro.campaign import CellSummary

    campaign = _open_campaign(args.directory)
    summaries = campaign.summary()
    if not summaries:
        print("no completed jobs yet")
        return 0
    print(
        format_table(
            CellSummary.header(),
            [s.as_row() for s in summaries],
            title=f"campaign {campaign.spec.name!r}: per-cell aggregates",
        )
    )
    return 0


def _cmd_campaign_compare(args: argparse.Namespace) -> int:
    campaign = _open_campaign(args.directory)
    try:
        cmp = campaign.compare(
            args.label_a,
            args.label_b,
            tie_width=args.tie_width,
            function=args.function,
            dim=args.dim,
            sigma0=args.sigma0,
            pooled=args.pooled,
        )
    except ValueError as exc:
        labels = sorted({r["job"]["label"] for r in campaign.store.completed()})
        print(f"error: {exc}; completed variants: {labels}", file=sys.stderr)
        return 2
    print(f"pairs        : {cmp.n_pairs} shared seeds")
    print(f"median ratio : {cmp.median:+.3f} decades (negative = {cmp.label_a} wins)")
    if cmp.median_ci is not None:
        ci = cmp.median_ci
        print(f"bootstrap CI : [{ci.low:+.3f}, {ci.high:+.3f}] at {ci.confidence:.0%}")
    s = cmp.sign
    print(
        f"sign test    : {s.n_wins} wins / {s.n_losses} losses / {s.n_ties} ties, "
        f"p = {s.p_value:.4f}"
    )
    return 0


def _add_dispatch_loop_options(parser: argparse.ArgumentParser) -> None:
    """The settings of the one claim → dispatch → record loop, the same
    group under ``campaign run`` and ``campaign serve`` (only serve's
    ``--batch-size`` default differs)."""
    loop = parser.add_argument_group(
        "dispatch loop", "shared by 'campaign run' and 'campaign serve'"
    )
    loop.add_argument("--transport", "--mw-transport", dest="transport",
                      default="process", metavar="TRANSPORT",
                      help="inproc | threaded | process, or tcp://host:port "
                           "to listen for remote 'mw-worker' processes")
    loop.add_argument("--max-workers", type=int, default=None,
                      help="worker rank slots (default: CPU count)")
    loop.add_argument("--batch-size", type=int, default=None,
                      help="jobs per claim, per campaign (async: jobs kept "
                           "open); run default: 1 serial, else the worker "
                           "count; serve default: 8")
    loop.add_argument("--lease-ttl", type=float, default=None,
                      metavar="SECONDS",
                      help="seconds a claim survives without renewal "
                           "(default 60)")
    loop.add_argument("--mw-max-retries", type=int, default=2,
                      help="dispatch retries before a task is failed")
    loop.add_argument("--timeout", type=float, default=None,
                      metavar="SECONDS",
                      help="bound the whole run in wall-clock seconds")
    loop.add_argument("--telemetry", action="store_true",
                      help="record metrics and a job-lifecycle trace into "
                           "<dir>/telemetry.jsonl (same as $REPRO_TELEMETRY=1; "
                           "read back with 'campaign metrics')")
    loop.add_argument("--async", dest="async_mode", action="store_true",
                      help="barrier-free scheduling: every open job's ask/tell "
                           "proposals share the worker pool (run: implies "
                           "--backend mw; serve: shared by open jobs, not by "
                           "weight; see docs/CAMPAIGNS.md)")
    loop.add_argument("--max-inflight", type=int, default=None, metavar="N",
                      help="async mode: cap on simultaneously outstanding "
                           "evaluations across all jobs (default 2x workers, "
                           "or 2x --eval-batch if larger)")
    loop.add_argument("--eval-batch", type=int, default=1, metavar="Q",
                      help="async mode: same-objective proposals per mw "
                           "frame, evaluated in one vectorized call (default 1)")
    loop.add_argument("--flush-interval", type=float, default=2.0, metavar="S",
                      help="async mode: max seconds a finished job's record "
                           "waits for a flush (default 2.0)")
    loop.add_argument("--max-jobs", type=int, default=None,
                      help="stop after this many jobs per campaign (smoke "
                           "tests / partial runs)")
    loop.add_argument("--progress", action="store_true",
                      help="print a heartbeat line per campaign after every "
                           "record flush")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-opt",
        description="Automated, parallel optimization algorithms for stochastic functions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="optimize a test function")
    p_run.add_argument("--function", default="rosenbrock",
                       choices=["rosenbrock", "powell", "sphere", "quadratic", "rastrigin"])
    p_run.add_argument("--dim", type=int, default=3)
    p_run.add_argument("--algorithm", default="PC",
                       choices=["DET", "MN", "PC", "PC+MN", "ANDERSON"])
    p_run.add_argument("--sigma0", type=float, default=1.0)
    p_run.add_argument("--seed", type=int, default=0)
    p_run.add_argument("--tau", type=float, default=1e-3)
    p_run.add_argument("--walltime", type=float, default=1e5)
    p_run.add_argument("--max-steps", type=int, default=2000)
    p_run.add_argument("--k1", type=float, default=2.0**10,
                       help="Anderson criterion cutoff (ANDERSON only)")
    p_run.set_defaults(func=_cmd_run)

    p_water = sub.add_parser("water", help="reparameterize TIP4P water")
    p_water.add_argument("--algorithm", default="MN",
                         choices=["DET", "MN", "PC", "PC+MN"])
    p_water.add_argument("--seed", type=int, default=0)
    p_water.add_argument("--tau", type=float, default=1e-3)
    p_water.add_argument("--walltime", type=float, default=3e5)
    p_water.add_argument("--max-steps", type=int, default=300)
    p_water.set_defaults(func=_cmd_water)

    p_scale = sub.add_parser("scaleup", help="MW scale-up study (Fig 3.18)")
    p_scale.add_argument("--dims", type=int, nargs="+", default=[20, 50, 100])
    p_scale.add_argument("--nodes", type=int, default=60)
    p_scale.add_argument("--ns", type=int, default=1)
    p_scale.add_argument("--seed", type=int, default=7)
    p_scale.add_argument("--walltime", type=float, default=5e4)
    p_scale.add_argument("--max-steps", type=int, default=150)
    p_scale.set_defaults(func=_cmd_scaleup)

    p_root = sub.add_parser("optroot", help="inspect an $OPTROOT tree")
    p_root.add_argument("root")
    p_root.set_defaults(func=_cmd_optroot)

    p_worker = sub.add_parser(
        "mw-worker",
        help="standalone TCP worker serving a remote mw master (no shared "
             "filesystem needed)",
    )
    p_worker.add_argument("url", help="the master's tcp://host:port")
    p_worker.add_argument("--executor", default=None, metavar="MODULE:ATTR",
                          help="executor override; by default the worker runs "
                               "the executor spec the master advertises")
    p_worker.add_argument("--connect-timeout", type=float, default=30.0,
                          help="seconds to keep retrying the initial "
                               "connection (workers may start before the "
                               "master)")
    p_worker.add_argument("--caps", default="", metavar="CAP[,CAP...]",
                          help="capability vector this worker declares in its "
                               "hello (e.g. 'md,fast'); constraint-pinned "
                               "jobs only dispatch to workers whose caps "
                               "cover them")
    p_worker.set_defaults(func=_cmd_mw_worker)

    p_camp = sub.add_parser(
        "campaign", help="durable, parallel, resumable experiment sweeps"
    )
    camp_sub = p_camp.add_subparsers(dest="campaign_command", required=True)

    p_crun = camp_sub.add_parser(
        "run", help="run (or resume) the pending jobs of a campaign"
    )
    p_crun.add_argument("directory", help="campaign directory (spec.json + results.jsonl)")
    p_crun.add_argument("--spec", default=None,
                        help="JSON spec file to initialise a new campaign from")
    p_crun.add_argument("--name", default="campaign")
    p_crun.add_argument("--algorithms", nargs="+",
                        default=["PC", "MN"],
                        choices=["DET", "MN", "PC", "PC+MN", "ANDERSON"])
    p_crun.add_argument("--functions", nargs="+", default=["rosenbrock"],
                        choices=["rosenbrock", "powell", "sphere", "quadratic", "rastrigin"])
    p_crun.add_argument("--dims", type=int, nargs="+", default=[4])
    p_crun.add_argument("--sigma0s", type=float, nargs="+", default=[1000.0])
    p_crun.add_argument("--seeds", type=int, nargs="+", default=None,
                        help="explicit seed list (default: SeedSequence-spawned)")
    p_crun.add_argument("--n-seeds", type=int, default=5)
    p_crun.add_argument("--base-seed", type=int, default=0)
    p_crun.add_argument("--noise-mode", default="resample",
                        choices=["average", "resample"])
    p_crun.add_argument("--tau", type=float, default=1e-3)
    p_crun.add_argument("--walltime", type=float, default=3e4)
    p_crun.add_argument("--max-steps", type=int, default=600)
    p_crun.add_argument("--backend", default=None,
                        choices=["serial", "mw"],
                        help="serial runs jobs inline; mw dispatches them "
                             "through the master-worker driver (default: "
                             "serial, or mw with --async)")
    p_crun.add_argument("--mw-affinity", action="store_true",
                        help="pin jobs round-robin to mw worker ranks")
    p_crun.add_argument("--store", default=None, metavar="ENGINE",
                        help="result store engine: jsonl (single file, the "
                             "default), sqlite "
                             "(one transactional WAL database), or "
                             "store://host:port (a 'campaign store-serve' "
                             "process — no shared filesystem needed); "
                             "existing stores auto-detect from "
                             "store-manifest.json")
    _add_dispatch_loop_options(p_crun)
    p_crun.set_defaults(func=_cmd_campaign_drain)

    p_cmulti = camp_sub.add_parser(
        "serve",
        help="drain many campaign directories through one shared worker "
             "fleet (multi-tenant scheduling; see docs/CAMPAIGNS.md)",
    )
    p_cmulti.add_argument("directories", nargs="+", metavar="DIRECTORY",
                          help="campaign directories (each spec.json names "
                               "one tenant; names must be unique)")
    p_cmulti.add_argument("--weight", action="append", metavar="NAME=W",
                          help="override a tenant's dispatch-slot weight "
                               "(repeatable; default: the spec's weight)")
    p_cmulti.add_argument("--quota", action="append", metavar="NAME=N",
                          help="override a tenant's max inflight jobs "
                               "(repeatable; default: the spec's "
                               "max_inflight)")
    p_cmulti.add_argument("--worker-caps", action="append",
                          metavar="RANK=CAP[,CAP...]",
                          help="declare capability vectors for same-host "
                               "transports, e.g. --worker-caps 1=md,fast "
                               "(repeatable; tcp workers declare their own "
                               "via 'mw-worker --caps')")
    p_cmulti.add_argument("--status", action="store_true",
                          help="print one status row per tenant (progress + "
                               "scheduling policy) and exit without serving")
    p_cmulti.add_argument("--json", action="store_true",
                          help="with --status: one JSON object per line")
    _add_dispatch_loop_options(p_cmulti)
    p_cmulti.set_defaults(func=_cmd_campaign_serve, batch_size=8)

    p_cstat = camp_sub.add_parser("status", help="job counts and per-cell progress")
    p_cstat.add_argument("directory")
    p_cstat.set_defaults(func=_cmd_campaign_status)

    p_cwatch = camp_sub.add_parser(
        "watch", help="tail live progress (done/failed/remaining, rate, ETA)"
    )
    p_cwatch.add_argument("directory")
    p_cwatch.add_argument("--interval", type=float, default=2.0,
                          help="seconds between polls")
    p_cwatch.add_argument("--once", action="store_true",
                          help="print a single snapshot and exit")
    p_cwatch.add_argument("--cells", action="store_true",
                          help="append one line per grid cell (done/claimed/"
                               "failed counts) to every snapshot")
    p_cwatch.add_argument("--json", action="store_true",
                          help="emit one JSON object per refresh instead of "
                               "the human one-liner (for dashboards)")
    p_cwatch.set_defaults(func=_cmd_campaign_watch)

    p_cmetrics = camp_sub.add_parser(
        "metrics",
        help="merge the metrics snapshots from telemetry.jsonl and print "
             "them in Prometheus text exposition format",
    )
    p_cmetrics.add_argument("directory")
    p_cmetrics.add_argument("--json", action="store_true",
                            help="emit the merged snapshot as JSON instead of "
                                 "Prometheus text")
    p_cmetrics.set_defaults(func=_cmd_campaign_metrics)

    p_ccompact = camp_sub.add_parser(
        "compact", help="rewrite the result store one-line-per-job (atomic)"
    )
    p_ccompact.add_argument("directory")
    p_ccompact.set_defaults(func=_cmd_campaign_compact)

    p_cmig = camp_sub.add_parser(
        "migrate-store",
        help="copy a campaign's store into a fresh directory under a new "
             "engine (jsonl <-> sqlite); lossless and idempotent, leases not "
             "migrated",
    )
    p_cmig.add_argument("source", help="existing campaign directory")
    p_cmig.add_argument("dest", help="fresh destination directory")
    p_cmig.add_argument("--store", required=True, metavar="ENGINE",
                        help="destination engine: jsonl | sqlite")
    p_cmig.set_defaults(func=_cmd_campaign_migrate_store)

    p_cserve = camp_sub.add_parser(
        "store-serve",
        help="serve a local result store over TCP for store:// runners "
             "(no shared filesystem needed; Ctrl-C to stop)",
    )
    p_cserve.add_argument("directory",
                          help="directory holding (or to hold) the store")
    p_cserve.add_argument("--listen", default="127.0.0.1:0", metavar="HOST:PORT",
                          help="address to listen on (port 0 picks a free "
                               "port; the bound address is printed on "
                               "startup; default %(default)s)")
    p_cserve.add_argument("--store", default=None, metavar="ENGINE",
                          help="backing engine for a *fresh* directory: "
                               "jsonl | sqlite (default sqlite); "
                               "existing stores auto-detect from "
                               "store-manifest.json")
    p_cserve.set_defaults(func=_cmd_campaign_store_serve)

    p_csum = camp_sub.add_parser("summary", help="per-cell aggregate table")
    p_csum.add_argument("directory")
    p_csum.set_defaults(func=_cmd_campaign_summary)

    p_ccmp = camp_sub.add_parser(
        "compare", help="paired comparison of two algorithm variants"
    )
    p_ccmp.add_argument("directory")
    p_ccmp.add_argument("label_a")
    p_ccmp.add_argument("label_b")
    p_ccmp.add_argument("--tie-width", type=float, default=0.5)
    p_ccmp.add_argument("--function", default=None,
                        help="restrict the comparison to one test function")
    p_ccmp.add_argument("--dim", type=int, default=None)
    p_ccmp.add_argument("--sigma0", type=float, default=None)
    p_ccmp.add_argument("--pooled", action="store_true",
                        help="deliberately pool pairs across grid cells")
    p_ccmp.set_defaults(func=_cmd_campaign_compare)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover - exercised via tests of main()
    sys.exit(main())
