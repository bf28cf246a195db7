"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``run``      -- execute the numeric HPL benchmark on the simulated-MPI
                  runtime and verify the solution.
* ``sim``      -- simulate a full-size run on the Crusher machine model
                  and print the score + Fig. 7 breakdown.
* ``scale``    -- the Fig. 8 weak-scaling sweep.
* ``fact``     -- the Fig. 5 FACT multi-threading sweep.
* ``bindings`` -- print the Section III.B core time-sharing map.

Batch service commands (see ``docs/service.md``):

* ``submit``   -- queue one run or a ``--sweep`` parameter grid.
* ``workers``  -- drain the queue with a multiprocess worker pool;
                  with ``--url`` the pool becomes a *remote fleet
                  member* leasing jobs from a coordinator over HTTP.
* ``serve``    -- run the JSON-over-HTTP front-end (plus an in-process
                  worker pool) so remote clients share one queue;
                  ``--shards N`` (or ``--workdir`` repeated) fans the
                  queue over several workdir shards.
* ``shards``   -- per-shard queue depth and lease stats.
* ``status``   -- job counts and per-job states (filter/paginate with
                  ``--state/--kind/--limit/--cursor``).
* ``results``  -- print results of completed jobs.
* ``cancel``   -- cancel queued jobs (idempotent: already-terminal
                  targets are reported, not errors).
* ``campaign`` -- submit a staged JSON spec as a dependency DAG
                  (``campaign submit``) and track its per-stage
                  progress (``campaign status`` / ``campaign list``).

``submit``/``workers``/``status``/``results``/``shards``/``cancel``/
``campaign`` accept ``--url`` to operate against a remote ``repro
serve`` instance instead of a local workdir.  Each is written once
against the service facade (:mod:`repro.service.facade`): ``_backend``
picks the in-process ``Service`` or the HTTP ``ServiceClient``, and the
command body cannot tell which it got.
"""

from __future__ import annotations

import argparse
import sys
import time

from .config import BcastVariant, HPLConfig, PFactVariant, Schedule
from .errors import ConfigError, ReproError, UnknownJobError


def _add_grid_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("-N", type=int, default=256, help="global problem size")
    p.add_argument("-NB", type=int, default=32, help="blocking factor")
    p.add_argument("-P", type=int, default=2, help="grid rows")
    p.add_argument("-Q", type=int, default=2, help="grid columns")


def _cmd_run(args: argparse.Namespace) -> int:
    from .hpl.api import run_hpl
    from .perf.report import format_hpl_line

    cfg = HPLConfig(
        n=args.N,
        nb=args.NB,
        p=args.P,
        q=args.Q,
        schedule=Schedule(args.schedule),
        pfact=PFactVariant(args.pfact),
        bcast=BcastVariant(args.bcast),
        split_fraction=args.frac,
        fact_threads=args.threads,
        depth=0 if args.schedule == "classic" else 1,
    )
    result = run_hpl(cfg)
    print(
        format_hpl_line(
            cfg.n, cfg.nb, cfg.p, cfg.q, result.wall_seconds,
            cfg.total_flops / result.wall_seconds / 1e12,
        )
    )
    print(f"||Ax-b||_oo / (eps (||A||||x||+||b||) N) = {result.resid:.7f} "
          f"...... {'PASSED' if result.passed else 'FAILED'}")
    return 0 if result.passed else 1


def _cmd_sim(args: argparse.Namespace) -> int:
    from .machine.frontier import crusher_cluster
    from .perf.hplsim import simulate_run
    from .perf.ledger import PerfConfig
    from .perf.report import format_breakdown_table, format_run_report

    cfg = PerfConfig(
        n=args.N,
        nb=args.NB,
        p=args.P,
        q=args.Q,
        pl=args.pl or args.P,
        ql=args.ql or args.Q,
        schedule=Schedule(args.schedule),
        split_fraction=args.frac,
    )
    nodes = (cfg.p // cfg.pl) * (cfg.q // cfg.ql)
    report = simulate_run(cfg, crusher_cluster(nodes))
    print(format_run_report(report))
    if args.breakdown:
        print(format_breakdown_table(report))
    if args.chart:
        from .perf.ascii_chart import fig7_chart

        print(fig7_chart(report))
    if args.trace:
        from .perf.hplsim import simulate_timeline
        from .sched.trace import write_chrome_trace

        timeline = simulate_timeline(cfg, crusher_cluster(nodes))
        try:
            write_chrome_trace(timeline, args.trace)
        except OSError as exc:
            raise ConfigError(f"cannot write trace: {exc}") from None
        print(f"chrome trace written to {args.trace} "
              "(open in chrome://tracing or Perfetto)")
    if args.energy:
        from .machine.frontier import crusher_node
        from .machine.power_model import energy_of_run

        energy = energy_of_run(report, crusher_node(), node_count=nodes)
        print(f"energy      : {energy.joules / 1e6:10.2f} MJ over {nodes} node(s)")
        print(f"mean power  : {energy.mean_node_w:10.0f} W/node "
              f"(peak {energy.peak_node_w:.0f} W)")
        print(f"efficiency  : {energy.gflops_per_w:10.1f} GFLOPS/W")
    return 0


def _cmd_scale(args: argparse.Namespace) -> int:
    from .perf.report import format_scaling_table
    from .perf.scaling import weak_scaling

    counts = [2**i for i in range(args.max_doublings + 1)]
    points = weak_scaling(counts, n_single=args.N, nb=args.NB)
    print(format_scaling_table(points))
    if args.chart:
        from .perf.ascii_chart import fig8_chart

        print(fig8_chart(points))
    return 0


def _cmd_fact(args: argparse.Namespace) -> int:
    from .perf.factsim import fact_sweep
    from .perf.report import format_fact_table

    curves = fact_sweep(nb=args.NB)
    print(format_fact_table(curves))
    if args.chart:
        from .perf.ascii_chart import fig5_chart

        print(fig5_chart(curves))
    return 0


def _cmd_dat(args: argparse.Namespace) -> int:
    """Run every configuration an HPL.dat file describes, HPL-style."""
    import pathlib

    from .hpl.api import run_hpl
    from .hpl.dat import encode_tv, parse_hpl_dat
    from .perf.report import (
        format_hpl_banner,
        format_hpl_footer,
        format_hpl_result_block,
    )

    dat = parse_hpl_dat(pathlib.Path(args.file).read_text())
    chunks = [format_hpl_banner()]
    nruns = nfailed = 0
    for cfg in dat.configs():
        result = run_hpl(cfg)
        nruns += 1
        nfailed += 0 if result.passed else 1
        tflops = cfg.total_flops / result.wall_seconds / 1e12
        chunks.append(
            format_hpl_result_block(
                encode_tv(cfg), cfg.n, cfg.nb, cfg.p, cfg.q,
                result.wall_seconds, tflops, result.resid, result.passed,
                threshold=dat.threshold,
            )
        )
    chunks.append(format_hpl_footer(nruns, nfailed))
    text = "\n".join(chunks)
    print(text)
    if args.output:
        out = args.output if args.output != "-" else dat.output_file
        pathlib.Path(out).write_text(text)
        print(f"results written to {out}")
    return 0 if nfailed == 0 else 1


def _cmd_bindings(args: argparse.Namespace) -> int:
    from .binding import compute_bindings, crusher_topology, validate_bindings

    topo = crusher_topology()
    bindings = compute_bindings(args.pl, args.ql, topo)
    validate_bindings(bindings, topo)
    print(f"node-local grid {args.pl}x{args.ql}: "
          f"T = {bindings[0].nthreads} threads per rank in FACT")
    for b in bindings:
        pool = ",".join(str(c) for c in b.pool_cores)
        print(f"rank {b.rank} (row {b.row}, col {b.col}): "
              f"root core {b.root_core}; pool [{pool}]")
    return 0


def _values(text: str, cast) -> list:
    """Parse a comma-separated CLI value list (``"64,128"`` -> [64, 128])."""
    try:
        return [cast(part) for part in str(text).split(",") if part != ""]
    except ValueError as exc:
        raise ConfigError(f"bad value list {text!r}: {exc}") from None


def _axis(args_value, cast, sweep: bool, name: str):
    """One sweep axis: a scalar normally, a list under ``--sweep``."""
    values = _values(args_value, cast)
    if not values:
        raise ConfigError(f"no value given for {name}")
    if len(values) > 1 and not sweep:
        raise ConfigError(
            f"{name} lists multiple values ({args_value});"
            " pass --sweep to expand a parameter grid"
        )
    return values if sweep else values[0]


def _submit_sweep(args: argparse.Namespace):
    """Build the :class:`~repro.service.Sweep` a ``submit`` call describes."""
    from .service import Sweep

    sweep = args.sweep
    if args.kind == "run":
        axes = {
            "n": _axis(args.N, int, sweep, "-N"),
            "nb": _axis(args.NB, int, sweep, "-NB"),
            "p": _axis(args.P, int, sweep, "-P"),
            "q": _axis(args.Q, int, sweep, "-Q"),
            "schedule": _axis(args.schedule, str, sweep, "--schedule"),
            "pfact": _axis(args.pfact, str, sweep, "--pfact"),
            "bcast": _axis(args.bcast, str, sweep, "--bcast"),
            "split_fraction": _axis(args.frac, float, sweep, "--frac"),
            "fact_threads": _axis(args.threads, int, sweep, "--threads"),
        }
        if not sweep:
            if axes["schedule"] == "classic":
                axes = {**axes, "depth": 0}
        else:
            classic_only = axes["schedule"] == ["classic"]
            if classic_only:
                axes = {**axes, "depth": 0}
            elif "classic" in axes["schedule"]:
                raise ConfigError(
                    "--sweep cannot mix 'classic' with look-ahead schedules"
                    " (depth differs); submit them as two sweeps"
                )
        return Sweep(kind="run", axes=axes)
    if args.kind == "sim":
        return Sweep(
            kind="sim",
            axes={
                "n": _axis(args.N, int, sweep, "-N"),
                "nb": _axis(args.NB, int, sweep, "-NB"),
                "p": _axis(args.P, int, sweep, "-P"),
                "q": _axis(args.Q, int, sweep, "-Q"),
                "pl": _axis(args.pl, int, sweep, "--pl"),
                "ql": _axis(args.ql, int, sweep, "--ql"),
                "schedule": _axis(args.schedule, str, sweep, "--schedule"),
                "split_fraction": _axis(args.frac, float, sweep, "--frac"),
            },
        )
    if args.kind == "scale":
        return Sweep(
            kind="scale",
            axes={"nnodes": _axis(args.nodes, int, sweep, "--nodes")},
            base={"n_single": int(args.N), "nb": int(args.NB),
                  "schedule": args.schedule},
        )
    if args.kind == "fact":
        return Sweep(kind="fact", axes={"nb": _axis(args.NB, int, sweep, "-NB")})
    raise ConfigError(f"unknown job kind {args.kind!r}")


def _backend(args: argparse.Namespace, client_options=None,
             service_options=None):
    """The :class:`ServiceClient` for ``--url``, else the in-process
    :class:`Service` on ``--workdir``.

    Both answer the calls of :mod:`repro.service.facade` with one
    signature and one return type each, so every service command is
    written once against whichever this returns.  The ``*_options``
    are extra constructor arguments for the backend they name.
    """
    if args.url:
        from .service.http.client import ServiceClient

        return ServiceClient(args.url, **(client_options or {}))
    from .service import Service

    return Service(args.workdir, **(service_options or {}))


def _cmd_submit(args: argparse.Namespace) -> int:
    receipt = _backend(args).submit_sweep(
        _submit_sweep(args), timeout=args.timeout, max_retries=args.retries
    )
    print(f"submitted {len(receipt.new)} new job(s), "
          f"{len(receipt.cached)} served from cache, "
          f"{len(receipt.deduped)} deduplicated against the queue")
    for jid in receipt.new:
        print(f"  queued  {jid}")
    for jid in receipt.cached:
        print(f"  cached  {jid}")
    for jid in receipt.deduped:
        print(f"  dup-of  {jid}")
    return 0


def _cmd_workers(args: argparse.Namespace) -> int:
    from .service.workers import WorkerOptions, WorkerPool

    options = WorkerOptions(
        n=args.n, drain=not args.no_drain, max_seconds=args.max_seconds,
        lease_ttl=args.ttl,
    )
    # The client carries the inline threshold, so a child's oversized
    # result is chunk-streamed to the coordinator without the pool
    # knowing (``complete_job`` switches paths); the retry backoff is
    # the coordinator's, which in process is this Service.
    backend = _backend(args,
                       client_options={"inline_max": args.inline_max},
                       service_options={"backoff_base": args.backoff})
    pool = WorkerPool(backend, options, worker=args.name or None)
    s = pool.run()
    print(f"pool {pool.worker} finished: {s.claimed} claimed, "
          f"{s.completed} completed, {s.failed} failed, "
          f"{s.retried} retried, {s.lost} lost, {s.spawned} spawned")
    c = s.counts
    if c:
        print(f"queue: {c.get('BLOCKED', 0)} blocked, "
              f"{c['PENDING']} pending, {c['RUNNING']} running, "
              f"{c['DONE']} done, {c['FAILED']} failed, "
              f"{c['CANCELLED']} cancelled")
    return 0


def _print_job_rows(jobs) -> None:
    """Render :class:`~repro.service.views.JobView` rows as a table."""
    print(f"{'id':<14}{'kind':<8}{'state':<11}{'tries':<7}note")
    for j in jobs:
        note = "cached" if j.cached else j.error[:60]
        print(f"{j.id:<14}{j.kind:<8}{j.state:<11}{j.attempts:<7}{note}")


def _print_event_row(view) -> None:
    """Render one :class:`~repro.service.views.EventView` as a line."""
    stamp = time.strftime("%H:%M:%S", time.localtime(view.t))
    note = view.data.get("worker") or view.data.get("error", "")
    print(f"{stamp}  {view.job_id:<14}{view.kind:<12}{view.state:<11}"
          f"{str(note)[:50]}", flush=True)


def _cmd_status(args: argparse.Namespace) -> int:
    backend = _backend(args)
    if args.follow:
        # Streams until every named job is terminal (forever without
        # ids); an id the service never held is an UnknownJobError.
        try:
            for view in backend.watch(job_ids=args.ids or None):
                _print_event_row(view)
        except KeyboardInterrupt:
            pass
        return 0
    if args.ids:
        _print_job_rows([backend.job(jid) for jid in args.ids])
        return 0
    page = backend.status(state=args.state or None, kind=args.kind or None,
                          limit=args.limit, cursor=args.cursor or None)
    where = f"{args.url} ({page.workdir})" if args.url \
        else f"workdir {page.workdir}"
    c = page.counts
    print(f"{where}: "
          + ", ".join(f"{c.get(s, 0)} {s.lower()}" for s in
                      ("BLOCKED", "PENDING", "RUNNING", "DONE", "FAILED",
                       "CANCELLED")))
    if page.jobs:
        _print_job_rows(page.jobs)
    if len(page.jobs) < page.total:
        more = f"next page: --cursor {page.cursor}" if page.cursor \
            else "last page"
        print(f"(showing {len(page.jobs)} of {page.total} matching job(s); "
              f"{more})")
    return 0


def _cmd_results(args: argparse.Namespace) -> int:
    import json as _json

    backend = _backend(args)
    ids = args.ids or [j.id for j in backend.status(state="DONE").jobs]
    if args.output:
        return _write_results_file(args.output, ids, backend)
    results = {jid: backend.result(jid).result for jid in ids}
    if args.json:
        print(_json.dumps(results, indent=2, sort_keys=True))
        return 0
    missing = 0
    for jid in ids:
        result = results[jid]
        if result is None:
            missing += 1
            print(f"{jid}: (no result yet)")
            continue
        line = ", ".join(
            f"{k}={result[k]:.4g}" if isinstance(result[k], float)
            else f"{k}={result[k]}"
            for k in sorted(result) if not isinstance(result[k], (list, dict))
        )
        print(f"{jid}: {line}")
    return 0 if missing == 0 else 1


def _write_results_file(output: str, ids: list, backend) -> int:
    """Stream results into ``output`` as one JSON object keyed by job id.

    Never holds a large result in memory: ``backend.download_result``
    copies it into the file chunk by chunk.  Jobs without a result yet
    are written as ``null`` and counted toward a non-zero exit.
    """
    import json as _json

    missing = 0
    with open(output, "wb") as fh:
        fh.write(b"{")
        for i, jid in enumerate(ids):
            fh.write((b"," if i else b"")
                     + _json.dumps(jid).encode("utf-8") + b":")
            if backend.download_result(jid, fh) is None:
                fh.write(b"null")
                missing += 1
        fh.write(b"}")
    done = len(ids) - missing
    note = f" ({missing} not ready)" if missing else ""
    print(f"wrote {done} result(s) to {output}{note}")
    return 0 if missing == 0 else 1


def _cmd_cancel(args: argparse.Namespace) -> int:
    """Cancel jobs, idempotently.

    Exit 0 when every target is terminal after the call -- including
    jobs that were *already* DONE/FAILED/CANCELLED (reported, not an
    error).  Exit 1 only when a target is still live (e.g. RUNNING,
    which cancel does not preempt); an unknown id exits 2 as usual.
    """
    backend = _backend(args)
    ids = args.ids
    if args.all:
        ids = [j.id for state in ("BLOCKED", "PENDING")
               for j in backend.status(state=state).jobs]
    if not ids:
        print("nothing to cancel")
        return 0
    outcomes = [backend.cancel_job(jid) for jid in ids]
    terminal = ("DONE", "FAILED", "CANCELLED")
    flipped = [v for hit, v in outcomes if hit]
    already = [v for hit, v in outcomes if not hit and v.state in terminal]
    live = [v for hit, v in outcomes if not hit and v.state not in terminal]
    note = f", {len(already)} already terminal" if already else ""
    print(f"cancelled {len(flipped)} of {len(ids)} job(s){note}")
    for v in flipped:
        print(f"  cancelled {v.id}")
    for v in already:
        print(f"  already   {v.id} ({v.state})")
    for v in live:
        print(f"  live      {v.id} ({v.state}; cancel does not preempt)")
    return 0 if not live else 1


def _cmd_campaign(args: argparse.Namespace) -> int:
    """``repro campaign submit|status|list``: staged job DAGs.

    ``submit`` prints each stage's job ids on one line (scripts scrape
    them); ``status`` prints a ``state=<word>`` token plus a per-stage
    progress table, so ``repro campaign status ID | grep state=done``
    is a polling loop's whole condition.
    """
    import json as _json

    backend = _backend(args)
    if args.action == "submit":
        try:
            with open(args.spec) as fh:
                spec = _json.load(fh)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot read campaign spec: {exc}") from None
        view = backend.submit_campaign(spec, timeout=args.timeout,
                                       max_retries=args.retries)
        print(f"campaign {view.id} ({view.name}): {view.njobs} job(s)"
              f" in {len(view.stages)} stage(s)")
        for stage in view.stages:
            print(f"  stage {stage.name}  {len(stage.job_ids)} job(s):"
                  f" {' '.join(stage.job_ids)}")
        return 0
    if args.action == "list":
        print(f"{'id':<14}{'name':<22}{'state':<11}{'jobs':<6}stages")
        for v in backend.campaigns():
            print(f"{v.id:<14}{v.name[:20]:<22}{v.state:<11}{v.njobs:<6}"
                  + ",".join(s.name for s in v.stages))
        return 0
    view = backend.campaign(args.id)
    print(f"campaign {view.id} ({view.name}) state={view.state}"
          f" jobs={view.njobs}")
    print(f"{'stage':<14}{'kind':<8}{'state':<11}{'blocked':<9}"
          f"{'pending':<9}{'running':<9}{'done':<7}{'failed':<8}cancelled")
    for s in view.stages:
        c = s.counts
        print(f"{s.name[:12]:<14}{s.kind:<8}{s.state:<11}"
              f"{c.get('BLOCKED', 0):<9}{c.get('PENDING', 0):<9}"
              f"{c.get('RUNNING', 0):<9}{c.get('DONE', 0):<7}"
              f"{c.get('FAILED', 0):<8}{c.get('CANCELLED', 0)}")
    if args.dag:
        for node in backend.campaign_dag(view.id).nodes:
            deps = ",".join(node["depends_on"]) or "-"
            print(f"  {node['id']}  {node['stage']:<14}"
                  f"{node['state']:<11}<- {deps}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from .service.http.server import ServiceHTTPServer

    workdirs = args.workdir or [".repro-service"]
    if args.shards < 1:
        raise ConfigError(f"--shards must be >= 1, got {args.shards}")
    if len(workdirs) > 1 and args.shards != 1:
        raise ConfigError(
            "pass either --shards N or --workdir repeated, not both"
        )
    if args.max_queue_depth < 0:
        raise ConfigError(
            f"--max-queue-depth must be >= 0, got {args.max_queue_depth}"
        )
    if args.rate_limit < 0:
        raise ConfigError(
            f"--rate-limit must be >= 0, got {args.rate_limit}"
        )
    server = ServiceHTTPServer(
        workdirs[0], host=args.host, port=args.port,
        workers=args.workers, backoff_base=args.backoff, quiet=args.quiet,
        shards=args.shards,
        shard_workdirs=workdirs if len(workdirs) > 1 else None,
        inline_max=args.inline_max,
        max_queue_depth=args.max_queue_depth,
        rate_limit=args.rate_limit, rate_burst=args.rate_burst,
    )
    nshards = server.service.nshards
    shard_note = f" across {nshards} shard(s)" if nshards > 1 else ""
    print(f"serving {server.service.workdir} on {server.url} "
          f"with {args.workers} worker slot(s){shard_note}", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.shutdown()
        print("server stopped", flush=True)
    return 0


def _cmd_shards(args: argparse.Namespace) -> int:
    """Per-shard depth/lease figures from the backend's ``healthz``."""
    health = _backend(args).healthz()
    stats = health["shards"]
    where = args.url or f"workdir {health['workdir']}"
    degraded = [s for s in stats if not s.get("ok", False)]
    print(f"{where}: {len(stats)} shard(s)"
          + (f", {len(degraded)} DEGRADED" if degraded else ""))
    print(f"{'shard':<7}{'blocked':<9}{'pending':<9}{'running':<9}"
          f"{'done':<7}{'failed':<8}{'leases':<8}workdir")
    for s in stats:
        if not s.get("ok", False):
            print(f"{s['index']:<7}{'-':<9}{'-':<9}{'-':<9}{'-':<7}{'-':<8}"
                  f"{'-':<8}{s['workdir']}  DEGRADED:"
                  f" {s.get('error', '')[:80]}")
            continue
        c = s["counts"]
        print(f"{s['index']:<7}{c.get('BLOCKED', 0):<9}{c['PENDING']:<9}"
              f"{c['RUNNING']:<9}{c['DONE']:<7}{c['FAILED']:<8}"
              f"{s['leases']:<8}{s['workdir']}")
    return 1 if degraded else 0


def _add_service_args(p: argparse.ArgumentParser, remote: bool = False,
                      multi_workdir: bool = False) -> None:
    if multi_workdir:
        p.add_argument("--workdir", action="append", default=None,
                       help="service state directory (queue + cache); "
                            "repeat to shard the queue over several "
                            "explicit directories")
    else:
        p.add_argument("--workdir", default=".repro-service",
                       help="service state directory (queue + cache)")
    if remote:
        p.add_argument("--url", default="",
                       help="operate on a remote `repro serve` instance "
                            "instead of a local workdir")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="pyroHPL: rocHPL reproduction toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="numeric HPL run on simulated MPI")
    _add_grid_args(p_run)
    p_run.add_argument("--schedule", choices=[s.value for s in Schedule],
                       default="split")
    p_run.add_argument("--pfact", choices=[v.value for v in PFactVariant],
                       default="right")
    p_run.add_argument("--bcast", choices=[b.value for b in BcastVariant],
                       default="1ringM")
    p_run.add_argument("--frac", type=float, default=0.5,
                       help="split-update right-section fraction")
    p_run.add_argument("--threads", type=int, default=1,
                       help="FACT threads per rank")
    p_run.set_defaults(fn=_cmd_run)

    p_sim = sub.add_parser("sim", help="performance simulation (Fig. 7)")
    _add_grid_args(p_sim)
    p_sim.set_defaults(N=256000, NB=512, P=4, Q=2)
    p_sim.add_argument("--pl", type=int, default=0, help="node-local grid rows")
    p_sim.add_argument("--ql", type=int, default=0, help="node-local grid cols")
    p_sim.add_argument("--schedule", choices=[s.value for s in Schedule],
                       default="split")
    p_sim.add_argument("--frac", type=float, default=0.5)
    p_sim.add_argument("--breakdown", action="store_true",
                       help="print the per-iteration Fig. 7 table")
    p_sim.add_argument("--chart", action="store_true",
                       help="render Fig. 7 as an ASCII chart")
    p_sim.add_argument("--energy", action="store_true",
                       help="print the run's energy/power accounting")
    p_sim.add_argument("--trace", metavar="FILE", default="",
                       help="write the simulated timeline as a Chrome trace")
    p_sim.set_defaults(fn=_cmd_sim)

    p_scale = sub.add_parser("scale", help="weak scaling sweep (Fig. 8)")
    p_scale.add_argument("-N", type=int, default=256000,
                         help="single-node problem size")
    p_scale.add_argument("-NB", type=int, default=512)
    p_scale.add_argument("--max-doublings", type=int, default=7,
                         help="scale to 2^k nodes")
    p_scale.add_argument("--chart", action="store_true",
                         help="render Fig. 8 as an ASCII chart")
    p_scale.set_defaults(fn=_cmd_scale)

    p_fact = sub.add_parser("fact", help="FACT threading sweep (Fig. 5)")
    p_fact.add_argument("-NB", type=int, default=512)
    p_fact.add_argument("--chart", action="store_true",
                        help="render Fig. 5 as an ASCII chart")
    p_fact.set_defaults(fn=_cmd_fact)

    p_dat = sub.add_parser("dat", help="run every config in an HPL.dat file")
    p_dat.add_argument("file", help="path to an HPL.dat input file")
    p_dat.add_argument("-o", "--output", default="",
                       help="also write results to a file "
                            "('-' = the name from the .dat file)")
    p_dat.set_defaults(fn=_cmd_dat)

    p_bind = sub.add_parser("bindings", help="core time-sharing map (Sec. III.B)")
    p_bind.add_argument("--pl", type=int, default=4)
    p_bind.add_argument("--ql", type=int, default=2)
    p_bind.set_defaults(fn=_cmd_bindings)

    p_sub = sub.add_parser(
        "submit", help="queue a benchmark run (or --sweep grid) in the service"
    )
    _add_service_args(p_sub, remote=True)
    p_sub.add_argument("--kind", choices=["run", "sim", "scale", "fact"],
                       default="sim", help="what each job executes")
    p_sub.add_argument("--sweep", action="store_true",
                       help="expand comma-separated values into a grid")
    p_sub.add_argument("-N", default="4096", help="problem size(s); for "
                       "--kind scale this is the single-node N")
    p_sub.add_argument("-NB", default="256", help="blocking factor(s)")
    p_sub.add_argument("-P", default="2", help="grid rows (list ok)")
    p_sub.add_argument("-Q", default="2", help="grid columns (list ok)")
    p_sub.add_argument("--pl", default="0", help="node-local grid rows "
                       "(sim; 0 = whole grid)")
    p_sub.add_argument("--ql", default="0", help="node-local grid cols")
    p_sub.add_argument("--schedule", default="split",
                       help="iteration schedule(s)")
    p_sub.add_argument("--pfact", default="right",
                       help="panel factorization variant(s) (run)")
    p_sub.add_argument("--bcast", default="1ringM",
                       help="broadcast variant(s) (run)")
    p_sub.add_argument("--frac", default="0.5",
                       help="split-update fraction(s)")
    p_sub.add_argument("--threads", default="1",
                       help="FACT threads per rank (run)")
    p_sub.add_argument("--nodes", default="1,2,4,8",
                       help="node counts (scale)")
    p_sub.add_argument("--timeout", type=float, default=0.0,
                       help="per-attempt wall-clock limit in seconds")
    p_sub.add_argument("--retries", type=int, default=2,
                       help="extra attempts after a failure")
    p_sub.set_defaults(fn=_cmd_submit)

    p_work = sub.add_parser(
        "workers", help="drain queued jobs with a multiprocess worker pool"
    )
    _add_service_args(p_work, remote=True)
    p_work.add_argument("-n", type=int, default=2, help="worker slots")
    p_work.add_argument("--max-seconds", type=float, default=None,
                        help="stop after this many seconds even if not drained")
    p_work.add_argument("--backoff", type=float, default=0.5,
                        help="retry backoff base in seconds (local "
                             "workdir mode; with --url the coordinator's "
                             "own --backoff applies)")
    p_work.add_argument("--no-drain", action="store_true",
                        help="keep serving instead of exiting when drained")
    p_work.add_argument("--ttl", type=float, default=30.0,
                        help="lease TTL in seconds: how long after this "
                             "pool dies its jobs are requeued")
    p_work.add_argument("--name", default="",
                        help="worker name recorded on claimed jobs "
                             "(default: hostname-pid)")
    p_work.add_argument("--inline-max", type=int, default=1024 * 1024,
                        help="results larger than this many encoded bytes "
                             "are chunk-streamed to the coordinator "
                             "(remote --url mode)")
    p_work.set_defaults(fn=_cmd_workers)

    p_serve = sub.add_parser(
        "serve", help="serve the queue over HTTP (see docs/service.md)"
    )
    _add_service_args(p_serve, multi_workdir=True)
    p_serve.add_argument("--shards", type=int, default=1,
                         help="fan the queue over this many workdir "
                              "shards under --workdir (1 = plain store)")
    p_serve.add_argument("--host", default="127.0.0.1",
                         help="interface to bind")
    p_serve.add_argument("--port", type=int, default=8400,
                         help="port to bind (0 = ephemeral)")
    p_serve.add_argument("--workers", type=int, default=2,
                         help="in-process worker slots in total, "
                              "whatever --shards is (0 = serve only; "
                              "run `repro workers` separately)")
    p_serve.add_argument("--backoff", type=float, default=0.5,
                         help="retry backoff base (seconds)")
    p_serve.add_argument("--verbose", dest="quiet", action="store_false",
                         help="log every request to stderr")
    p_serve.add_argument("--inline-max", type=int, default=1024 * 1024,
                         help="results larger than this many encoded "
                              "bytes are served as chunk streams instead "
                              "of inline JSON")
    p_serve.add_argument("--max-queue-depth", type=int, default=0,
                         help="refuse submissions (429 overloaded) while "
                              "this many jobs are outstanding "
                              "(0 = no watermark)")
    p_serve.add_argument("--rate-limit", type=float, default=0.0,
                         help="per-client submit requests per second, "
                              "keyed on X-Client-Id (0 = unlimited)")
    p_serve.add_argument("--rate-burst", type=float, default=None,
                         help="token-bucket burst size "
                              "(default: one second of --rate-limit)")
    p_serve.set_defaults(fn=_cmd_serve)

    p_stat = sub.add_parser("status", help="job counts and per-job states")
    _add_service_args(p_stat, remote=True)
    p_stat.add_argument("ids", nargs="*",
                        help="job ids to show (default: every job)")
    p_stat.add_argument("--state", default="",
                        help="only show jobs in this state (e.g. DONE)")
    p_stat.add_argument("--kind", default="",
                        help="only show jobs of this kind (e.g. sim)")
    p_stat.add_argument("--limit", type=int, default=None,
                        help="show at most this many jobs")
    p_stat.add_argument("--cursor", default="", metavar="TOKEN",
                        help="continue from the page whose footer "
                             "printed this token (with --limit: paging)")
    p_stat.add_argument("--follow", action="store_true",
                        help="stream job transitions live instead of a "
                             "snapshot (with ids: exits once they finish; "
                             "Ctrl-C to stop)")
    p_stat.set_defaults(fn=_cmd_status)

    p_res = sub.add_parser("results", help="print results of completed jobs")
    _add_service_args(p_res, remote=True)
    p_res.add_argument("ids", nargs="*", help="job ids (default: all DONE)")
    p_res.add_argument("--json", action="store_true",
                       help="dump results as JSON")
    p_res.add_argument("-o", "--output", default="",
                       help="stream results into FILE as JSON instead of "
                            "printing (large results are chunk-downloaded, "
                            "never held in memory)")
    p_res.set_defaults(fn=_cmd_results)

    p_shards = sub.add_parser(
        "shards", help="per-shard queue depth and lease stats"
    )
    _add_service_args(p_shards, remote=True)
    p_shards.set_defaults(fn=_cmd_shards)

    p_can = sub.add_parser("cancel", help="cancel queued jobs (idempotent)")
    _add_service_args(p_can, remote=True)
    p_can.add_argument("ids", nargs="*", help="job ids to cancel")
    p_can.add_argument("--all", action="store_true",
                       help="cancel every blocked or pending job")
    p_can.set_defaults(fn=_cmd_cancel)

    p_camp = sub.add_parser(
        "campaign", help="submit and track staged job DAGs"
    )
    camp_sub = p_camp.add_subparsers(dest="action", required=True)
    p_camp_sub = camp_sub.add_parser(
        "submit", help="expand a staged JSON spec into a job DAG"
    )
    _add_service_args(p_camp_sub, remote=True)
    p_camp_sub.add_argument("--spec", required=True,
                            help="path to the campaign JSON spec file")
    p_camp_sub.add_argument("--timeout", type=float, default=0.0,
                            help="default per-attempt wall-clock limit")
    p_camp_sub.add_argument("--retries", type=int, default=2,
                            help="default extra attempts after a failure")
    p_camp_sub.set_defaults(fn=_cmd_campaign)
    p_camp_stat = camp_sub.add_parser(
        "status", help="per-stage progress for one campaign"
    )
    _add_service_args(p_camp_stat, remote=True)
    p_camp_stat.add_argument("id", help="campaign id")
    p_camp_stat.add_argument("--dag", action="store_true",
                             help="also print every node and its parents")
    p_camp_stat.set_defaults(fn=_cmd_campaign)
    p_camp_list = camp_sub.add_parser(
        "list", help="every campaign the service knows"
    )
    _add_service_args(p_camp_list, remote=True)
    p_camp_list.set_defaults(fn=_cmd_campaign)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except BrokenPipeError:
        # stdout consumer (e.g. `head`) went away; not an error.
        return 0
    except ConfigError as exc:
        # Invalid configuration: one clean line, exit 2, so scripts and
        # service workers can tell bad input from a crash (which still
        # tracebacks).
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except UnknownJobError as exc:
        # Same contract as ConfigError: a job id the caller made up is
        # bad input, not a service failure.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
