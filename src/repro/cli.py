"""Command-line interface: ``python -m repro <command>``.

Commands
--------

``figures``
    Regenerate one (or all) of the paper's tables and print it.
``load``
    Build a Derby database and print the loading report (the Section
    3.2 numbers).
``shell``
    An interactive OQL shell over a freshly loaded Derby database:
    shows the optimizer's plan and the simulated meters for every query.
``serve``
    A multi-session shell over one shared server: open several client
    sessions, take locks, and watch conflicts happen (fail-fast mode).
``mix``
    Run a deterministic multi-client workload mix (navigators +
    scanners + updaters) through the query service and print
    per-session latency/throughput plus the aggregate.
``crash``
    Crash-recovery tooling: ``crash demo`` kills a running mix at a
    named crash point and restarts it through ARIES-lite;
    ``crash fuzz`` runs the seeded (workload x crash point) checker
    grid and exits nonzero on any recovery-contract violation.
``shard``
    Horizontal-sharding tooling: ``shard demo`` partitions a database
    across N simulated nodes, runs a distributed query through the
    coordinator and a sharded workload mix (``--replicas 1`` pairs
    every shard with a warm standby); ``shard chaos`` runs the seeded
    two-phase-commit crash/recovery checker and exits nonzero on any
    atomic-commitment violation.
``failover``
    Per-shard replication tooling: ``failover demo`` kills a primary
    under load and narrates detection, fenced promotion and the
    availability window; ``failover chaos`` runs the seeded
    primary-kill checker (zero acked loss in sync mode, fenced
    promotion, clean retry accounting) and exits nonzero on any
    violation.
``analyze``
    Collect optimizer statistics (extent cardinalities, equi-depth
    histograms, association fan-out) over a freshly built database,
    print the summary and the simulated cost, and persist the rows
    through the statistics database (``repro.stats``).
``calibrate``
    Run a measurement grid, fit the cost model coefficients by least
    squares, and score the heuristic optimizer against the measured
    winners (the old ``analyze`` command, renamed: ANALYZE now means
    what it means in a database).
``info``
    Print the cost model and memory budgets in use.
``lint``
    Run simlint, the AST invariant linter, over ``src/repro``: checks
    determinism (DET), cost charging (CHARGE), the layering DAG
    (LAYER), paired resource release (PAIR) and over-broad excepts
    (EXC).  See ``docs/lint.md``.
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, Sequence

from repro.bench import ExperimentRunner
from repro.bench.figures import (
    figure4_rids_vs_handles,
    figure6,
    figure7,
    figure9,
    figure10,
    figure11,
    figure12,
    figure13,
    figure14,
    handle_modes_figure,
)
from repro.cluster import load_derby
from repro.derby import DerbyConfig
from repro.derby.config import Clustering
from repro.oql import Catalog, OQLEngine, Query, parse_statement
from repro.errors import ReproError
from repro.units import MB

_CLUSTERING = {c.value: c for c in Clustering}
_DB_MAKERS = {
    "1to1000": DerbyConfig.db_1to1000,
    "1to3": DerbyConfig.db_1to3,
}


def _make_config(args: argparse.Namespace) -> DerbyConfig:
    maker = _DB_MAKERS[args.db]
    return maker(scale=args.scale, clustering=_CLUSTERING[args.clustering])


def _add_optimizer_option(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--optimizer", choices=("heuristic", "cost"), default="heuristic",
        help="query planner: the default heuristic planner, or the "
        "statistics-driven cost-based planner (run 'analyze' in the "
        "shell to feed it)",
    )


def _make_plan_optimizer(args: argparse.Namespace, catalog: Catalog):
    """The ``optimizer=`` argument for :class:`OQLEngine` (``None``
    keeps the engine's own heuristic planner)."""
    if args.optimizer == "cost":
        from repro.opt import CostBasedOptimizer

        return CostBasedOptimizer(catalog)
    return None


def _add_db_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--db", choices=sorted(_DB_MAKERS), default="1to1000",
        help="which of the paper's two databases to build",
    )
    parser.add_argument(
        "--clustering", choices=sorted(_CLUSTERING), default="class",
        help="physical organization (paper, Figure 2)",
    )
    parser.add_argument(
        "--scale", type=float, default=None,
        help="database scale factor (default: REPRO_SCALE or 0.01)",
    )


# ------------------------------------------------------------------ figures

_SIMPLE_FIGURES: dict[str, tuple[str, str, Callable]] = {
    # name -> (db, clustering, builder over an ExperimentRunner)
    "fig04": ("1to1000", "class", lambda r: figure4_rids_vs_handles(r)),
    "fig06": ("1to1000", "class", figure6),
    "fig07": ("1to1000", "class", figure7),
    "fig09": ("1to1000", "class", figure9),
    "fig11": ("1to1000", "class", lambda r: figure11(r)[0]),
    "fig12": ("1to3", "class", lambda r: figure12(r)[0]),
    "fig13": ("1to1000", "composition", lambda r: figure13(r)[0]),
    "fig14": ("1to3", "composition", lambda r: figure14(r)[0]),
    "handles": ("1to1000", "class", handle_modes_figure),
}


def cmd_figures(args: argparse.Namespace) -> int:
    names = (
        sorted(_SIMPLE_FIGURES) + ["fig10"]
        if args.figure == "all"
        else [args.figure]
    )
    for name in names:
        if name == "fig10":
            print(figure10())
            continue
        db_name, clustering, builder = _SIMPLE_FIGURES[name]
        maker = _DB_MAKERS[db_name]
        config = maker(
            scale=args.scale, clustering=_CLUSTERING[clustering]
        )
        print(
            f"building {db_name} / {clustering} at scale "
            f"{config.scale:g} ...",
            file=sys.stderr,
        )
        runner = ExperimentRunner(load_derby(config))
        print(builder(runner))
    return 0


# ------------------------------------------------------------------ load

def cmd_load(args: argparse.Namespace) -> int:
    config = _make_config(args)
    derby = load_derby(config)
    report = derby.load_report
    print(f"database        : {config.n_providers} providers, "
          f"{config.n_patients} patients")
    print(f"organization    : {config.clustering.value}")
    print(f"load time       : {report.seconds:.1f} simulated s")
    print(f"objects created : {report.objects_created}")
    print(f"commits         : {report.commits}")
    print(f"records moved   : {report.records_moved}")
    print(f"disk pages      : {report.disk_pages}")
    for name, build in report.index_reports.items():
        print(f"index {name}: grew {build.headers_grown} headers, "
              f"moved {build.records_moved} records")
    return 0


# ------------------------------------------------------------------ shell

def cmd_shell(args: argparse.Namespace) -> int:
    config = _make_config(args)
    print(f"loading {config.n_providers} providers / "
          f"{config.n_patients} patients "
          f"({config.clustering.value} clustering) ...")
    derby = load_derby(config)
    catalog = Catalog.from_derby(derby)
    engine = OQLEngine(
        catalog, optimizer=_make_plan_optimizer(args, catalog)
    )
    print(f"OQL shell ({args.optimizer} planner) — try:")
    print("  select count(p) from p in Patients where p.mrn < 1000")
    print("  select tuple(n: p.name, a: pa.age) from p in Providers, "
          "pa in p.clients where pa.mrn < 500 and p.upin < 5")
    print("  analyze              -- collect optimizer statistics")
    print("  explain <query>      -- plan, run, compare estimates")
    print("Type 'quit' to exit.\n")
    while True:
        try:
            line = input("oql> ").strip()
        except (EOFError, KeyboardInterrupt):
            print()
            return 0
        if not line:
            continue
        if line.lower() in ("quit", "exit", r"\q"):
            return 0
        try:
            stmt = parse_statement(line)
            plan = engine.plan(stmt) if isinstance(stmt, Query) else None
            derby.start_cold_run()
            rows = engine.execute(stmt)
        except ReproError as exc:
            print(f"error: {exc}")
            continue
        if plan is not None:
            print(f"-- plan: {plan.description}")
        shown = rows[:20] if plan is not None else rows
        for row in shown:
            print(f"   {row}")
        if len(rows) > len(shown):
            print(f"   ... {len(rows) - len(shown)} more rows")
        meters = derby.db.counters.snapshot()
        print(f"-- {len(rows)} row(s); {derby.db.clock.elapsed_s:.3f} "
              f"simulated s; {meters.disk_reads} page reads; "
              f"{meters.rpcs} RPCs; client miss "
              f"{meters.client_miss_rate:.0%}\n")


# ------------------------------------------------------------------ serve

def cmd_serve(args: argparse.Namespace) -> int:
    """Multi-session shell: several clients against one shared server."""
    from repro.service import QueryService

    config = _make_config(args)
    print(f"loading {config.n_providers} providers / "
          f"{config.n_patients} patients "
          f"({config.clustering.value} clustering) ...")
    derby = load_derby(config)
    service = QueryService(derby, optimizer=args.optimizer)
    current = service.open_session("main")
    print("Multi-session shell — one server cache, one lock table, a")
    print("private client cache per session.  Commands:")
    print(r"  \open NAME | \use NAME | \sessions")
    print(r"  \begin | \commit | \abort")
    print(r"  \lock r|w patients|providers INDEX")
    print(r"  any other line runs as OQL in the current session")
    print(r"  \quit to exit" + "\n")
    by_name = {current.name: current}
    while True:
        try:
            line = input(f"{current.name}> ").strip()
        except (EOFError, KeyboardInterrupt):
            print()
            return 0
        if not line:
            continue
        words = line.split()
        try:
            if words[0] in (r"\quit", "quit", "exit"):
                return 0
            if words[0] == r"\open":
                session = service.open_session(words[1])
                by_name[session.name] = session
                current = session
                continue
            if words[0] == r"\use":
                current = by_name[words[1]]
                continue
            if words[0] == r"\sessions":
                for name, session in by_name.items():
                    m = session.metrics
                    txn = session.txn
                    state = txn.state if txn is not None else "none"
                    print(f"  {name:10s} txn={state:9s} "
                          f"queries={m.queries} updates={m.updates} "
                          f"committed={m.committed} aborted={m.aborted} "
                          f"busy={m.busy_s:.3f}s")
                continue
            if words[0] == r"\begin":
                with service.immediate(current):
                    # simlint: ok[PROTO] interactive txn spans shell commands; \commit / \abort complete it
                    current.begin()
                continue
            if words[0] == r"\commit":
                with service.immediate(current):
                    current.commit()
                continue
            if words[0] == r"\abort":
                with service.immediate(current):
                    current.abort()
                continue
            if words[0] == r"\lock":
                mode, coll, idx = words[1], words[2], int(words[3])
                if mode not in ("r", "w"):
                    print(f"error: lock mode must be r or w, not {mode!r}")
                    continue
                rids = (derby.patient_rids if coll.startswith("pat")
                        else derby.provider_rids)
                if not 0 <= idx < len(rids):
                    print(f"error: {coll} index must be in "
                          f"0..{len(rids) - 1}, not {idx}")
                    continue
                with service.immediate(current):
                    if current.txn is None or current.txn.state != "active":
                        # simlint: ok[PROTO] auto-begin for \lock; the shell's \commit / \abort complete it
                        current.begin()
                    if mode == "w":
                        current.write_lock(rids[idx])
                    else:
                        current.read_lock(rids[idx])
                print(f"  {mode}-lock on {coll}[{idx}] granted")
                continue
            # -- OQL ----------------------------------------------------
            before_s = derby.db.clock.elapsed_s
            before_m = derby.db.counters.snapshot()
            with service.immediate(current):
                rows = current.execute(line)
            spent_s = derby.db.clock.elapsed_s - before_s
            delta = derby.db.counters.snapshot() - before_m
            for row in rows[:10]:
                print(f"   {row}")
            if len(rows) > 10:
                print(f"   ... {len(rows) - 10} more rows")
            print(f"-- {len(rows)} row(s); {spent_s:.3f} simulated s; "
                  f"{delta.disk_reads} page reads; {delta.rpcs} RPCs\n")
        except (ReproError, KeyError, IndexError, ValueError) as exc:
            print(f"error: {exc}")


# ------------------------------------------------------------------ mix

def cmd_mix(args: argparse.Namespace) -> int:
    """Run a multi-client mix and report per-session + aggregate costs."""
    from repro.service import MixConfig, WorkloadMixer
    from repro.stats import StatsDatabase, mix_to_csv, to_csv

    try:
        if args.navigators or args.scanners or args.updaters:
            mix_config = MixConfig(
                navigators=args.navigators,
                scanners=args.scanners,
                updaters=args.updaters,
            )
        else:
            mix_config = MixConfig.from_clients(args.clients)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    from dataclasses import replace as _replace
    mix_config = _replace(
        mix_config,
        ops_per_client=args.ops,
        seed=args.seed,
        lock_timeout_s=args.lock_timeout,
        batch_size=args.batch_size,
        max_retries=args.max_retries,
        budget_pages=args.budget_pages,
        budget_busy_s=args.budget_busy,
        budget_rows=args.budget_rows,
        statement_timeout_s=args.statement_timeout,
        max_active=args.max_active,
        optimizer=args.optimizer,
        isolation=args.isolation,
    )
    config = _make_config(args)
    print(f"loading {config.n_providers} providers / "
          f"{config.n_patients} patients "
          f"({config.clustering.value} clustering) ...", file=sys.stderr)
    derby = load_derby(config)
    stats = StatsDatabase()
    mixer = WorkloadMixer(derby, mix_config, stats=stats)
    report = mixer.run()
    print(report.table())
    print(f"stats database: {len(stats)} Stat row(s) recorded")
    if args.csv:
        with open(args.csv, "w") as fh:
            fh.write(to_csv(stats.rows()))
        print(f"wrote {args.csv}")
    if args.sessions_csv:
        with open(args.sessions_csv, "w") as fh:
            fh.write(mix_to_csv(report))
        print(f"wrote {args.sessions_csv}")
    return 0


# ------------------------------------------------------------------ crash

def _report_failures(results, name=lambda r: f"seed {r.seed}") -> int:
    """Print every failure of a checker run to stderr, one line each
    (``seed N: <failure>``); the exit status is 1 if any case failed."""
    for r in results:
        for failure in r.failures:
            print(f"{name(r)}: {failure}", file=sys.stderr)
    return 0 if all(r.ok for r in results) else 1


def cmd_crash_demo(args: argparse.Namespace) -> int:
    """Crash a workload mix at a named point, then recover it."""
    from repro.recovery import CrashInjector
    from repro.service import MixConfig, WorkloadMixer

    config = _make_config(args)
    print(f"loading {config.n_providers} providers / "
          f"{config.n_patients} patients "
          f"({config.clustering.value} clustering) ...", file=sys.stderr)
    derby = load_derby(config)
    injector = CrashInjector(args.point, args.occurrence)
    mix_config = MixConfig.from_clients(
        args.clients, ops_per_client=args.ops, seed=args.seed
    )
    mixer = WorkloadMixer(derby, mix_config, injector=injector)
    report = mixer.run()
    service = mixer.service
    assert service is not None
    if not report.crashed:
        print(f"mix finished cleanly: crash point {args.point!r} was "
              f"reached {injector.seen} time(s), needed "
              f"{args.occurrence}.  Try --occurrence "
              f"{max(1, injector.seen // 2)} or more --ops.")
        return 1
    wal = service.txm.log
    durable = [r for r in wal.records]
    committed = [r.txn_id for r in durable if r.kind == "commit"]
    print(f"\ncrash: {args.point} fired on occurrence {injector.seen}")
    print(f"  durable log: {len(durable)} records, LSN <= {wal.durable_lsn}")
    print(f"  acked commits before the crash: "
          f"{sum(s.metrics.committed for s in service.sessions)}")
    recovery = service.recover()
    print(f"recovery: {recovery.seconds:.4f} simulated s")
    print(f"  analysis scanned {recovery.log_records_scanned} records "
          f"({recovery.log_pages_read} log pages) from checkpoint "
          f"LSN {recovery.checkpoint_lsn}")
    print(f"  redo reapplied {recovery.records_redone} records on "
          f"{recovery.pages_redone} pages from LSN "
          f"{recovery.redo_start_lsn}")
    print(f"  undo rolled back {recovery.records_undone} records in "
          f"{recovery.txns_undone} loser transaction(s)")
    print(f"recovered transactions (durably committed): "
          f"{sorted(committed) or 'none'}")
    print(f"lost transactions (in flight, rolled back) : "
          f"{sorted(recovery.losers) or 'none'}")
    age = derby.db.manager.get_attr_at(derby.patient_rids[0], "age")
    print(f"post-recovery sanity read: patient[0].age = {age}")
    return 0


def cmd_crash_fuzz(args: argparse.Namespace) -> int:
    """Run the seeded crash/recovery checker grid."""
    from repro.recovery import CRASH_POINTS, run_fuzz, summarize
    from repro.stats import recovery_to_csv

    points = tuple(args.points) if args.points else CRASH_POINTS
    results = run_fuzz(
        range(args.seeds),
        points=points,
        txns=args.txns,
        checkpoint_every=args.checkpoint_every,
        check_determinism=not args.no_determinism,
    )
    print(summarize(results))
    if args.csv:
        from types import SimpleNamespace

        rows = [
            SimpleNamespace(
                label=f"fuzz-{r.seed}",
                crash_point=r.point,
                checkpoint_every=args.checkpoint_every,
                txns=r.txns_started,
                committed=r.durable_commits,
                lost=r.losers,
                recovery_s=r.report.seconds,
                log_records_scanned=r.report.log_records_scanned,
                log_pages_read=r.report.log_pages_read,
                pages_redone=r.report.pages_redone,
                records_redone=r.report.records_redone,
                txns_undone=r.report.txns_undone,
                records_undone=r.report.records_undone,
                durability_ok=int(r.ok),
            )
            for r in results
        ]
        with open(args.csv, "w") as fh:
            fh.write(recovery_to_csv(rows))
        print(f"wrote {args.csv}")
    return _report_failures(results, lambda r: f"seed {r.seed} point {r.point}")


def cmd_chaos(args: argparse.Namespace) -> int:
    """Run the seeded transient-fault chaos checker."""
    from repro.service.chaos import run_chaos, summarize

    results = run_chaos(
        args.cases,
        base_seed=args.seed,
        check_determinism=not args.no_determinism,
    )
    print(summarize(results))
    return _report_failures(results)


# ------------------------------------------------------------------ shard

def cmd_shard_demo(args: argparse.Namespace) -> int:
    """Partition a database, run a distributed query and a mix."""
    from repro.bench.report import Table
    from repro.dist import Coordinator, ShardedMixConfig, ShardedWorkload, load_sharded

    config = _make_config(args)
    cluster = load_sharded(
        config,
        args.shards,
        scheme=args.scheme,
        replicas=args.replicas,
        ship_mode=args.ship_mode,
    )
    coordinator = Coordinator(cluster)
    cluster.start_cold()
    threshold = config.num_threshold(args.selectivity)
    query = f"select p.age from p in Patients where p.num > {threshold}"
    rows = coordinator.execute(query, strategy=args.strategy)
    plan = coordinator.last_plan
    assert plan is not None
    print(f"> {query}")
    print(f"  {plan.description()}")
    print(
        f"  {len(rows)} rows in {cluster.elapsed_s:.3f} simulated s "
        f"({cluster.total_busy_s:.3f} s of shard work, "
        f"{cluster.msgs} messages)"
    )
    table = Table(
        f"Per-shard meters ({args.shards}x{args.scheme})",
        ["Shard", "Providers", "Patients", "Busy (s)", "Wait (s)",
         "Msgs", "Pages read"],
    )
    for node, (providers, patients) in zip(
        cluster.nodes, cluster.part.shard_sizes()
    ):
        table.add(
            node.shard_id, providers, patients, node.busy_s,
            node.remote_wait_s, node.msgs,
            node.db.disk.counters.disk_reads,
        )
    print()
    print(table)
    print()
    mix = ShardedMixConfig.from_clients(
        args.clients, ops_per_client=args.ops, seed=args.seed
    )
    report = ShardedWorkload(cluster, mix).run()
    print(report.table())
    if cluster.links:
        ship = Table(
            f"WAL shipping ({args.ship_mode})",
            ["Shard", "Ship msgs", "Records", "Bytes", "Lag",
             "Ack wait (s)"],
        )
        for sid in sorted(cluster.links):
            link = cluster.links[sid]
            ship.add(
                sid, link.ship_msgs, link.shipped_records,
                link.shipped_bytes, link.lag_records(), link.ack_wait_s,
            )
        print()
        print(ship)
    return 0


def cmd_shard_chaos(args: argparse.Namespace) -> int:
    """Run the seeded 2PC crash/recovery chaos checker."""
    from repro.dist import run_2pc_chaos, summarize_2pc

    results = run_2pc_chaos(
        args.cases,
        base_seed=args.seed,
        check_determinism=not args.no_determinism,
    )
    print(summarize_2pc(results))
    return _report_failures(results)


# ------------------------------------------------------------------ failover

def cmd_failover_demo(args: argparse.Namespace) -> int:
    """Kill a primary under load and narrate the failover."""
    from repro.dist import ShardedMixConfig, ShardedWorkload, load_sharded

    config = _make_config(args)
    cluster = load_sharded(
        config,
        args.shards,
        scheme=args.scheme,
        replicas=1,
        ship_mode=args.ship_mode,
    )
    cluster.start_cold()
    detector = cluster.detector
    assert detector is not None
    victim = args.victim % args.shards
    cluster.schedule_kill(victim, at_s=args.kill_at)
    print(
        f"{cluster!r}: killing shard {victim}'s primary at "
        f"t={args.kill_at:.3f}s (lease {detector.lease_s:.3f}s + grace "
        f"{detector.grace_s:.3f}s, {args.ship_mode} shipping)"
    )
    mix = ShardedMixConfig.from_clients(
        args.clients, ops_per_client=args.ops, seed=args.seed
    )
    report = ShardedWorkload(cluster, mix).run()
    print(report.table())
    print()
    print(f"kills {cluster.kills}, failovers {cluster.route.failovers}, "
          f"epochs {cluster.route.epochs}")
    print(f"shard {victim} unavailable "
          f"{cluster.shard_unavailable_s(victim):.4f} simulated s, "
          f"acked-loss window {cluster.loss_windows.get(victim, 0)} "
          "records")
    serving = cluster.route.node_for(victim)
    if serving.down:
        print(f"shard {victim} is still down (no promotable standby)",
              file=sys.stderr)
        return 1
    print(f"shard {victim} serving again from the promoted standby "
          f"(epoch {serving.epoch})")
    return 0


def cmd_failover_chaos(args: argparse.Namespace) -> int:
    """Run the seeded primary-kill failover chaos checker."""
    from repro.dist import run_failover_chaos, summarize_failover

    results = run_failover_chaos(
        args.cases,
        base_seed=args.seed,
        ship_mode=args.ship_mode,
        check_determinism=not args.no_determinism,
    )
    print(summarize_failover(results))
    return _report_failures(results)


# ------------------------------------------------------------------ layout

def cmd_layout(args: argparse.Namespace) -> int:
    """Print the paper's Figure 2 for a freshly built database."""
    from repro.cluster.inspect import describe_derby_layout

    config = _make_config(args)
    derby = load_derby(config)
    print(describe_derby_layout(derby, max_records=args.records))
    return 0


# ------------------------------------------------------------------ analyze

def cmd_analyze(args: argparse.Namespace) -> int:
    """Collect optimizer statistics and persist them (ANALYZE)."""
    from repro.opt import StatsCollector, save_table_stats, summarize
    from repro.stats import StatsDatabase

    config = _make_config(args)
    print(
        f"building {config.n_providers} providers / {config.n_patients} "
        f"patients ({config.clustering.value}) ...",
        file=sys.stderr,
    )
    derby = load_derby(config)
    catalog = Catalog.from_derby(derby)
    start_s = derby.db.clock.elapsed_s
    collector = StatsCollector(catalog, buckets=args.buckets)
    try:
        stats = collector.collect(args.collections or None)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    spent_s = derby.db.clock.elapsed_s - start_s
    for line in summarize(stats):
        print(line)
    print(f"analyze cost {spent_s:.3f} simulated s")
    stats_db = StatsDatabase()
    n_rows = save_table_stats(stats_db, stats)
    print(f"persisted {n_rows} statistics row(s) through repro.stats")
    return 0


# ------------------------------------------------------------------ calibrate

def cmd_calibrate(args: argparse.Namespace) -> int:
    """Run a measurement grid, fit the cost model, score the optimizer."""
    from repro.analysis import fit_cost_model, score_optimizer
    from repro.bench.figures import PAPER_ALGORITHMS
    from repro.bench.workloads import SELECTIVITY_GRID

    config = _make_config(args)
    print(
        f"building {config.n_providers} providers / {config.n_patients} "
        f"patients ({config.clustering.value}) ...",
        file=sys.stderr,
    )
    derby = load_derby(config)
    runner = ExperimentRunner(derby)
    runs = runner.run_join_grid(PAPER_ALGORITHMS, SELECTIVITY_GRID)

    fit = fit_cost_model(runs)
    print(f"cost model fitted over {fit.n_runs} runs "
          f"(R^2 = {fit.r_squared:.4f})")
    for name, coef in fit.coefficients.items():
        print(f"  {name:16s} {coef * 1e6:12.2f} us/event")

    score = score_optimizer(derby, runs)
    print(f"\noptimizer: picked the measured winner in {score.wins}/"
          f"{len(score.verdicts)} cells, mean regret "
          f"{score.mean_regret:.2f}, max {score.max_regret:.2f}")
    for v in score.verdicts:
        mark = "==" if v.chosen == v.best else "!="
        print(f"  {v.sel_patients:2d}/{v.sel_providers:2d}: chose "
              f"{v.chosen:7s} {mark} best {v.best:7s} "
              f"(regret {v.regret:.2f})")
    return 0


# ------------------------------------------------------------------ info

def cmd_info(args: argparse.Namespace) -> int:
    config = _make_config(args)
    params = config.params
    memory = params.memory
    print("cost model")
    print(f"  page read          : {params.page_read_ms} ms")
    print(f"  page transfer      : {params.page_transfer_ms} ms")
    print(f"  rpc overhead       : {params.rpc_overhead_ms} ms")
    print(f"  handle get/unref   : {params.handle_get_us}/"
          f"{params.handle_unref_us} us")
    print(f"  swap fault         : {params.swap_fault_ms} ms")
    print(f"  result element     : {params.result_append_txn_us} us (txn)")
    print("memory (scaled)")
    print(f"  ram                : {memory.ram_bytes / MB:.2f} MB")
    print(f"  server cache       : {memory.server_cache_bytes / MB:.2f} MB "
          f"({memory.server_cache_pages} pages)")
    print(f"  client cache       : {memory.client_cache_bytes / MB:.2f} MB "
          f"({memory.client_cache_pages} pages)")
    print(f"  query memory       : {memory.query_memory_bytes / MB:.2f} MB")
    print("database")
    print(f"  providers          : {config.n_providers}")
    print(f"  patients           : {config.n_patients}")
    print(f"  scale              : {config.scale:g}")
    return 0


def cmd_lint(args: argparse.Namespace) -> int:
    from repro.lint.cli import run_lint

    return run_lint(args)


# ------------------------------------------------------------------ main

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Benchmarking Queries over Trees' "
        "(SIGMOD 2000)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    figures = sub.add_parser("figures", help="regenerate a paper figure")
    figures.add_argument(
        "figure",
        choices=sorted(_SIMPLE_FIGURES) + ["fig10", "all"],
        help="which figure to build",
    )
    figures.add_argument("--scale", type=float, default=None)
    figures.set_defaults(func=cmd_figures)

    load_cmd = sub.add_parser("load", help="build a database, report costs")
    _add_db_options(load_cmd)
    load_cmd.set_defaults(func=cmd_load)

    shell = sub.add_parser("shell", help="interactive OQL shell")
    _add_db_options(shell)
    _add_optimizer_option(shell)
    shell.set_defaults(func=cmd_shell)

    serve = sub.add_parser(
        "serve", help="multi-session shell over one shared server"
    )
    _add_db_options(serve)
    _add_optimizer_option(serve)
    serve.set_defaults(func=cmd_serve)

    mix = sub.add_parser(
        "mix", help="run a deterministic multi-client workload mix"
    )
    _add_db_options(mix)
    mix.add_argument("--clients", type=int, default=4,
                     help="client count, dealt round-robin over "
                     "navigator/scanner/updater profiles")
    mix.add_argument("--navigators", type=int, default=0)
    mix.add_argument("--scanners", type=int, default=0)
    mix.add_argument("--updaters", type=int, default=0)
    mix.add_argument("--ops", type=int, default=4,
                     help="operations (transactions) per client")
    mix.add_argument("--seed", type=int, default=1)
    mix.add_argument("--batch-size", type=int, default=None,
                     help="rows per operator batch for every session's "
                          "queries (default: engine default)")
    mix.add_argument("--lock-timeout", type=float, default=None,
                     help="lock wait bound in simulated seconds "
                     "(default: none, deadlock detection only)")
    mix.add_argument("--max-retries", type=int, default=2,
                     help="retries after a deadlock/lock-timeout abort "
                          "before an op gives up (default 2)")
    mix.add_argument("--budget-pages", type=int, default=None,
                     help="per-statement client page-fault budget")
    mix.add_argument("--budget-busy", type=float, default=None,
                     help="per-statement simulated busy-time budget (s)")
    mix.add_argument("--budget-rows", type=int, default=None,
                     help="per-statement peak live-row budget")
    mix.add_argument("--statement-timeout", type=float, default=None,
                     help="per-statement elapsed-time limit (simulated s)")
    mix.add_argument("--max-active", type=int, default=None,
                     help="admission control: sessions allowed to run an "
                          "op concurrently (others queue FIFO)")
    mix.add_argument("--isolation", choices=("2pl", "si"), default="2pl",
                     help="concurrency control: strict 2PL (readers take "
                          "S locks) or MVCC snapshot isolation (lock-free "
                          "snapshot reads, first-committer-wins writes; "
                          "implies physical logging)")
    _add_optimizer_option(mix)
    mix.add_argument("--csv", default=None,
                     help="also export the Stat rows as CSV to this path")
    mix.add_argument("--sessions-csv", default=None,
                     help="also export per-session metrics as CSV "
                     "to this path")
    mix.set_defaults(func=cmd_mix)

    crash = sub.add_parser(
        "crash", help="crash-recovery demo and fuzz checker"
    )
    crash_sub = crash.add_subparsers(dest="action", required=True)

    demo = crash_sub.add_parser(
        "demo", help="crash a mix at a named point, then recover"
    )
    _add_db_options(demo)
    from repro.recovery import CRASH_POINTS as _POINTS
    demo.add_argument("--point", choices=_POINTS, default="mix-run",
                      help="which named crash point to arm")
    demo.add_argument("--occurrence", type=int, default=12,
                      help="fire the n-th time the point is reached")
    demo.add_argument("--clients", type=int, default=4)
    demo.add_argument("--ops", type=int, default=4,
                      help="operations (transactions) per client")
    demo.add_argument("--seed", type=int, default=1)
    demo.set_defaults(func=cmd_crash_demo)

    fuzz = crash_sub.add_parser(
        "fuzz", help="seeded (workload x crash point) recovery checker"
    )
    fuzz.add_argument("--seeds", type=int, default=8,
                      help="seeds per crash point (cases = seeds x points)")
    fuzz.add_argument("--points", nargs="*", choices=_POINTS, default=None,
                      help="crash points to cover (default: all)")
    fuzz.add_argument("--txns", type=int, default=10,
                      help="transactions per two-slot workload case")
    fuzz.add_argument("--checkpoint-every", type=int, default=3,
                      help="checkpoint every n started transactions "
                      "(0: never)")
    fuzz.add_argument("--no-determinism", action="store_true",
                      help="skip the double-run determinism check")
    fuzz.add_argument("--csv", default=None,
                      help="export per-case recovery rows as CSV")
    fuzz.set_defaults(func=cmd_crash_fuzz)

    chaos = sub.add_parser(
        "chaos",
        help="seeded transient-fault chaos checker (flaky reads, "
             "lock-timeout storms, governors)",
    )
    chaos.add_argument("--cases", type=int, default=50,
                       help="seeded fault-injected mix cases to run")
    chaos.add_argument("--seed", type=int, default=0,
                       help="base seed (case i uses seed base+i)")
    chaos.add_argument("--no-determinism", action="store_true",
                       help="skip the double-run determinism check")
    chaos.set_defaults(func=cmd_chaos)

    shard = sub.add_parser(
        "shard", help="horizontal-sharding demo and 2PC chaos checker"
    )
    shard_sub = shard.add_subparsers(dest="action", required=True)

    shard_demo = shard_sub.add_parser(
        "demo", help="partition a database, run a distributed query + mix"
    )
    _add_db_options(shard_demo)
    shard_demo.add_argument("--shards", type=int, default=4,
                            help="number of shard nodes")
    shard_demo.add_argument("--scheme", choices=("hash", "range"),
                            default="hash", help="partitioning scheme")
    shard_demo.add_argument("--strategy", choices=("auto", "query", "data"),
                            default="auto",
                            help="shipping strategy for the demo query")
    shard_demo.add_argument("--selectivity", type=float, default=10.0,
                            help="selectivity (%%) of the demo selection")
    shard_demo.add_argument("--clients", type=int, default=4,
                            help="clients in the sharded mix")
    shard_demo.add_argument("--ops", type=int, default=4,
                            help="operations per client")
    shard_demo.add_argument("--seed", type=int, default=1)
    shard_demo.add_argument("--replicas", type=int, default=0,
                            help="warm standbys per shard (0 or 1)")
    shard_demo.add_argument("--ship-mode", choices=("sync", "async"),
                            default="sync",
                            help="WAL shipping mode when replicated")
    shard_demo.set_defaults(func=cmd_shard_demo)

    shard_chaos = shard_sub.add_parser(
        "chaos",
        help="seeded 2PC crash/recovery checker over sharded clusters",
    )
    shard_chaos.add_argument("--cases", type=int, default=25,
                             help="seeded crash-injected cases to run")
    shard_chaos.add_argument("--seed", type=int, default=0,
                             help="base seed (case i uses seed base+i)")
    shard_chaos.add_argument("--no-determinism", action="store_true",
                             help="skip the double-run determinism check")
    shard_chaos.set_defaults(func=cmd_shard_chaos)

    failover = sub.add_parser(
        "failover",
        help="per-shard replication tooling: failover demo and chaos",
    )
    failover_sub = failover.add_subparsers(dest="action", required=True)

    failover_demo = failover_sub.add_parser(
        "demo",
        help="kill a primary under load, watch detection + promotion",
    )
    _add_db_options(failover_demo)
    failover_demo.add_argument("--shards", type=int, default=2,
                               help="number of shard nodes")
    failover_demo.add_argument("--scheme", choices=("hash", "range"),
                               default="hash", help="partitioning scheme")
    failover_demo.add_argument("--ship-mode", choices=("sync", "async"),
                               default="sync", help="WAL shipping mode")
    failover_demo.add_argument("--victim", type=int, default=0,
                               help="shard whose primary dies")
    failover_demo.add_argument("--kill-at", type=float, default=0.05,
                               help="kill time on the simulated clock (s)")
    failover_demo.add_argument("--clients", type=int, default=4,
                               help="clients in the sharded mix")
    failover_demo.add_argument("--ops", type=int, default=4,
                               help="operations per client")
    failover_demo.add_argument("--seed", type=int, default=1)
    failover_demo.set_defaults(func=cmd_failover_demo)

    failover_chaos = failover_sub.add_parser(
        "chaos",
        help="seeded primary-kill checker: zero acked loss (sync), "
        "fenced promotion, clean retries",
    )
    failover_chaos.add_argument("--cases", type=int, default=25,
                                help="seeded kill-injected cases to run")
    failover_chaos.add_argument("--seed", type=int, default=0,
                                help="base seed (case i uses seed base+i)")
    failover_chaos.add_argument("--ship-mode", choices=("sync", "async"),
                                default="sync", help="WAL shipping mode")
    failover_chaos.add_argument("--no-determinism", action="store_true",
                                help="skip the double-run determinism check")
    failover_chaos.set_defaults(func=cmd_failover_chaos)

    layout = sub.add_parser(
        "layout", help="print the Figure 2 view of a database's files"
    )
    _add_db_options(layout)
    layout.add_argument("--records", type=int, default=10,
                        help="records shown per file")
    layout.set_defaults(func=cmd_layout)

    analyze = sub.add_parser(
        "analyze",
        help="collect optimizer statistics (cardinalities, histograms, "
        "fan-out) and persist them",
    )
    _add_db_options(analyze)
    analyze.add_argument("collections", nargs="*",
                         help="collections to analyze (default: all)")
    from repro.opt import DEFAULT_BUCKETS as _BUCKETS
    analyze.add_argument("--buckets", type=int, default=_BUCKETS,
                         help="equi-depth histogram buckets per attribute")
    analyze.set_defaults(func=cmd_analyze)

    calibrate = sub.add_parser(
        "calibrate", help="fit the cost model, score the heuristic optimizer"
    )
    _add_db_options(calibrate)
    calibrate.set_defaults(func=cmd_calibrate)

    info = sub.add_parser("info", help="print cost model and budgets")
    _add_db_options(info)
    info.set_defaults(func=cmd_info)

    from repro.lint.cli import add_lint_arguments

    lint = sub.add_parser(
        "lint",
        help="run simlint, the invariant linter (determinism, cost "
        "charging, layering, pairing, exceptions)",
    )
    add_lint_arguments(lint)
    lint.set_defaults(func=cmd_lint)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
