"""Seeded 2PC chaos: crash the cluster mid-protocol, recover, verify.

The sharded analogue of :mod:`repro.service.chaos`.  Each case builds a
fresh tiny cluster, draws a shard count, partition scheme, workload
shape and a :class:`~repro.dist.twopc.TwoPCInjector` crash point from
one seeded stream, runs the mix until the injector kills the cluster,
then runs :meth:`~repro.dist.cluster.ShardedCluster.crash` /
:meth:`~repro.dist.cluster.ShardedCluster.recover` and checks the
:mod:`repro.verify` contract across all shards (docs/sharding.md).  A
distributed transaction whose commit decision went durable before the
crash won even if its client never heard the ack (decided-but-unacked);
any other branch must be gone, even one that voted yes (presumed abort).

A drawn occurrence can exceed the number of times the run reaches the
crash point; those cases simply complete crash-free and are verified
against the same oracle (with an empty decided-but-unacked set).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from random import Random

from repro.bench.report import Table
from repro.derby import DerbyConfig
from repro.dist.cluster import ShardedCluster, load_sharded
from repro.dist.replication import (
    REPLICATION_KILL_POINTS,
    ReplicationInjector,
)
from repro.dist.twopc import TWOPC_CRASH_POINTS, TwoPCInjector
from repro.dist.workload import ShardedMixConfig, ShardedWorkload
from repro.simtime import Bucket
from repro.verify import Verdict, audit_leaks, check_write_log, run_twice

#: Scale of the per-case database: ~30 patients, loads in milliseconds.
_SCALE = 0.00001


@dataclass
class TwoPCChaosResult(Verdict):
    """Outcome of one seeded 2PC chaos case."""

    seed: int
    n_shards: int
    scheme: str
    point: str
    occurrence: int
    clients: int
    committed: int
    aborted: int
    crashed: bool
    #: In-doubt branches recovery resolved from the decision log.
    resolved_commit: int
    resolved_abort: int
    failures: list[str] = field(default_factory=list)
    digest: tuple = ()


def _draw_case(
    seed: int,
) -> tuple[int, str, float | None, ShardedMixConfig, TwoPCInjector]:
    """The case generator: cluster + mix + crash point from one seed."""
    rng = Random(seed * 104_729 + 13)
    n_shards = rng.choice([2, 3, 4])
    scheme = rng.choice(["hash", "range"])
    lock_timeout_s = rng.choice([0.5, None])
    config = ShardedMixConfig.from_clients(
        rng.randint(2, 4),
        ops_per_client=rng.randint(2, 4),
        seed=seed,
        max_retries=rng.randint(1, 3),
        retry_backoff_s=rng.choice([0.005, 0.02]),
        hot_set=rng.choice([6, 10]),
    )
    injector = TwoPCInjector(
        rng.choice(TWOPC_CRASH_POINTS), occurrence=rng.randint(1, 3)
    )
    return n_shards, scheme, lock_timeout_s, config, injector


def _age(cluster: ShardedCluster, home: tuple[int, object]) -> int:
    sid, rid = home
    return int(cluster.nodes[sid].db.manager.get_attr_at(rid, "age"))


def _preload(
    cluster: ShardedCluster, config: ShardedMixConfig
) -> dict[tuple[int, object], int]:
    """Each hot patient's ``(shard, rid)`` home and its age *before* the
    run — the uncommitted-gone baseline."""
    homes = []
    for idx in range(min(config.hot_set, len(cluster.part.patient_shard))):
        sid, local = cluster.part.patient_home(idx)
        homes.append((sid, cluster.nodes[sid].derby.patient_rids[local]))
    return {home: _age(cluster, home) for home in homes}


def _decided_globals(cluster: ShardedCluster) -> set[int]:
    """Distributed transactions whose durable decision record says
    commit: they won even if no client heard the ack."""
    return {
        record.txn_id
        for record in cluster.decision_log.durable_records()
        if record.kind == "commit"
    }


def _verify(
    cluster: ShardedCluster,
    workload: ShardedWorkload,
    preload: dict,
    unacked: list[int],
    keys: list | None = None,
    exact=lambda home: True,
) -> tuple[dict, list[str]]:
    """The leak audit over every serving node and standby that is up,
    then the write-log oracle whose winners are the acked writes
    followed by the staged writes of ``unacked`` (won, never acked)."""
    up = [
        node
        for node in [*cluster.nodes, *cluster.standbys.values()]
        if not node.down
    ]
    failures = audit_leaks(
        cluster.lock_table,
        [(f"shard {n.shard_id} {n.role}", n.txm) for n in up],
        [(f"shard {n.shard_id} {n.role}", n.db.handles) for n in up],
        [(cluster.active_count, "distributed transactions registered")],
    )
    final, lost = check_write_log(
        preload,
        [
            *workload.write_log,
            *(w for gid in unacked for w in workload.staged.get(gid, [])),
        ],
        lambda home: _age(cluster, home),
        keys=keys,
        exact=exact,
        name=lambda home: f"shard {home[0]} rid {tuple(home[1])}",
    )
    return final, failures + lost


def _run_once(seed: int) -> TwoPCChaosResult:
    n_shards, scheme, lock_timeout_s, config, injector = _draw_case(seed)
    cluster = load_sharded(
        DerbyConfig.db_1to3(scale=_SCALE),
        n_shards,
        scheme=scheme,
        lock_timeout_s=lock_timeout_s,
    )
    preload = _preload(cluster, config)

    workload = ShardedWorkload(cluster, config)
    injector.arm(cluster)
    report = workload.run()

    failures: list[str] = []
    resolved_commit = 0
    resolved_abort = 0
    decided_unacked: list[int] = []
    if report.crashed:
        if not injector.fired:
            failures.append("run crashed but the 2PC injector never fired")
        cluster.crash()
        decided_unacked = sorted(
            _decided_globals(cluster) - workload.acked_globals
        )
        recovery = cluster.recover()
        resolved_commit = sum(r.txns_resolved_commit for r in recovery)
        resolved_abort = sum(r.txns_resolved_abort for r in recovery)
    elif injector.fired:
        failures.append("injector fired but the run did not crash")

    final, verified = _verify(cluster, workload, preload, decided_unacked)
    failures += verified

    digest = tuple(
        (
            s.name,
            s.committed,
            s.aborted,
            s.retries,
            s.deadlocks,
            s.timeouts,
            s.gave_up,
            s.io_failures,
        )
        for s in report.sessions
    ) + (
        round(report.elapsed_s, 9),
        report.context_switches,
        report.crashed,
        tuple(decided_unacked),
        resolved_commit,
        resolved_abort,
        tuple(sorted((sid, tuple(rid), v) for (sid, rid), v in final.items())),
    )
    return TwoPCChaosResult(
        seed=seed,
        n_shards=n_shards,
        scheme=scheme,
        point=injector.point,
        occurrence=injector.occurrence,
        clients=config.total_clients,
        committed=report.committed,
        aborted=report.aborted,
        crashed=report.crashed,
        resolved_commit=resolved_commit,
        resolved_abort=resolved_abort,
        failures=failures,
        digest=digest,
    )


def run_2pc_case(seed: int, check_determinism: bool = True) -> TwoPCChaosResult:
    """Run one seeded 2PC chaos case (twice when determinism-checked)."""
    return run_twice(lambda: _run_once(seed), f"seed {seed}", check_determinism)


def run_2pc_chaos(
    cases: int, base_seed: int = 0, check_determinism: bool = True
) -> list[TwoPCChaosResult]:
    """Run ``cases`` seeded 2PC chaos cases; see the module docstring."""
    return [
        run_2pc_case(base_seed + i, check_determinism=check_determinism)
        for i in range(cases)
    ]


def point_coverage(results: list[TwoPCChaosResult]) -> dict[str, int]:
    """How many cases actually crashed at each protocol point."""
    coverage = {point: 0 for point in TWOPC_CRASH_POINTS}
    for r in results:
        if r.crashed:
            coverage[r.point] += 1
    return coverage


# -- failover chaos ------------------------------------------------------
#
# The replication analogue of the 2PC checker above: instead of killing
# the *cluster* mid-protocol, each case kills one shard's *primary* —
# at a drawn simulated time, at a drawn WAL-ship protocol point, or as
# a double failure (primary killed, then the replica killed mid
# promotion) — lets the failure detector and fenced failover run, and
# checks the same contract on every serving node and standby, plus its
# own exemptions and protocol checks (docs/replication.md).

#: How each failover chaos case kills the primary.
FAILOVER_KILL_KINDS = ("timed", "ship", "double")


@dataclass
class FailoverChaosResult(Verdict):
    """Outcome of one seeded primary-kill chaos case."""

    seed: int
    ship_mode: str
    n_shards: int
    scheme: str
    kind: str
    #: The replication kill point ("timed" kills have none).
    point: str
    victim: int
    killed: bool
    failed_over: bool
    committed: int
    aborted: int
    unavailable: int
    loss_window: int
    unavailable_s: float
    failures: list[str] = field(default_factory=list)
    digest: tuple = ()


def _draw_failover_case(
    seed: int, ship_mode: str
) -> tuple[int, str, ShardedMixConfig, str, str, int, int, float, int]:
    """Case generator: cluster shape, mix, kill recipe from one seed."""
    rng = Random(seed * 15_485_863 + 29)
    n_shards = rng.choice([2, 3])
    scheme = rng.choice(["hash", "range"])
    config = ShardedMixConfig.from_clients(
        rng.randint(2, 4),
        ops_per_client=rng.randint(3, 5),
        seed=seed,
        max_retries=rng.randint(1, 3),
        retry_backoff_s=rng.choice([0.005, 0.02]),
        hot_set=rng.choice([6, 10]),
    )
    kind = rng.choice(FAILOVER_KILL_KINDS)
    if kind == "ship":
        point = rng.choice(REPLICATION_KILL_POINTS[:3])
    elif kind == "double":
        point = rng.choice(REPLICATION_KILL_POINTS[3:])
    else:
        point = "timed"
    victim = rng.randrange(n_shards)
    kill_at_s = rng.uniform(0.01, 0.25)
    occurrence = rng.randint(1, 3)
    max_lag = rng.choice([4, 16]) if ship_mode == "async" else 64
    return (
        n_shards, scheme, config, kind, point, victim, occurrence,
        kill_at_s, max_lag,
    )


def _settle_failover(cluster: ShardedCluster) -> None:
    """Idle the coordinator forward until every killed shard has either
    failed over or proven unpromotable: charge heartbeat-interval waits
    and tick, so leases expire on the same deterministic timeline the
    run used."""
    if cluster.detector is None:
        return
    step_s = cluster.detector.heartbeat_interval_s
    for __ in range(64):
        cluster.tick()
        down = [
            sid
            for sid in range(cluster.n_shards)
            if cluster.route.node_for(sid).down
            and cluster.standbys.get(sid) is not None
            and not cluster.standbys[sid].down
        ]
        if not down:
            return
        cluster.clock.charge_s(Bucket.BACKOFF, step_s)


def _run_failover_once(seed: int, ship_mode: str) -> FailoverChaosResult:
    (
        n_shards, scheme, config, kind, point, victim, occurrence,
        kill_at_s, max_lag,
    ) = _draw_failover_case(seed, ship_mode)
    cluster = load_sharded(
        DerbyConfig.db_1to3(scale=_SCALE),
        n_shards,
        scheme=scheme,
        replicas=1,
        ship_mode=ship_mode,
        max_lag_records=max_lag,
    )
    preload = _preload(cluster, config)

    workload = ShardedWorkload(cluster, config)
    injector: ReplicationInjector | None = None
    if kind == "timed":
        cluster.schedule_kill(victim, kill_at_s)
    elif kind == "ship":
        injector = ReplicationInjector(point, occurrence=occurrence)
        injector.arm(cluster)
    else:  # double failure: timed primary kill + replica dies promoting
        cluster.schedule_kill(victim, kill_at_s)
        injector = ReplicationInjector(point, occurrence=1)
        injector.arm(cluster)
    report = workload.run()
    _settle_failover(cluster)

    killed = cluster.kills > 0
    failed_over = any(cluster.route.failovers)
    failures: list[str] = []

    # -- protocol sanity -------------------------------------------------
    if kind == "ship" and injector is not None and injector.fired:
        if not killed:
            failures.append("ship injector fired but no primary died")
    if kind == "double" and killed and injector is not None and injector.fired:
        sid = injector.fired_shard
        if sid is not None and cluster.route.failovers[sid]:
            failures.append(
                f"shard {sid} failed over after its replica was killed "
                f"at {point}"
            )
    for sid in range(cluster.n_shards):
        if cluster.route.failovers[sid]:
            node = cluster.route.node_for(sid)
            if node.down or node.role != "primary":
                failures.append(f"shard {sid} promoted a non-serving node")
            if node.epoch != cluster.route.epoch_of(sid):
                failures.append(f"shard {sid} epoch mismatch after failover")
            if cluster.shard_unavailable_s(sid) <= 0:
                failures.append(
                    f"shard {sid} failed over with zero recorded downtime"
                )

    # Unacked-but-won commits come from two places: durable decision
    # records (multi-shard 2PC), and branch commit records that reached
    # a promoted replica's durable log (one-phase commits whose ack
    # died with the primary).
    replica_committed: set[int] = set()
    for sid in range(cluster.n_shards):
        if not cluster.route.failovers[sid]:
            continue
        node = cluster.route.node_for(sid)
        for record in node.txm.log.durable_records():
            if record.kind == "commit":
                global_id = workload.branch_globals.get((sid, record.txn_id))
                if global_id is not None:
                    replica_committed.add(global_id)
    extras = sorted(
        (_decided_globals(cluster) | replica_committed)
        - workload.acked_globals
    )

    loss_window = max(cluster.loss_windows.values(), default=0)
    if ship_mode == "sync" and loss_window:
        failures.append(
            f"sync link reported a {loss_window}-record loss window"
        )
    # A down shard cannot be read; an async shard whose link reported a
    # loss window may have lost acked writes, so only legality holds.
    lossy_shards = {
        sid for sid, window in cluster.loss_windows.items() if window
    }
    final, verified = _verify(
        cluster, workload, preload, extras,
        keys=[home for home in preload if not cluster.nodes[home[0]].down],
        exact=lambda home: ship_mode == "sync" or home[0] not in lossy_shards,
    )
    failures += verified

    total_unavailable_s = sum(
        cluster.shard_unavailable_s(sid) for sid in range(cluster.n_shards)
    )
    digest = tuple(
        (
            s.name, s.committed, s.aborted, s.retries, s.deadlocks,
            s.timeouts, s.gave_up, s.unavailable,
        )
        for s in report.sessions
    ) + (
        round(report.elapsed_s, 9),
        report.context_switches,
        killed,
        tuple(cluster.route.epochs),
        tuple(cluster.route.failovers),
        tuple(sorted(cluster.loss_windows.items())),
        tuple(extras),
        round(total_unavailable_s, 9),
        tuple(sorted((sid, tuple(rid), v) for (sid, rid), v in final.items())),
    )
    return FailoverChaosResult(
        seed=seed,
        ship_mode=ship_mode,
        n_shards=n_shards,
        scheme=scheme,
        kind=kind,
        point=point,
        victim=victim,
        killed=killed,
        failed_over=failed_over,
        committed=report.committed,
        aborted=report.aborted,
        unavailable=report.unavailable,
        loss_window=loss_window,
        unavailable_s=total_unavailable_s,
        failures=failures,
        digest=digest,
    )


def run_failover_case(
    seed: int, ship_mode: str = "sync", check_determinism: bool = True
) -> FailoverChaosResult:
    """Run one seeded primary-kill case (twice when determinism-checked)."""
    return run_twice(
        lambda: _run_failover_once(seed, ship_mode),
        f"seed {seed}",
        check_determinism,
    )


def run_failover_chaos(
    cases: int,
    base_seed: int = 0,
    ship_mode: str = "sync",
    check_determinism: bool = True,
) -> list[FailoverChaosResult]:
    """Run ``cases`` seeded primary-kill chaos cases."""
    return [
        run_failover_case(
            base_seed + i, ship_mode=ship_mode,
            check_determinism=check_determinism,
        )
        for i in range(cases)
    ]


def failover_coverage(results: list[FailoverChaosResult]) -> dict[str, int]:
    """How many cases actually killed a primary, per kill recipe."""
    coverage = {kind: 0 for kind in FAILOVER_KILL_KINDS}
    for r in results:
        if r.killed:
            coverage[r.kind] += 1
    return coverage


def summarize_failover(results: list[FailoverChaosResult]) -> Table:
    """Render a per-case failover chaos summary."""
    table = Table(
        f"Failover chaos: {len(results)} seeded primary-kill runs",
        ["Seed", "Mode", "Shards", "Kind", "Point", "Killed", "FailedOver",
         "Committed", "Unavail", "LossWin", "Down (s)", "OK"],
    )
    for r in results:
        table.add(
            r.seed, r.ship_mode, r.n_shards, r.kind, r.point,
            "yes" if r.killed else "no",
            "yes" if r.failed_over else "no",
            r.committed, r.unavailable, r.loss_window,
            round(r.unavailable_s, 4), "ok" if r.ok else "FAIL",
        )
    bad = [r for r in results if not r.ok]
    killed = sum(1 for r in results if r.killed)
    promoted = sum(1 for r in results if r.failed_over)
    table.note(
        f"{len(results) - len(bad)}/{len(results)} cases clean; "
        f"{killed} primaries killed, {promoted} failovers completed; "
        "invariants: acked-visible (sync: exactly; async: bounded loss "
        "window), uncommitted-gone, epoch fencing, zero leaks, "
        "deterministic re-runs"
    )
    return table


def summarize_2pc(results: list[TwoPCChaosResult]) -> Table:
    """Render a per-case summary table with an aggregate note."""
    table = Table(
        f"2PC chaos: {len(results)} seeded crash-injected sharded runs",
        ["Seed", "Shards", "Scheme", "CrashPoint", "Occ", "Committed",
         "Aborted", "Crashed", "ResolvedC", "ResolvedA", "OK"],
    )
    for r in results:
        table.add(
            r.seed, r.n_shards, r.scheme, r.point, r.occurrence,
            r.committed, r.aborted, "yes" if r.crashed else "no",
            r.resolved_commit, r.resolved_abort, "ok" if r.ok else "FAIL",
        )
    bad = [r for r in results if not r.ok]
    crashed = sum(1 for r in results if r.crashed)
    covered = sum(1 for n in point_coverage(results).values() if n)
    table.note(
        f"{len(results) - len(bad)}/{len(results)} cases clean; "
        f"{crashed} crashed ({covered}/{len(TWOPC_CRASH_POINTS)} protocol "
        "points covered); invariants: committed-visible (incl. "
        "decided-but-unacked), uncommitted-gone, zero leaks, "
        "deterministic re-runs"
    )
    return table
