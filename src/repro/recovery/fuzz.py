"""Seeded crash-recovery fuzz checker.

Each case builds a small durably-loaded database, runs a seeded random
transactional workload with a :class:`CrashInjector` armed at one of the
named crash points, crashes, restarts through the ARIES-lite driver and
then checks the :mod:`repro.verify` contract against an oracle kept
outside the simulated system: leaks after restart, the write-log oracle
(winners: the durably-committed transactions in commit-LSN order; exact
for every record; loser-created records gone) and deterministic
recovery.  Its own checks:

* every transaction whose ``commit()`` returned (the ack) has a durable
  commit record — no lost acks;
* **snapshot consistency** (``mix-run`` cases): a snapshot-isolation
  reader runs alongside the writers, and every value it reads must
  equal the committed state of that record *at the reader's begin
  timestamp* — stable across writer commits, aborts and yields — per
  an oracle maintained outside the simulated system.

``mix-run`` cases drive several concurrent workers through the
cooperative scheduler (lock waits, deadlock retries) — the same
machinery the :class:`~repro.service.WorkloadMixer` runs on — so the
crash lands mid-concurrent-run; the other points use a two-slot
interleaved workload over disjoint key pools.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from random import Random

from repro.errors import (
    LockConflictError,
    ReproError,
    ServiceError,
    SimulatedCrashError,
    StorageError,
)
from repro.objects import AttrKind, AttributeDef, Database, Schema
from repro.recovery.aries import RecoveryReport, restart, take_checkpoint
from repro.recovery.crash import CRASH_POINTS, CrashInjector, crash_database
from repro.storage.rid import Rid
from repro.txn import TransactionManager
from repro.verify import Verdict, audit_leaks, check_write_log, run_twice

#: Fixed-width filler so base records spread over several pages.
_PAD = "x" * 96

#: How many times each crash point can plausibly be reached in one case;
#: the occurrence is drawn from this range so crashes land early, late
#: and (sometimes) never — the never case degenerates to a clean crash
#: at quiesce, which recovery must also handle.
_OCCURRENCE_RANGE = {
    "log-append": 48,
    "commit-flush": 14,
    "flush-write-gap": 8,
    "checkpoint": 4,
    "mix-run": 56,
}


@dataclass
class FuzzResult(Verdict):
    """Outcome of one (seed, crash point) case."""

    seed: int
    point: str
    occurrence: int
    fired: bool
    txns_started: int
    acked: int
    durable_commits: int
    losers: int
    failures: list[str] = field(default_factory=list)
    report: RecoveryReport = field(default_factory=RecoveryReport)
    #: Canonical recovered state: ``((rid, value | None), ...)`` — used
    #: by the determinism check.
    digest: tuple = ()


def _make_db(base_records: int = 96) -> tuple[Database, list[Rid]]:
    """A small Thing database whose base records are durably on disk."""
    schema = Schema()
    schema.define(
        "Thing",
        [
            AttributeDef("x", AttrKind.INT32),
            AttributeDef("pad", AttrKind.STRING, width=len(_PAD)),
        ],
    )
    db = Database(schema)
    db.create_file("things")
    rids = [
        db.create_object("Thing", {"x": i * 100, "pad": _PAD}, "things")
        for i in range(base_records)
    ]
    db.shutdown()  # flush: the preload is durable before the fuzz starts
    return db, rids


def _read_x(db: Database, rid: Rid):
    """Recovered value of ``rid``'s x, or ``None`` if the record is gone."""
    try:
        return db.manager.get_attr_at(rid, "x")
    except (StorageError, ReproError):
        return None


def run_case(
    seed: int,
    point: str,
    txns: int = 10,
    checkpoint_every: int = 3,
) -> FuzzResult:
    """Run one seeded workload, crash at ``point``, recover and verify."""
    rng = Random(seed * 1_000_003 + CRASH_POINTS.index(point))
    db, rids = _make_db()
    txm = TransactionManager(db, recovery=True)
    occurrence = rng.randint(1, _OCCURRENCE_RANGE[point])
    injector = CrashInjector(point, occurrence)
    injector.arm(db, txm.log)

    base = {rid: i * 100 for i, rid in enumerate(rids)}
    txn_writes: dict[int, dict[Rid, int]] = {}
    txn_creates: dict[int, list[Rid]] = {}
    acked: list[int] = []

    snapshot_failures: list[str] = []
    try:
        if point == "mix-run":
            started = _mix_workload(
                db, txm, rids, rng, txn_writes, txn_creates, acked,
                snapshot_failures,
            )
        else:
            started = _two_slot_workload(
                db, txm, rids, rng, txn_writes, txn_creates, acked,
                txns, checkpoint_every,
            )
    except SimulatedCrashError:
        started = len(txn_writes)

    crash_database(db, txm)
    commit_order = [r.txn_id for r in txm.log.records if r.kind == "commit"]
    report = restart(db, txm)

    failures = snapshot_failures + audit_leaks(
        txm.locks, [("", txm)], [("", db.handles)]
    )
    durable = set(commit_order)
    for txn_id in acked:
        if txn_id not in durable:
            failures.append(f"txn {txn_id}: commit acked but not durable")

    winners = [w for t in commit_order for w in txn_writes.get(t, {}).items()]
    loser_creates = sorted(
        rid for t, rids in txn_creates.items() if t not in durable for rid in rids
    )
    final, lost = check_write_log(
        base, winners, lambda rid: _read_x(db, rid), gone=loser_creates
    )
    failures += lost

    digest = tuple((tuple(rid), final[rid]) for rid in sorted(final)) + (
        report.log_records_scanned,
        report.records_redone,
        report.records_undone,
        report.txns_undone,
        round(report.seconds, 9),
    )
    return FuzzResult(
        seed=seed,
        point=point,
        occurrence=occurrence,
        fired=injector.fired,
        txns_started=started,
        acked=len(acked),
        durable_commits=len(durable),
        losers=report.txns_undone,
        failures=failures,
        report=report,
        digest=digest,
    )


def _two_slot_workload(
    db, txm, rids, rng, txn_writes, txn_creates, acked, txns, checkpoint_every
) -> int:
    """Up to two interleaved transactions over disjoint rid pools, so a
    crash can leave several losers and checkpoints see a live ATT."""
    half = len(rids) // 2
    pools = (rids[:half], rids[half:])
    slots: list[dict | None] = [None, None]
    started = 0
    while started < txns or any(s is not None for s in slots):
        i = rng.randrange(2)
        if slots[i] is None:
            if started >= txns:
                i = next(j for j, s in enumerate(slots) if s is not None)
            else:
                if checkpoint_every and started and started % checkpoint_every == 0:
                    take_checkpoint(db, txm)
                txn = txm.begin()
                txn_writes[txn.txn_id] = {}
                txn_creates[txn.txn_id] = []
                slots[i] = {"txn": txn, "ops": 0}
                started += 1
                continue
        slot = slots[i]
        txn = slot["txn"]
        roll = rng.random()
        if roll < 0.55 or slot["ops"] == 0:
            rid = pools[i][rng.randrange(len(pools[i]))]
            value = rng.randrange(1_000_000)
            txn.update_scalar(rid, "x", value)
            txn_writes[txn.txn_id][rid] = value
            slot["ops"] += 1
        elif roll < 0.70:
            value = rng.randrange(1_000_000)
            rid = txn.create_object("Thing", {"x": value, "pad": _PAD}, "things")
            txn_writes[txn.txn_id][rid] = value
            txn_creates[txn.txn_id].append(rid)
            slot["ops"] += 1
        elif roll < 0.88:
            txn.commit()
            acked.append(txn.txn_id)
            slots[i] = None
        else:
            txn.abort()
            slots[i] = None
    return started


def _mix_workload(
    db, txm, rids, rng, txn_writes, txn_creates, acked, snapshot_failures
) -> int:
    """Three concurrent writers plus one snapshot-isolation reader over
    an overlapping hot set, scheduled cooperatively with lock waits and
    deadlock-abort retries.  The reader verifies snapshot consistency
    against ``committed_now`` — the committed value of every hot record,
    maintained at each commit ack (ack order on the single deterministic
    timeline *is* commit order, so the dict at the reader's ``begin()``
    is exactly the committed state at its begin timestamp)."""
    from repro.service.scheduler import CooperativeScheduler

    scheduler = CooperativeScheduler(db.clock, txm.locks)
    db.system.on_fault = scheduler.yield_point
    hot = rids[: max(6, len(rids) // 3)]
    # Enable MVCC before any writer begins (the way QueryService does for
    # isolation="si"), so every write stashes its pre-image and the
    # reader's snapshots have no blind spot.
    txm.enable_mvcc()
    committed_now = {rid: i * 100 for i, rid in enumerate(hot)}

    def worker(worker_seed: int, ops: int):
        wrng = Random(worker_seed)

        def run() -> None:
            for __ in range(ops):
                for __retry in range(4):
                    txn = txm.begin()
                    txn_writes[txn.txn_id] = {}
                    txn_creates[txn.txn_id] = []
                    try:
                        for __w in range(2):
                            rid = hot[wrng.randrange(len(hot))]
                            value = wrng.randrange(1_000_000)
                            txn.update_scalar(rid, "x", value)
                            txn_writes[txn.txn_id][rid] = value
                            scheduler.yield_point()
                        txn.commit()
                        acked.append(txn.txn_id)
                        committed_now.update(txn_writes[txn.txn_id])
                        break
                    except LockConflictError:
                        if txn.state == "active":
                            txn.abort()

        return run

    def reader(worker_seed: int, ops: int):
        wrng = Random(worker_seed)

        def run() -> None:
            for __ in range(ops):
                # Captured in the same scheduler slice as begin() (no
                # yield between), so this IS the committed state at the
                # snapshot's begin timestamp.
                expected = dict(committed_now)
                txn = txm.begin(isolation="si")
                try:
                    sample = [
                        hot[wrng.randrange(len(hot))] for __r in range(3)
                    ]
                    seen = {}
                    for rid in sample:
                        value = txn.read_attr(rid, "x")
                        seen[rid] = value
                        if value != expected[rid]:
                            snapshot_failures.append(
                                f"si reader txn {txn.txn_id}: rid "
                                f"{tuple(rid)} read {value}, committed "
                                f"state at begin-ts was {expected[rid]}"
                            )
                        scheduler.yield_point()
                    for rid in sample:
                        again = txn.read_attr(rid, "x")
                        if again != seen[rid]:
                            snapshot_failures.append(
                                f"si reader txn {txn.txn_id}: rid "
                                f"{tuple(rid)} moved {seen[rid]} -> "
                                f"{again} inside one snapshot"
                            )
                        scheduler.yield_point()
                    txn.commit()
                except LockConflictError:
                    if txn.state == "active":
                        txn.abort()

        return run

    for w in range(3):
        scheduler.spawn(f"w{w}", worker(rng.randrange(2**31), ops=4))
    scheduler.spawn("si-reader", reader(rng.randrange(2**31), ops=4))
    try:
        tasks = scheduler.run()
    finally:
        db.system.on_fault = None
        txm.locks.detach()
    crashed = False
    for task in tasks:
        if task.error is None:
            continue
        if isinstance(task.error, SimulatedCrashError):
            crashed = True
        elif not isinstance(task.error, (ServiceError, LockConflictError)):
            raise task.error
    if crashed:
        raise SimulatedCrashError("mix-run workload crashed")
    return len(txn_writes)


def run_fuzz(
    seeds,
    points=CRASH_POINTS,
    txns: int = 10,
    checkpoint_every: int = 3,
    check_determinism: bool = True,
) -> list[FuzzResult]:
    """Run the full (seed × crash point) grid; each case is independent.

    With ``check_determinism`` every case runs twice and the recovered
    state digests must match exactly.
    """
    return [
        run_twice(
            lambda: run_case(seed, point, txns, checkpoint_every),
            f"seed {seed} point {point}",
            check_determinism,
        )
        for point in points
        for seed in seeds
    ]


def summarize(results) -> str:
    """Human-readable per-point summary of a fuzz run."""
    lines = []
    by_point: dict[str, list[FuzzResult]] = {}
    for r in results:
        by_point.setdefault(r.point, []).append(r)
    header = (
        f"{'point':<16} {'cases':>5} {'fired':>5} {'acked':>6} "
        f"{'durable':>7} {'losers':>6} {'failures':>8}"
    )
    lines.append(header)
    lines.append("-" * len(header))
    for point in sorted(by_point):
        rs = by_point[point]
        lines.append(
            f"{point:<16} {len(rs):>5} {sum(r.fired for r in rs):>5} "
            f"{sum(r.acked for r in rs):>6} "
            f"{sum(r.durable_commits for r in rs):>7} "
            f"{sum(r.losers for r in rs):>6} "
            f"{sum(len(r.failures) for r in rs):>8}"
        )
    total = len(results)
    bad = [r for r in results if not r.ok]
    lines.append(f"{total} cases, {len(bad)} failed")
    return "\n".join(lines)
