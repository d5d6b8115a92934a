"""Seeded chaos checker: workload mixes under injected transient faults.

:mod:`repro.recovery.fuzz` crashes random workloads and verifies
restart; this checker covers the *survivable* fault family.  Each case
builds a fresh tiny Derby database, draws a mix shape, governor
configuration and a :class:`~repro.recovery.TransientFaultInjector`
(flaky page reads, lock-timeout storms) from one seeded stream, runs the
mix, and checks the :mod:`repro.verify` contract plus its own checks
(docs/service.md, Chaos).

Lives in the service layer (not :mod:`repro.recovery`) because it
drives the :class:`~repro.service.WorkloadMixer`; the layering rule
forbids recovery → service imports.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from random import Random

from repro.bench.report import Table
from repro.cluster import load_derby
from repro.derby import DerbyConfig
from repro.recovery.transient import TransientFaultInjector
from repro.service.workload import MixConfig, WorkloadMixer
from repro.verify import Verdict, audit_leaks, check_write_log, run_twice

#: Scale of the per-case database: ~30 patients, loads in milliseconds.
_SCALE = 0.00001


@dataclass
class ChaosResult(Verdict):
    """Outcome of one seeded chaos case."""

    seed: int
    clients: int
    ops_per_client: int
    read_fault_rate: float
    storms: bool
    committed: int
    aborted: int
    retries: int
    io_faults: int
    isolation: str = "2pl"
    conflicts: int = 0
    failures: list[str] = field(default_factory=list)
    digest: tuple = ()


def _draw_case(seed: int) -> tuple[MixConfig, TransientFaultInjector]:
    """The case generator: mix shape + governor + faults from one seed."""
    rng = Random(seed * 99_991 + 17)
    clients = rng.randint(2, 5)
    config = MixConfig.from_clients(
        clients,
        ops_per_client=rng.randint(2, 4),
        seed=seed,
        lock_timeout_s=rng.choice([0.25, 0.5, None]),
        max_retries=rng.randint(1, 3),
        retry_backoff_s=rng.choice([0.005, 0.02]),
        hot_set=rng.choice([4, 8]),
        max_active=rng.choice([None, None, max(1, clients - 1), 2]),
        statement_timeout_s=rng.choice([None, None, 2.0]),
        budget_pages=rng.choice([None, None, 2_000]),
        # A third of the cases run under MVCC snapshot isolation, so the
        # leak / committed-visible / determinism contract is exercised
        # with version chains, first-committer-wins aborts and the
        # governed GC sweep in play.
        isolation=rng.choice(["2pl", "2pl", "si"]),
    )
    faults = TransientFaultInjector(
        seed=seed,
        read_fault_rate=rng.choice([0.002, 0.01, 0.05]),
        read_fault_persistence=rng.choice([0.1, 0.5, 0.9]),
        storm_mean_gap_s=rng.choice([None, 0.2, 0.5]),
        storm_len_s=0.1,
        storm_timeout_s=0.002,
    )
    return config, faults


def _run_once(seed: int) -> ChaosResult:
    derby = load_derby(DerbyConfig.db_1to3(scale=_SCALE))
    config, faults = _draw_case(seed)

    def age(rid) -> int:
        return int(derby.db.manager.get_attr_at(rid, "age"))

    # Preload ages *before* the run — the baseline the uncommitted-gone
    # check compares against (deterministic: same reads every run).
    preload = {rid: age(rid) for rid in derby.patient_rids[: config.hot_set]}
    mixer = WorkloadMixer(derby, config, faults=faults)
    report = mixer.run()
    service = mixer.service
    assert service is not None

    gate = service.governor.gate
    failures = audit_leaks(
        service.txm.locks,
        [("", service.txm)],
        [(f"session {s.name}", s.handles) for s in service.sessions],
        [(gate.queue_depth if gate else 0, "sessions stuck in admission")],
    )

    # -- SI reads are lock-free -----------------------------------------
    # Under snapshot isolation the reader profiles resolve version
    # chains instead of taking S locks; a single blocked read would
    # falsify the tentpole claim, so the chaos contract pins it to zero.
    if config.isolation == "si":
        for report_session in report.sessions:
            if report_session.profile == "updater":
                continue
            if report_session.metrics.lock_waits:
                failures.append(
                    f"session {report_session.name} ({report_session.profile})"
                    f" blocked on locks {report_session.metrics.lock_waits}x"
                    " under si (snapshot reads must be lock-free)"
                )

    # Every updater draws from the hot set, so an acked write outside it
    # means the mix wrote where the preload baseline never looked.
    for rid in dict(mixer.write_log):
        if rid not in preload:
            failures.append(f"acked write to non-hot rid {tuple(rid)}")
    final, lost = check_write_log(preload, mixer.write_log, age)
    failures += lost

    digest = tuple(
        (
            s.name,
            s.metrics.committed,
            s.metrics.aborted,
            s.metrics.retries,
            s.metrics.deadlocks,
            s.metrics.timeouts,
            s.metrics.conflicts,
            s.metrics.lock_waits,
            s.metrics.cancelled,
            s.metrics.over_budget,
            s.metrics.io_failures,
            round(s.metrics.busy_s, 9),
        )
        for s in report.sessions
    ) + (
        round(report.elapsed_s, 9),
        report.context_switches,
        report.max_queue_depth,
        tuple(sorted((tuple(r), v) for r, v in final.items())),
    )
    return ChaosResult(
        seed=seed,
        clients=config.total_clients,
        ops_per_client=config.ops_per_client,
        read_fault_rate=faults.read_fault_rate,
        storms=faults.storm_mean_gap_s is not None,
        isolation=config.isolation,
        committed=report.committed,
        aborted=report.aborted,
        retries=report.retries,
        conflicts=report.conflicts,
        io_faults=faults.faults_injected,
        failures=failures,
        digest=digest,
    )


def run_case(seed: int, check_determinism: bool = True) -> ChaosResult:
    """Run one seeded chaos case (twice when determinism-checked)."""
    return run_twice(lambda: _run_once(seed), f"seed {seed}", check_determinism)


def run_chaos(
    cases: int, base_seed: int = 0, check_determinism: bool = True
) -> list[ChaosResult]:
    """Run ``cases`` seeded chaos cases; see the module docstring for
    what each asserts."""
    return [
        run_case(base_seed + i, check_determinism=check_determinism)
        for i in range(cases)
    ]


def summarize(results: list[ChaosResult]) -> Table:
    """Render a per-case summary table with an aggregate note."""
    table = Table(
        f"Chaos: {len(results)} seeded fault-injected mix runs",
        ["Seed", "Clients", "Ops", "FaultRate", "Storms", "Iso",
         "Committed", "Aborted", "Retries", "Conflicts", "IOFaults", "OK"],
    )
    for r in results:
        table.add(
            r.seed, r.clients, r.ops_per_client, r.read_fault_rate,
            "yes" if r.storms else "no", r.isolation, r.committed,
            r.aborted, r.retries, r.conflicts, r.io_faults,
            "ok" if r.ok else "FAIL",
        )
    bad = [r for r in results if not r.ok]
    committed = sum(r.committed for r in results)
    faults = sum(r.io_faults for r in results)
    table.note(
        f"{len(results) - len(bad)}/{len(results)} cases clean; "
        f"{committed} commits under {faults} injected read faults; "
        "invariants: zero leaked locks/handles, committed-visible, "
        "uncommitted-gone, lock-free si reads, deterministic re-runs"
    )
    return table
