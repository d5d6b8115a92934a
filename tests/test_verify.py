"""Tests for the shared verification kernel (:mod:`repro.verify`).

The negative tests feed the kernel fabricated inputs and assert each
broken invariant yields exactly one failure naming it; the parity test
checks that committed chaos records still reproduce from a fresh
double-run case.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.cli import main
from repro.dist.chaos import run_2pc_case, run_failover_case
from repro.recovery import fuzz
from repro.verify import audit_leaks, check_write_log, run_twice

ROOT = Path(__file__).resolve().parent.parent


def _locks(locks=0, waiters=0):
    return SimpleNamespace(lock_count=locks, waiting_count=waiters)


def _audit(locks=0, waiters=0, open_txns=0, live=0, queued=0):
    return audit_leaks(
        _locks(locks, waiters),
        [("shard 1", SimpleNamespace(active_count=open_txns))],
        [("session a", SimpleNamespace(live_count=live))],
        [(queued, "sessions stuck in admission")],
    )


class TestAuditLeaks:
    def test_clean_state_passes(self):
        assert _audit() == []

    @pytest.mark.parametrize(
        "leak, message",
        [
            ({"locks": 1}, "1 locks leaked"),
            ({"waiters": 1}, "1 lock waiters leaked"),
            ({"open_txns": 1}, "shard 1: 1 transactions left open"),
            ({"live": 1}, "session a: 1 live handles leaked"),
            ({"queued": 1}, "1 sessions stuck in admission"),
        ],
    )
    def test_each_leak_is_one_failure(self, leak, message):
        assert _audit(**leak) == [message]

    def test_unlabelled_entries_name_no_owner(self):
        failures = audit_leaks(
            _locks(), [("", SimpleNamespace(active_count=2))]
        )
        assert failures == ["2 transactions left open"]


class TestWriteLogOracle:
    PRELOAD = {"a": 1, "b": 2}

    def _check(self, durable, writes=(), **kwargs):
        return check_write_log(
            self.PRELOAD, writes, durable.get, name=str, **kwargs
        )

    def test_winners_applied_in_commit_order(self):
        final, failures = self._check(
            {"a": 9, "b": 2}, writes=[("a", 5), ("a", 9)]
        )
        assert failures == []
        assert final == {"a": 9, "b": 2}

    def test_lost_update(self):
        # "a" reads an older winner's value: legal, but not the last one.
        __, failures = self._check(
            {"a": 5, "b": 2}, writes=[("a", 5), ("a", 9)]
        )
        assert failures == ["a: expected 9, durable value 5 (lost update)"]

    def test_dirty_write_outside_the_legal_set(self):
        # Only exactness-exempt keys isolate the legality check.
        __, failures = self._check(
            {"a": 1, "b": 7}, exact=lambda key: key != "b"
        )
        assert failures == [
            "b: durable value 7 was never committed (dirty write survived)"
        ]

    def test_loser_created_record_survived(self):
        final, failures = self._check(
            {"a": 1, "b": 2, "c": 4}, gone=["c"]
        )
        assert failures == ["c: loser-created record survived (4)"]
        assert final["c"] == 4

    def test_keys_limit_what_is_read(self):
        final, failures = self._check({"a": 1}, keys=["a"])
        assert failures == []
        assert final == {"a": 1}


@dataclass
class _Case:
    digest: tuple
    failures: list[str] = field(default_factory=list)


class TestRunTwice:
    def test_identical_digests_pass(self):
        result = run_twice(lambda: _Case(digest=(1,)), "seed 0")
        assert result.failures == []

    def test_digest_mismatch_is_one_failure(self):
        digests = iter([(1,), (2,)])
        result = run_twice(lambda: _Case(digest=next(digests)), "seed 4")
        assert result.failures == [
            "seed 4: re-run produced a different digest "
            "(determinism violated)"
        ]

    def test_single_run_without_determinism_check(self):
        calls = []

        def run():
            calls.append(1)
            return _Case(digest=(len(calls),))

        assert run_twice(run, "seed 0", False).failures == []
        assert len(calls) == 1


@pytest.fixture
def leaky_restart(monkeypatch):
    """Make the fuzzer's restart leave one transaction open."""
    real_restart = fuzz.restart

    def restart(db, txm, **kwargs):
        report = real_restart(db, txm, **kwargs)
        txm.begin()
        return report

    monkeypatch.setattr(fuzz, "restart", restart)


def test_fuzz_audits_leaks_after_restart(leaky_restart):
    [result] = fuzz.run_fuzz([0], points=("log-append",))
    assert result.failures == ["1 transactions left open"]


def test_crash_fuzz_prints_every_failure(leaky_restart, capsys):
    argv = ["crash", "fuzz", "--seeds", "2", "--points", "log-append"]
    assert main(argv) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"seed {seed} point log-append: 1 transactions left open"
        for seed in (0, 1)
    ]


# -- parity with committed chaos records ---------------------------------


def _committed(bench: str, key: str) -> list[dict]:
    return json.loads((ROOT / bench).read_text())[key][:3]


@pytest.mark.parametrize(
    "bench, key, run",
    [
        ("BENCH_sharding.json", "chaos", run_2pc_case),
        (
            "BENCH_replication.json", "chaos_sync",
            lambda seed: run_failover_case(seed, "sync"),
        ),
        (
            "BENCH_replication.json", "chaos_async",
            lambda seed: run_failover_case(seed, "async"),
        ),
    ],
    ids=["2pc", "failover-sync", "failover-async"],
)
def test_committed_chaos_records_reproduce(bench, key, run):
    for record in _committed(bench, key):
        fresh = json.loads(json.dumps(asdict(run(record["seed"]))))
        assert fresh == record
        assert list(fresh) == list(record)
