"""The verification contract every fault family checks.

Chaos, crash fuzzing, 2PC chaos and failover chaos each run a seeded
case under faults, then check the same contract (docs/architecture.md,
"Verification contract"): :func:`audit_leaks`, the write-log oracle
:func:`check_write_log` and :func:`run_twice`.  A case is clean when
its failure list is empty.  This module imports no other ``repro``
package, so every layer may use it.
"""

from __future__ import annotations

from collections.abc import Callable, Hashable, Iterable, Mapping
from typing import Any, TypeVar


class Verdict:
    """Mixin for a case result with ``failures`` and a ``digest``."""

    failures: list[str]
    digest: tuple

    @property
    def ok(self) -> bool:
        return not self.failures


def audit_leaks(
    locks: Any,
    txms: Iterable[tuple[str, Any]],
    handles: Iterable[tuple[str, Any]] = (),
    extras: Iterable[tuple[int, str]] = (),
) -> list[str]:
    """Failures for everything still held after a case returned.

    ``locks`` has ``lock_count`` and ``waiting_count``.  ``txms`` and
    ``handles`` are ``(label, owner)`` pairs whose ``active_count`` and
    ``live_count`` must be zero; a non-empty label prefixes the failure.
    ``extras`` are ``(count, what)`` pairs, reported when count > 0.
    """
    counted = [
        ("", locks.lock_count, "locks leaked"),
        ("", locks.waiting_count, "lock waiters leaked"),
        *((label, t.active_count, "transactions left open") for label, t in txms),
        *((label, h.live_count, "live handles leaked") for label, h in handles),
        *(("", count, what) for count, what in extras),
    ]
    return [
        f"{label}: {count} {what}" if label else f"{count} {what}"
        for label, count, what in counted
        if count
    ]


def check_write_log(
    preload: Mapping[Hashable, Any],
    writes: Iterable[tuple[Hashable, Any]],
    read: Callable[[Hashable], Any],
    keys: Iterable[Hashable] | None = None,
    exact: Callable[[Hashable], bool] = lambda key: True,
    gone: Iterable[Hashable] = (),
    name: Callable[[Hashable], str] = lambda rid: f"rid {tuple(rid)}",
) -> tuple[dict, list[str]]:
    """The write-log oracle; returns ``(final, failures)``.

    ``writes`` are the winners' ``(key, value)`` writes in commit order.
    Every key in ``keys`` (default: every key preloaded or written) is
    read back and must equal the preload updated by ``writes`` where
    ``exact(key)`` holds (committed-visible), and must be its preload
    value or some winner's value (uncommitted-gone).  Every key in
    ``gone`` must read as ``None``.  ``final`` maps each key read to its
    value, for the family's digest.
    """
    expected = dict(preload)
    legal = {key: {value} for key, value in preload.items()}
    for key, value in writes:
        expected[key] = value
        legal.setdefault(key, set()).add(value)
    final = {}
    failures = []
    for key in expected if keys is None else keys:
        value = final[key] = read(key)
        if exact(key) and value != expected[key]:
            failures.append(
                f"{name(key)}: expected {expected[key]}, durable value "
                f"{value} (lost update)"
            )
        if value not in legal[key]:
            failures.append(
                f"{name(key)}: durable value {value} was never committed "
                "(dirty write survived)"
            )
    for key in gone:
        value = final[key] = read(key)
        if value is not None:
            failures.append(f"{name(key)}: loser-created record survived ({value})")
    return final, failures


Case = TypeVar("Case", bound=Verdict)


def run_twice(
    run: Callable[[], Case], label: str, check_determinism: bool = True
) -> Case:
    """Run a case (twice when ``check_determinism``) and return the
    first result, with one failure appended if the digests differ."""
    result = run()
    if check_determinism and run().digest != result.digest:
        result.failures.append(
            f"{label}: re-run produced a different digest (determinism violated)"
        )
    return result
