#!/usr/bin/env python3
"""Wall-clock benchmark of the simulator.

Runs one workload (see ``workloads.py``) in rounds for ``--seconds``
seconds.  A round loads a fresh database (timed as set-up), runs the
measured phase (timed as the run), then checks the digest of every
simulated output against the golden digests recorded for its seed
(``golden/<workload>.json``).  An oracle that recomputes each answer
from the logical database checks every round as well.

Goldens exist for the seeds in ``GOLDEN_SEEDS``; ``--seed`` picks one
of them (``data_seed``), so every run is checked against a golden.

    python3 wallbench/run.py --workload paper-trees --seed 1997 --seconds 30 --trace 0

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` first runs
untraced rounds, then installs ``spans.Tracer`` and reports the
per-layer metrics, and writes the spans to ``wallbench/out/``.  The
last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  See README.md.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import pathlib
import resource
import statistics
import sys
import traceback
from contextlib import nullcontext
from time import perf_counter

HERE = pathlib.Path(__file__).resolve().parent
SRC = HERE.parent / "src"
GOLDEN_DIR = HERE / "golden"
OUT_DIR = HERE / "out"

#: ``DerbyConfig``'s default seed, and a held-out seed that no tuning
#: of the simulator may look at.
DEFAULT_SEED = 1997
HELD_OUT_SEED = 4242
#: Seeds 0 .. POOL-1 have goldens as well; any other ``--seed`` runs
#: the data seed ``seed % POOL``.
POOL = 100
GOLDEN_SEEDS = (*range(POOL), DEFAULT_SEED, HELD_OUT_SEED)
#: Fewest rounds a timed run makes, however long a round takes; each
#: half of a traced run makes at least ``MIN_TRACE_ROUNDS``.
MIN_ROUNDS = 3
MIN_TRACE_ROUNDS = 2
#: Median wall time of ``calibrate()`` on the machine README.md's
#: figures come from; timings are reported in that machine's seconds.
CAL_REF_S = 0.131

END_TO_END = (
    ("setup_s", "s"),
    ("run_s", "s"),
    ("sim_s_per_wall_s", "ratio"),
    ("peak_rss_mb", "MB"),
)

#: Layers whose wrapped calls are counted and timed in the traced run.
TIMED_LAYERS = ("objects", "simtime", "buffer", "storage", "index", "exec",
                "oql", "txn", "service", "dist")

PER_LAYER = (
    ("derby.generate_s", "s"),
    ("cluster.load_s", "s"),
    ("cluster.objects_created", "count"),
    *((f"{layer}.{'charges' if layer == 'simtime' else 'calls'}", "count")
      for layer in TIMED_LAYERS),
    *((f"{layer}.self_s", "s") for layer in TIMED_LAYERS),
    *((f"{layer}.setup_self_s", "s") for layer in TIMED_LAYERS),
    ("objects.handles_allocated", "count"),
    ("buffer.client_hit_ratio", "ratio"),
    ("storage.disk_reads", "count"),
    ("storage.disk_writes", "count"),
    ("exec.swap_faults", "count"),
    ("txn.lock_waits", "count"),
    ("txn.retries", "count"),
    ("txn.commit_ratio", "ratio"),
    ("service.handoffs", "count"),
    ("service.wait_s", "s"),
    ("dist.msgs", "count"),
    ("dist.rows_shipped", "count"),
    ("python.gc_s", "s"),
    ("python.gc_collections", "count"),
    ("trace.overhead_ratio", "ratio"),
)


def import_workloads():
    """Import the simulator from this checkout's ``src``, never from
    anywhere else; exit nonzero when it is not there."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"wallbench: no simulator source under {SRC}")
    sys.path.insert(0, str(SRC))
    import repro
    import workloads

    if pathlib.Path(repro.__file__).resolve().parent != SRC / "repro":
        sys.exit(f"wallbench: imported repro from {repro.__file__}, not {SRC}")
    return workloads


# -- golden copies ------------------------------------------------------------

def data_seed(seed: int) -> int:
    """The seed a run generates its data from: ``seed`` itself when it
    has a golden, otherwise one of the pool's."""
    return seed if seed in GOLDEN_SEEDS else seed % POOL


def golden_path(workload: str) -> pathlib.Path:
    return GOLDEN_DIR / f"{workload}.json"


def digest_of(rnd) -> dict[str, list]:
    """A round's outputs in golden form: label -> [weight, digest], the
    digest being the first 16 hex digits of the SHA-256 of the output's
    canonical JSON (floats at full precision)."""
    return {
        label: [rnd.weights[label], hashlib.sha256(
            json.dumps(output, sort_keys=True).encode()).hexdigest()[:16]]
        for label, output in rnd.outputs.items()
    }


def load_golden(workload, seed: int) -> dict | None:
    """The golden digests of ``seed`` at the workload's scale, or None."""
    path = golden_path(workload.name)
    if not path.is_file():
        return None
    data = json.loads(path.read_text())
    if data["scale"] != workload.default_scale:
        return None
    return data["seeds"].get(str(seed))


def compare(rnd, reference: dict) -> dict[str, str]:
    """label -> why the round's op failed: its simulated output differs
    from ``reference``, it is missing or extra, or an oracle refuted it."""
    got = digest_of(rnd)
    bad = {}
    for label in sorted(set(got) | set(reference)):
        if label not in got:
            bad[label] = "missing"
        elif label not in reference:
            bad[label] = "not in the golden"
        elif got[label] != reference[label]:
            bad[label] = "simulated output differs from the golden"
    for label, problem in rnd.problems.items():
        bad.setdefault(label, problem)
    return bad


def failed_ops(rnd, bad: dict[str, str], reference: dict) -> int:
    weight = {label: op[0] for label, op in reference.items()}
    weight.update(rnd.weights)
    return sum(weight[label] for label in bad)


# -- the round loop -------------------------------------------------------------

class _Cell:
    __slots__ = ("a", "b", "c")

    def __init__(self, a, b):
        self.a = a
        self.b = b
        self.c = None


def calibrate() -> float:
    """Wall time of a fixed piece of pure-Python work that runs no
    simulator code: dict updates and integer arithmetic, then small
    objects allocated and dropped.  The host's speed drifts by tens of
    percent over minutes (README.md); a round's wall times, scaled by
    ``CAL_REF_S`` over the calibration around the round, measure the
    simulator rather than the drift."""
    t0 = perf_counter()
    table: dict[int, int] = {}
    acc = 0
    for i in range(300_000):
        k = i & 1023
        table[k] = table.get(k, 0) + i
        acc += k * 3 // 7
    keep = []
    for i in range(60_000):
        cell = _Cell(i, str(i & 255))
        cell.c = [cell.a, cell.b, (i, i + 1)]
        keep.append(cell)
        if len(keep) > 4096:
            keep = keep[2048:]
    return perf_counter() - t0


class Outcome:
    """Timings and correctness of the rounds one process ran."""

    def __init__(self) -> None:
        #: Wall times of each completed round.
        self.setup_s: list[float] = []
        self.run_s: list[float] = []
        #: Per round, ``CAL_REF_S`` over the mean of the calibrations
        #: run just before and just after it.
        self.host: list[float] = []
        self.sim_s: list[float] = []
        self.rounds: list = []
        self.attempted = 0
        self.failed = 0

    def normalized(self, times: list[float]) -> list[float]:
        """Wall times in the reference machine's seconds."""
        return [t * h for t, h in zip(times, self.host)]


def play(workload, seed, scale, tracer=None, profiler=None):
    """One round: a fresh set-up, the measured phase, the round's
    simulated outputs.  Returns ``(round, setup_s, run_s)``."""
    mark = (lambda label: setattr(tracer, "op", label)) if tracer else None

    def phase(name):
        if tracer is not None:
            tracer.phase = name
            tracer.op = None

    phase("check")
    gc.collect()
    try:
        phase("setup")
        t0 = perf_counter()
        state = workload.setup(seed, scale)
        t1 = perf_counter()
        phase("run")
        with profiler or nullcontext():
            raw = workload.run(state, mark) if mark else workload.run(state)
        t2 = perf_counter()
        phase("check")
        return workload.finish(state, raw), t1 - t0, t2 - t1
    finally:
        phase("check")


def run_rounds(workload, seed, scale, reference, *, seconds=None, rounds=None,
               min_rounds=MIN_ROUNDS, tracer=None, profiler=None,
               outcome=None, on_round=None) -> Outcome:
    """Run exactly ``rounds`` rounds, or at least ``min_rounds`` and then
    until the next round would end further past ``seconds`` than short
    of it; check every round against ``reference`` (golden digests)."""
    outcome = outcome or Outcome()
    started = perf_counter()
    done = 0
    while True:
        round_started = perf_counter()
        cal_before = calibrate()
        try:
            rnd, setup_s, run_s = play(workload, seed, scale, tracer, profiler)
        except Exception:  # a crashed round fails every op it holds
            traceback.print_exc()
            lost = sum(op[0] for op in reference.values()) or 1
            outcome.attempted += lost
            outcome.failed += lost
        else:
            bad = compare(rnd, reference)
            for label, why in bad.items():
                print(f"FAILED {workload.name} seed {seed} {label}: {why}",
                      file=sys.stderr)
            outcome.attempted += rnd.attempted
            outcome.failed += failed_ops(rnd, bad, reference)
            outcome.setup_s.append(setup_s)
            outcome.run_s.append(run_s)
            outcome.host.append(2 * CAL_REF_S / (cal_before + calibrate()))
            outcome.sim_s.append(rnd.sim_s)
            outcome.rounds.append(rnd)
            if on_round is not None:
                on_round(rnd)
        done += 1
        if rounds is not None:
            if done >= rounds:
                break
        elif done >= min_rounds:
            now = perf_counter()
            if now - started + (now - round_started) / 2 >= seconds:
                break
    return outcome


# -- metrics ----------------------------------------------------------------------

def end_to_end(outcome: Outcome) -> dict[str, float]:
    """Medians over the rounds, timings host-normalized."""
    run_s = outcome.normalized(outcome.run_s)
    return {
        "setup_s": statistics.median(outcome.normalized(outcome.setup_s)),
        "run_s": statistics.median(run_s),
        "sim_s_per_wall_s": statistics.median(
            sim / wall for sim, wall in zip(outcome.sim_s, run_s)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def layer_values(tracer, rnd) -> dict[str, float]:
    """One traced round's per-layer values (everything but the overhead)."""
    import spans

    aggs = tracer.take()
    gc_s, gc_n = tracer.take_gc("run")
    for other in ("setup", "check"):
        tracer.take_gc(other)

    def agg(phase, layer):
        return aggs.get((phase, layer)) or spans.Agg()

    counts = rnd.counts
    values = {
        "derby.generate_s": agg("setup", "derby").wall_s,
        "cluster.load_s": agg("setup", "cluster").wall_s,
        "cluster.objects_created": counts["objects_created"],
    }
    for layer in TIMED_LAYERS:
        calls = "charges" if layer == "simtime" else "calls"
        values[f"{layer}.{calls}"] = agg("run", layer).calls
        values[f"{layer}.self_s"] = agg("run", layer).self_s
        values[f"{layer}.setup_self_s"] = agg("setup", layer).self_s
    page_refs = counts["client_hits"] + counts["client_faults"]
    txns = counts["committed"] + counts["aborted"]
    values.update({
        "objects.handles_allocated": counts["handles_allocated"],
        "buffer.client_hit_ratio": counts["client_hits"] / page_refs if page_refs else 0.0,
        "storage.disk_reads": counts["disk_reads"],
        "storage.disk_writes": counts["disk_writes"],
        "exec.swap_faults": counts["swap_faults"],
        "txn.lock_waits": counts["lock_waits"],
        "txn.retries": counts["retries"],
        "txn.commit_ratio": counts["committed"] / txns if txns else 0.0,
        "service.handoffs": counts["handoffs"],
        "service.wait_s": agg("run", "service").wait_s,
        "dist.msgs": counts["msgs"],
        "dist.rows_shipped": agg("run", "dist").rows,
        "python.gc_s": gc_s,
        "python.gc_collections": gc_n,
    })
    return values


def traced_run(workload, seed, scale, seconds, reference, outcome):
    """Untraced rounds for a third of the time, then traced rounds for
    the rest.  Returns the per-layer metrics (medians over the traced
    rounds), or None if either half completed no round, and the tracer."""
    plain = run_rounds(workload, seed, scale, reference, seconds=seconds / 3,
                       min_rounds=MIN_TRACE_ROUNDS)
    import spans

    tracer = spans.Tracer().install()
    per_round: list[dict[str, float]] = []
    traced = Outcome()
    try:
        run_rounds(workload, seed, scale, reference, seconds=seconds * 2 / 3,
                   min_rounds=MIN_TRACE_ROUNDS, tracer=tracer, outcome=traced,
                   on_round=lambda rnd: per_round.append(layer_values(tracer, rnd)))
    finally:
        tracer.uninstall()
    for half in (plain, traced):
        outcome.attempted += half.attempted
        outcome.failed += half.failed
    outcome.setup_s += plain.setup_s
    outcome.run_s += plain.run_s
    outcome.host += plain.host
    print(f"rounds: {len(traced.run_s)} traced")
    if not (plain.run_s and per_round):
        return None, tracer
    metrics = {name: statistics.median(r[name] for r in per_round)
               for name in per_round[0]}
    metrics["trace.overhead_ratio"] = (
        statistics.median(traced.normalized(traced.run_s))
        / statistics.median(plain.normalized(plain.run_s)))
    return metrics, tracer


def profile_table(profiler) -> list[tuple[str, float]]:
    """Self time of the profiled phase by package under ``src/repro``;
    other Python files are listed by module as ``py:<name>``, and
    functions written in C as ``builtins``."""
    import pstats

    totals: dict[str, float] = {}
    for (filename, __, __), row in pstats.Stats(profiler).stats.items():
        path = pathlib.Path(filename)
        if filename.startswith("~") or filename.startswith("<"):
            key = "builtins"
        elif SRC / "repro" in path.parents:
            key = path.relative_to(SRC / "repro").parts[0].removesuffix(".py")
        else:
            key = f"py:{path.stem}"
        totals[key] = totals.get(key, 0.0) + row[2]
    return sorted(totals.items(), key=lambda kv: -kv[1])


# -- command line ---------------------------------------------------------------------

def parse_args(argv, names):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--rounds", type=int, default=None,
                        help="run exactly this many rounds, ignoring --seconds")
    parser.add_argument("--record-golden", action="store_true",
                        help="run every seed of GOLDEN_SEEDS twice, require "
                             "identical, oracle-clean rounds, and store their "
                             "digests as the workload's golden")
    return parser.parse_args(argv)


def golden_text(name: str, scale: float, seeds: dict) -> str:
    """A golden file: one line per seed."""
    lines = ",\n".join(f"{json.dumps(seed)}: {json.dumps(ops, sort_keys=True)}"
                        for seed, ops in seeds.items())
    return (f'{{"workload": {json.dumps(name)}, "scale": {scale!r}, '
            f'"seeds": {{\n{lines}\n}}}}\n')


def record_golden(workload) -> int:
    scale = workload.default_scale
    seeds = {}
    for seed in GOLDEN_SEEDS:
        first, second = (play(workload, seed, scale)[0] for __ in range(2))
        if first.problems or digest_of(first) != digest_of(second):
            print(f"not recorded: seed {seed} rounds differ or an oracle "
                  f"failed: {first.problems}", file=sys.stderr)
            return 1
        seeds[str(seed)] = digest_of(first)
        print(f"seed {seed}: {len(seeds[str(seed)])} ops", flush=True)
    path = golden_path(workload.name)
    path.write_text(golden_text(workload.name, scale, seeds))
    print(f"recorded {len(seeds)} seeds to {path.relative_to(HERE.parent)}")
    return 0


def result_line(outcome: Outcome, metrics: dict, units: dict) -> str:
    return json.dumps({
        "correct": bool(metrics) and outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    })


def main(argv=None) -> int:
    workloads = import_workloads()
    args = parse_args(argv, sorted(workloads.WORKLOADS))
    workload = workloads.WORKLOADS[args.workload]
    if args.record_golden:
        return record_golden(workload)

    scale = workload.default_scale
    seed = data_seed(args.seed)
    reference = load_golden(workload, seed)
    if reference is None:
        sys.exit(f"wallbench: no golden for {workload.name} seed {seed} "
                 f"at scale {scale} in {golden_path(workload.name)}")
    print(f"{workload.name}: seed {args.seed} (data seed {seed}), scale "
          f"{scale}, golden copy of {len(reference)} ops found")
    outcome = Outcome()
    if args.trace:
        metrics, tracer = traced_run(workload, seed, scale, args.seconds,
                                     reference, outcome)
        units = dict(PER_LAYER)
        OUT_DIR.mkdir(exist_ok=True)
        trace_file = OUT_DIR / f"trace-{workload.name}-seed{seed}.json"
        tracer.write(trace_file, {"workload": workload.name, "seed": seed,
                                  "scale": scale})
        print(f"spans: {len(tracer.spans)} kept, {tracer.dropped} dropped, "
              f"written to {trace_file.relative_to(HERE.parent)}")
    else:
        run_rounds(workload, seed, scale, reference, seconds=args.seconds,
                   rounds=args.rounds, outcome=outcome)
        metrics = end_to_end(outcome) if outcome.run_s else None
        units = dict(END_TO_END)

    print(f"rounds: {len(outcome.setup_s)} untraced; ops: {outcome.attempted} "
          f"attempted, {outcome.failed} failed")
    for name, values in (("wall setup_s", outcome.setup_s),
                         ("wall run_s", outcome.run_s),
                         ("host factor", outcome.host)):
        print(f"{name} per round: " + " ".join(f"{v:.3f}" for v in values))
    print(f"error_ratio {outcome.failed / max(outcome.attempted, 1):.6g} ratio "
          f"({outcome.failed} failed / {outcome.attempted} attempted ops)")
    if metrics is None:
        print("no round completed", file=sys.stderr)
        print(result_line(outcome, {}, units))
        return 1
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    print(result_line(outcome, metrics, units))
    return 0


if __name__ == "__main__":
    sys.exit(main())
