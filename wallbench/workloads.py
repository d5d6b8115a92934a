"""The wall-clock benchmark's three workloads.

Each workload is driven from outside the simulator, through the public
functions of its packages, in three steps:

* ``setup(seed, scale)`` generates the logical database and loads it
  physically.  The caller times it as ``setup_s``.
* ``run(state, mark)`` is the measured phase.  The caller times it as
  ``run_s``; it returns raw simulator results and does nothing else
  but call ``mark(label)`` as each op starts (a traced run tags its
  spans with the label).
* ``finish(state, raw)`` turns those results into a :class:`Round`:
  one JSON-able simulated output per op label (compared against the
  golden copy), the simulated seconds produced, the simulator's own
  counters, and any violation found by an oracle that recomputes the
  expected answer from the logical database.

Every op of every round starts from a fresh load, so rounds of one
seed are identical by construction and any difference is a defect.
"""

from __future__ import annotations

import hashlib
from collections import Counter
from dataclasses import asdict, dataclass, field

from repro.bench import runner as bench_runner
from repro.bench import workloads as bench_workloads
from repro.cluster import loader
from repro.derby import generator
from repro.derby.config import Clustering, DerbyConfig
from repro.derby.schema import PROVIDER_CLASS, build_derby_schema
from repro.dist import cluster as dist_cluster
from repro.dist import partition, workload as dist_workload
from repro.dist.coordinator import Coordinator
from repro.service import workload as service_workload

@dataclass
class Round:
    """What one measured phase produced, in simulated terms."""

    #: label -> simulated output; compared exactly against the golden.
    outputs: dict[str, dict] = field(default_factory=dict)
    #: label -> ops the output stands for (a mix is many ops).
    weights: dict[str, int] = field(default_factory=dict)
    #: Simulated seconds the measured phase produced.
    sim_s: float = 0.0
    #: Simulator counters: objects_created (set-up), and of the
    #: measured phase handles_allocated, client_hits, client_faults,
    #: swap_faults, disk_reads, disk_writes, committed, aborted,
    #: lock_waits, retries, handoffs and msgs.
    counts: Counter = field(default_factory=Counter)
    #: label -> oracle violation (an answer the logical database refutes).
    problems: dict[str, str] = field(default_factory=dict)

    @property
    def attempted(self) -> int:
        return sum(self.weights.values())

    def add(self, label: str, output: dict, weight: int = 1) -> None:
        self.outputs[label] = output
        self.weights[label] = weight

    def count_meters(self, meters: dict) -> None:
        for key in ("handles_allocated", "client_hits", "client_faults",
                    "swap_faults", "disk_reads", "disk_writes"):
            self.counts[key] += meters[key]


def _no_mark(label: str) -> None:
    pass


def _sha(value: object) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


def _age_problem(derby, logical, writes: dict) -> tuple[list[int], str | None]:
    """Read every patient's age after the run, in logical (mrn) order;
    compare it with the logical age overridden by the last acked write
    to its rid."""
    manager = derby.db.manager
    ages = [int(manager.get_attr_at(rid, "age")) for rid in derby.patient_rids]
    for j, (rid, age) in enumerate(zip(derby.patient_rids, ages)):
        want = writes.get(rid, logical.patients[j].age)
        if age != want:
            return ages, f"patient {j + 1}: age {age}, expected {want}"
    return ages, None


# -- paper-trees ----------------------------------------------------------

#: The Section 5 grid: (patients %, providers %) x algorithm.
TREE_GRID = ((10, 10), (10, 90), (90, 10), (90, 90))
TREE_ALGORITHMS = ("NL", "NOJOIN", "PHJ", "CHJ")


class PaperTrees:
    """Figure 11's database (1:1000, class clustering) and Figure 14's
    (1:3, composition clustering), each queried over the full grid,
    every query cold through ``ExperimentRunner.run_join``."""

    name = "paper-trees"
    default_scale = 0.003

    def setup(self, seed: int, scale: float):
        state = []
        for tag, config in (
            ("1to1000", DerbyConfig.db_1to1000(scale=scale, seed=seed)),
            ("1to3", DerbyConfig.db_1to3(
                scale=scale, clustering=Clustering.COMPOSITION, seed=seed)),
        ):
            logical = generator.generate(config)
            derby = loader.load_derby(config, logical=logical)
            state.append((tag, logical, derby))
        return state

    def run(self, state, mark=_no_mark):
        raw = []
        for tag, __, derby in state:
            runner = bench_runner.ExperimentRunner(derby)
            for sel_pat, sel_prov in TREE_GRID:
                for algo in TREE_ALGORITHMS:
                    mark(f"{tag}/{algo}/{sel_pat}-{sel_prov}")
                    raw.append((tag, runner.run_join(algo, sel_pat, sel_prov)))
        return raw

    def finish(self, state, raw) -> Round:
        result = Round()
        logicals = {tag: logical for tag, logical, __ in state}
        for tag, __, derby in state:
            result.counts["objects_created"] += derby.load_report.objects_created
        for tag, m in raw:
            label = f"{tag}/{m.algo}/{m.sel_patients}-{m.sel_providers}"
            meters = asdict(m.meters)
            result.add(label, {
                "rows": m.rows,
                "elapsed_s": m.elapsed_s,
                "meters": meters,
                "breakdown": m.breakdown,
            })
            result.sim_s += m.elapsed_s
            result.count_meters(meters)
            want = tree_join_rows(logicals[tag], m.sel_patients, m.sel_providers)
            if m.rows != want:
                result.problems[label] = f"{m.rows} rows, expected {want}"
        return result


def tree_join_rows(logical, sel_patients: int, sel_providers: int) -> int:
    """Rows of the tree query, counted straight from the logical data:
    patients with ``mrn < k1`` whose provider has ``upin < k2``."""
    config = logical.config
    k1 = config.mrn_threshold(sel_patients)
    k2 = config.upin_threshold(sel_providers)
    return sum(
        1 for p in logical.patients if p.mrn < k1 and p.random_integer < k2
    )


# -- mix-si -----------------------------------------------------------------

class MixSI:
    """A closed-loop mix of three sessions (navigator, scanner, keyed
    updater) under snapshot isolation on the 1:3 class-clustered
    database."""

    name = "mix-si"
    default_scale = 0.002
    ops_per_client = 96

    def setup(self, seed: int, scale: float):
        config = DerbyConfig.db_1to3(scale=scale, seed=seed)
        logical = generator.generate(config)
        derby = loader.load_derby(config, logical=logical)
        mix = service_workload.MixConfig.from_clients(
            3, ops_per_client=self.ops_per_client, isolation="si",
            update_values="keyed", seed=seed,
        )
        return logical, derby, mix

    def run(self, state, mark=_no_mark):
        __, derby, mix = state
        mark("mix")
        mixer = service_workload.WorkloadMixer(derby, mix)
        report = mixer.run()
        return report, mixer.write_log, derby.db.counters.snapshot()

    def finish(self, state, raw) -> Round:
        logical, derby, mix = state
        report, write_log, meters = raw
        meters = asdict(meters)
        ops = mix.total_clients * mix.ops_per_client
        ages, problem = _age_problem(derby, logical, dict(write_log))
        result = Round(sim_s=report.elapsed_s)
        result.add("mix", {
            "committed": report.committed,
            "aborted": report.aborted,
            "gave_up": report.gave_up,
            "retries": report.retries,
            "conflicts": report.conflicts,
            "lock_waits": report.lock_waits,
            "elapsed_s": report.elapsed_s,
            "context_switches": report.context_switches,
            "meters": meters,
            "state_sha": _sha(ages),
        }, weight=ops)
        result.count_meters(meters)
        result.counts.update(
            objects_created=derby.load_report.objects_created,
            committed=report.committed, aborted=report.aborted,
            lock_waits=report.lock_waits, retries=report.retries,
            handoffs=report.context_switches,
        )
        if report.gave_up or report.committed != ops:
            problem = (f"{report.committed} of {ops} ops committed, "
                       f"{report.gave_up} gave up")
        if problem:
            result.problems["mix"] = problem
        return result


# -- shard-8-sync -----------------------------------------------------------

SHARDS = 8


def shard_queries(config: DerbyConfig) -> list[tuple[str, str]]:
    """The ``bench_sharding`` query families: (label, OQL text)."""
    thr10 = config.num_threshold(10.0)
    return [
        ("scan-1", bench_workloads.selection_query_text(config, 1.0)),
        ("scan-10", bench_workloads.selection_query_text(config, 10.0)),
        ("scan-50", bench_workloads.selection_query_text(config, 50.0)),
        ("count-10",
         f"select count(*) from p in Patients where p.num > {thr10}"),
        ("avg-age",
         f"select avg(p.age) from p in Patients where p.num > {thr10}"),
        ("top-10",
         f"select p.age from p in Patients where p.num > {thr10} "
         "order by p.age desc limit 10"),
        ("tree-join", bench_workloads.tree_query_text(config, 30, 50)),
    ]


def shard_expected(logical, label: str):
    """A shard query's answer computed from the logical data: a sorted
    multiset of rows, or the ordered rows for ``top-10``.  A
    single-column row is the bare value, as the engine returns it."""
    config = logical.config
    thr10 = config.num_threshold(10.0)
    pct = {"scan-1": 1.0, "scan-10": 10.0, "scan-50": 50.0}
    if label in pct:
        k = config.num_threshold(pct[label])
        return sorted(p.age for p in logical.patients if p.num > k)
    ages = [p.age for p in logical.patients if p.num > thr10]
    if label == "count-10":
        return [len(ages)]
    if label == "avg-age":
        return [sum(ages) / len(ages)]
    if label == "top-10":
        return sorted(ages, reverse=True)[:10]
    k1 = config.mrn_threshold(30)
    k2 = config.upin_threshold(50)
    # Names are stored in fixed-width string attributes.
    width = build_derby_schema().cls(PROVIDER_CLASS).attribute("name").width
    return sorted(
        (logical.providers[p.provider_idx].name[:width], p.age)
        for p in logical.patients
        if p.mrn < k1 and p.random_integer < k2
    )


def _cluster_meters(cluster) -> dict:
    total: Counter = Counter()
    for node in cluster.all_nodes():
        total.update(asdict(node.db.counters.snapshot()))
    return dict(total)


class Shard8Sync:
    """An 8-shard, hash-partitioned 1:3 cluster with one synchronous
    standby per shard: the query families cold through the
    coordinator, then a scanner + cross-shard 2PC updater mix."""

    name = "shard-8-sync"
    default_scale = 0.003
    ops_per_client = 48

    def setup(self, seed: int, scale: float):
        config = DerbyConfig.db_1to3(scale=scale, seed=seed)
        logical = generator.generate(config)
        cluster = dist_cluster.load_sharded(
            config, SHARDS, replicas=1, ship_mode="sync", logical=logical,
        )
        mix = dist_workload.ShardedMixConfig(
            scanners=2, updaters=4, ops_per_client=self.ops_per_client,
            seed=seed, hot_set=12, scan_selectivity_pct=5.0,
        )
        return logical, cluster, mix

    def run(self, state, mark=_no_mark):
        logical, cluster, mix = state
        coordinator = Coordinator(cluster)
        raw = []
        for label, text in shard_queries(logical.config):
            mark(label)
            cluster.start_cold()
            rows = coordinator.execute(text)
            raw.append((label, rows, cluster.elapsed_s,
                        cluster.clock.breakdown(), cluster.msgs,
                        cluster.msg_bytes, _cluster_meters(cluster)))
        mark("mix")
        workload = dist_workload.ShardedWorkload(cluster, mix)
        report = workload.run()
        return raw, report, workload.write_log, _cluster_meters(cluster)

    def finish(self, state, raw) -> Round:
        logical, cluster, mix = state
        queries, report, write_log, mix_meters = raw
        result = Round()
        result.counts["objects_created"] = sum(
            node.derby.load_report.objects_created
            for node in cluster.all_nodes()
        )
        for label, rows, elapsed_s, breakdown, msgs, msg_bytes, meters in queries:
            result.add(label, {
                "rows": len(rows),
                "rows_sha": _sha(rows),
                "elapsed_s": elapsed_s,
                "breakdown": breakdown,
                "msgs": msgs,
                "msg_bytes": msg_bytes,
                "meters": meters,
            })
            result.sim_s += elapsed_s
            result.count_meters(meters)
            result.counts["msgs"] += msgs
            want = shard_expected(logical, label)
            got = rows if label == "top-10" else sorted(rows)
            if got != want:
                result.problems[label] = (
                    f"{len(rows)} rows differ from the logical answer "
                    f"({len(want)} rows)")

        ops = mix.total_clients * mix.ops_per_client
        states, problem = self._end_state(logical, cluster, write_log)
        result.add("mix", {
            "committed": report.committed,
            "aborted": report.aborted,
            "gave_up": report.gave_up,
            "retries": report.retries,
            "deadlocks": report.deadlocks,
            "elapsed_s": report.elapsed_s,
            "context_switches": report.context_switches,
            "msgs": report.msgs,
            "msg_bytes": report.msg_bytes,
            "meters": mix_meters,
            "state_sha": _sha(states),
        }, weight=ops)
        result.sim_s += report.elapsed_s
        result.count_meters(mix_meters)
        result.counts.update(
            committed=report.committed, aborted=report.aborted,
            retries=report.retries, handoffs=report.context_switches,
            msgs=report.msgs,
        )
        if report.gave_up or report.committed != ops:
            problem = (f"{report.committed} of {ops} ops committed, "
                       f"{report.gave_up} gave up")
        if problem:
            result.problems["mix"] = problem
        return result

    @staticmethod
    def _end_state(logical, cluster, write_log):
        """Every shard's patient ages on the primary and on its standby.
        Both must equal the logical ages with the acked writes applied."""
        __, views = partition.split_logical(logical, cluster.n_shards)
        writes: dict = {}
        for (shard, rid), value in write_log:
            writes.setdefault(shard, {})[rid] = value
        states, problem = [], None
        for shard, view in enumerate(views):
            for node in (cluster.nodes[shard], cluster.standbys[shard]):
                ages, bad = _age_problem(node.derby, view, writes.get(shard, {}))
                states.append(ages)
                if bad and problem is None:
                    problem = f"shard {shard} {node.role}: {bad}"
        return states, problem


WORKLOADS = {w.name: w for w in (PaperTrees(), MixSI(), Shard8Sync())}
