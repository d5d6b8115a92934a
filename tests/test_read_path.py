"""Byte-identity pins for the object read path.

The read path (``borrow`` -> handle table -> ``read_record`` -> file ->
pager -> page slot, and the index leaf decode under the Fetch
operators) is the hottest code in the simulator, and it is tuned for
wall-clock speed.  Such tuning must not change a single simulated bit,
so the values below were recorded from the simulator before the read
path was flattened and are asserted exactly (floats by their repr):

* rows, elapsed time, meters and per-bucket breakdown of one cold
  ``ExperimentRunner.run_join`` per algorithm, on a 1:1000
  class-clustered and a 1:3 composition-clustered database, under three
  handle modes;
* one read of a forwarded record;
* one snapshot-isolation read of a stashed version.
"""

from __future__ import annotations

import struct
from dataclasses import asdict

import pytest

from repro.bench import ExperimentRunner
from repro.cluster import load_derby
from repro.derby import DerbyConfig
from repro.derby.config import Clustering
from repro.errors import RecordNotFoundError, SchemaError
from repro.index import BTreeIndex, IndexEntry
from repro.objects import AttrKind, AttributeDef, Database, HandleTable, Schema
from repro.objects.handle import HandleMode
from repro.objects.header import ObjectHeader
from repro.simtime import Bucket, CostParams, CounterSet, SimClock
from repro.storage import Page, Rid
from repro.storage.page import Forward
from repro.storage.rid import NIL_RID
from repro.txn import TransactionManager

SCALE = 0.0005
ALGORITHMS = ("NL", "NOJOIN", "PHJ", "CHJ")
MODES = (HandleMode.FULL, HandleMode.BULK, HandleMode.INLINE_TUPLES)
SELECTIVITY = (30, 70)


def _databases():
    return {
        "1to1000": load_derby(DerbyConfig.db_1to1000(scale=SCALE)),
        "1to3": load_derby(
            DerbyConfig.db_1to3(scale=SCALE, clustering=Clustering.COMPOSITION)
        ),
    }


def measure_joins() -> dict:
    """``(db, mode, algo) -> (rows, elapsed_s, meters, breakdown)``."""
    out = {}
    for tag, derby in _databases().items():
        runner = ExperimentRunner(derby)
        for mode in MODES:
            runner.with_handle_mode(mode)
            for algo in ALGORITHMS:
                m = runner.run_join(algo, *SELECTIVITY)
                out[(tag, mode.value, algo)] = (
                    m.rows,
                    m.elapsed_s,
                    asdict(m.meters),
                    derby.db.clock.breakdown(),
                )
    return out


def measure_forwarded_read() -> tuple:
    """Cold borrow of a record that moved (one forwarding hop)."""
    schema = Schema()
    schema.define(
        "Node",
        [
            AttributeDef("x", AttrKind.INT32),
            AttributeDef("name", AttrKind.STRING),
            AttributeDef("kids", AttrKind.REF_SET),
        ],
    )
    db = Database(schema)
    db.create_file("nodes", fill_factor=1.0)
    rids = [
        db.create_object("Node", {"x": i, "name": f"n{i}"}, "nodes")
        for i in range(120)
    ]
    moved = db.manager.update_set(rids[0], "kids", db.prepare_set(rids[:300]))
    assert moved != rids[0]
    db.restart_cold()
    db.reset_meters()
    with db.manager.borrow(rids[0]) as handle:
        values = (
            db.manager.get_attr(handle, "x"),
            db.manager.get_attr(handle, "name"),
            len(db.manager.get_attr(handle, "kids").rids),
        )
    return (
        values,
        db.clock.elapsed_s,
        asdict(db.counters.snapshot()),
        db.clock.breakdown(),
    )


def measure_snapshot_read() -> tuple:
    """A snapshot reader sees the stashed pre-image after a commit."""
    schema = Schema()
    schema.define(
        "Thing",
        [
            AttributeDef("x", AttrKind.INT32),
            AttributeDef("pad", AttrKind.STRING, width=40),
        ],
    )
    db = Database(schema)
    db.create_file("things")
    rids = [
        db.create_object("Thing", {"x": i, "pad": "p" * 40}, "things")
        for i in range(8)
    ]
    db.shutdown()
    txm = TransactionManager(db, recovery=True)
    db.reset_meters()
    reader = txm.begin(isolation="si")
    first = reader.read_attr(rids[0], "x")
    writer = txm.begin()
    writer.update_scalar(rids[0], "x", 100)
    writer.commit()
    db.restart_cold()
    stashed = reader.read_attr(rids[0], "x")
    reader.commit()
    return (
        (first, stashed, txm.mvcc.version_count),
        db.clock.elapsed_s,
        asdict(db.counters.snapshot()),
        db.clock.breakdown(),
    )


# -- values recorded before the read path was flattened ------------------------

JOINS = {
    ("1to1000", "full", "NL"): (
        142, 0.41804460000000043,
        {"disk_reads": 24, "disk_writes": 0, "server_to_client": 24, "rpcs": 24,
         "rpc_bytes": 98304, "client_faults": 24, "client_hits": 484, "server_faults": 24,
         "server_hits": 0, "swap_faults": 0, "handles_allocated": 507,
         "handles_unreferenced": 507, "records_moved": 0, "io_faults": 0, "io_failures": 0},
        {"rpc": 0.0048, "io": 0.24000000000000007, "transfer": 0.024000000000000014,
         "handle": 0.06337500000000006, "cpu": 0.000669600000000001,
         "result": 0.08520000000000029},
    ),
    ("1to1000", "full", "NOJOIN"): (
        142, 0.2589552259625029,
        {"disk_reads": 9, "disk_writes": 0, "server_to_client": 9, "rpcs": 9,
         "rpc_bytes": 36864, "client_faults": 9, "client_hits": 295, "server_faults": 9,
         "server_hits": 0, "swap_faults": 0, "handles_allocated": 444,
         "handles_unreferenced": 742, "records_moved": 0, "io_faults": 0, "io_failures": 0},
        {"rpc": 0.0018000000000000004, "io": 0.09, "transfer": 0.009000000000000001,
         "sort": 0.0008640259625020674, "handle": 0.07129400000000059,
         "cpu": 0.0007972000000000064, "result": 0.08520000000000029},
    ),
    ("1to1000", "full", "PHJ"): (
        142, 0.2365304259625024,
        {"disk_reads": 10, "disk_writes": 0, "server_to_client": 10, "rpcs": 10,
         "rpc_bytes": 40960, "client_faults": 10, "client_hits": 294, "server_faults": 10,
         "server_hits": 0, "swap_faults": 0, "handles_allocated": 302,
         "handles_unreferenced": 302, "records_moved": 0, "io_faults": 0, "io_failures": 0},
        {"rpc": 0.0020000000000000005, "io": 0.09999999999999999,
         "transfer": 0.010000000000000002, "handle": 0.037750000000000034,
         "cpu": 0.0007164000000000057, "sort": 0.0008640259625020674,
         "result": 0.08520000000000029},
    ),
    ("1to1000", "full", "CHJ"): (
        142, 0.23689602596250242,
        {"disk_reads": 10, "disk_writes": 0, "server_to_client": 10, "rpcs": 10,
         "rpc_bytes": 40960, "client_faults": 10, "client_hits": 294, "server_faults": 10,
         "server_hits": 0, "swap_faults": 0, "handles_allocated": 302,
         "handles_unreferenced": 302, "records_moved": 0, "io_faults": 0, "io_failures": 0},
        {"rpc": 0.0020000000000000005, "io": 0.09999999999999999,
         "transfer": 0.010000000000000002, "sort": 0.0008640259625020674,
         "handle": 0.037750000000000034, "cpu": 0.0010820000000000161,
         "result": 0.08520000000000029},
    ),
    ("1to1000", "bulk", "NL"): (
        142, 0.36417585000000025,
        {"disk_reads": 24, "disk_writes": 0, "server_to_client": 24, "rpcs": 24,
         "rpc_bytes": 98304, "client_faults": 24, "client_hits": 484, "server_faults": 24,
         "server_hits": 0, "swap_faults": 0, "handles_allocated": 507,
         "handles_unreferenced": 507, "records_moved": 0, "io_faults": 0, "io_failures": 0},
        {"rpc": 0.0048, "io": 0.24000000000000007, "transfer": 0.024000000000000014,
         "handle": 0.009506249999999872, "cpu": 0.000669600000000001,
         "result": 0.08520000000000029},
    ),
    ("1to1000", "bulk", "NOJOIN"): (
        142, 0.19835532596250216,
        {"disk_reads": 9, "disk_writes": 0, "server_to_client": 9, "rpcs": 9,
         "rpc_bytes": 36864, "client_faults": 9, "client_hits": 295, "server_faults": 9,
         "server_hits": 0, "swap_faults": 0, "handles_allocated": 444,
         "handles_unreferenced": 742, "records_moved": 0, "io_faults": 0, "io_failures": 0},
        {"rpc": 0.0018000000000000004, "io": 0.09, "transfer": 0.009000000000000001,
         "sort": 0.0008640259625020674, "handle": 0.010694099999999805,
         "cpu": 0.0007972000000000064, "result": 0.08520000000000029},
    ),
    ("1to1000", "bulk", "PHJ"): (
        142, 0.2044429259625023,
        {"disk_reads": 10, "disk_writes": 0, "server_to_client": 10, "rpcs": 10,
         "rpc_bytes": 40960, "client_faults": 10, "client_hits": 294, "server_faults": 10,
         "server_hits": 0, "swap_faults": 0, "handles_allocated": 302,
         "handles_unreferenced": 302, "records_moved": 0, "io_faults": 0, "io_failures": 0},
        {"rpc": 0.0020000000000000005, "io": 0.09999999999999999,
         "transfer": 0.010000000000000002, "handle": 0.00566249999999994,
         "cpu": 0.0007164000000000057, "sort": 0.0008640259625020674,
         "result": 0.08520000000000029},
    ),
    ("1to1000", "bulk", "CHJ"): (
        142, 0.20480852596250232,
        {"disk_reads": 10, "disk_writes": 0, "server_to_client": 10, "rpcs": 10,
         "rpc_bytes": 40960, "client_faults": 10, "client_hits": 294, "server_faults": 10,
         "server_hits": 0, "swap_faults": 0, "handles_allocated": 302,
         "handles_unreferenced": 302, "records_moved": 0, "io_faults": 0, "io_failures": 0},
        {"rpc": 0.0020000000000000005, "io": 0.09999999999999999,
         "transfer": 0.010000000000000002, "sort": 0.0008640259625020674,
         "handle": 0.00566249999999994, "cpu": 0.0010820000000000161,
         "result": 0.08520000000000029},
    ),
    ("1to1000", "inline_tuples", "NL"): (
        142, 0.4178066000000004,
        {"disk_reads": 24, "disk_writes": 0, "server_to_client": 24, "rpcs": 24,
         "rpc_bytes": 98304, "client_faults": 24, "client_hits": 484, "server_faults": 24,
         "server_hits": 0, "swap_faults": 0, "handles_allocated": 506,
         "handles_unreferenced": 506, "records_moved": 0, "io_faults": 0, "io_failures": 0},
        {"rpc": 0.0048, "io": 0.24000000000000007, "transfer": 0.024000000000000014,
         "handle": 0.06313700000000005, "cpu": 0.000669600000000001,
         "result": 0.08520000000000029},
    ),
    ("1to1000", "inline_tuples", "NOJOIN"): (
        142, 0.241205225962503,
        {"disk_reads": 9, "disk_writes": 0, "server_to_client": 9, "rpcs": 9,
         "rpc_bytes": 36864, "client_faults": 9, "client_hits": 295, "server_faults": 9,
         "server_hits": 0, "swap_faults": 0, "handles_allocated": 302,
         "handles_unreferenced": 600, "records_moved": 0, "io_faults": 0, "io_failures": 0},
        {"rpc": 0.0018000000000000004, "io": 0.09, "transfer": 0.009000000000000001,
         "sort": 0.0008640259625020674, "handle": 0.05354400000000064,
         "cpu": 0.0007972000000000064, "result": 0.08520000000000029},
    ),
    ("1to1000", "inline_tuples", "PHJ"): (
        142, 0.23640542596250236,
        {"disk_reads": 10, "disk_writes": 0, "server_to_client": 10, "rpcs": 10,
         "rpc_bytes": 40960, "client_faults": 10, "client_hits": 294, "server_faults": 10,
         "server_hits": 0, "swap_faults": 0, "handles_allocated": 301,
         "handles_unreferenced": 301, "records_moved": 0, "io_faults": 0, "io_failures": 0},
        {"rpc": 0.0020000000000000005, "io": 0.09999999999999999,
         "transfer": 0.010000000000000002, "handle": 0.03762500000000003,
         "cpu": 0.0007164000000000057, "sort": 0.0008640259625020674,
         "result": 0.08520000000000029},
    ),
    ("1to1000", "inline_tuples", "CHJ"): (
        142, 0.23677102596250238,
        {"disk_reads": 10, "disk_writes": 0, "server_to_client": 10, "rpcs": 10,
         "rpc_bytes": 40960, "client_faults": 10, "client_hits": 294, "server_faults": 10,
         "server_hits": 0, "swap_faults": 0, "handles_allocated": 301,
         "handles_unreferenced": 301, "records_moved": 0, "io_faults": 0, "io_failures": 0},
        {"rpc": 0.0020000000000000005, "io": 0.09999999999999999,
         "transfer": 0.010000000000000002, "sort": 0.0008640259625020674,
         "handle": 0.03762500000000003, "cpu": 0.0010820000000000161,
         "result": 0.08520000000000029},
    ),
    ("1to3", "full", "NL"): (
        313, 0.8684572733611878,
        {"disk_reads": 37, "disk_writes": 0, "server_to_client": 37, "rpcs": 37,
         "rpc_bytes": 151552, "client_faults": 37, "client_hits": 1371, "server_faults": 37,
         "server_hits": 0, "swap_faults": 0, "handles_allocated": 2106,
         "handles_unreferenced": 2106, "records_moved": 0, "io_faults": 0, "io_failures": 0},
        {"rpc": 0.007399999999999995, "io": 0.37000000000000016,
         "transfer": 0.037000000000000026, "sort": 0.00103527336119946,
         "handle": 0.26324999999998877, "cpu": 0.0019719999999999985,
         "result": 0.1877999999999994},
    ),
    ("1to3", "full", "NOJOIN"): (
        313, 0.9245369705376149,
        {"disk_reads": 53, "disk_writes": 0, "server_to_client": 53, "rpcs": 53,
         "rpc_bytes": 217088, "client_faults": 53, "client_hits": 694, "server_faults": 53,
         "server_hits": 0, "swap_faults": 0, "handles_allocated": 1057,
         "handles_unreferenced": 1213, "records_moved": 0, "io_faults": 0, "io_failures": 0},
        {"rpc": 0.010600000000000002, "io": 0.5300000000000002,
         "transfer": 0.05300000000000004, "sort": 0.0013881705376166834,
         "handle": 0.14039299999999846, "cpu": 0.0013558000000000096,
         "result": 0.1877999999999994},
    ),
    ("1to3", "full", "PHJ"): (
        313, 4.273920472650754,
        {"disk_reads": 90, "disk_writes": 0, "server_to_client": 90, "rpcs": 90,
         "rpc_bytes": 368640, "client_faults": 90, "client_hits": 715, "server_faults": 90,
         "server_hits": 0, "swap_faults": 73, "handles_allocated": 1150,
         "handles_unreferenced": 1150, "records_moved": 0, "io_faults": 0, "io_failures": 0},
        {"rpc": 0.018000000000000002, "io": 0.9000000000000006,
         "transfer": 0.09000000000000007, "sort": 0.0024234438988161434,
         "handle": 0.14374999999999805, "cpu": 0.002130400000000021,
         "swap": 2.9298166287519396, "result": 0.1877999999999994},
    ),
    ("1to3", "full", "CHJ"): (
        313, 2.910523779216125,
        {"disk_reads": 90, "disk_writes": 0, "server_to_client": 90, "rpcs": 90,
         "rpc_bytes": 368640, "client_faults": 90, "client_hits": 571, "server_faults": 90,
         "server_hits": 0, "swap_faults": 40, "handles_allocated": 862,
         "handles_unreferenced": 862, "records_moved": 0, "io_faults": 0, "io_failures": 0},
        {"rpc": 0.018000000000000002, "io": 0.9000000000000006,
         "transfer": 0.09000000000000007, "sort": 0.0024234438988161434,
         "handle": 0.1077500000000001, "cpu": 0.0022048000000000107,
         "swap": 1.6023455353173088, "result": 0.1877999999999994},
    ),
    ("1to3", "bulk", "NL"): (
        313, 0.6446947733611992,
        {"disk_reads": 37, "disk_writes": 0, "server_to_client": 37, "rpcs": 37,
         "rpc_bytes": 151552, "client_faults": 37, "client_hits": 1371, "server_faults": 37,
         "server_hits": 0, "swap_faults": 0, "handles_allocated": 2106,
         "handles_unreferenced": 2106, "records_moved": 0, "io_faults": 0, "io_failures": 0},
        {"rpc": 0.007399999999999995, "io": 0.37000000000000016,
         "transfer": 0.037000000000000026, "sort": 0.00103527336119946,
         "handle": 0.03948750000000004, "cpu": 0.0019719999999999985,
         "result": 0.1877999999999994},
    ),
    ("1to3", "bulk", "NOJOIN"): (
        313, 0.8052029205376166,
        {"disk_reads": 53, "disk_writes": 0, "server_to_client": 53, "rpcs": 53,
         "rpc_bytes": 217088, "client_faults": 53, "client_hits": 694, "server_faults": 53,
         "server_hits": 0, "swap_faults": 0, "handles_allocated": 1057,
         "handles_unreferenced": 1213, "records_moved": 0, "io_faults": 0, "io_failures": 0},
        {"rpc": 0.010600000000000002, "io": 0.5300000000000002,
         "transfer": 0.05300000000000004, "sort": 0.0013881705376166834,
         "handle": 0.021058950000000114, "cpu": 0.0013558000000000096,
         "result": 0.1877999999999994},
    ),
    ("1to3", "bulk", "PHJ"): (
        313, 4.151732972650756,
        {"disk_reads": 90, "disk_writes": 0, "server_to_client": 90, "rpcs": 90,
         "rpc_bytes": 368640, "client_faults": 90, "client_hits": 715, "server_faults": 90,
         "server_hits": 0, "swap_faults": 73, "handles_allocated": 1150,
         "handles_unreferenced": 1150, "records_moved": 0, "io_faults": 0, "io_failures": 0},
        {"rpc": 0.018000000000000002, "io": 0.9000000000000006,
         "transfer": 0.09000000000000007, "sort": 0.0024234438988161434,
         "handle": 0.02156250000000023, "cpu": 0.002130400000000021,
         "swap": 2.9298166287519396, "result": 0.1877999999999994},
    ),
    ("1to3", "bulk", "CHJ"): (
        313, 2.8189362792161248,
        {"disk_reads": 90, "disk_writes": 0, "server_to_client": 90, "rpcs": 90,
         "rpc_bytes": 368640, "client_faults": 90, "client_hits": 571, "server_faults": 90,
         "server_hits": 0, "swap_faults": 40, "handles_allocated": 862,
         "handles_unreferenced": 862, "records_moved": 0, "io_faults": 0, "io_failures": 0},
        {"rpc": 0.018000000000000002, "io": 0.9000000000000006,
         "transfer": 0.09000000000000007, "sort": 0.0024234438988161434,
         "handle": 0.016162499999999805, "cpu": 0.0022048000000000107,
         "swap": 1.6023455353173088, "result": 0.1877999999999994},
    ),
    ("1to3", "inline_tuples", "NL"): (
        313, 0.7851572733611942,
        {"disk_reads": 37, "disk_writes": 0, "server_to_client": 37, "rpcs": 37,
         "rpc_bytes": 151552, "client_faults": 37, "client_hits": 1371, "server_faults": 37,
         "server_hits": 0, "swap_faults": 0, "handles_allocated": 1756,
         "handles_unreferenced": 1756, "records_moved": 0, "io_faults": 0, "io_failures": 0},
        {"rpc": 0.007399999999999995, "io": 0.37000000000000016,
         "transfer": 0.037000000000000026, "sort": 0.00103527336119946,
         "handle": 0.17994999999999514, "cpu": 0.0019719999999999985,
         "result": 0.1877999999999994},
    ),
    ("1to3", "inline_tuples", "NOJOIN"): (
        313, 0.8854119705376166,
        {"disk_reads": 53, "disk_writes": 0, "server_to_client": 53, "rpcs": 53,
         "rpc_bytes": 217088, "client_faults": 53, "client_hits": 694, "server_faults": 53,
         "server_hits": 0, "swap_faults": 0, "handles_allocated": 744,
         "handles_unreferenced": 900, "records_moved": 0, "io_faults": 0, "io_failures": 0},
        {"rpc": 0.010600000000000002, "io": 0.5300000000000002,
         "transfer": 0.05300000000000004, "sort": 0.0013881705376166834,
         "handle": 0.10126800000000015, "cpu": 0.0013558000000000096,
         "result": 0.1877999999999994},
    ),
    ("1to3", "inline_tuples", "PHJ"): (
        313, 4.230170472650756,
        {"disk_reads": 90, "disk_writes": 0, "server_to_client": 90, "rpcs": 90,
         "rpc_bytes": 368640, "client_faults": 90, "client_hits": 715, "server_faults": 90,
         "server_hits": 0, "swap_faults": 73, "handles_allocated": 800,
         "handles_unreferenced": 800, "records_moved": 0, "io_faults": 0, "io_failures": 0},
        {"rpc": 0.018000000000000002, "io": 0.9000000000000006,
         "transfer": 0.09000000000000007, "sort": 0.0024234438988161434,
         "handle": 0.10000000000000009, "cpu": 0.002130400000000021,
         "swap": 2.9298166287519396, "result": 0.1877999999999994},
    ),
    ("1to3", "inline_tuples", "CHJ"): (
        313, 2.8847737792161254,
        {"disk_reads": 90, "disk_writes": 0, "server_to_client": 90, "rpcs": 90,
         "rpc_bytes": 368640, "client_faults": 90, "client_hits": 571, "server_faults": 90,
         "server_hits": 0, "swap_faults": 40, "handles_allocated": 656,
         "handles_unreferenced": 656, "records_moved": 0, "io_faults": 0, "io_failures": 0},
        {"rpc": 0.018000000000000002, "io": 0.9000000000000006,
         "transfer": 0.09000000000000007, "sort": 0.0024234438988161434,
         "handle": 0.08200000000000007, "cpu": 0.0022048000000000107,
         "swap": 1.6023455353173088, "result": 0.1877999999999994},
    ),
}

FORWARDED = (
    (0, "n0", 120), 0.022777400000000003,
    {"disk_reads": 2, "disk_writes": 0, "server_to_client": 2, "rpcs": 2, "rpc_bytes": 8192,
     "client_faults": 2, "client_hits": 0, "server_faults": 2, "server_hits": 0,
     "swap_faults": 0, "handles_allocated": 3, "handles_unreferenced": 3, "records_moved": 0,
     "io_faults": 0, "io_failures": 0},
    {"rpc": 0.0004, "io": 0.02, "transfer": 0.002, "handle": 0.000375,
     "cpu": 2.4000000000000003e-06},
)

SNAPSHOT = (
    (0, 0, 1), 0.0415766,
    {"disk_reads": 1, "disk_writes": 0, "server_to_client": 1, "rpcs": 1, "rpc_bytes": 4096,
     "client_faults": 1, "client_hits": 3, "server_faults": 1, "server_hits": 0,
     "swap_faults": 0, "handles_allocated": 2, "handles_unreferenced": 2, "records_moved": 0,
     "io_faults": 0, "io_failures": 0},
    {"log": 0.030075, "rpc": 0.0002, "io": 0.01, "transfer": 0.001, "handle": 0.00025,
     "cpu": 1.6000000000000001e-06, "lock": 8e-06, "load": 4.2000000000000004e-05},
)


def _assert_pinned(actual: tuple, expected: tuple) -> None:
    head, elapsed, meters, breakdown = actual
    assert head == expected[0]
    assert repr(elapsed) == repr(expected[1])
    assert list(meters.items()) == list(expected[2].items())
    # Bucket order is part of the simulated output (reports print it).
    assert [(k, repr(v)) for k, v in breakdown.items()] == [
        (k, repr(v)) for k, v in expected[3].items()
    ]


@pytest.fixture(scope="module")
def joins():
    return measure_joins()


class TestReadPathPins:
    @pytest.mark.parametrize("key", list(JOINS), ids=lambda k: "-".join(k))
    def test_cold_join(self, joins, key):
        _assert_pinned(joins[key], JOINS[key])

    def test_same_cells(self, joins):
        assert list(joins) == list(JOINS)

    def test_forwarded_read(self):
        _assert_pinned(measure_forwarded_read(), FORWARDED)

    def test_snapshot_read_of_stashed_version(self):
        _assert_pinned(measure_snapshot_read(), SNAPSHOT)


# -- the pieces of the flat read path --------------------------------------------


def _file_with_moved_record():
    """A database file whose first record moved one page on."""
    schema = Schema()
    schema.define("Blob", [AttributeDef("x", AttrKind.INT32)])
    db = Database(schema)
    sfile = db.create_file("blobs", fill_factor=1.0)
    rids = [sfile.insert(b"a" * 500) for __ in range(8)]
    moved = sfile.update(rids[0], b"b" * 3000)
    assert moved.page_no != rids[0].page_no
    return db, sfile, rids, moved


class TestPageEntry:
    def test_live_slot_returns_the_record(self):
        page = Page(0, 0)
        slot = page.insert(b"payload")
        assert page.entry(slot) == b"payload"

    def test_out_of_range_slot(self):
        page = Page(3, 7)
        page.insert(b"x")
        with pytest.raises(RecordNotFoundError, match=r"^no slot 5 on page 3:7$"):
            page.entry(5)
        with pytest.raises(RecordNotFoundError, match=r"^no slot -1 on page 3:7$"):
            page.entry(-1)

    def test_deleted_slot(self):
        page = Page(3, 7)
        slot = page.insert(b"x")
        page.delete(slot)
        with pytest.raises(
            RecordNotFoundError, match=r"^slot 0 of page 3:7 was deleted$"
        ):
            page.entry(slot)

    def test_forwarded_slot_returns_its_marker(self):
        page = Page(3, 7)
        slot = page.insert(b"x")
        page.forward(slot, Rid(3, 9, 2))
        entry = page.entry(slot)
        assert isinstance(entry, Forward)
        assert entry.target == Rid(3, 9, 2)
        with pytest.raises(RecordNotFoundError, match="resolve via forward_target"):
            page.read(slot)


class TestReadResolving:
    def test_forwarded_read_costs_two_page_accesses(self):
        db, sfile, rids, moved = _file_with_moved_record()
        db.restart_cold()
        db.reset_meters()
        record, actual = sfile.read_resolving(rids[0])
        assert (record, actual) == (b"b" * 3000, moved)
        counters = db.counters
        assert counters.client_faults + counters.client_hits == 2
        assert counters.client_faults == 2
        db.reset_meters()
        assert sfile.read_resolving(rids[1]) == (b"a" * 500, rids[1])
        assert counters.client_faults + counters.client_hits == 1

    def test_errors_are_unchanged(self):
        db, sfile, rids, moved = _file_with_moved_record()
        foreign = Rid(sfile.file_id + 1, 0, 0)
        with pytest.raises(
            RecordNotFoundError,
            match=rf"^rid {foreign!r} does not belong to file {sfile.file_id}$",
        ):
            sfile.read_resolving(foreign)
        with pytest.raises(RecordNotFoundError, match=r"^no slot 99 on page"):
            sfile.read_resolving(Rid(sfile.file_id, 0, 99))
        sfile.delete(rids[2])
        with pytest.raises(RecordNotFoundError, match=r"was deleted$"):
            sfile.read_resolving(rids[2])

    def test_second_hop_is_refused(self):
        db, sfile, rids, moved = _file_with_moved_record()
        page = sfile.pager.get_page(moved.file_id, moved.page_no)
        page.forward(moved.slot, rids[3])
        with pytest.raises(
            RecordNotFoundError,
            match=rf"^forwarding chain longer than one hop at {rids[0]!r} -> "
            rf"{moved!r}$",
        ):
            sfile.read_resolving(rids[0])


class TestClassLookup:
    def _record(self, class_id: int, version: int) -> bytes:
        return ObjectHeader(class_id, schema_version=version).encode() + b"\x00" * 8

    def test_right_version_after_evolve(self):
        db = Database(Schema())
        schema = db.schema
        v0 = schema.define("Thing", [AttributeDef("x", AttrKind.INT32)])
        v1 = schema.evolve("Thing", [AttributeDef("y", AttrKind.INT32)])
        v2 = schema.evolve("Thing", [AttributeDef("z", AttrKind.INT32)])
        other = schema.define("Other", [AttributeDef("x", AttrKind.INT32)])
        manager = db.manager
        for cls in (v0, v1, v2, other):
            found = manager._class_of(self._record(cls.class_id, cls.schema_version))
            assert found is cls
            assert found is schema.class_version(cls.class_id, cls.schema_version)
        # Bounded by the number of class versions, not by the data.
        assert len(schema.versions) == 4

    def test_unknown_id_or_version_raises_schema_error(self):
        db = Database(Schema())
        cls = db.schema.define("Thing", [AttributeDef("x", AttrKind.INT32)])
        with pytest.raises(SchemaError, match=r"^unknown class id 77$"):
            db.manager._class_of(self._record(77, 0))
        with pytest.raises(
            SchemaError, match=rf"^class id {cls.class_id} has versions 0..0, not 3$"
        ):
            db.manager._class_of(self._record(cls.class_id, 3))

    def test_high_class_ids_use_both_header_bytes(self):
        schema = Schema()
        schema._next_id = 0x1234
        db = Database(schema)
        cls = schema.define("Thing", [AttributeDef("x", AttrKind.INT32)])
        assert db.manager._class_of(self._record(0x1234, 0)) is cls


def _reference_leaf_decode(record: bytes, key_type: type) -> list:
    """The per-entry decoder: key at its offset, then the rid."""
    (count,) = struct.unpack_from("<I", record, 0)
    width = 8 if key_type is int else 16
    entries, offset = [], 4
    for __ in range(count):
        if key_type is int:
            (key,) = struct.unpack_from("<q", record, offset)
        else:
            key = record[offset : offset + width].rstrip(b"\x00").decode(
                "utf-8", "replace"
            )
        rid = Rid(*struct.unpack_from("<hih", record, offset + width))
        entries.append((key, rid))
        offset += width + Rid.DISK_SIZE
    return entries


class TestLeafDecode:
    PAIRS = {
        int: [
            (-(2**63), NIL_RID), (-5, Rid(0, 3, 1)), (0, NIL_RID), (7, Rid(1, 0, 0)),
            (7, Rid(-2, 2**31 - 1, -(2**15))), (2**63 - 1, Rid(2**15 - 1, 9, 2)),
        ],
        str: [
            ("", NIL_RID), ("Daisy", Rid(0, 1, 2)), ("exactly-sixteen!", Rid(3, 4, 5)),
            ("é-unicode", Rid(-1, 0, 7)),
        ],
    }

    @pytest.mark.parametrize("key_type", [int, str], ids=["int", "str"])
    def test_matches_per_entry_decoder(self, key_type):
        db = Database(Schema())
        index = BTreeIndex("idx", 1, db.create_file("idx"), key_type)
        pairs = self.PAIRS[key_type]
        record = index._encode_leaf(pairs)
        decoded = index.codec.decode_entries(record)
        assert decoded == _reference_leaf_decode(record, key_type) == pairs
        for entry in decoded:
            assert type(entry) is IndexEntry and type(entry.rid) is Rid

    def test_empty_leaf(self):
        db = Database(Schema())
        index = BTreeIndex("idx", 1, db.create_file("idx"), int)
        assert index.codec.decode_entries(index._encode_leaf([])) == []

    def test_range_scan_yields_index_entries(self):
        db = Database(Schema())
        index = BTreeIndex("idx", 1, db.create_file("idx"), int, leaf_capacity=3)
        index.bulk_build([(k, Rid(0, k, 0)) for k in (-4, -1, 2, 3, 3, 8, 9)])
        got = list(index.range_scan(-1, 8, include_high=False))
        assert [(e.key, e.rid) for e in got] == [
            (-1, Rid(0, -1, 0)), (2, Rid(0, 2, 0)), (3, Rid(0, 3, 0)),
            (3, Rid(0, 3, 0)),
        ]
        assert all(type(e) is IndexEntry for e in got)


def _loader(rid):
    schema = Schema()
    return b"\x01\x01\x00\x00\x00", schema.define("T", [])


class TestHandleTablePricing:
    def test_zero_capacity_never_parks(self):
        table = HandleTable(
            SimClock(), CostParams(), CounterSet(), delayed_free_capacity=0
        )
        for i in range(5):
            handle = table.get(Rid(0, 0, i), _loader)
            table.unreference(handle)
            assert table.parked_count == 0
            assert table.live_count == 0
        assert table.counters.handles_allocated == 5

    def test_loader_gets_the_rid(self):
        table = HandleTable(SimClock(), CostParams(), CounterSet())
        seen = []

        def loader(rid):
            seen.append(rid)
            return _loader(rid)

        handle = table.get(Rid(1, 2, 3), loader)
        table.get(Rid(1, 2, 3), loader)
        assert seen == [Rid(1, 2, 3)]
        assert handle.rid == Rid(1, 2, 3)

    @pytest.mark.parametrize("start", list(HandleMode))
    @pytest.mark.parametrize("switched", list(HandleMode))
    def test_mode_switch_reprices_seconds(self, start, switched):
        priced = (
            "_touch_s", "_alloc_s", "_unref_s", "_literal_fixed_s",
            "_literal_variable_s", "attr_decode_s",
        )
        table = HandleTable(SimClock(), CostParams(), CounterSet(), start)
        table.mode = switched
        fresh = HandleTable(SimClock(), CostParams(), CounterSet(), switched)
        for name in priced:
            assert getattr(table, name) == getattr(fresh, name), name

    def test_seconds_charge_is_bit_identical_to_microseconds(self):
        params = CostParams()
        table = HandleTable(SimClock(), params, CounterSet(), HandleMode.BULK)
        via_us, via_s = SimClock(), SimClock()
        for __ in range(1000):
            via_us.charge_us(Bucket.HANDLE, params.handle_get_us * 0.1
                             * params.bulk_handle_factor)
            via_s.charge_s(Bucket.HANDLE, table._touch_s)
        assert repr(via_us.elapsed_s) == repr(via_s.elapsed_s)
