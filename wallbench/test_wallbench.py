"""Self-tests of the wall-clock benchmark.

Run from the repository root with ``python -m pytest wallbench -q``.
Most tests drive the workloads in-process at a tiny scale; the golden
tests run ``run.py`` itself, one process per workload and seed.
"""

from __future__ import annotations

import json
import pathlib
import shutil
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

workloads = run.import_workloads()
import spans  # noqa: E402

TINY = 0.001
SEED = run.DEFAULT_SEED
NAMES = sorted(workloads.WORKLOADS)


def _round(name: str, **kwargs):
    """One round at the tiny scale, as ``run.play`` returns it."""
    return run.play(workloads.WORKLOADS[name], SEED, TINY, **kwargs)


@pytest.mark.parametrize("name", NAMES)
def test_two_rounds_give_identical_simulated_outputs(name):
    first, second = (_round(name)[0] for __ in range(2))
    reference = run.digest_of(first)
    assert run.digest_of(second) == reference
    assert not first.problems
    outcome = run.run_rounds(workloads.WORKLOADS[name], SEED, TINY,
                             reference, rounds=2)
    assert outcome.failed == 0
    assert outcome.attempted == 2 * first.attempted


@pytest.mark.parametrize("name", NAMES)
def test_altered_golden_copy_is_caught(name):
    rnd = _round(name)[0]
    reference = run.digest_of(rnd)
    label = sorted(reference)[0]
    altered = json.loads(json.dumps(reference))
    altered[label][1] = "0" * 16
    bad = run.compare(rnd, altered)
    assert list(bad) == [label]
    assert run.failed_ops(rnd, bad, altered) == reference[label][0]
    missing = {k: v for k, v in reference.items() if k != label}
    assert list(run.compare(rnd, missing)) == [label]
    # The digest covers every field of the output at full precision.
    rnd.outputs[label]["elapsed_s"] *= 1 + 1e-12
    assert list(run.compare(rnd, reference)) == [label]


def _originals():
    found = []
    for module_name, path, __, __ in spans.TARGETS:
        module = sys.modules[module_name]
        if path.endswith("[*]"):
            table = getattr(module, path[:-3])
            found += [(table, key, fn) for key, fn in table.items()]
        elif "." in path:
            cls_name, attr = path.split(".")
            cls = getattr(module, cls_name)
            found.append((cls, attr, vars(cls)[attr]))
        else:
            found.append((module, path, getattr(module, path)))
    return found


def _current(owner, key):
    return owner[key] if isinstance(owner, dict) else vars(owner)[key]


#: Layers each workload must not touch in its measured phase.
BYPASSED = {
    "paper-trees": ("oql", "txn", "service", "dist"),
    "mix-si": ("dist",),
    "shard-8-sync": (),
}
#: Layers each workload must exercise in its measured phase.
USED = {
    "paper-trees": ("objects", "buffer", "storage", "index", "exec"),
    "mix-si": ("objects", "oql", "txn", "service"),
    "shard-8-sync": ("objects", "oql", "txn", "dist"),
}


@pytest.mark.parametrize("name", NAMES)
def test_tracing_keeps_outputs_and_is_removed(name):
    reference = run.digest_of(_round(name)[0])
    originals = _originals()
    tracer = spans.Tracer().install()
    try:
        assert all(_current(o, k) is not fn for o, k, fn in originals)
        outcome = run.run_rounds(workloads.WORKLOADS[name], SEED, TINY,
                                 reference, rounds=1, tracer=tracer)
        values = run.layer_values(tracer, outcome.rounds[0])
    finally:
        tracer.uninstall()
    assert all(_current(o, k) is fn for o, k, fn in originals)
    assert outcome.failed == 0
    for layer in BYPASSED[name]:
        assert values[f"{layer}.calls"] == 0, layer
    for layer in USED[name]:
        assert values[f"{layer}.calls"] > 0, layer
    assert (values["dist.rows_shipped"] > 0) == (name == "shard-8-sync")
    assert values["simtime.charges"] > 0
    assert values["derby.generate_s"] > 0 and values["cluster.load_s"] > 0
    assert tracer.spans and all(span[6] is not None for span in tracer.spans
                                if span[1] not in ("derby", "cluster"))


def test_profile_of_paper_trees_touches_only_its_layers():
    import cProfile

    profiler = cProfile.Profile()
    _round("paper-trees", profiler=profiler)
    packages = {name for name, __ in run.profile_table(profiler)
                if name != "builtins" and not name.startswith("py:")}
    # bench (the run_join entry point), cluster (start_cold_run) and derby
    # (the selectivity thresholds) only set each query up.
    assert packages <= {"objects", "storage", "simtime", "exec", "buffer",
                        "index", "bench", "cluster", "derby"}
    assert {"objects", "exec", "simtime"} <= packages


def test_timings_are_host_normalized():
    outcome = run.Outcome()
    outcome.setup_s = [1.0, 1.0, 1.0]
    outcome.run_s = [2.0, 4.0, 8.0]
    outcome.host = [1.0, 0.5, 0.25]
    outcome.sim_s = [10.0, 10.0, 10.0]
    metrics = run.end_to_end(outcome)
    assert metrics["setup_s"] == 0.5 and metrics["run_s"] == 2.0
    assert metrics["sim_s_per_wall_s"] == 5.0
    assert run.calibrate() > 0


def test_untraced_run_never_imports_the_tracer():
    code = f"""
import runpy, sys
sys.path.insert(0, {str(HERE)!r})
sys.argv = ["run.py", "--workload", "mix-si", "--seed", "0", "--rounds", "1"]
try:
    runpy.run_path({str(HERE / "run.py")!r}, run_name="__main__")
except SystemExit as stop:
    assert not stop.code, stop.code
assert "spans" not in sys.modules, "the tracer was imported"
"""
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize("name", NAMES)
def test_golden_covers_every_seed(name):
    workload = workloads.WORKLOADS[name]
    for seed in run.GOLDEN_SEEDS:
        assert run.load_golden(workload, seed), seed
    assert run.data_seed(run.HELD_OUT_SEED) == run.HELD_OUT_SEED
    assert run.data_seed(123) == 23 and run.data_seed(-1) == run.POOL - 1


@pytest.mark.parametrize("seed", (run.DEFAULT_SEED, run.HELD_OUT_SEED, 123))
@pytest.mark.parametrize("name", NAMES)
def test_committed_golden_copy_holds(name, seed):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name,
         "--seed", str(seed), "--rounds", "1"],
        capture_output=True, text=True, timeout=170)
    assert done.returncode == 0, done.stderr
    assert f"(data seed {run.data_seed(seed)})" in done.stdout
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, done.stderr


def test_no_golden_means_no_result(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "GOLDEN_DIR", tmp_path)
    with pytest.raises(SystemExit) as stop:
        run.main(["--workload", "mix-si", "--rounds", "1"])
    assert stop.value.code
    assert "{" not in capsys.readouterr().out


def test_no_completed_round_reports_failure(monkeypatch, capsys):
    def crash(seed, scale):
        raise RuntimeError("set-up crashed")

    monkeypatch.setattr(workloads.WORKLOADS["mix-si"], "setup", crash)
    for trace in ("0", "1"):
        assert run.main(["--workload", "mix-si", "--seed", "0", "--rounds",
                         "1", "--seconds", "1", "--trace", trace]) == 1
        result = json.loads(capsys.readouterr().out.splitlines()[-1])
        assert not result["correct"] and result["metrics"] == {}
        assert result["failed"] == result["attempted"] > 0


def test_no_result_without_the_simulator(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "paper-trees",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert "{" not in done.stdout


def test_benchmark_json_names_what_run_prints():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
