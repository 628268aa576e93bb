"""Tests of the benchmark itself: python3 -m pytest -q perfbench"""

import dataclasses
import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

import pytest

import run
import spans
import workloads

sys.path.insert(0, str(run.SRC))

# Small versions of the three workloads, so a test takes seconds.
SMALL = [
    workloads.Survey(p_max=3000, random_r=(3, 4), smooth=1, bits=40),
    workloads.Sieve(density_x=10**6, check_x=10**5),
]
for _w in SMALL:
    _w.golden = lambda seed: {}


def _session_members(sid: int) -> list[int]:
    members = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue  # the process ended while we looked
        if int(fields[3]) == sid:
            members.append(int(stat.parent.name))
    return members


def _bench(args, cwd):
    """Run the benchmark in a session of its own.  Return it, its output and
    the processes of its session still alive after it ended; kill those."""
    proc = subprocess.Popen(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=180)
        left = _session_members(proc.pid)
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass  # the group is already empty
        proc.wait()
    return proc, out, err, left


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="needs /proc")
def test_run_reports_every_metric_and_leaves_no_process():
    proc, out, err, left = _bench(["--workload", "survey", "--seed", "0", "--seconds", "1", "--trace", "0"], run.ROOT)
    assert proc.returncode == 0, err
    assert left == []
    result = json.loads(out.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert type(result["attempted"]) is int and type(result["failed"]) is int
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert list(result["metrics"]) == [m["name"] for m in spec["end_to_end"]]
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_fails_without_the_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc, out, _, _ = _bench(["--workload", "sieve", "--seed", "0", "--seconds", "1", "--trace", "0"], tmp_path)
    assert proc.returncode != 0
    assert out == ""


def _traced_pass(workload, seed):
    sg, inputs, _ = run.set_up(workload, seed, 1)
    bench = run.Run(workload, sg, inputs)
    layer = bench.repeat(0, spans.Tracer())
    assert bench.failed(seed)[0] == 0
    assert not hasattr(sg.experiments.survey_row, "__wrapped__")  # spans removed
    return {name: v for name, v in layer[0].items() if not name.endswith("ms")}


@pytest.mark.parametrize("workload", SMALL, ids=lambda w: w.name)
def test_traced_counts_repeat_exactly(workload):
    first = _traced_pass(workload, 7)
    assert first == _traced_pass(workload, 7)
    assert any(first.values())


def test_oracle_and_golden_flag_wrong_output():
    workload = SMALL[0]
    sg, inputs, _ = run.set_up(workload, 0, 1)
    bench = run.Run(workload, sg, inputs)
    bench.repeat(0)
    rep = bench.reps[0]
    assert workload.check(sg, inputs, rep) == 0

    rows = list(rep.outputs["rows"])
    rows[5] = dataclasses.replace(rows[5], exact_elements=(rows[5].p - 1,))
    bad = dataclasses.replace(rep, outputs={**rep.outputs, "rows": rows})
    assert workload.check(sg, inputs, bad) == 2  # survey row and CSV read-back

    workload.golden = lambda seed: {"survey_csv": "0" * 64}
    try:
        assert bench.failed(0)[0] == bench.attempted
    finally:
        workload.golden = lambda seed: {}


def test_every_per_layer_metric_is_computed():
    import smallgen

    computed = set(spans.Tracer().metrics()) | set(spans.genset_counts(smallgen, []))
    computed |= {"trace.overhead_ratio", "src.lines"}
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"] for m in spec["per_layer"]} <= computed
