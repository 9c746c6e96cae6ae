"""Tests of the benchmark itself: clean exit, correctness gate, tracer restore.

Run from the repository root with ``python -m pytest perfbench -q``.  Each
command runs at the smallest setting (``--seconds 1``) in its own session
under a scratch working directory, so the checks can see every process and
directory it left behind.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
RUN = HERE / "run.py"
SRC = HERE.parent / "src"
sys.path[:0] = [str(SRC), str(HERE)]


def _session_processes(sid: int) -> list[int]:
    """Pids of live processes in session ``sid`` (read from /proc)."""
    pids = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        # fields after the parenthesised command: state ppid pgrp session ...
        fields = stat[stat.rindex(")") + 2 :].split()
        if int(fields[3]) == sid and fields[0] != "Z":
            pids.append(int(entry.name))
    return pids


def _run(cwd: Path, args: list[str], prelude: str = "") -> tuple[int, str]:
    """Run the benchmark (after ``prelude``) and check it left nothing behind."""
    systmp = cwd / "systmp"
    systmp.mkdir()
    code = (
        f"import runpy, sys\nsys.path[:0] = [{str(SRC)!r}, {str(HERE)!r}]\n{prelude}\n"
        f"sys.argv = [{str(RUN)!r}, *{args!r}]\n"
        f"runpy.run_path({str(RUN)!r}, run_name='__main__')\n"
    )
    env = {**os.environ, "TMPDIR": str(systmp)}
    proc = subprocess.Popen(
        [sys.executable, "-c", code],
        cwd=cwd,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        start_new_session=True,
    )
    out, _ = proc.communicate(timeout=180)
    assert _session_processes(proc.pid) == [], "the benchmark left a process running"
    assert list(systmp.iterdir()) == [], "the benchmark wrote to the system temp dir"
    left = [p.name for p in cwd.glob(".perfbench/*") if p.is_dir()]
    assert left == [], f"the benchmark left directories behind: {left}"
    return proc.returncode, out


def _result(out: str) -> dict | None:
    try:
        result = json.loads(out.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        return None
    return result if isinstance(result, dict) and "correct" in result else None


@pytest.mark.parametrize("workload", ["contended_mix", "trace_replay", "service_batch"])
def test_traced_run_exits_clean_and_correct(tmp_path, workload):
    code, out = _run(tmp_path, ["--workload", workload, "--seconds", "1", "--trace", "1"])
    result = _result(out)
    assert code == 0, out
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    import layers

    assert list(result["metrics"]) == list(layers.LAYER_METRICS)
    assert (tmp_path / ".perfbench" / f"spans-{workload}.jsonl").stat().st_size > 0


def test_untraced_run_reports_every_end_to_end_metric(tmp_path):
    code, out = _run(tmp_path, ["--workload", "trace_replay", "--seconds", "1"])
    result = _result(out)
    assert code == 0, out
    benchmark = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    names = [m["name"] for m in benchmark["end_to_end"]]
    assert list(result["metrics"]) == names
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert "pinned digest" in out


def test_unpinned_seed_says_so(tmp_path):
    code, out = _run(tmp_path, ["--workload", "service_batch", "--seed", "123", "--seconds", "1"])
    assert code == 0, out
    assert "unpinned seed: iteration-to-iteration identity" in out


def test_wrong_pinned_digest_fails(tmp_path):
    prelude = "import workloads\nworkloads.PINNED['trace_replay'][0] = '0' * 64"
    code, out = _run(tmp_path, ["--workload", "trace_replay", "--seconds", "1"], prelude)
    result = _result(out)
    assert code == 1, out
    assert not result["correct"] and result["failed"] >= 1


def test_failed_job_counts_as_failed(tmp_path):
    # Every simulation after the warm-up batch raises inside its job.
    prelude = (
        "from repro.sim.engine import Simulator\n"
        "original, calls = Simulator.run, []\n"
        "def run(self, *a, **k):\n"
        "    calls.append(1)\n"
        "    if len(calls) > 24:\n"
        "        raise RuntimeError('planted failure')\n"
        "    return original(self, *a, **k)\n"
        "Simulator.run = run\n"
    )
    code, out = _run(tmp_path, ["--workload", "service_batch", "--seconds", "1"], prelude)
    result = _result(out)
    assert code == 1, out
    assert not result["correct"] and result["failed"] >= 1


def test_workload_raising_mid_run_exits_nonzero_and_cleans_up(tmp_path):
    prelude = (
        "from repro.sim.engine import Simulator\n"
        "original, calls = Simulator.run, []\n"
        "def run(self, *a, **k):\n"
        "    calls.append(1)\n"
        "    if len(calls) == 2:\n"
        "        raise RuntimeError('planted failure')\n"
        "    return original(self, *a, **k)\n"
        "Simulator.run = run\n"
    )
    code, out = _run(tmp_path, ["--workload", "contended_mix", "--seconds", "1", "--trace", "1"], prelude)
    assert code != 0
    assert "planted failure" in out
    assert _result(out) is None


def test_fails_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "trace_replay", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert _result(proc.stdout) is None


def test_tracer_restores_every_attribute():
    import layers

    methods, functions = layers.default_targets()
    before = {(owner, attr): vars(owner).get(attr, "<inherited>") for owner, attr, _ in methods}
    bindings = {
        (name, attr): value
        for name, module in list(sys.modules.items())
        for attr, value in list(getattr(module, "__dict__", {}).items())
        if any(value is fn for fn, _ in functions)
    }
    tracer = layers.LayerTracer(methods, functions)
    with pytest.raises(RuntimeError):
        with tracer:
            assert tracer.still_wrapped()
            raise RuntimeError("body raised")
    assert tracer.still_wrapped() == []
    assert {(o, a): vars(o).get(a, "<inherited>") for o, a, _ in methods} == before
    for (name, attr), value in bindings.items():
        assert getattr(sys.modules[name], attr) is value


def test_layer_times_self_time_from_nesting():
    import layers

    names = ["op", "sim.run", "cluster.resolve", "network.solve", "obs.sink", "obs.sink"]
    parents = [-1, 0, 1, 2, 0, 4]  # the second obs.sink nests in the first
    durations = [10.0, 8.0, 3.0, 1.0, 0.5, 0.1]
    times = layers.layer_times(names, parents, durations)
    assert times["op"]["self_s"] == pytest.approx(1.5)
    assert times["sim.run"]["self_s"] == pytest.approx(5.0)
    assert times["cluster.resolve"]["self_s"] == pytest.approx(2.0)
    assert times["obs.sink"]["s"] == pytest.approx(0.5)
    assert times["obs.sink"]["calls"] == 2
