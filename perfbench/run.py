"""End-to-end benchmark of the HPAS reproduction, with per-layer attribution.

Usage (from the repository root)::

    python3 perfbench/run.py --workload contended_mix --seed 0 --seconds 30 --trace 0

``--trace 0`` sets up the workload several times (reporting the median
set-up time), then runs its closed loop for ``--seconds`` and reports the
end-to-end metrics.  ``--trace 1`` spends the first half of ``--seconds``
untraced and the second half with every layer's public entry points
wrapped (see ``layers.py``), and reports the per-layer metrics; the spans
are written to ``.perfbench/spans-<workload>.jsonl``.

Times are host-normalised: each measured wall time is multiplied by
``CALIBRATION_REF_S / t_cal``, where ``t_cal`` is the time of a fixed
pure-Python calibration kernel measured around it, so the figures read
as seconds on a host that runs the kernel in ``CALIBRATION_REF_S``.  The
raw wall-clock values are printed on the ``# wall:`` line.

Every operation's simulated output is checked against the pinned digest
of its seed, or, for an unpinned seed, against the first (warm-up)
iteration of the run.  The last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``; the exit code
is 1 when any operation failed.  Everything runs in this one process and
every scratch directory lives under ``.perfbench/`` in the current
directory and is removed before exit.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import itertools
import json
import os
import platform
import random
import resource
import shutil
import signal
import statistics
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT_DIR = ".perfbench"

#: set-up repetitions whose median is ``setup_s`` (untraced runs)
SETUP_REPEATS = 3

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "jobs_per_s": "1/s",
    "run_s_p50": "s",
    "repeat_ms_p50": "ms",
}

#: Reference host speed: the calibration kernel's time on the host the
#: reported seconds refer to (its typical time on the 2-vCPU machine the
#: benchmark was tuned on).
CALIBRATION_REF_S = 0.025
#: iterations on each side whose calibrations smooth an iteration's scale
CALIBRATION_SPAN = 2

#: thread-pool variables pinned to one thread for the whole process
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", required=True, choices=("contended_mix", "trace_replay", "service_batch")
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


class _Item:
    __slots__ = ("key", "weight", "rank")

    def __init__(self, key: str, weight: float, rank: int) -> None:
        self.key, self.weight, self.rank = key, weight, rank


def calibration_s() -> float:
    """Host seconds of a fixed pure-Python kernel.

    The kernel does what the simulator's hot loops do (allocate small
    objects, read attributes, update dicts, sort) and touches no program
    code, so its time tracks the host's current speed for this kind of
    work.  On a shared host that speed moves by up to 2x within minutes,
    so each measured time is scaled by ``CALIBRATION_REF_S`` over the
    calibration taken around it (see :meth:`Loop.run_for`).
    """
    gc.collect()
    gc.disable()
    try:
        start = time.perf_counter()
        rng = random.Random(1)
        items = [_Item(str(i), rng.random(), i) for i in range(30000)]
        table: dict[str, float] = {}
        for item in items:
            table[item.key[:3]] = table.get(item.key[:3], 0.0) + item.weight * item.rank
        items.sort(key=lambda item: item.weight)
        elapsed = time.perf_counter() - start
    finally:
        gc.enable()
    return elapsed


class Loop:
    """Runs a workload's iterations and checks every digest."""

    def __init__(self, workload, tmp: Path, expected: str | None) -> None:
        self.workload = workload
        self.tmp = tmp
        self.expected = expected
        self.index = itertools.count()
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def check(self, outcome) -> None:
        self.attempted += outcome.ops
        self.failed += outcome.failed
        self.notes += outcome.notes
        if self.expected is None:
            self.expected = outcome.digest
        elif outcome.digest != self.expected:
            self.failed += outcome.digest_ops
            self.notes.append(f"digest {outcome.digest} != expected {self.expected}")

    def iteration(self, op=contextlib.nullcontext):
        gc.collect()
        outcome = self.workload.iteration(self.tmp, next(self.index), op)
        self.check(outcome)
        return outcome

    def run_for(self, seconds: float, op=contextlib.nullcontext) -> list:
        """Iterate for ``seconds``, each iteration scaled to the reference host.

        An iteration's scale uses the median of the calibrations taken
        just before the two iterations on either side of it and itself,
        which smooths the kernel's own jitter but still follows the host.
        """
        outcomes, calibrations = [], []
        deadline = time.perf_counter() + seconds
        while not outcomes or time.perf_counter() < deadline:
            calibrations.append(calibration_s())
            outcomes.append(self.iteration(op))
        for index, outcome in enumerate(outcomes):
            near = calibrations[max(0, index - CALIBRATION_SPAN) : index + CALIBRATION_SPAN + 1]
            outcome.scale = CALIBRATION_REF_S / statistics.median(near)
        return outcomes


def mean_op_s(outcomes: list, scaled: bool = True) -> float:
    return sum(o.seconds * (o.scale if scaled else 1.0) for o in outcomes) / sum(
        o.ops for o in outcomes
    )


def end_to_end(outcomes: list, setup_s: float, scaled: bool = True) -> dict[str, float]:
    sims = [s * (o.scale if scaled else 1.0) for o in outcomes for s in o.sim_s]
    repeats = [s * (o.scale if scaled else 1.0) for o in outcomes for s in o.repeat_s]
    return {
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "jobs_per_s": 1.0 / mean_op_s(outcomes, scaled),
        "run_s_p50": statistics.median(sims),
        "repeat_ms_p50": 1000.0 * statistics.median(repeats),
    }


def run(args: argparse.Namespace, tmp: Path, out_dir: Path, import_s: tuple[float, float]) -> int:
    """``import_s`` is (wall seconds, reference-host seconds) of the imports."""
    import numpy

    import layers
    import workloads
    from repro.sim.engine import default_backend

    workload = workloads.WORKLOADS[args.workload]()
    pinned = workloads.PINNED[args.workload].get(args.seed)
    loop = Loop(workload, tmp, pinned)
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "check": "pinned digest" if pinned else "unpinned seed: iteration-to-iteration identity",
        "backend": default_backend(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }

    setup_wall, setup_ref = [], []
    for _ in range(1 if args.trace else SETUP_REPEATS):
        scale = CALIBRATION_REF_S / calibration_s()
        start = time.perf_counter()
        workload.setup(args.seed, tmp)
        loop.iteration()  # untimed warm-up; also the unpinned reference digest
        setup_wall.append(time.perf_counter() - start)
        setup_ref.append(setup_wall[-1] * scale)
    meta["setup_repeats"] = len(setup_wall)

    if not args.trace:
        outcomes = loop.run_for(args.seconds)
        metrics = end_to_end(outcomes, import_s[1] + statistics.median(setup_ref))
        units = END_TO_END
        wall = end_to_end(outcomes, import_s[0] + statistics.median(setup_wall), scaled=False)
        meta["wall"] = " ".join(f"{name}={wall[name]:.6g}" for name in END_TO_END)
        meta["calibration_ms_p50"] = 1000.0 * statistics.median(
            CALIBRATION_REF_S / o.scale for o in outcomes
        )
        repeats = [s * o.scale for o in outcomes for s in o.repeat_s]
        meta["simulating_ops"] = sum(len(o.sim_s) for o in outcomes)
        meta["repeat_ops"] = len(repeats)
        # Reported, not gated: its run-to-run spread on a shared host is
        # wider than the largest bound a metric may have (see README.md).
        p90 = statistics.quantiles(repeats, n=10)[8] if len(repeats) > 1 else repeats[0]
        meta["repeat_ms_p90"] = 1000.0 * p90
    else:
        untraced = loop.run_for(args.seconds / 2)
        tracer = layers.LayerTracer(*layers.default_targets())
        ops = itertools.count()
        with tracer:
            traced = loop.run_for(args.seconds / 2, lambda: tracer.op_span(next(ops)))
        left = tracer.still_wrapped()
        if left:
            raise RuntimeError(f"layer wrappers left installed: {left}")
        overhead = 100.0 * (mean_op_s(traced) / mean_op_s(untraced) - 1.0)
        metrics = layers.layer_metrics(
            tracer,
            ops=sum(o.ops for o in traced),
            bytes_written=sum(o.bytes_written for o in traced),
            bytes_read=sum(o.bytes_read for o in traced),
            hits=sum(o.hits for o in traced),
            overhead_pct=overhead,
        )
        units = layers.LAYER_METRICS
        meta["untraced_ops"] = sum(o.ops for o in untraced)
        meta["traced_ops"] = sum(o.ops for o in traced)
        meta["spans"] = str(tracer.write(out_dir / f"spans-{args.workload}.jsonl"))

    meta["digest"] = loop.expected
    for key, value in meta.items():
        print(f"# {key}: {value}")
    for note in loop.notes[:20]:
        print(f"# FAILED: {note}")
    for name, unit in units.items():
        print(f"{name:28s} {metrics[name]:>16.6f} {unit}")
    result = {
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0 if loop.failed == 0 else 1


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    # Measure the backend a user gets by default.
    os.environ.pop("REPRO_BACKEND", None)
    sys.path[:0] = [str(SRC), str(HERE)]

    # The interpreter's default SIGTERM action skips ``finally`` blocks.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    calibration_s()  # the first call also pays for growing the heap
    scale = CALIBRATION_REF_S / calibration_s()
    start = time.perf_counter()
    import repro.api  # noqa: F401  (import cost is part of set-up)
    import workloads  # noqa: F401

    wall = time.perf_counter() - start
    import_s = (wall, wall * scale)
    out_dir = Path.cwd() / OUT_DIR
    out_dir.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="tmp-", dir=out_dir))
    try:
        return run(args, tmp, out_dir, import_s)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
