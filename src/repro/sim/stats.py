"""Performance-observability counters for the simulation hot path.

:class:`SimStats` is a passive counter/timer block owned by the
:class:`~repro.sim.engine.Simulator` and shared with its
:class:`~repro.sim.engine.RateModel` (and, through the cluster model, the
:class:`~repro.network.flows.FlowSolver`).  It answers "where did the wall
time go and how much work did the incremental machinery skip" — events
dispatched, resolves, nodes re-solved vs. reused, flow solves vs. memo
hits, and wall-seconds per subsystem.

Wall-clock reads here are deliberate and safe: timings are *observability
output only* and never feed back into simulated state, so determinism is
unaffected (the file is allowlisted for lint rule RL002 via
``wallclock-allowed`` in pyproject.toml).  Counter values, by contrast,
are deterministic and asserted in tests.
"""

from __future__ import annotations

import time


class SimStats:
    """Counters and subsystem wall-time accumulators for one simulation.

    Counters are plain integers keyed by name (``stats.count("resolves")``)
    and deterministic for a given simulation script.  Timings accumulate
    host wall seconds per named subsystem and are *not* deterministic —
    they exist to show where host time goes (``--profile``).
    """

    def __init__(self) -> None:
        self.counters: dict[str, int] = {}
        self.timings: dict[str, float] = {}

    def count(self, name: str, n: int = 1) -> None:
        """Add ``n`` to the counter ``name`` (creating it at 0)."""
        self.counters[name] = self.counters.get(name, 0) + n

    def timer(self, name: str) -> "_Timer":
        """Accumulate the wall time of the ``with`` body under ``name``
        (also when the body raises)."""
        return _Timer(self.timings, name)

    def reset(self) -> None:
        self.counters.clear()
        self.timings.clear()

    def as_dict(self) -> dict[str, object]:
        """JSON-friendly snapshot: counters plus ``t_<name>`` wall seconds."""
        out: dict[str, object] = dict(sorted(self.counters.items()))
        for name in sorted(self.timings):
            out[f"t_{name}"] = self.timings[name]
        return out

    def describe(self) -> list[str]:
        """Human-readable lines for the CLI ``--profile`` report."""
        lines = ["profile:"]
        for name in sorted(self.counters):
            lines.append(f"  {name} = {self.counters[name]}")
        for name in sorted(self.timings):
            lines.append(f"  t_{name} = {self.timings[name]:.4f}s")
        return lines


class _Timer:
    """The context manager :meth:`SimStats.timer` returns.

    A plain class rather than a ``@contextmanager`` generator: the hot
    path enters tens of thousands of timers per run, and a generator
    costs about twice as much per use.
    """

    __slots__ = ("timings", "name", "t0")

    def __init__(self, timings: dict[str, float], name: str) -> None:
        self.timings = timings
        self.name = name

    def __enter__(self) -> None:
        self.t0 = time.perf_counter()

    def __exit__(self, *exc: object) -> None:
        timings = self.timings
        timings[self.name] = timings.get(self.name, 0.0) + (
            time.perf_counter() - self.t0
        )
