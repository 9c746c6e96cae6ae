"""Runtime invariant checking for the simulator.

An :class:`InvariantChecker` attaches to a cluster the way
:class:`repro.obs.Observability` does: it plants itself as ``sim.check``
(plus ``flow_solver.check`` / ``filesystem.check``) and wraps the rate
model's memory-sharing function.  Every hook site in the engine and the
subsystem solvers is guarded by an ``is not None`` check, so a detached
simulation pays one attribute read — the same pay-for-what-you-use
contract as ``sim.obs`` and ``cluster.faults``.

The rules (CK001..CK011) assert the conservation and bound properties
the physical models promise:

=======  ==============================================================
CK001    simulated clocks are monotone; events dispatch in causal order
CK002    resolved speeds are finite and within ``[0, 1]``
CK003    every running process is priced by each resolve
CK004    remaining segment work never projects below zero
CK005    fault-state consistency: no speed granted on a crashed node,
         and the :class:`~repro.faults.state.FaultState` audit is clean
CK006    per-process memory traffic respects the single-core limit
CK007    a flow's adaptive sub-flow split sums back to its demand
CK008    granted traffic on every link fits under the link capacity
CK009    a flow's grant is within ``[0, demand]``
CK010    filesystem grants respect pool capacities and ratio bounds
CK011    the memory share function obeys the max-min fairness contract
=======  ==============================================================

Violations either raise :class:`~repro.errors.CheckError` immediately
(``mode="raise"``, the default — the failing simulated instant is in the
message) or accumulate on :attr:`InvariantChecker.violations`
(``mode="record"``, used by the fuzzing harness to gather everything a
case violates in one pass).

Checks are strictly read-only: an attached checker never changes what a
simulation computes, so fingerprints taken with and without one attached
are byte-identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from repro.errors import CheckError
from repro.resources.fairshare import max_min_fair_share

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.cluster import Cluster
    from repro.network.flows import FlowRequest, FlowResult, FlowSolver
    from repro.sim.engine import Simulator
    from repro.sim.process import IODemand
    from repro.storage.filesystem import IOGrant, SharedFilesystem

#: default relative slack for floating-point comparisons.  The solvers
#: are exact up to round-off; 1e-6 is orders of magnitude above the
#: accumulation error of any realistic case and orders below any real
#: conservation bug.
DEFAULT_TOLERANCE = 1e-6


@dataclass(frozen=True)
class Violation:
    """One observed invariant violation."""

    time: float
    rule: str
    detail: str

    def render(self) -> str:
        return f"t={self.time:.9g} {self.rule}: {self.detail}"


def _exceeds(value: float, bound: float, tol: float) -> bool:
    """True when ``value`` is above ``bound`` beyond mixed abs/rel slack."""
    return value > bound + tol * max(1.0, abs(bound))


def assert_max_min(
    capacity: float,
    demands: Sequence[float],
    grants: Sequence[float],
    tol: float = DEFAULT_TOLERANCE,
) -> None:
    """Assert the three max-min fairness invariants (raises CheckError).

    * no grant exceeds its demand,
    * grants sum to ``min(capacity, sum(demands))``,
    * any unsatisfied demand's grant is >= every other grant.

    Shared by rule CK011 and the property tests in ``tests/check``.
    """
    if len(demands) != len(grants):
        raise CheckError(
            f"max-min: {len(demands)} demands but {len(grants)} grants"
        )
    for i, (demand, grant) in enumerate(zip(demands, grants)):
        if grant < -tol or _exceeds(grant, demand, tol):
            raise CheckError(
                f"max-min: grant[{i}]={grant!r} outside [0, demand={demand!r}]"
            )
    expected = min(float(capacity), float(sum(demands)))
    total = float(sum(grants))
    if abs(total - expected) > tol * max(1.0, abs(expected)):
        raise CheckError(
            f"max-min: grants sum to {total!r}, expected "
            f"min(capacity, total demand) = {expected!r}"
        )
    slack = tol * max(1.0, abs(capacity))
    unsatisfied = [
        g for d, g in zip(demands, grants) if g < d - slack
    ]
    if unsatisfied:
        floor = min(unsatisfied)
        peak = max(grants)
        if peak > floor + slack:
            raise CheckError(
                f"max-min: an unsatisfied demand holds {floor!r} while "
                f"another flow holds {peak!r} (not max-min fair)"
            )


class InvariantChecker:
    """Runtime conservation/bound checking for one cluster simulation.

    Parameters
    ----------
    tolerance:
        Mixed absolute/relative slack for float comparisons.
    mode:
        ``"raise"`` aborts on the first violation with a
        :class:`~repro.errors.CheckError`; ``"record"`` accumulates
        :class:`Violation` records on :attr:`violations` and lets the
        simulation continue (the fuzz harness's choice).
    """

    def __init__(
        self, tolerance: float = DEFAULT_TOLERANCE, mode: str = "raise"
    ) -> None:
        if mode not in ("raise", "record"):
            raise CheckError(f"mode must be 'raise' or 'record', got {mode!r}")
        if tolerance < 0:
            raise CheckError("tolerance must be >= 0")
        self.tolerance = tolerance
        self.mode = mode
        self.violations: list[Violation] = []
        self.cluster: "Cluster | None" = None
        self._attached = False
        self._orig_share_fn = None
        #: last dispatched event time, for the causal-order check
        self._last_event_time = -math.inf
        #: hook invocations per rule family (proof the checker actually ran)
        self.hook_counts: dict[str, int] = {}

    # -- attachment ---------------------------------------------------------

    def attach(self, cluster: "Cluster") -> "InvariantChecker":
        """Plant the checker on every hook site of ``cluster``."""
        if self._attached:
            raise CheckError("checker is already attached")
        if cluster.sim.check is not None:
            raise CheckError("cluster already has an invariant checker attached")
        self.cluster = cluster
        cluster.sim.check = self
        model = cluster.model
        if model.flow_solver is not None:
            model.flow_solver.check = self
        for fs in cluster.filesystems.values():
            fs.check = self
        # Wrap the memory share function so CK011 sees the raw
        # (capacity, demands) -> grants triple of every socket solve.
        # The wrapper forwards the wrapped function's own result, so the
        # simulation's arithmetic is untouched.
        self._orig_share_fn = model.share_fn
        orig = model.share_fn

        def _checked_share(capacity, demands):
            grants = orig(capacity, demands)
            self._on_share(capacity, demands, grants, orig)
            return grants

        model.share_fn = _checked_share
        self._attached = True
        return self

    def detach(self) -> None:
        """Remove every hook, restoring the zero-overhead fast path."""
        if not self._attached:
            raise CheckError("checker is not attached")
        cluster = self.cluster
        assert cluster is not None
        cluster.sim.check = None
        if cluster.model.flow_solver is not None:
            cluster.model.flow_solver.check = None
        for fs in cluster.filesystems.values():
            fs.check = None
        cluster.model.share_fn = self._orig_share_fn
        self._orig_share_fn = None
        self._attached = False

    # -- reporting ----------------------------------------------------------

    def _report(self, rule: str, detail: str) -> None:
        time = self.cluster.sim.now if self.cluster is not None else math.nan
        violation = Violation(time=time, rule=rule, detail=detail)
        if self.mode == "raise":
            raise CheckError(violation.render())
        self.violations.append(violation)

    def _count(self, family: str) -> None:
        self.hook_counts[family] = self.hook_counts.get(family, 0) + 1

    # -- engine hooks --------------------------------------------------------

    def on_event(self, sim: "Simulator", time: float) -> None:
        """CK001 (dispatch side): events leave the queue in causal order."""
        self._count("event")
        if time < sim.now:
            self._report(
                "CK001",
                f"event scheduled at {time!r} dispatched after clock "
                f"reached {sim.now!r}",
            )
        if time < self._last_event_time:
            self._report(
                "CK001",
                f"event at {time!r} dispatched after event at "
                f"{self._last_event_time!r}",
            )
        self._last_event_time = max(self._last_event_time, time)

    def on_advance(self, sim: "Simulator", t: float) -> None:
        """CK001 (clock side) + CK004: advancing never overshoots work."""
        self._count("advance")
        dt = t - sim.now
        if dt < 0:
            self._report("CK001", f"clock moving backwards: {sim.now!r} -> {t!r}")
            return
        for proc in sim.running:
            if proc.remaining < 0:
                self._report(
                    "CK004",
                    f"{proc.name}: remaining work already negative "
                    f"({proc.remaining!r})",
                )
            work = proc.current.work if proc.current is not None else 1.0
            projected = proc.remaining - proc.speed * dt
            if projected < -self.tolerance * max(1.0, abs(work)):
                self._report(
                    "CK004",
                    f"{proc.name}: advance to t={t!r} projects remaining "
                    f"work {projected!r} < 0 (speed={proc.speed!r})",
                )

    def after_resolve(
        self,
        sim: "Simulator",
        speeds: dict[int, float],
        dirty: frozenset[int] | None,
    ) -> None:
        """CK002 + CK003 + CK005 + CK006 on every rate resolve."""
        self._count("resolve")
        tol = self.tolerance
        for pid, speed in speeds.items():
            if not math.isfinite(speed) or speed < 0 or _exceeds(speed, 1.0, tol):
                self._report(
                    "CK002",
                    f"pid {pid} ({sim.process(pid).name}): speed {speed!r} "
                    f"outside [0, 1]",
                )
        for proc in sim.running:
            if proc.pid not in speeds:
                self._report(
                    "CK003",
                    f"{proc.name}: running but unpriced by the resolve "
                    f"(dirty={sorted(dirty) if dirty is not None else None})",
                )
        cluster = self.cluster
        if cluster is None:
            return
        faults = cluster.faults
        if faults is not None:
            for problem in faults.check_invariants():
                self._report("CK005", problem)
            if faults.active:
                for proc in sim.running:
                    if faults.is_down(proc.node) and speeds.get(proc.pid, 0.0) > 0:
                        self._report(
                            "CK005",
                            f"{proc.name}: granted speed "
                            f"{speeds[proc.pid]!r} on crashed node {proc.node}",
                        )
        last_rates = cluster.model.last_rates
        for proc in sim.running:
            rates = last_rates.get(proc.pid)
            if not rates:
                continue
            core_bw = cluster.node(proc.node).spec.core_mem_bw
            mem_rate = rates.get("mem_bytes", 0.0)
            if _exceeds(mem_rate, core_bw, tol):
                self._report(
                    "CK006",
                    f"{proc.name}: memory traffic {mem_rate!r} B/s exceeds "
                    f"the single-core limit {core_bw!r} B/s",
                )

    # -- flow-solver hooks ---------------------------------------------------

    def on_flow_split(
        self,
        flows: "list[FlowRequest]",
        splits: "list[list[float]]",
    ) -> None:
        """CK007: the adaptive split conserves each flow's demand.

        ``splits[i]`` holds flow ``i``'s per-path sub-flow demands.
        """
        self._count("flow_split")
        for flow, split in zip(flows, splits):
            total = sum(split)
            if abs(total - flow.demand) > self.tolerance * max(1.0, flow.demand):
                self._report(
                    "CK007",
                    f"flow {flow.key} ({flow.src}->{flow.dst}): sub-flow "
                    f"demands sum to {total!r}, demand is {flow.demand!r}",
                )

    def on_flow_solve(
        self,
        solver: "FlowSolver",
        flows: "list[FlowRequest]",
        result: "FlowResult",
    ) -> None:
        """CK008 + CK009: link capacities and per-flow grant bounds."""
        self._count("flow_solve")
        tol = self.tolerance
        for edge, load in result.edge_load.items():
            capacity = solver.topology.capacity(*edge)
            if _exceeds(load, capacity, tol):
                self._report(
                    "CK008",
                    f"link {edge[0]}--{edge[1]}: granted load {load!r} B/s "
                    f"exceeds capacity {capacity!r} B/s",
                )
        for flow in flows:
            grant = result.grants.get(flow.key)
            if grant is None:
                self._report(
                    "CK009", f"flow {flow.key}: no grant in the solve result"
                )
                continue
            if grant < -tol or _exceeds(grant, flow.demand, tol):
                self._report(
                    "CK009",
                    f"flow {flow.key} ({flow.src}->{flow.dst}): grant "
                    f"{grant!r} outside [0, demand={flow.demand!r}]",
                )

    # -- storage hook ---------------------------------------------------------

    def on_fs_solve(
        self,
        fs: "SharedFilesystem",
        demands: "list[tuple[int, str, IODemand]]",
        grants: "dict[int, IOGrant]",
    ) -> None:
        """CK010: grant ratios in [0, 1] and pool totals under capacity."""
        self._count("fs_solve")
        tol = self.tolerance
        total_data = 0.0
        total_meta = 0.0
        for pid, grant in grants.items():
            if grant.ratio < -tol or _exceeds(grant.ratio, 1.0, tol):
                self._report(
                    "CK010",
                    f"{fs.name}: pid {pid} grant ratio {grant.ratio!r} "
                    f"outside [0, 1]",
                )
            total_data += grant.write_bw + grant.read_bw
            total_meta += grant.meta_ops
        if _exceeds(total_data, fs.effective_disk_bw, tol):
            self._report(
                "CK010",
                f"{fs.name}: granted data traffic {total_data!r} B/s exceeds "
                f"effective disk bandwidth {fs.effective_disk_bw!r} B/s",
            )
        if _exceeds(total_meta, fs.effective_meta_capacity, tol):
            self._report(
                "CK010",
                f"{fs.name}: granted metadata rate {total_meta!r} op/s "
                f"exceeds effective capacity {fs.effective_meta_capacity!r}",
            )

    # -- share-function wrapper -----------------------------------------------

    def _on_share(self, capacity, demands, grants, share_fn) -> None:
        """CK011: the sharing discipline honours its contract."""
        self._count("share")
        tol = self.tolerance
        try:
            if share_fn is max_min_fair_share:
                assert_max_min(capacity, demands, grants, tol)
            else:
                # Generic disciplines still promise grant <= demand and
                # aggregate conservation.
                for i, (demand, grant) in enumerate(zip(demands, grants)):
                    if grant < -tol or _exceeds(grant, demand, tol):
                        raise CheckError(
                            f"share: grant[{i}]={grant!r} outside "
                            f"[0, demand={demand!r}]"
                        )
                total = float(sum(grants))
                if _exceeds(total, capacity, tol):
                    raise CheckError(
                        f"share: grants sum to {total!r} over capacity "
                        f"{capacity!r}"
                    )
        except CheckError as err:
            if self.mode == "raise":
                raise
            self._report("CK011", str(err))
