"""``repro.lint.flow`` — whole-program dataflow analysis (RL011–RL016).

The per-file rules in :mod:`repro.lint.rules` cannot see an unseeded RNG
smuggled through a helper function, a memoized solver reading mutable
state outside its cache key, or a module global mutated on both sides of
the spawn boundary.  This subpackage parses the whole tree **once** into
a :class:`~repro.lint.flow.index.ProjectIndex`, builds an approximate
call graph on top (:mod:`repro.lint.flow.callgraph`), and runs
interprocedural rules over it:

========  =================  ====================================================
RL011     rng-provenance     raw RNG values reaching engine/solver/fault code
RL012     wallclock-prov.    wall-clock reads flowing into simulated/hashed state
RL013     memo-impurity      memoized solvers reading state outside the cache key
RL014     spawn-shared       module/class state written by ``run_trials`` workers
RL015     guard-coverage     ``sim.obs``/``sim.check`` hooks used without a guard
RL016     unit-flow          mixed-dimension arithmetic across function boundaries
========  =================  ====================================================

Entry point: :func:`repro.lint.flow.analyzer.analyze_paths`, surfaced on
the CLI as ``repro lint --flow``.  Every run indexes the whole tree and
runs every rule on every file.
"""

from __future__ import annotations

from repro.lint.flow.analyzer import FlowReport, analyze_paths
from repro.lint.flow.base import FLOW_RULE_REGISTRY, FlowRule, register_flow_rule
from repro.lint.flow.callgraph import CallGraph
from repro.lint.flow.index import ProjectIndex

# Importing the rule modules populates FLOW_RULE_REGISTRY.
from repro.lint.flow import provenance as _provenance  # noqa: F401
from repro.lint.flow import purity as _purity  # noqa: F401
from repro.lint.flow import dimensions as _dimensions  # noqa: F401

__all__ = [
    "FLOW_RULE_REGISTRY",
    "FlowRule",
    "register_flow_rule",
    "ProjectIndex",
    "CallGraph",
    "FlowReport",
    "analyze_paths",
]
