"""repro.check: runtime invariants, differential oracles, and fuzzing.

Three layers keep the simulator's fast paths honest (see
docs/TESTING.md):

* :class:`InvariantChecker` — attach/detach runtime conservation checks
  (``sim.check``), zero-cost when detached;
* differential oracles (:mod:`repro.check.oracles` and the per-case
  variants in :mod:`repro.check.harness`) — byte-identity between each
  optimisation and its reference semantics, including the production
  rate model against :class:`~repro.cluster.reference.ReferenceRateModel`
  (swapped in by :func:`use_reference_model`);
* the seeded fuzz harness (:func:`run_fuzz`, ``repro check``) — random
  scenarios from :mod:`repro.check.generators`, shrinking-by-halving,
  and a pinned corpus replayed by CI.
"""

from repro.check.corpus import load_corpus, save_corpus
from repro.check.generators import (
    AnomalyCase,
    AppCase,
    CaseSpec,
    FaultCase,
    build_cluster,
    deploy_case,
    generate_case,
    generate_cases,
    shrink_candidates,
)
from repro.check.harness import (
    CaseOutcome,
    FuzzReport,
    evaluate_case,
    fingerprint_case,
    fingerprint_cluster,
    run_fuzz,
    shrink_failing,
    use_reference_model,
)
from repro.check.invariants import (
    DEFAULT_TOLERANCE,
    InvariantChecker,
    Violation,
    assert_max_min,
)
from repro.check.oracles import (
    OracleResult,
    oracle_checkpoint_free,
    oracle_checkpoint_restart,
    oracle_parallel_sweep,
    run_global_oracles,
)

__all__ = [
    "AnomalyCase",
    "AppCase",
    "CaseOutcome",
    "CaseSpec",
    "DEFAULT_TOLERANCE",
    "FaultCase",
    "FuzzReport",
    "InvariantChecker",
    "OracleResult",
    "Violation",
    "assert_max_min",
    "build_cluster",
    "deploy_case",
    "evaluate_case",
    "fingerprint_case",
    "fingerprint_cluster",
    "generate_case",
    "generate_cases",
    "load_corpus",
    "oracle_checkpoint_free",
    "oracle_checkpoint_restart",
    "oracle_parallel_sweep",
    "run_fuzz",
    "run_global_oracles",
    "save_corpus",
    "shrink_candidates",
    "shrink_failing",
    "use_reference_model",
]
