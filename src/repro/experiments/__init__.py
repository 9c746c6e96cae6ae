"""Paper experiments: one module per table/figure of the evaluation.

Every module exposes a ``run(...)`` function returning a structured result
(rows/series matching what the paper plots) and accepts scale parameters so
tests can run reduced versions while the benchmark harness runs the full
configuration.

The ``run_*`` names are those of the registry's runners
(:mod:`repro.experiments.registry`) and are loaded on first access
(PEP 562), so importing the package — which the registry, the job
service and :mod:`repro.api` all do — imports no experiment module
until one runs.
"""

from __future__ import annotations

from repro.experiments.registry import EXPERIMENT_REGISTRY

#: public runner name -> its registry reference, for every registry
#: runner defined in this package, in registry order
_RUNNERS = {
    spec.runner.name: spec.runner
    for spec in EXPERIMENT_REGISTRY.values()
    if spec.runner.module.startswith(f"{__name__}.")
}

__all__ = list(_RUNNERS)


def __getattr__(name: str) -> object:
    deferred = _RUNNERS.get(name)
    if deferred is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    runner = deferred.resolve()
    globals()[name] = runner
    return runner


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
