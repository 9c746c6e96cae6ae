"""Paper experiments: one module per table/figure of the evaluation.

Every module exposes a ``run(...)`` function returning a structured result
(rows/series matching what the paper plots) and accepts scale parameters so
tests can run reduced versions while the benchmark harness runs the full
configuration.

The ``run_*`` names below are loaded on first access (PEP 562), so
importing the package — which the registry, the job service and
:mod:`repro.api` all do — imports no experiment module until one runs.
"""

from __future__ import annotations

import importlib

#: public runner name -> the module (in this package) that defines it;
#: the order is that of ``__all__``
_RUNNER_MODULES = {
    "run_ext_dragonfly": "ext_dragonfly",
    "run_ext_faults": "ext_faults",
    "run_ext_importance": "ext_importance",
    "run_ext_jitter": "ext_jitter",
    "run_ext_jobstream": "ext_jobstream",
    "run_ext_lustre": "ext_lustre",
    "run_ext_online": "ext_online",
    "run_ext_variability": "ext_variability",
    "run_fig2": "fig2_cpuoccupy",
    "run_fig3": "fig3_cachecopy",
    "run_fig4": "fig4_membw",
    "run_fig5": "fig5_memory",
    "run_fig6": "fig6_netoccupy",
    "run_fig7": "fig7_io",
    "run_fig8": "fig8_matrix",
    "run_fig9": "fig9_f1",
    "run_fig10": "fig10_confusion",
    "run_fig11_12": "fig11_12_allocation",
    "run_fig13": "fig13_loadbalance",
    "run_table1": "table1_anomalies",
    "run_table2": "table2_characteristics",
    "run_trace_replay": "ext_trace_replay",
}

__all__ = list(_RUNNER_MODULES)


def __getattr__(name: str) -> object:
    module = _RUNNER_MODULES.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    runner = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = runner
    return runner


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
