"""Import only what runs: heavy dependencies load at their call sites.

``import repro.api`` is paid by every CLI call, every service worker and
every ``spawn`` worker of :func:`repro.parallel.run_trials`, so it must
not drag in scipy (only the diagnosis features use it), networkx (the
topologies are plain adjacency dicts; networkx is only the tests'
path-order reference) or the figure and table modules (the registry
imports each on first use).  These checks
look at module sets in a fresh interpreter, never at timings.
"""

from __future__ import annotations

import json
import pickle
import subprocess
import sys

import repro.experiments
from repro.experiments.registry import EXPERIMENT_REGISTRY

def _modules_after(imports: str) -> list[str]:
    """Every module a fresh interpreter holds after running ``imports``."""
    source = f"import json, sys\n{imports}\nprint(json.dumps(sorted(sys.modules)))"
    proc = subprocess.run(
        [sys.executable, "-c", source],
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return json.loads(proc.stdout)


def _package(loaded: list[str], name: str) -> list[str]:
    return [m for m in loaded if m == name or m.startswith(name + ".")]


def _scipy(loaded: list[str]) -> list[str]:
    return _package(loaded, "scipy")


def test_import_api_loads_no_scipy_and_no_experiment_module():
    loaded = _modules_after("import repro.api")
    assert "repro.api" in loaded
    assert _scipy(loaded) == []
    assert _package(loaded, "networkx") == []
    experiments = [
        m
        for m in loaded
        if m.startswith(
            ("repro.experiments.fig", "repro.experiments.table", "repro.experiments.ext_")
        )
    ]
    assert experiments == []


def test_scipy_waits_for_its_call_site():
    # Importing every experiment and the analytics package still loads no
    # scipy: only computing diagnosis features does.
    loaded = _modules_after(
        "import repro.analytics, repro.experiments as e\n"
        "for name in e.__all__: getattr(e, name)"
    )
    assert "repro.experiments.fig9_f1" in loaded
    assert _scipy(loaded) == []


def test_every_exported_runner_resolves():
    for name in repro.experiments.__all__:
        runner = getattr(repro.experiments, name)
        assert callable(runner) and runner.__name__ == name
    assert set(repro.experiments.__all__) <= set(dir(repro.experiments))


def test_from_import_of_a_runner_still_works():
    from repro.experiments import run_fig8
    from repro.experiments.fig8_matrix import run_fig8 as direct

    assert run_fig8 is direct


def test_every_registry_entry_reports_its_seed_parameter():
    for name, spec in EXPERIMENT_REGISTRY.items():
        assert isinstance(spec.takes_seed, bool), name
        if spec.seed is not None:
            assert spec.takes_seed, name


def test_registry_spec_pickles_by_name_and_runs_the_same_function():
    from repro.experiments.fig9_f1 import run_fig9

    spec = EXPERIMENT_REGISTRY["fig9"]
    clone = pickle.loads(pickle.dumps(spec))
    assert clone == spec
    assert clone.runner.resolve() is run_fig9
    assert clone.takes_seed
