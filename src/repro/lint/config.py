"""Linter configuration, loaded from ``[tool.repro-lint]`` in pyproject.toml.

All keys are optional; the defaults below encode this repository's layout.
TOML keys use dashes (``wallclock-packages``) and map onto the dataclass
fields with underscores.  Unknown keys are a :class:`ConfigError` so typos
cannot silently disable a rule.
"""

from __future__ import annotations

import tomllib
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Any, Mapping

from repro.errors import ConfigError

CONFIG_TABLE = "repro-lint"


@dataclass(frozen=True)
class LintConfig:
    """Tunable scope of the determinism rules.

    ``*_packages`` fields name sub-packages of ``repro`` (matched as path
    components, e.g. ``"sim"`` matches ``src/repro/sim/engine.py``);
    ``*_allowed`` fields are path suffixes that exempt specific files.
    """

    # Rule ids disabled everywhere (e.g. ["RL005"]).
    disable: tuple[str, ...] = ()
    # Files allowed to construct raw RNGs (RL001).
    rng_allowed: tuple[str, ...] = ("sim/rng.py",)
    # Packages where wall-clock reads are forbidden (RL002).
    wallclock_packages: tuple[str, ...] = ("sim", "core", "apps", "experiments")
    # Packages where unordered iteration is forbidden (RL003).
    ordering_packages: tuple[str, ...] = ("sim", "scheduling")
    # Packages where bare/swallowed excepts are forbidden (RL008).
    except_packages: tuple[str, ...] = ("sim", "runtime")
    # Files allowed to use raw magic unit literals (RL005).
    units_allowed: tuple[str, ...] = ("units.py",)
    # Library files allowed to call print() (RL007); empty by design —
    # output goes through repro.output or the monitoring export layer.
    print_allowed: tuple[str, ...] = ()
    # Files allowed to read the wall clock inside wallclock packages
    # (RL002): observability-only timers that never feed simulated state.
    wallclock_allowed: tuple[str, ...] = ("sim/stats.py",)
    # Files allowed to use process pools (RL009): the deterministic
    # parallel runner is the only sanctioned parallelism entry point.
    parallel_allowed: tuple[str, ...] = ("repro/parallel.py",)
    # Files allowed to call print() anywhere in the tree (RL010): by
    # default only the sanctioned output layer itself.
    output_allowed: tuple[str, ...] = ("repro/output.py",)

    # -- whole-program flow analysis (RL011–RL016, `repro lint --flow`) --

    # Blessed RNG factory names (RL011): values returned by these calls
    # are seed-derived and may flow anywhere.
    flow_rng_factories: tuple[str, ...] = ("make_rng", "spawn_rng")
    # Packages whose functions are RNG provenance sinks (RL011): a raw
    # generator must never reach them through any call chain.
    flow_rng_sinks: tuple[str, ...] = (
        "sim", "cluster", "network", "storage", "faults", "core",
    )
    # Packages whose functions are wall-clock provenance sinks (RL012).
    flow_time_sinks: tuple[str, ...] = ("sim",)
    # Memoized solver entry points (RL013), matched as qualname suffixes
    # ("Class.method"); their transitive same-class reads are checked
    # against the cache key.
    flow_memo_functions: tuple[str, ...] = (
        "FlowSolver.solve",
        "ClusterRateModel._solve_node_memo",
        "ClusterRateModel._solve_network",
    )
    # Instance attributes a memoized solve may read even though they are
    # mutated at runtime (RL013): observability counters and the attached
    # checker hook never change the result.
    flow_memo_state_allowed: tuple[str, ...] = ("stats", "check", "obs")
    # Instance attributes whose contents are fixed by a token, array
    # fingerprint or value that *does* appear in the cache key (RL013):
    # the attribute and that key part are written together, so a memo
    # hit implies identical contents.  The linter trusts the
    # declared pairing; the production-vs-reference rate-model oracle
    # enforces it at runtime.
    flow_memo_derived_state: tuple[str, ...] = ()
    # Optional hook attributes that must be None-guarded (RL015).
    flow_guard_hooks: tuple[str, ...] = ("obs", "check")
    # Packages where the zero-cost guard pattern is mandatory (RL015).
    flow_guard_packages: tuple[str, ...] = (
        "sim", "cluster", "network", "storage", "runtime", "apps",
    )
    # Sanctioned parallel entry points (RL014): functions handed to these
    # become spawn-boundary worker roots checked for shared-state writes.
    flow_worker_entrypoints: tuple[str, ...] = ("run_trials",)

    def __post_init__(self) -> None:
        for rule_id in self.disable:
            if not isinstance(rule_id, str):
                raise ConfigError(f"disable entries must be rule ids, got {rule_id!r}")

    def is_disabled(self, rule_id: str) -> bool:
        return rule_id in self.disable

    @classmethod
    def from_mapping(cls, mapping: Mapping[str, Any]) -> "LintConfig":
        """Build a config from a TOML table, rejecting unknown keys."""
        known = {f.name: f for f in fields(cls)}
        kwargs: dict[str, Any] = {}
        for key, value in mapping.items():
            name = key.replace("-", "_")
            if name not in known:
                raise ConfigError(
                    f"unknown [tool.{CONFIG_TABLE}] key {key!r} "
                    f"(known: {', '.join(sorted(k.replace('_', '-') for k in known))})"
                )
            if not isinstance(value, list) or not all(
                isinstance(item, str) for item in value
            ):
                raise ConfigError(f"[tool.{CONFIG_TABLE}] {key} must be a list of strings")
            kwargs[name] = tuple(value)
        return cls(**kwargs)


def find_pyproject(start: Path | str = ".") -> Path | None:
    """Walk up from ``start`` to the first directory holding pyproject.toml."""
    directory = Path(start).resolve()
    if directory.is_file():
        directory = directory.parent
    for candidate in (directory, *directory.parents):
        pyproject = candidate / "pyproject.toml"
        if pyproject.is_file():
            return pyproject
    return None


def load_config(start: Path | str = ".") -> LintConfig:
    """Load ``[tool.repro-lint]`` from the nearest pyproject.toml.

    Missing file or missing table both yield the defaults, so the linter
    works on any tree, configured or not.
    """
    pyproject = find_pyproject(start)
    if pyproject is None:
        return LintConfig()
    try:
        data = tomllib.loads(pyproject.read_text())
    except tomllib.TOMLDecodeError as exc:
        raise ConfigError(f"{pyproject}: invalid TOML: {exc}") from exc
    table = data.get("tool", {}).get(CONFIG_TABLE, {})
    return LintConfig.from_mapping(table)
