"""``repro.lint`` — an AST-based determinism & unit-safety analyzer.

The simulator's core contract — every figure and table regenerates
identically on every run — rests on conventions that no runtime check can
enforce: all randomness flows through :mod:`repro.sim.rng`, all quantities
are SI base units per :mod:`repro.units`, and simulation code never reads
wall-clock time or iterates unordered collections into ordered decisions.
This package makes the contract machine-checked.

Public surface::

    from repro.lint import LintEngine, LintConfig, Finding, lint_paths

    findings = lint_paths(["src"], LintConfig())
    for f in findings:
        print(f.format_text())     # path:line:col: RLxxx [severity] message

Per-file rules are registered in :mod:`repro.lint.rules` (RL001–RL010);
whole-program dataflow rules (RL011–RL016) live in
:mod:`repro.lint.flow` and run via ``repro lint --flow``.  Both kinds
share a SARIF 2.1.0 exporter (:mod:`repro.lint.sarif`); a finding is
silenced only inline, with ``# repro-lint: disable=RLxxx`` at its site.
The CLI entry point is ``python -m repro lint [paths]``.
"""

from __future__ import annotations

from repro.lint.config import LintConfig, load_config
from repro.lint.sarif import render_sarif, to_sarif
from repro.lint.engine import (
    RULE_REGISTRY,
    LintEngine,
    Rule,
    lint_file,
    lint_paths,
    lint_source,
    register_rule,
)
from repro.lint.findings import Finding, Severity

# Importing the rules module populates RULE_REGISTRY.
from repro.lint import rules as _rules  # noqa: F401  (registration side effect)

__all__ = [
    "Finding",
    "Severity",
    "LintConfig",
    "load_config",
    "LintEngine",
    "Rule",
    "RULE_REGISTRY",
    "register_rule",
    "lint_source",
    "lint_file",
    "lint_paths",
    "to_sarif",
    "render_sarif",
]
