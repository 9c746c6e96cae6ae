"""Orchestration: classic per-file rules + flow rules over one index.

``analyze_paths`` is the engine behind ``repro lint --flow``.  One run
indexes the tree (every file parsed exactly once — the classic rules and
the flow rules share the parse), runs the per-file rules on every file,
runs the whole-program flow rules once over the full index, and reports
files the index could not parse as RL000 findings.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

from repro.lint.config import LintConfig
from repro.lint.engine import LintEngine
from repro.lint.findings import Finding
from repro.lint.flow.base import run_flow_rules
from repro.lint.flow.index import ProjectIndex


@dataclass
class FlowReport:
    """Findings of one analyzer run plus the files it covered (the
    unparsable ones included, so counts match the per-file path)."""

    findings: list[Finding]
    files: list[str] = field(default_factory=list)
    parse_errors: list[tuple[str, str]] = field(default_factory=list)


def analyze_paths(
    paths: Sequence[Path | str], config: LintConfig | None = None
) -> FlowReport:
    """Run the combined (classic + flow) analysis; see module docstring."""
    config = config or LintConfig()
    index = ProjectIndex.build(paths)
    engine = LintEngine(config)

    findings: list[Finding] = []
    for info in index.modules.values():
        findings.extend(engine.lint_source(info.source, info.path))
    findings.extend(run_flow_rules(index, config))
    # Files the index could not parse still surface as findings (RL000),
    # via the classic engine's error path.
    for path, _message in index.parse_errors:
        findings.extend(engine.lint_file(path))

    parsed = [info.posix for info in index.modules.values()]
    unparsed = [path.replace("\\", "/") for path, _message in index.parse_errors]
    return FlowReport(
        findings=sorted(findings),
        files=sorted(parsed + unparsed),
        parse_errors=list(index.parse_errors),
    )
