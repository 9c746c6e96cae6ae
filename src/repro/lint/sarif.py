"""SARIF 2.1.0 export for lint findings.

SARIF (Static Analysis Results Interchange Format) is what GitHub code
scanning ingests to annotate pull requests.  The export is deterministic
by construction — findings and rule metadata are sorted, no timestamps
or absolute paths are emitted — so CI can assert that two runs over the
same tree produce byte-identical files.
"""

from __future__ import annotations

import json
from typing import Iterable, Sequence

from repro.lint.findings import Finding, Severity
from repro.version import __version__

SARIF_VERSION = "2.1.0"
SARIF_SCHEMA = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)

#: SARIF result levels for our severities
_LEVELS = {Severity.ERROR: "error", Severity.WARNING: "warning"}


def _rule_metadata(rule_ids: Iterable[str]) -> list[dict]:
    """Driver rule descriptors for every rule that produced a finding."""
    from repro.lint.engine import RULE_REGISTRY
    from repro.lint.flow.base import FLOW_RULE_REGISTRY

    registry: dict[str, type] = {**RULE_REGISTRY, **FLOW_RULE_REGISTRY}
    rules = []
    for rule_id in sorted(set(rule_ids)):
        cls = registry.get(rule_id)
        descriptor: dict = {"id": rule_id}
        if cls is not None:
            descriptor["name"] = cls.name
            descriptor["shortDescription"] = {"text": cls.description}
            descriptor["defaultConfiguration"] = {
                "level": _LEVELS.get(cls.severity, "warning")
            }
        rules.append(descriptor)
    return rules


def to_sarif(findings: Sequence[Finding]) -> dict:
    """Build the SARIF log object for a set of findings."""
    ordered = sorted(findings)
    rule_ids = [f.rule_id for f in ordered]
    rule_index = {rid: i for i, rid in enumerate(sorted(set(rule_ids)))}
    results = []
    for finding in ordered:
        results.append(
            {
                "ruleId": finding.rule_id,
                "ruleIndex": rule_index[finding.rule_id],
                "level": _LEVELS.get(finding.severity, "warning"),
                "message": {"text": f"{finding.message} ({finding.rule_name})"},
                "locations": [
                    {
                        "physicalLocation": {
                            "artifactLocation": {
                                "uri": finding.path.replace("\\", "/"),
                                "uriBaseId": "%SRCROOT%",
                            },
                            "region": {
                                "startLine": finding.line,
                                "startColumn": finding.col + 1,
                            },
                        }
                    }
                ],
            }
        )
    return {
        "$schema": SARIF_SCHEMA,
        "version": SARIF_VERSION,
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "repro-lint",
                        "informationUri": "https://github.com/hpas/repro",
                        "version": __version__,
                        "rules": _rule_metadata(rule_ids),
                    }
                },
                "columnKind": "utf16CodeUnits",
                "results": results,
            }
        ],
    }


def render_sarif(findings: Sequence[Finding]) -> str:
    """Canonical (sorted-keys, newline-terminated) SARIF text."""
    return json.dumps(to_sarif(findings), indent=2, sort_keys=True) + "\n"
