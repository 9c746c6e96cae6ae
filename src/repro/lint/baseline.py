"""Baseline files: pre-existing findings that don't block, new ones do.

Rolling a new rule out over a mature tree always surfaces historical
findings.  Instead of blanket-disabling the rule (losing protection for
new code) or suppressing every site (noisy diffs), a *baseline* records
the current findings; ``repro lint --baseline LINT_baseline.json`` then
reports only findings **not** in the baseline, so CI fails on
regressions while the backlog is burned down deliberately
(``make lint-baseline`` regenerates the file on purpose).

Matching is by ``(path, rule_id, message)`` with multiplicity — line
numbers are deliberately excluded so unrelated edits shifting code up or
down don't resurrect baselined findings.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Sequence

from repro.errors import ConfigError
from repro.lint.findings import Finding

BASELINE_VERSION = 1


def _key(finding: Finding) -> tuple[str, str, str]:
    return (finding.path.replace("\\", "/"), finding.rule_id, finding.message)


def save_baseline(findings: Sequence[Finding], path: Path | str) -> Path:
    """Write the canonical baseline for the given findings."""
    counts: dict[tuple[str, str, str], int] = {}
    for finding in sorted(findings):
        counts[_key(finding)] = counts.get(_key(finding), 0) + 1
    payload = {
        "version": BASELINE_VERSION,
        "findings": [
            {"path": p, "rule_id": r, "message": m, "count": n}
            for (p, r, m), n in sorted(counts.items())
        ],
    }
    path = Path(path)
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return path


def load_baseline(path: Path | str) -> dict[tuple[str, str, str], int]:
    """Load a baseline into a multiset of finding keys."""
    path = Path(path)
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError(f"cannot read baseline {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"baseline {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"baseline {path}: top level must be a JSON object")
    if data.get("version") != BASELINE_VERSION:
        raise ConfigError(
            f"baseline {path}: unsupported version {data.get('version')!r}"
        )
    entries = data.get("findings", [])
    if not isinstance(entries, list):
        raise ConfigError(f"baseline {path}: 'findings' must be a list")
    counts: dict[tuple[str, str, str], int] = {}
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise ConfigError(f"baseline {path}: entry {i} is not an object")
        try:
            key = (entry["path"], entry["rule_id"], entry["message"])
            count = int(entry.get("count", 1))
        except KeyError as exc:
            raise ConfigError(f"baseline {path}: entry {i} lacks {exc}") from exc
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"baseline {path}: entry {i}: bad count: {exc}") from exc
        if not all(isinstance(part, str) for part in key):
            raise ConfigError(
                f"baseline {path}: entry {i}: path, rule_id and message "
                "must be strings"
            )
        counts[key] = counts.get(key, 0) + count
    return counts


def apply_baseline(
    findings: Sequence[Finding], baseline: dict[tuple[str, str, str], int]
) -> list[Finding]:
    """Findings not covered by the baseline (respecting multiplicity)."""
    remaining = dict(baseline)
    fresh: list[Finding] = []
    for finding in sorted(findings):
        key = _key(finding)
        if remaining.get(key, 0) > 0:
            remaining[key] -= 1
        else:
            fresh.append(finding)
    return fresh
