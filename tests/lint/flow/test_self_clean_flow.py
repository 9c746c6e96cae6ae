"""The whole-program rules hold on the tree itself.

Mirror of ``tests/lint/test_self_clean.py`` for the flow analyzer: under
the committed configuration and the committed ``LINT_baseline.json``,
``repro lint --flow`` over src/ and tests/ must report nothing new.
"""

from pathlib import Path

from repro.lint import apply_baseline, load_baseline, load_config
from repro.lint.flow.analyzer import analyze_paths

REPO_ROOT = Path(__file__).resolve().parents[3]


def test_flow_analysis_is_clean_against_baseline():
    config = load_config(REPO_ROOT)
    report = analyze_paths([REPO_ROOT / "src", REPO_ROOT / "tests"], config)
    baseline_path = REPO_ROOT / "LINT_baseline.json"
    baseline = load_baseline(baseline_path) if baseline_path.is_file() else {}
    fresh = apply_baseline(report.findings, baseline)
    assert fresh == [], "\n".join(f.format_text() for f in fresh)
