"""The whole-program rules hold on the tree itself.

Mirror of ``tests/lint/test_self_clean.py`` for the flow analyzer: under
the committed configuration, ``repro lint --flow`` over src/ and tests/
must report nothing.  A finding is silenced only inline, at its site.
"""

from pathlib import Path

from repro.lint import load_config
from repro.lint.flow.analyzer import analyze_paths

REPO_ROOT = Path(__file__).resolve().parents[3]


def test_flow_analysis_is_clean_against_baseline():
    config = load_config(REPO_ROOT)
    report = analyze_paths([REPO_ROOT / "src", REPO_ROOT / "tests"], config)
    assert report.findings == [], "\n".join(
        f.format_text() for f in report.findings
    )
