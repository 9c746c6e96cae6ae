"""``python -m repro lint`` — run the determinism linter from the shell.

Examples::

    python -m repro lint src/                  # text report, exit 1 on findings
    python -m repro lint src/ tests/ --format json
    python -m repro lint src/ --flow --stats   # + whole-program rules RL011+
    python -m repro lint src/ tests/ --flow --sarif lint.sarif   # CI gate
    python -m repro lint --list-rules          # registry with rationales

Exit status: 0 when clean, 1 when findings were reported, 2 on usage or
configuration errors — the convention CI gates expect.

``--flow`` adds the whole-program dataflow rules (RL011–RL016); every
run analyzes the whole tree.  ``--stats`` prints files, findings and
per-rule counts.  ``--sarif`` writes a SARIF 2.1.0 log for GitHub code
scanning.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.errors import ConfigError
from repro.lint.config import LintConfig, load_config
from repro.lint.engine import RULE_REGISTRY, LintEngine
from repro.lint.findings import Finding
from repro.lint.sarif import render_sarif
from repro.output import OutputWriter

JSON_SCHEMA_VERSION = 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro lint",
        description="AST-based determinism & unit-safety analyzer for the repro tree.",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to lint (default: src)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--config",
        default=None,
        metavar="DIR",
        help="directory to search for pyproject.toml (default: first lint path)",
    )
    parser.add_argument(
        "--no-config",
        action="store_true",
        help="ignore pyproject.toml and use built-in defaults",
    )
    parser.add_argument(
        "--disable",
        action="append",
        default=[],
        metavar="RULE",
        help="disable a rule id for this run (repeatable)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule registry and exit",
    )
    parser.add_argument(
        "--flow",
        action="store_true",
        help="also run the whole-program dataflow rules (RL011+)",
    )
    parser.add_argument(
        "--stats",
        action="store_true",
        help="print a summary block (files, findings, findings per rule); "
        "silenced by --quiet; JSON output always carries it as 'summary'",
    )
    parser.add_argument(
        "-q",
        "--quiet",
        action="store_true",
        help="print findings only — no summary line and no --stats block",
    )
    parser.add_argument(
        "--sarif",
        default=None,
        metavar="FILE",
        help="also write a SARIF 2.1.0 log of the findings",
    )
    return parser


def _resolve_config(args: argparse.Namespace) -> LintConfig:
    if args.no_config:
        config = LintConfig()
    else:
        start = args.config if args.config is not None else args.paths[0]
        config = load_config(start)
    if args.disable:
        config = LintConfig(
            **{
                **{f: getattr(config, f) for f in config.__dataclass_fields__},
                "disable": tuple(dict.fromkeys([*config.disable, *args.disable])),
            }
        )
    return config


def _by_rule(findings: list[Finding]) -> dict[str, int]:
    counts: dict[str, int] = {}
    for finding in findings:
        counts[finding.rule_id] = counts.get(finding.rule_id, 0) + 1
    return dict(sorted(counts.items()))


def _render_text(
    findings: list[Finding], n_files: int, out: OutputWriter, quiet: bool
) -> None:
    for finding in findings:
        out.line(finding.format_text())
    if quiet:
        return
    noun = "file" if n_files == 1 else "files"
    if findings:
        out.line(f"{len(findings)} finding(s) in {n_files} {noun}")
    else:
        out.line(f"clean: 0 findings in {n_files} {noun}")


def _render_json(findings: list[Finding], n_files: int, out: OutputWriter) -> None:
    payload = {
        "version": JSON_SCHEMA_VERSION,
        "findings": [f.to_dict() for f in findings],
        "summary": {
            "files": n_files,
            "findings": len(findings),
            "by_rule": _by_rule(findings),
        },
    }
    out.line(json.dumps(payload, indent=2, sort_keys=True))


def _render_stats(findings: list[Finding], n_files: int, out: OutputWriter) -> None:
    out.line("-- lint stats --")
    out.line(f"files:           {n_files}")
    out.line(f"findings:        {len(findings)}")
    for rule_id, count in _by_rule(findings).items():
        out.line(f"  {rule_id}: {count}")


def _render_rules(out: OutputWriter) -> None:
    from repro.lint.flow.base import FLOW_RULE_REGISTRY

    out.line(f"{'id':6s} {'name':20s} {'severity':8s} description")
    merged = {**RULE_REGISTRY, **FLOW_RULE_REGISTRY}
    for rule_id, cls in sorted(merged.items()):
        scope = "flow" if rule_id in FLOW_RULE_REGISTRY else "file"
        out.line(
            f"{rule_id:6s} {cls.name:20s} {cls.severity.value:8s} "
            f"[{scope}] {cls.description}"
        )


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    out = OutputWriter()

    if args.list_rules:
        _render_rules(out)
        return 0

    try:
        config = _resolve_config(args)
        if args.flow:
            from repro.lint.flow.analyzer import analyze_paths

            report = analyze_paths(args.paths, config)
            findings = report.findings
            n_files = len(report.files)
        else:
            engine = LintEngine(config)
            files = engine.iter_files(args.paths)
            findings = sorted(engine.lint_paths(files))
            n_files = len(files)
    except ConfigError as exc:
        sys.stderr.write(f"repro lint: error: {exc}\n")
        return 2

    if args.sarif is not None:
        Path(args.sarif).write_text(render_sarif(findings), encoding="utf-8")

    if args.format == "json":
        _render_json(findings, n_files, out)
    else:
        _render_text(findings, n_files, out, args.quiet)
        if args.stats and not args.quiet:
            _render_stats(findings, n_files, out)
    return 1 if findings else 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
