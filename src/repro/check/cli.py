"""The ``repro check`` subcommand: seeded fuzzing with a pinned corpus.

::

    python -m repro check                      # defaults: 25 cases, seed 0
    python -m repro check --cases 50 --seed 0
    python -m repro check --corpus tests/check/corpus.json --cases 5
    python -m repro check --save-corpus tests/check/corpus.json --cases 8

Exit status 0 means every invariant held and every differential oracle
agreed byte-for-byte; 1 means at least one violation or divergence (the
report includes the shrunk counterexample specs).  The report itself is
deterministic: two invocations with the same arguments print identical
bytes, which CI exploits by diffing a double run.
"""

from __future__ import annotations

import argparse

from repro.errors import CheckError
from repro.output import OutputWriter


def build_check_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro check",
        description="Fuzz the simulator: runtime invariants plus "
        "differential oracles over randomly generated scenarios.",
    )
    parser.add_argument(
        "--cases", type=int, default=25, help="fresh cases to generate (default 25)"
    )
    parser.add_argument("--seed", type=int, default=0, help="case-stream seed")
    parser.add_argument(
        "--corpus",
        default=None,
        metavar="FILE",
        help="replay the pinned corpus before the fresh batch",
    )
    parser.add_argument(
        "--trace-corpus",
        default=None,
        metavar="DIR",
        help="also replay every pinned workload trace (*.jsonl) in DIR "
        "on the production and reference rate models and require "
        "identical fingerprints",
    )
    parser.add_argument(
        "--save-corpus",
        default=None,
        metavar="FILE",
        help="write the generated cases out as a corpus file and exit",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for case evaluation (results are identical "
        "for every value; default 1 = serial)",
    )
    parser.add_argument(
        "--no-shrink",
        action="store_true",
        help="report failing cases without shrinking them",
    )
    parser.add_argument(
        "--no-oracles",
        action="store_true",
        help="skip the global oracles (parallel sweep, checkpoint, CLI)",
    )
    return parser


def check_main(argv: list[str]) -> int:
    from repro.check.corpus import load_corpus, save_corpus
    from repro.check.generators import generate_cases
    from repro.check.harness import run_fuzz

    args = build_check_parser().parse_args(argv)
    out = OutputWriter()
    if args.save_corpus is not None:
        specs = generate_cases(args.cases, args.seed)
        path = save_corpus(args.save_corpus, specs)
        out.line(f"wrote {len(specs)} cases to {path}")
        return 0
    try:
        corpus = None if args.corpus is None else load_corpus(args.corpus)
        report = run_fuzz(
            cases=args.cases,
            seed=args.seed,
            corpus=corpus,
            jobs=args.jobs,
            shrink=not args.no_shrink,
            with_oracles=not args.no_oracles,
            trace_corpus=args.trace_corpus,
        )
    except CheckError as err:
        out.line(f"error: {err}")
        return 1
    out.line(report.render())
    return 0 if report.ok else 1
