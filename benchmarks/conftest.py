"""Benchmark harness configuration.

Each ``bench_*.py`` regenerates one table or figure of the paper.  Run::

    pytest benchmarks/ --benchmark-only -s

``-s`` shows the printed rows/series (the same quantities the paper
plots); every bench also asserts the qualitative shape the paper reports,
so a silent model regression fails loudly.  Each rendered table is also
written to ``results/<ResultType>.txt`` as a reproducibility artefact,
paired with ``results/<ResultType>.manifest.json`` recording its
provenance (package version + table checksum; byte-identical across
reruns — see docs/OBSERVABILITY.md).
"""

from __future__ import annotations

from pathlib import Path

from repro.experiments.registry import persist_result

RESULTS_DIR = Path(__file__).resolve().parent.parent / "results"


def emit(result) -> None:
    """Print an experiment's table and archive it under ``results/``.

    Persistence goes through :func:`repro.experiments.registry.persist_result`,
    which writes the same bytes ``repro submit NAME --out DIR`` archives.
    """
    print()
    print(result.render())
    persist_result(result, RESULTS_DIR)

