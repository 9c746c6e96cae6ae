"""Job execution: one importable function of the request (internal).

:func:`execute_request` is the worker-side body of every job — a pure,
module-level (hence picklable) function of the normalized
:class:`~repro.experiments.registry.JobRequest`, so it can be handed to
:class:`repro.parallel.ShardWorker` processes exactly like
:func:`repro.parallel.run_trials` payloads.  It resolves the spec from
the experiment registry *inside* the worker (spawn workers start from a
fresh interpreter; only the request crosses the process boundary) and
returns the rendered :class:`~repro.experiments.registry.ResultArtifacts`
— plain strings, byte-identical to what a front-end run would persist.
"""

from __future__ import annotations

from repro.experiments.registry import (
    JobRequest,
    ResultArtifacts,
    get_experiment,
    render_artifacts,
)


def execute_request(request: JobRequest) -> ResultArtifacts:
    """Run one normalized request and render its artefacts."""
    spec = get_experiment(request.name)
    return render_artifacts(spec.run_request(request))
