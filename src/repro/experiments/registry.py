"""Experiment registry: one :class:`ExperimentSpec` per table/figure.

Mirrors :mod:`repro.apps.registry`: every ``fig*``/``table*``/``ext_*``
module registers here under a short name (``fig8``, ``table1``,
``ext_faults``), and all front ends — the ``repro experiment`` CLI, the
pytest benchmark harness, and :func:`repro.parallel.run_trials` sweeps —
drive experiments through the same normalized interface::

    spec = get_experiment("fig8")
    result = run(spec)            # or run(spec, obs=...) / spec(seed=...)
    persist_result(result, "results/")

:func:`run` is a plain importable function of ``(spec, obs)``, so a list
of specs can be handed straight to ``run_trials(run, specs, jobs=N)``.
Runners keep their historical keyword signatures; the spec layer adapts:
``seed``/``obs`` are forwarded only to runners that accept them, and
results persist byte-identically to what the benchmark harness has always
written (text table + deterministic manifest).
"""

from __future__ import annotations

import importlib
import inspect
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Mapping

from repro._atomic import atomic_write_text
from repro.errors import ConfigError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.observability import Observability

#: override names that never change a result (proven by the parallel
#: differential oracle) and therefore stay out of the cache fingerprint
NONSEMANTIC_OVERRIDES = frozenset({"jobs"})


@dataclass(frozen=True)
class _Deferred:
    """A function named by module and attribute, imported on first call.

    Registry entries hold these instead of the functions themselves, so
    building the registry imports no experiment module.
    ``inspect.signature`` sees the target's signature, and an instance
    pickles as its two names.
    """

    module: str
    name: str

    def resolve(self) -> Callable[..., object]:
        return getattr(importlib.import_module(self.module), self.name)

    def __call__(self, *args: object, **kwargs: object) -> object:
        return self.resolve()(*args, **kwargs)

    @property
    def __signature__(self) -> inspect.Signature:
        return inspect.signature(self.resolve())


@dataclass(frozen=True)
class JobRequest:
    """A normalized, picklable experiment invocation.

    The single request shape shared by every front end — the ``repro
    experiment`` / ``repro faults`` / ``repro varbench`` CLIs, the
    :class:`repro.api.Client`, and the job service — produced only by
    :meth:`ExperimentSpec.normalize` (or its :meth:`ExperimentSpec.from_args`
    convenience), so validation and canonicalization happen in exactly one
    place.

    ``overrides`` are the runner keyword arguments that select *what* is
    computed (canonical JSON values, sorted by name); ``extras`` are
    arguments that only affect *how* (``jobs=...`` fan-out) and are
    excluded from the cache fingerprint (see docs/SERVICE.md).
    """

    name: str
    result_name: str
    seed: int | None = None
    overrides: tuple[tuple[str, object], ...] = ()
    extras: tuple[tuple[str, object], ...] = field(default=(), compare=False)

    def kwargs(self) -> dict[str, object]:
        """The runner keyword arguments this request resolves to."""
        kwargs: dict[str, object] = dict(self.overrides)
        kwargs.update(dict(self.extras))
        if self.seed is not None:
            kwargs["seed"] = self.seed
        return kwargs

    def to_json(self) -> dict[str, object]:
        """Stable JSON form (see the job-record schema in docs/SERVICE.md)."""
        return {
            "name": self.name,
            "result_name": self.result_name,
            "seed": self.seed,
            "overrides": dict(self.overrides),
            "extras": dict(self.extras),
        }

    @classmethod
    def from_json(cls, data: Mapping[str, object]) -> "JobRequest":
        """Rebuild a request journalled by :meth:`to_json` verbatim.

        No re-validation happens here: the journal only ever holds
        requests that went through :meth:`ExperimentSpec.normalize`.
        """
        return cls(
            name=str(data["name"]),
            result_name=str(data["result_name"]),
            seed=None if data.get("seed") is None else int(data["seed"]),  # type: ignore[arg-type]
            overrides=tuple(sorted(dict(data.get("overrides") or {}).items())),
            extras=tuple(sorted(dict(data.get("extras") or {}).items())),
        )


@dataclass(frozen=True)
class ExperimentSpec:
    """One registered experiment.

    Attributes
    ----------
    name:
        Registry key (``fig8``, ``ext_faults``, ...).
    description:
        One-line summary shown by ``repro experiment --list``.
    runner:
        The module's ``run_*`` function (registry entries hold a
        :class:`_Deferred` reference to it); returns a result object with
        a ``render()`` method.
    result_name:
        Basename of the persisted artefacts: ``results/<result_name>.txt``
        and ``results/<result_name>.manifest.json``.
    seed:
        The runner's default seed, or None for seedless experiments.
    canonicalize:
        Optional hook ``semantic -> (semantic, moved_extras)`` applied by
        :meth:`normalize` after override validation.  Lets a spec rewrite
        fingerprint-relevant overrides into content-addressed form — the
        ``trace_replay`` spec folds a ``trace=`` file path into its
        sha256 so the cache keys on trace *bytes*, not filenames.
    """

    name: str
    description: str
    runner: Callable[..., object]
    result_name: str
    seed: int | None = None
    canonicalize: Callable[[dict], tuple[dict, dict]] | None = None

    def result_path(self, directory: str | Path) -> Path:
        return Path(directory) / f"{self.result_name}.txt"

    def manifest_path(self, directory: str | Path) -> Path:
        return Path(directory) / f"{self.result_name}.manifest.json"

    @property
    def takes_seed(self) -> bool:
        return "seed" in inspect.signature(self.runner).parameters

    def run(
        self,
        seed: int | None = None,
        obs: "Observability | None" = None,
        **overrides: object,
    ) -> object:
        """Run with normalized arguments.

        ``seed`` and ``obs`` are forwarded only when the runner accepts a
        parameter of that name (passing a seed to a seedless experiment is
        an error, not a silent no-op); ``overrides`` go through verbatim.
        """
        params = inspect.signature(self.runner).parameters
        kwargs = dict(overrides)
        if seed is not None:
            if "seed" not in params:
                raise ConfigError(
                    f"experiment {self.name!r} does not take a seed"
                )
            kwargs["seed"] = seed
        if obs is not None and "obs" in params:
            kwargs["obs"] = obs
        return self.runner(**kwargs)

    # -- normalized requests -------------------------------------------------

    def normalize(
        self,
        seed: int | None = None,
        overrides: Mapping[str, object] | None = None,
    ) -> JobRequest:
        """Fold an invocation into the one canonical :class:`JobRequest`.

        This is the single spec-construction path shared by the CLI
        subcommands, the registry and :class:`repro.api.Client`:

        * ``seed`` is validated against the runner signature and resolved
          to its effective value (the spec default when not given);
        * every override name is validated against the runner signature
          (an unknown knob is a :class:`~repro.errors.ConfigError`, not a
          ``TypeError`` deep inside a worker process);
        * override values are canonicalized to JSON types (tuples become
          lists) so equal requests fingerprint equally regardless of how
          the caller spelled them;
        * non-semantic knobs (:data:`NONSEMANTIC_OVERRIDES`) are split
          out of the fingerprint-relevant set.
        """
        from repro.obs.stream import _json_safe

        params = inspect.signature(self.runner).parameters
        if seed is not None and "seed" not in params:
            raise ConfigError(f"experiment {self.name!r} does not take a seed")
        resolved_seed = self.seed if seed is None else int(seed)
        semantic: dict[str, object] = {}
        extras: dict[str, object] = {}
        for key, value in dict(overrides or {}).items():
            if key in ("seed", "obs"):
                raise ConfigError(
                    f"pass {key!r} as its own argument, not as an override"
                )
            if key not in params:
                known = ", ".join(k for k in params if k not in ("obs",))
                raise ConfigError(
                    f"experiment {self.name!r} has no knob {key!r} "
                    f"(known: {known})"
                )
            target = extras if key in NONSEMANTIC_OVERRIDES else semantic
            target[key] = _json_safe(value)
        if self.canonicalize is not None:
            semantic, moved = self.canonicalize(semantic)
            extras.update(moved)
        return JobRequest(
            name=self.name,
            result_name=self.result_name,
            seed=resolved_seed,
            overrides=tuple(sorted(semantic.items())),
            extras=tuple(sorted(extras.items())),
        )

    @staticmethod
    def from_args(
        name: str,
        seed: int | None = None,
        overrides: Mapping[str, object] | None = None,
    ) -> JobRequest:
        """Resolve ``name`` in the job registry and normalize in one step.

        The convenience the CLI front ends use: ``repro experiment``,
        ``repro faults``, ``repro varbench`` and ``repro submit`` all
        build their requests through this path (there is no per-subcommand
        parsing of experiment knobs any more).
        """
        return resolve_job_spec(name).normalize(seed=seed, overrides=overrides)

    def run_request(self, request: JobRequest) -> object:
        """Execute a normalized request exactly as :meth:`run` would."""
        if request.name != self.name:
            raise ConfigError(
                f"request for {request.name!r} handed to spec {self.name!r}"
            )
        return self.runner(**request.kwargs())


def run(spec: ExperimentSpec, obs: "Observability | None" = None) -> object:
    """Normalized entry point: run ``spec`` with its default arguments.

    A module-level pure function so ``run_trials(run, specs, jobs=N)``
    can fan a list of specs out over worker processes.
    """
    return spec.run(obs=obs)


@dataclass(frozen=True)
class ResultArtifacts:
    """The two byte-exact artefacts a finished experiment persists.

    Rendering is separated from writing so the job service can store the
    artefacts content-addressed and later serve a cache hit that is
    byte-identical to a fresh run — both paths call
    :func:`persist_artifacts` on the same strings.
    """

    result_name: str
    text: str
    manifest_text: str

    def to_json(self) -> dict[str, object]:
        return {
            "result_name": self.result_name,
            "text": self.text,
            "manifest_text": self.manifest_text,
        }

    @classmethod
    def from_json(cls, data: Mapping[str, object]) -> "ResultArtifacts":
        return cls(
            result_name=str(data["result_name"]),
            text=str(data["text"]),
            manifest_text=str(data["manifest_text"]),
        )


def render_artifacts(result: object) -> ResultArtifacts:
    """Render a result object into its persistable artefact bytes.

    Seed and config provenance are taken from the result object when it
    carries them (``result.seed`` / ``result.config``), which keeps
    manifests of provenance-free results byte-identical to those the
    harness has always produced.
    """
    from repro.obs.manifest import build_manifest, manifest_text

    text = result.render() + "\n"
    name = type(result).__name__.lstrip("_")
    manifest = build_manifest(
        name=name,
        seed=getattr(result, "seed", None),
        config=getattr(result, "config", None),
        results_text=text,
    )
    return ResultArtifacts(name, text, manifest_text(manifest))


def persist_artifacts(artifacts: ResultArtifacts, directory: str | Path) -> Path:
    """Write rendered artefacts into ``directory`` (atomic per file).

    Each file goes through a temp-file + ``os.replace`` rename
    (:mod:`repro._atomic`), so a killed worker can never leave a
    truncated results file for a later reader to mistake for a complete
    one.
    """
    directory = Path(directory)
    directory.mkdir(exist_ok=True)
    path = directory / f"{artifacts.result_name}.txt"
    atomic_write_text(path, artifacts.text)
    atomic_write_text(
        directory / f"{artifacts.result_name}.manifest.json",
        artifacts.manifest_text,
    )
    return path


def persist_result(result: object, directory: str | Path) -> Path:
    """Archive a result exactly as the benchmark harness does.

    Writes ``<directory>/<Type>.txt`` (rendered table + newline) and the
    paired deterministic manifest, both via atomic renames.
    """
    return persist_artifacts(render_artifacts(result), directory)


def _build_registry() -> dict[str, ExperimentSpec]:
    specs = [
        ExperimentSpec(
            "table1",
            "anomaly inventory with induced per-metric deviations",
            _Deferred("repro.experiments", "run_table1"),
            "Table1Result",
        ),
        ExperimentSpec(
            "table2",
            "proxy-app resource characterisation (Table 2)",
            _Deferred("repro.experiments", "run_table2"),
            "Table2Result",
        ),
        ExperimentSpec(
            "fig2",
            "cpuoccupy utilisation sweep vs application slowdown",
            _Deferred("repro.experiments", "run_fig2"),
            "Fig2Result",
        ),
        ExperimentSpec(
            "fig3",
            "cachecopy slowdown on both machine flavours",
            _Deferred("repro.experiments", "run_fig3"),
            "Fig3Result",
        ),
        ExperimentSpec(
            "fig4",
            "membw instance-count sweep vs memory bandwidth",
            _Deferred("repro.experiments", "run_fig4"),
            "Fig4Result",
        ),
        ExperimentSpec(
            "fig5",
            "memleak/memeater footprint growth and OOM behaviour",
            _Deferred("repro.experiments", "run_fig5"),
            "Fig5Result",
        ),
        ExperimentSpec(
            "fig6",
            "netoccupy impact under static vs adaptive routing",
            _Deferred("repro.experiments", "run_fig6"),
            "Fig6Result",
        ),
        ExperimentSpec(
            "fig7",
            "iobandwidth/iometadata impact on shared-filesystem clients",
            _Deferred("repro.experiments", "run_fig7"),
            "Fig7Result",
        ),
        ExperimentSpec(
            "fig8",
            "runtime matrix: every app against every anomaly",
            _Deferred("repro.experiments", "run_fig8"),
            "Fig8Result",
        ),
        ExperimentSpec(
            "fig9",
            "anomaly diagnosis F1 vs training-set size",
            _Deferred("repro.experiments", "run_fig9"),
            "Fig9Result",
            seed=0,
        ),
        ExperimentSpec(
            "fig10",
            "anomaly diagnosis confusion matrix",
            _Deferred("repro.experiments", "run_fig10"),
            "Fig10Result",
            seed=0,
        ),
        ExperimentSpec(
            "fig11_12",
            "RR vs WBAS allocation under anomalies",
            _Deferred("repro.experiments", "run_fig11_12"),
            "Fig11_12Result",
        ),
        ExperimentSpec(
            "fig13",
            "load balancing away from a cpuoccupy-squatted core",
            _Deferred("repro.experiments", "run_fig13"),
            "Fig13Result",
        ),
        ExperimentSpec(
            "ext_dragonfly",
            "netoccupy on a dragonfly topology (extension)",
            _Deferred("repro.experiments", "run_ext_dragonfly"),
            "DragonflyResult",
        ),
        ExperimentSpec(
            "ext_faults",
            "fault-injection sweep: success rate, goodput, makespan "
            "with/without checkpointing (extension)",
            _Deferred("repro.experiments", "run_ext_faults"),
            "FaultsResult",
            seed=1,
        ),
        ExperimentSpec(
            "ext_importance",
            "diagnosis feature-importance ranking (extension)",
            _Deferred("repro.experiments", "run_ext_importance"),
            "ImportanceResult",
            seed=4,
        ),
        ExperimentSpec(
            "ext_jitter",
            "OS jitter scaling with node count (extension)",
            _Deferred("repro.experiments", "run_ext_jitter"),
            "JitterResult",
            seed=3,
        ),
        ExperimentSpec(
            "ext_jobstream",
            "job-stream scheduling under anomalies (extension)",
            _Deferred("repro.experiments", "run_ext_jobstream"),
            "JobStreamResult",
        ),
        ExperimentSpec(
            "ext_lustre",
            "NFS vs Lustre-like metadata isolation (extension)",
            _Deferred("repro.experiments", "run_ext_lustre"),
            "LustreResult",
        ),
        ExperimentSpec(
            "ext_online",
            "online anomaly detection latency (extension)",
            _Deferred("repro.experiments", "run_ext_online"),
            "OnlineResult",
            seed=6,
        ),
        ExperimentSpec(
            "ext_variability",
            "induced run-to-run variability report (extension)",
            _Deferred("repro.experiments", "run_ext_variability"),
            "VariabilityResult",
            seed=5,
        ),
        ExperimentSpec(
            "trace_replay",
            "replay a generated or recorded workload trace (extension)",
            _Deferred("repro.experiments", "run_trace_replay"),
            "TraceReplayResult",
            seed=0,
            canonicalize=_Deferred(
                "repro.experiments.ext_trace_replay", "_canonicalize_trace"
            ),
        ),
    ]
    return {spec.name: spec for spec in specs}


EXPERIMENT_REGISTRY: dict[str, ExperimentSpec] = _build_registry()


def get_experiment(name: str) -> ExperimentSpec:
    """Look up an experiment by name (case-insensitive)."""
    for key, spec in EXPERIMENT_REGISTRY.items():
        if key.lower() == name.lower():
            return spec
    known = ", ".join(sorted(EXPERIMENT_REGISTRY))
    raise ConfigError(f"unknown experiment {name!r} (known: {known})")


def _build_service_jobs() -> dict[str, ExperimentSpec]:
    """Job specs the service accepts beyond the figure/table registry.

    ``repro experiment --list`` deliberately keeps showing only the
    paper's figures and tables; these extra specs are reachable through
    :func:`resolve_job_spec` (the Client / ``repro submit`` namespace).
    """
    from repro.varbench import run_varbench

    specs = [
        ExperimentSpec(
            "varbench",
            "Varbench-style induced run-to-run variability measurement",
            run_varbench,
            "VarbenchResult",
            seed=0,
        ),
    ]
    return {spec.name: spec for spec in specs}


#: extra service-only job specs (lazy: built on first resolve)
_SERVICE_JOBS: dict[str, ExperimentSpec] = {}


def job_registry() -> dict[str, ExperimentSpec]:
    """Every spec the job service accepts, keyed by name."""
    if not _SERVICE_JOBS:
        _SERVICE_JOBS.update(_build_service_jobs())
    return {**EXPERIMENT_REGISTRY, **_SERVICE_JOBS}


def resolve_job_spec(name: str) -> ExperimentSpec:
    """Look up a job spec by name across the full service namespace."""
    registry = job_registry()
    for key, spec in registry.items():
        if key.lower() == name.lower():
            return spec
    known = ", ".join(sorted(registry))
    raise ConfigError(f"unknown job {name!r} (known: {known})")
