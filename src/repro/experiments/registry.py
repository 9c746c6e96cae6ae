"""Experiment registry: one :class:`ExperimentSpec` per runnable job.

Mirrors :mod:`repro.apps.registry`: every ``fig*``/``table*``/``ext_*``
module registers here under a short name (``fig8``, ``table1``,
``ext_faults``), as does the ``varbench`` measurement, and every front
end — ``repro submit``, :class:`repro.api.Client`, the job service's
workers and the :mod:`repro.check` oracles — drives a job through the
same two steps::

    spec = get_experiment("fig8")
    request = spec.normalize(overrides={"iterations": 5})  # validated
    result = spec.run_request(request)
    persist_result(result, "results/")

:meth:`ExperimentSpec.normalize` is where seeds and knobs are checked
against the runner's signature and canonicalized for the cache
fingerprint; :meth:`ExperimentSpec.run_request` calls the runner with
exactly the request's arguments.  Results persist byte-identically to
what the benchmark harness has always written (text table +
deterministic manifest).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Mapping

from repro._atomic import atomic_write_text
from repro.errors import ConfigError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.observability import ObsHook

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


@functools.lru_cache(maxsize=256)
def _runner_params(runner: Callable[..., object]) -> Mapping[str, inspect.Parameter]:
    """The runner's parameters, computed once per runner (or per
    :class:`_Deferred`) rather than on every submit."""
    return inspect.signature(runner).parameters


def _canonical_json(value: object) -> str:
    """The JSON text a value fingerprints as (tuples become lists)."""
    from repro.obs.stream import _json_safe

    return json.dumps(_json_safe(value), sort_keys=True, separators=(",", ":"))


@functools.lru_cache(maxsize=256)
def _canonical_defaults(runner: Callable[..., object]) -> Mapping[str, str]:
    """Canonical JSON of each defaulted runner parameter, computed once per
    runner; :meth:`ExperimentSpec.normalize` drops an override equal to it."""
    return {
        name: _canonical_json(param.default)
        for name, param in _runner_params(runner).items()
        if param.default is not inspect.Parameter.empty
    }


@dataclass(frozen=True)
class JobRequest:
    """A normalized, picklable experiment invocation.

    The single request shape shared by every front end — ``repro
    submit``, :class:`repro.api.Client` and the job service — produced
    only by :meth:`ExperimentSpec.normalize`, so validation and
    canonicalization happen in exactly one place.

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
        One-line summary shown by ``repro submit --list``.
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
        return "seed" in _runner_params(self.runner)

    @property
    def traceable(self) -> bool:
        """Whether the runner takes an ``on_obs`` tracing hook."""
        return "on_obs" in _runner_params(self.runner)

    # -- normalized requests -------------------------------------------------

    def normalize(
        self,
        seed: int | None = None,
        overrides: Mapping[str, object] | None = None,
    ) -> JobRequest:
        """Fold an invocation into the one canonical :class:`JobRequest`.

        This is the single spec-construction path shared by ``repro
        submit``, :class:`repro.api.Client` and the oracles:

        * ``seed`` is validated against the runner signature and resolved
          to its effective value (the spec default when not given);
        * every override name is validated against the runner signature
          (an unknown knob is a :class:`~repro.errors.ConfigError`, not a
          ``TypeError`` deep inside a worker process);
        * override values are canonicalized to JSON types (tuples become
          lists) so equal requests fingerprint equally regardless of how
          the caller spelled them;
        * an override whose canonical JSON equals the runner's default is
          dropped, so spelling a default out keys the same cache entry as
          omitting it (``600`` and ``600.0`` stay distinct);
        * non-semantic knobs (:data:`NONSEMANTIC_OVERRIDES`) are split
          out of the fingerprint-relevant set.
        """
        from repro.obs.stream import _json_safe

        params = _runner_params(self.runner)
        defaults = _canonical_defaults(self.runner)
        if seed is not None and "seed" not in params:
            raise ConfigError(f"experiment {self.name!r} does not take a seed")
        resolved_seed = self.seed if seed is None else int(seed)
        semantic: dict[str, object] = {}
        extras: dict[str, object] = {}
        for key, value in dict(overrides or {}).items():
            if key == "seed":
                raise ConfigError(
                    "pass 'seed' as its own argument, not as an override"
                )
            if key == "on_obs":
                raise ConfigError(
                    "'on_obs' is a tracing hook, not a knob: "
                    "use `repro trace` to trace a job"
                )
            if key not in params:
                known = ", ".join(p for p in params if p != "on_obs")
                raise ConfigError(
                    f"experiment {self.name!r} has no knob {key!r} "
                    f"(known: {known})"
                )
            if key in defaults and _canonical_json(value) == defaults[key]:
                continue
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

    def run_request(
        self, request: JobRequest, on_obs: "ObsHook | None" = None
    ) -> object:
        """Call the runner with exactly the request's arguments.

        ``on_obs`` traces the run: it is passed to a runner that declares
        it (see :attr:`traceable`) and called with the attached
        :class:`~repro.obs.Observability` handle before the run starts.
        It never enters the request, so a traced run keys, and persists,
        exactly like an untraced one.
        """
        if request.name != self.name:
            raise ConfigError(
                f"request for {request.name!r} handed to spec {self.name!r}"
            )
        kwargs = request.kwargs()
        if on_obs is not None:
            if not self.traceable:
                raise ConfigError(
                    f"experiment {self.name!r} cannot be traced "
                    "(its runner takes no on_obs hook)"
                )
            kwargs["on_obs"] = on_obs
        return self.runner(**kwargs)


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
            _Deferred("repro.experiments.table1_anomalies", "run_table1"),
            "Table1Result",
        ),
        ExperimentSpec(
            "table2",
            "proxy-app resource characterisation (Table 2)",
            _Deferred("repro.experiments.table2_characteristics", "run_table2"),
            "Table2Result",
        ),
        ExperimentSpec(
            "fig2",
            "cpuoccupy utilisation sweep vs application slowdown",
            _Deferred("repro.experiments.fig2_cpuoccupy", "run_fig2"),
            "Fig2Result",
        ),
        ExperimentSpec(
            "fig3",
            "cachecopy slowdown on both machine flavours",
            _Deferred("repro.experiments.fig3_cachecopy", "run_fig3"),
            "Fig3Result",
        ),
        ExperimentSpec(
            "fig4",
            "membw instance-count sweep vs memory bandwidth",
            _Deferred("repro.experiments.fig4_membw", "run_fig4"),
            "Fig4Result",
        ),
        ExperimentSpec(
            "fig5",
            "memleak/memeater footprint growth and OOM behaviour",
            _Deferred("repro.experiments.fig5_memory", "run_fig5"),
            "Fig5Result",
        ),
        ExperimentSpec(
            "fig6",
            "netoccupy impact under static vs adaptive routing",
            _Deferred("repro.experiments.fig6_netoccupy", "run_fig6"),
            "Fig6Result",
        ),
        ExperimentSpec(
            "fig7",
            "iobandwidth/iometadata impact on shared-filesystem clients",
            _Deferred("repro.experiments.fig7_io", "run_fig7"),
            "Fig7Result",
        ),
        ExperimentSpec(
            "fig8",
            "runtime matrix: every app against every anomaly",
            _Deferred("repro.experiments.fig8_matrix", "run_fig8"),
            "Fig8Result",
        ),
        ExperimentSpec(
            "fig9",
            "anomaly diagnosis F1 vs training-set size",
            _Deferred("repro.experiments.fig9_f1", "run_fig9"),
            "Fig9Result",
            seed=0,
        ),
        ExperimentSpec(
            "fig10",
            "anomaly diagnosis confusion matrix",
            _Deferred("repro.experiments.fig10_confusion", "run_fig10"),
            "Fig10Result",
            seed=0,
        ),
        ExperimentSpec(
            "fig11_12",
            "RR vs WBAS allocation under anomalies",
            _Deferred("repro.experiments.fig11_12_allocation", "run_fig11_12"),
            "Fig11_12Result",
        ),
        ExperimentSpec(
            "fig13",
            "load balancing away from a cpuoccupy-squatted core",
            _Deferred("repro.experiments.fig13_loadbalance", "run_fig13"),
            "Fig13Result",
        ),
        ExperimentSpec(
            "ext_dragonfly",
            "netoccupy on a dragonfly topology (extension)",
            _Deferred("repro.experiments.ext_dragonfly", "run_ext_dragonfly"),
            "DragonflyResult",
        ),
        ExperimentSpec(
            "ext_faults",
            "fault-injection sweep: success rate, goodput, makespan "
            "with/without checkpointing (extension)",
            _Deferred("repro.experiments.ext_faults", "run_ext_faults"),
            "FaultsResult",
            seed=1,
        ),
        ExperimentSpec(
            "ext_importance",
            "diagnosis feature-importance ranking (extension)",
            _Deferred("repro.experiments.ext_importance", "run_ext_importance"),
            "ImportanceResult",
            seed=4,
        ),
        ExperimentSpec(
            "ext_jitter",
            "OS jitter scaling with node count (extension)",
            _Deferred("repro.experiments.ext_jitter", "run_ext_jitter"),
            "JitterResult",
            seed=3,
        ),
        ExperimentSpec(
            "ext_jobstream",
            "job-stream scheduling under anomalies (extension)",
            _Deferred("repro.experiments.ext_jobstream", "run_ext_jobstream"),
            "JobStreamResult",
        ),
        ExperimentSpec(
            "ext_lustre",
            "NFS vs Lustre-like metadata isolation (extension)",
            _Deferred("repro.experiments.ext_lustre", "run_ext_lustre"),
            "LustreResult",
        ),
        ExperimentSpec(
            "ext_online",
            "online anomaly detection latency (extension)",
            _Deferred("repro.experiments.ext_online", "run_ext_online"),
            "OnlineResult",
            seed=6,
        ),
        ExperimentSpec(
            "ext_variability",
            "induced run-to-run variability report (extension)",
            _Deferred("repro.experiments.ext_variability", "run_ext_variability"),
            "VariabilityResult",
            seed=5,
        ),
        ExperimentSpec(
            "mixed",
            "miniGhost placed by WBAS under four staggered anomalies "
            "(traceable, extension)",
            _Deferred("repro.experiments.ext_mixed", "run_mixed"),
            "MixedResult",
            seed=0,
        ),
        ExperimentSpec(
            "fault_recovery",
            "checkpointing managed job through anomalies and a fault "
            "campaign (traceable, extension)",
            _Deferred("repro.experiments.ext_mixed", "run_fault_recovery"),
            "FaultRecoveryResult",
            seed=0,
        ),
        ExperimentSpec(
            "trace_replay",
            "replay a generated or recorded workload trace "
            "(traceable, extension)",
            _Deferred("repro.experiments.ext_trace_replay", "run_trace_replay"),
            "TraceReplayResult",
            seed=0,
            canonicalize=_Deferred(
                "repro.experiments.ext_trace_replay", "_canonicalize_trace"
            ),
        ),
        ExperimentSpec(
            "varbench",
            "Varbench-style induced run-to-run variability measurement",
            _Deferred("repro.varbench", "run_varbench"),
            "VarbenchResult",
            seed=0,
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
