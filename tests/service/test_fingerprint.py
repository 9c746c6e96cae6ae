"""Fingerprint semantics: what must and must not move the cache key."""

from repro.experiments.registry import ExperimentSpec
from repro.service import fingerprint_key, fingerprint_request


def test_equal_requests_fingerprint_equally():
    a = ExperimentSpec.from_args("fig8", overrides={"iterations": 5})
    b = ExperimentSpec.from_args("fig8", overrides={"iterations": 5})
    assert fingerprint_request(a) == fingerprint_request(b)


def test_override_spelling_does_not_matter():
    # tuples canonicalize to lists; dict ordering canonicalizes by name
    a = ExperimentSpec.from_args(
        "fig8", overrides={"apps": ("miniGhost",), "iterations": 5}
    )
    b = ExperimentSpec.from_args(
        "fig8", overrides={"iterations": 5, "apps": ["miniGhost"]}
    )
    assert fingerprint_request(a) == fingerprint_request(b)


def test_seed_changes_the_fingerprint():
    a = ExperimentSpec.from_args("fig9", seed=0)
    b = ExperimentSpec.from_args("fig9", seed=1)
    assert fingerprint_request(a) != fingerprint_request(b)


def test_default_seed_resolves_to_explicit_value():
    # fig9's registered default seed is 0: omitting the seed and passing
    # it explicitly are the same experiment, so the same cache entry.
    a = ExperimentSpec.from_args("fig9")
    b = ExperimentSpec.from_args("fig9", seed=0)
    assert fingerprint_request(a) == fingerprint_request(b)


def test_semantic_override_changes_the_fingerprint():
    a = ExperimentSpec.from_args("fig8", overrides={"iterations": 5})
    b = ExperimentSpec.from_args("fig8", overrides={"iterations": 6})
    assert fingerprint_request(a) != fingerprint_request(b)


def test_jobs_fanout_is_not_semantic():
    # The parallel-sweep oracle proves jobs=N never changes results, so
    # it must not split the cache either.
    a = ExperimentSpec.from_args("varbench", overrides={"jobs": 1, "reps": 3})
    b = ExperimentSpec.from_args("varbench", overrides={"jobs": 4, "reps": 3})
    assert fingerprint_request(a) == fingerprint_request(b)


def test_version_keys_the_cache():
    request = ExperimentSpec.from_args("fig8")
    base = fingerprint_request(request)
    assert fingerprint_request(request, version="999.0.0") != base


def test_key_material_is_inspectable():
    request = ExperimentSpec.from_args("fig9", seed=2)
    key = fingerprint_key(request, version="1.0.0")
    assert key == {
        "name": "fig9",
        "result_name": "Fig9Result",
        "seed": 2,
        "overrides": {},
        "version": "1.0.0",
    }
