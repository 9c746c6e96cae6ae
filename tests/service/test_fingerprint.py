"""Fingerprint semantics: what must and must not move the cache key."""

from repro.experiments.registry import get_experiment
from repro.service import fingerprint_key, fingerprint_request


def request_for(name, seed=None, overrides=None):
    return get_experiment(name).normalize(seed=seed, overrides=overrides)


def test_equal_requests_fingerprint_equally():
    a = request_for("fig8", overrides={"iterations": 5})
    b = request_for("fig8", overrides={"iterations": 5})
    assert fingerprint_request(a) == fingerprint_request(b)


def test_override_spelling_does_not_matter():
    # tuples canonicalize to lists; dict ordering canonicalizes by name
    a = request_for(
        "fig8", overrides={"apps": ("miniGhost",), "iterations": 5}
    )
    b = request_for(
        "fig8", overrides={"iterations": 5, "apps": ["miniGhost"]}
    )
    assert fingerprint_request(a) == fingerprint_request(b)


def test_seed_changes_the_fingerprint():
    a = request_for("fig9", seed=0)
    b = request_for("fig9", seed=1)
    assert fingerprint_request(a) != fingerprint_request(b)


def test_default_seed_resolves_to_explicit_value():
    # fig9's registered default seed is 0: omitting the seed and passing
    # it explicitly are the same experiment, so the same cache entry.
    a = request_for("fig9")
    b = request_for("fig9", seed=0)
    assert fingerprint_request(a) == fingerprint_request(b)


def test_semantic_override_changes_the_fingerprint():
    a = request_for("fig8", overrides={"iterations": 5})
    b = request_for("fig8", overrides={"iterations": 6})
    assert fingerprint_request(a) != fingerprint_request(b)


def test_jobs_fanout_is_not_semantic():
    # The parallel-sweep oracle proves jobs=N never changes results, so
    # it must not split the cache either.
    a = request_for("varbench", overrides={"jobs": 1, "reps": 3})
    b = request_for("varbench", overrides={"jobs": 4, "reps": 3})
    assert fingerprint_request(a) == fingerprint_request(b)


def test_spelled_out_default_keys_like_omitting_it():
    # n_jobs=6, iterations=40 and horizon=600.0 are run_ext_faults' own
    # defaults: naming them is the same experiment as leaving them out.
    bare = request_for("ext_faults", seed=1)
    spelled = request_for(
        "ext_faults",
        seed=1,
        overrides={"n_jobs": 6, "iterations": 40, "horizon": 600.0},
    )
    assert spelled == bare
    assert fingerprint_request(spelled) == fingerprint_request(bare)
    assert request_for("varbench", overrides={"app": "miniGhost", "reps": 10}) == (
        request_for("varbench")
    )


def test_non_default_value_still_keys_apart():
    bare = fingerprint_request(request_for("ext_faults", seed=1))
    other = request_for("ext_faults", seed=1, overrides={"n_jobs": 5})
    assert fingerprint_request(other) != bare
    # canonical JSON decides: the int 600 is not the float default 600.0
    as_int = request_for("ext_faults", seed=1, overrides={"horizon": 600})
    assert dict(as_int.overrides) == {"horizon": 600}
    assert fingerprint_request(as_int) != bare


def test_version_keys_the_cache():
    request = request_for("fig8")
    base = fingerprint_request(request)
    assert fingerprint_request(request, version="999.0.0") != base


def test_key_material_is_inspectable():
    request = request_for("fig9", seed=2)
    key = fingerprint_key(request, version="1.0.0")
    assert key == {
        "name": "fig9",
        "result_name": "Fig9Result",
        "seed": 2,
        "overrides": {},
        "version": "1.0.0",
    }
