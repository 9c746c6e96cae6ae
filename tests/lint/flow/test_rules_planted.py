"""Planted-bug tests: every flow rule flips clean → failing on its bug.

Each rule gets a pair of fixtures sharing the same skeleton; the *clean*
variant follows the convention, the *bug* variant plants exactly the
defect the rule exists to catch.  Fixture trees live in a temp dir
shaped ``<tmp>/repro/<pkg>/...`` so package-scoped sinks match.
"""

from __future__ import annotations

from repro.lint.config import LintConfig
from repro.lint.flow import analyze_paths  # noqa: F401  (registration)
from repro.lint.flow.base import run_flow_rules
from repro.lint.flow.index import ProjectIndex


def findings_for(project_factory, files, rule_id, config=None):
    project = project_factory(files)
    findings = run_flow_rules(project, config or LintConfig())
    return [f for f in findings if f.rule_id == rule_id]


# -- RL011: rng provenance ----------------------------------------------------

_RNG_SKELETON = {
    "repro/__init__.py": "",
    "repro/sim/__init__.py": "",
    "repro/sim/rng.py": """
        def make_rng(seed=0):
            return ("rng", seed)
    """,
    "repro/sim/engine.py": """
        def advance(rng, steps):
            return (rng, steps)
    """,
}


class TestRL011RngProvenance:
    def test_clean_blessed_factory(self, project_factory):
        files = dict(_RNG_SKELETON)
        files["repro/driver.py"] = """
            from repro.sim.rng import make_rng
            from repro.sim.engine import advance

            def run():
                rng = make_rng(7)
                return advance(rng, 3)
        """
        assert findings_for(project_factory, files, "RL011") == []

    def test_bug_raw_rng_into_sim(self, project_factory):
        files = dict(_RNG_SKELETON)
        files["repro/driver.py"] = """
            import numpy as np
            from repro.sim.engine import advance

            def run():
                rng = np.random.default_rng()
                return advance(rng, 3)
        """
        found = findings_for(project_factory, files, "RL011")
        assert len(found) == 1
        assert found[0].path.endswith("repro/driver.py")
        assert found[0].severity.value == "error"
        assert "advance" in found[0].message

    def test_bug_raw_rng_through_helper_return(self, project_factory):
        # The generator is built two calls away; returns_taint closes it.
        files = dict(_RNG_SKELETON)
        files["repro/util.py"] = """
            import numpy as np

            def fresh():
                return np.random.default_rng()
        """
        files["repro/driver.py"] = """
            from repro.util import fresh
            from repro.sim.engine import advance

            def run():
                rng = fresh()
                return advance(rng, 3)
        """
        found = findings_for(project_factory, files, "RL011")
        assert len(found) == 1
        assert found[0].path.endswith("repro/driver.py")

    def test_bug_raw_rng_through_parameter_chain(self, project_factory):
        # launch() forwards its parameter into the sink; the finding
        # lands where the raw generator enters the chain.
        files = dict(_RNG_SKELETON)
        files["repro/driver.py"] = """
            import numpy as np
            from repro.sim.engine import advance

            def launch(g):
                return advance(g, 1)

            def run():
                return launch(np.random.default_rng())
        """
        found = findings_for(project_factory, files, "RL011")
        assert len(found) == 1
        assert "launch" in found[0].message

    def test_clean_helper_returning_blessed_rng(self, project_factory):
        files = dict(_RNG_SKELETON)
        files["repro/driver.py"] = """
            from repro.sim.rng import make_rng
            from repro.sim.engine import advance

            def seeded():
                return make_rng(1)

            def run():
                return advance(seeded(), 3)
        """
        assert findings_for(project_factory, files, "RL011") == []

    def test_suppression_comment_silences(self, project_factory):
        files = dict(_RNG_SKELETON)
        files["repro/driver.py"] = """
            import numpy as np
            from repro.sim.engine import advance

            def run():
                rng = np.random.default_rng()
                return advance(rng, 3)  # repro-lint: disable=RL011
        """
        assert findings_for(project_factory, files, "RL011") == []


# -- RL012: wall-clock provenance ---------------------------------------------

_TIME_SKELETON = {
    "repro/__init__.py": "",
    "repro/sim/__init__.py": "",
    "repro/sim/engine.py": """
        def schedule(at):
            return at
    """,
}


class TestRL012WallClockProvenance:
    def test_clean_constant_time(self, project_factory):
        files = dict(_TIME_SKELETON)
        files["repro/bench.py"] = """
            from repro.sim.engine import schedule

            def run():
                return schedule(0.0)
        """
        assert findings_for(project_factory, files, "RL012") == []

    def test_bug_perf_counter_into_sim(self, project_factory):
        files = dict(_TIME_SKELETON)
        files["repro/bench.py"] = """
            import time

            from repro.sim.engine import schedule

            def run():
                t = time.perf_counter()
                return schedule(t)
        """
        found = findings_for(project_factory, files, "RL012")
        assert len(found) == 1
        assert found[0].path.endswith("repro/bench.py")
        assert "schedule" in found[0].message

    def test_bug_wallclock_into_hashlib_fingerprint(self, project_factory):
        files = dict(_TIME_SKELETON)
        files["repro/manifest.py"] = """
            import hashlib
            import time

            def fingerprint():
                t = time.time()
                return hashlib.sha256(t)
        """
        found = findings_for(project_factory, files, "RL012")
        assert len(found) == 1
        assert "sha256" in found[0].message


# -- RL013: memo impurity -----------------------------------------------------

_MEMO_CONFIG = LintConfig(
    flow_memo_functions=("Solver.solve",),
    flow_memo_state_allowed=("memo",),
)

_MEMO_CLEAN = {
    "repro/__init__.py": "",
    "repro/network/__init__.py": "",
    "repro/network/solver.py": """
        class Solver:
            def __init__(self):
                self.memo = {}
                self.scale = 1.0

            def solve(self, demands):
                key = tuple(demands)
                if key in self.memo:
                    return self.memo[key]
                result = self._compute(demands)
                self.memo[key] = result
                return result

            def _compute(self, demands):
                return [d * self.scale for d in demands]
    """,
}


class TestRL013MemoImpurity:
    def test_clean_state_never_mutated(self, project_factory):
        assert (
            findings_for(project_factory, _MEMO_CLEAN, "RL013", _MEMO_CONFIG) == []
        )

    def test_bug_mutable_state_outside_key(self, project_factory):
        files = dict(_MEMO_CLEAN)
        # set_scale() makes `scale` runtime-mutable; solve's key is only
        # the demands, so a memo hit can return a stale result.
        files["repro/network/solver.py"] = """
            class Solver:
                def __init__(self):
                    self.memo = {}
                    self.scale = 1.0

                def solve(self, demands):
                    key = tuple(demands)
                    if key in self.memo:
                        return self.memo[key]
                    result = self._compute(demands)
                    self.memo[key] = result
                    return result

                def _compute(self, demands):
                    return [d * self.scale for d in demands]

                def set_scale(self, s):
                    self.scale = s
        """
        found = findings_for(project_factory, files, "RL013", _MEMO_CONFIG)
        assert len(found) == 1
        assert "self.scale" in found[0].message
        assert "_compute" in found[0].message

    def test_clean_when_key_captures_the_state(self, project_factory):
        files = dict(_MEMO_CLEAN)
        files["repro/network/solver.py"] = """
            class Solver:
                def __init__(self):
                    self.memo = {}
                    self.scale = 1.0

                def solve(self, demands):
                    key = (tuple(demands), self.scale)
                    if key in self.memo:
                        return self.memo[key]
                    result = self._compute(demands)
                    self.memo[key] = result
                    return result

                def _compute(self, demands):
                    return [d * self.scale for d in demands]

                def set_scale(self, s):
                    self.scale = s
        """
        assert findings_for(project_factory, files, "RL013", _MEMO_CONFIG) == []

    def test_clean_array_fingerprint_key_via_locals(self, project_factory):
        """State reaching the key through locals is key-covered.

        The rate-model idiom: the key expression holds a local
        (``demands``) that was *derived* from mutable instance lists, and
        aliases another (``seg = self.seg_tokens``).  The
        local-provenance closure must credit both attributes to the key.
        """
        files = dict(_MEMO_CLEAN)
        files["repro/network/solver.py"] = """
            class Solver:
                def __init__(self):
                    self.memo = {}
                    self.rates = [1.0]
                    self.seg_tokens = [0]

                def solve(self, rows):
                    seg = self.seg_tokens
                    demands = [self.rates[r] for r in rows]
                    key = (tuple(demands), tuple(seg[r] for r in rows))
                    if key in self.memo:
                        return self.memo[key]
                    result = self._compute(demands)
                    self.memo[key] = result
                    return result

                def _compute(self, demands):
                    return [d * 2.0 for d in demands]

                def refresh(self, r, rate, token):
                    self.rates[r] = rate
                    self.seg_tokens[r] = token
        """
        assert findings_for(project_factory, files, "RL013", _MEMO_CONFIG) == []

    def test_clean_declared_derived_state(self, project_factory):
        """flow_memo_derived_state vouches for token-paired attributes."""
        files = dict(_MEMO_CLEAN)
        files["repro/network/solver.py"] = """
            class Solver:
                def __init__(self):
                    self.memo = {}
                    self.token = 0
                    self.footprints = [1.0]

                def solve(self, rows):
                    key = (self.token, tuple(rows))
                    if key in self.memo:
                        return self.memo[key]
                    result = self._compute(rows)
                    self.memo[key] = result
                    return result

                def _compute(self, rows):
                    return [self.footprints[r] for r in rows]

                def refresh(self, r, fp):
                    # footprints and the interned token move together
                    self.footprints[r] = fp
                    self.token = self.token + 1
        """
        config = LintConfig(
            flow_memo_functions=("Solver.solve",),
            flow_memo_state_allowed=("memo",),
            flow_memo_derived_state=("footprints",),
        )
        assert findings_for(project_factory, files, "RL013", config) == []
        # Without the declaration the same read is still a finding.
        found = findings_for(project_factory, files, "RL013", _MEMO_CONFIG)
        assert len(found) == 1
        assert "self.footprints" in found[0].message

    def test_bug_stale_entry_after_rename(self, project_factory):
        """An entry left behind by a method rename is itself a finding.

        Otherwise the renamed solve goes unchecked: here it reads the
        runtime-mutated ``scale`` outside its key, and the only entry
        still names the old method.
        """
        files = dict(_MEMO_CLEAN)
        files["repro/network/solver.py"] = """
            class Solver:
                def __init__(self):
                    self.memo = {}
                    self.scale = 1.0

                def solve_cached(self, demands):
                    key = tuple(demands)
                    if key in self.memo:
                        return self.memo[key]
                    result = [d * self.scale for d in demands]
                    self.memo[key] = result
                    return result

                def set_scale(self, s):
                    self.scale = s
        """
        found = findings_for(project_factory, files, "RL013", _MEMO_CONFIG)
        assert len(found) == 1
        assert "'Solver.solve' names no method of Solver" in found[0].message
        renamed = LintConfig(
            flow_memo_functions=("Solver.solve_cached",),
            flow_memo_state_allowed=("memo",),
        )
        found = findings_for(project_factory, files, "RL013", renamed)
        assert len(found) == 1
        assert "self.scale" in found[0].message

    def test_bug_stale_state_entries(self, project_factory):
        """A state entry no class assigns is a finding, once per entry.

        ``table`` was the memo's old name: the entry left behind would
        silently exempt any future ``self.table`` read.
        """
        config = LintConfig(
            flow_memo_functions=("Solver.solve",),
            flow_memo_state_allowed=("memo", "table"),
            flow_memo_derived_state=("scale", "token"),
        )
        found = findings_for(project_factory, _MEMO_CLEAN, "RL013", config)
        assert {f.message.split(" is ")[0] for f in found} == {
            "flow-memo-state-allowed entry 'table'",
            "flow-memo-derived-state entry 'token'",
        }
        assert len(found) == 2
        # A tree without the memoized solve stays silent.
        config = LintConfig(
            flow_memo_functions=("OtherSolver.solve",),
            flow_memo_state_allowed=("table",),
        )
        assert findings_for(project_factory, _MEMO_CLEAN, "RL013", config) == []

    def test_clean_entry_for_absent_class(self, project_factory):
        # One config serves trees that lack some memoized class.
        config = LintConfig(
            flow_memo_functions=("Solver.solve", "OtherSolver.solve"),
            flow_memo_state_allowed=("memo",),
        )
        assert findings_for(project_factory, _MEMO_CLEAN, "RL013", config) == []
        assert findings_for(project_factory, _MEMO_CLEAN, "RL013") == []


# -- RL014: spawn shared state ------------------------------------------------

_SPAWN_SKELETON = {
    "repro/__init__.py": "",
    "repro/parallel.py": """
        def run_trials(fn, payloads, jobs=1):
            return [fn(p) for p in payloads]
    """,
    "repro/experiments/__init__.py": "",
}


class TestRL014SpawnSharedState:
    def test_clean_pure_worker(self, project_factory):
        files = dict(_SPAWN_SKELETON)
        files["repro/experiments/sweep.py"] = """
            from repro.parallel import run_trials

            def trial(seed):
                return seed * 2

            def sweep():
                return run_trials(trial, [1, 2, 3], jobs=2)
        """
        assert findings_for(project_factory, files, "RL014") == []

    def test_bug_worker_mutates_module_global(self, project_factory):
        files = dict(_SPAWN_SKELETON)
        files["repro/experiments/sweep.py"] = """
            from repro.parallel import run_trials

            RESULTS = []

            def trial(seed):
                RESULTS.append(seed)
                return seed * 2

            def sweep():
                return run_trials(trial, [1, 2, 3], jobs=2)
        """
        found = findings_for(project_factory, files, "RL014")
        assert len(found) == 1
        assert "RESULTS" in found[0].message
        assert found[0].severity.value == "error"

    def test_bug_reached_through_helper(self, project_factory):
        # The write is one call below the worker root.
        files = dict(_SPAWN_SKELETON)
        files["repro/experiments/sweep.py"] = """
            from repro.parallel import run_trials

            SEEN = {}

            def record(seed):
                SEEN[seed] = True

            def trial(seed):
                record(seed)
                return seed * 2

            def sweep():
                return run_trials(trial, [1, 2, 3], jobs=2)
        """
        found = findings_for(project_factory, files, "RL014")
        assert len(found) == 1
        assert "record" in found[0].message

    def test_bug_global_rebinding(self, project_factory):
        files = dict(_SPAWN_SKELETON)
        files["repro/experiments/sweep.py"] = """
            from repro.parallel import run_trials

            COUNTER = 0

            def trial(seed):
                global COUNTER
                COUNTER = COUNTER + 1
                return seed

            def sweep():
                return run_trials(trial, [1, 2], jobs=2)
        """
        found = findings_for(project_factory, files, "RL014")
        assert len(found) == 1
        assert "COUNTER" in found[0].message

    def test_clean_worker_local_accumulator(self, project_factory):
        # A list local to the worker is fine — only module/class state is.
        files = dict(_SPAWN_SKELETON)
        files["repro/experiments/sweep.py"] = """
            from repro.parallel import run_trials

            def trial(seed):
                acc = []
                acc.append(seed)
                return acc

            def sweep():
                return run_trials(trial, [1, 2], jobs=2)
        """
        assert findings_for(project_factory, files, "RL014") == []


# -- RL015: guard coverage ----------------------------------------------------


class TestRL015GuardCoverage:
    def _files(self, body):
        return {
            "repro/__init__.py": "",
            "repro/sim/__init__.py": "",
            "repro/sim/engine.py": body,
        }

    def test_clean_if_guard(self, project_factory):
        files = self._files(
            """
            class Engine:
                def __init__(self, obs=None):
                    self.obs = obs

                def step(self, t):
                    if self.obs is not None:
                        self.obs.on_step(t)
                    return t
            """
        )
        assert findings_for(project_factory, files, "RL015") == []

    def test_clean_early_return_guard(self, project_factory):
        files = self._files(
            """
            class Engine:
                def __init__(self, obs=None):
                    self.obs = obs

                def step(self, t):
                    if self.obs is None:
                        return t
                    self.obs.on_step(t)
                    return t
            """
        )
        assert findings_for(project_factory, files, "RL015") == []

    def test_bug_unguarded_hook_call(self, project_factory):
        files = self._files(
            """
            class Engine:
                def __init__(self, obs=None):
                    self.obs = obs

                def step(self, t):
                    self.obs.on_step(t)
                    return t
            """
        )
        found = findings_for(project_factory, files, "RL015")
        assert len(found) == 1
        assert "self.obs" in found[0].message
        assert found[0].severity.value == "error"

    def test_outside_guard_packages_not_flagged(self, project_factory):
        files = {
            "repro/__init__.py": "",
            "repro/tools/__init__.py": "",
            "repro/tools/report.py": """
                class Reporter:
                    def __init__(self, obs=None):
                        self.obs = obs

                    def emit(self, t):
                        self.obs.on_step(t)
                        return t
            """,
        }
        assert findings_for(project_factory, files, "RL015") == []


# -- RL016: unit flow ---------------------------------------------------------

_UNITS_SKELETON = {
    "repro/__init__.py": "",
    "repro/units.py": """
        MINUTE = 60.0
        HOUR = 3600.0

        def mib(n):
            return n * 1048576.0
    """,
    "repro/apps/__init__.py": "",
}


class TestRL016UnitFlow:
    def test_clean_same_dimension(self, project_factory):
        files = dict(_UNITS_SKELETON)
        files["repro/apps/plan.py"] = """
            from repro.units import HOUR, mib

            def window(extra):
                return HOUR + extra

            def run():
                return window(HOUR)
        """
        assert findings_for(project_factory, files, "RL016") == []

    def test_bug_direct_mix(self, project_factory):
        files = dict(_UNITS_SKELETON)
        files["repro/apps/plan.py"] = """
            from repro.units import HOUR, mib

            def run():
                return mib(4) + HOUR
        """
        found = findings_for(project_factory, files, "RL016")
        assert len(found) == 1
        assert "bytes" in found[0].message and "seconds" in found[0].message

    def test_bug_mix_through_parameter(self, project_factory):
        # The byte count crosses a function boundary before mixing.
        files = dict(_UNITS_SKELETON)
        files["repro/apps/plan.py"] = """
            from repro.units import HOUR, mib

            def window(extra):
                return HOUR + extra

            def run():
                return window(mib(4))
        """
        found = findings_for(project_factory, files, "RL016")
        assert len(found) == 1
        assert "window" in found[0].message

    def test_bug_mix_through_return(self, project_factory):
        files = dict(_UNITS_SKELETON)
        files["repro/apps/plan.py"] = """
            from repro.units import HOUR, mib

            def budget():
                return mib(8)

            def run():
                return budget() + HOUR
        """
        found = findings_for(project_factory, files, "RL016")
        assert len(found) == 1

    def test_clean_dimensionless_offset(self, project_factory):
        files = dict(_UNITS_SKELETON)
        files["repro/apps/plan.py"] = """
            from repro.units import HOUR

            def run():
                return HOUR + 1.0
        """
        assert findings_for(project_factory, files, "RL016") == []

    def test_clean_rate_algebra(self, project_factory):
        # bytes / seconds → rate; rate * seconds → bytes; bytes + bytes ok.
        files = dict(_UNITS_SKELETON)
        files["repro/apps/plan.py"] = """
            from repro.units import HOUR, mib

            def run():
                rate = mib(64) / HOUR
                moved = rate * HOUR
                return moved + mib(1)
        """
        assert findings_for(project_factory, files, "RL016") == []

    def test_conflicting_call_sites_withdraw_inference(self, project_factory):
        # Two call sites disagree about `extra`; the inference must be
        # withdrawn rather than guessing (no finding either way).
        files = dict(_UNITS_SKELETON)
        files["repro/apps/plan.py"] = """
            from repro.units import HOUR, mib

            def passthrough(extra):
                return extra

            def a():
                return passthrough(HOUR)

            def b():
                return passthrough(mib(1))
        """
        assert findings_for(project_factory, files, "RL016") == []


def test_all_six_rules_registered():
    from repro.lint.flow.base import FLOW_RULE_REGISTRY

    assert set(FLOW_RULE_REGISTRY) == {
        "RL011", "RL012", "RL013", "RL014", "RL015", "RL016",
    }


def test_disabled_rule_skipped(project_factory):
    files = dict(_RNG_SKELETON)
    files["repro/driver.py"] = """
        import numpy as np
        from repro.sim.engine import advance

        def run():
            return advance(np.random.default_rng(), 3)
    """
    project = project_factory(files)
    config = LintConfig(disable=("RL011",))
    findings = run_flow_rules(project, config)
    assert [f for f in findings if f.rule_id == "RL011"] == []
