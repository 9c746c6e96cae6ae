"""Project index: module naming, imports, symbols, parse errors."""

from __future__ import annotations

from pathlib import Path

from repro.lint.flow.index import ProjectIndex, module_name_for


class TestModuleNaming:
    def test_src_prefix_dropped(self):
        name = module_name_for(Path("src/repro/sim/rng.py"), [Path("src")])
        assert name == "repro.sim.rng"

    def test_plain_root(self, tmp_path):
        name = module_name_for(tmp_path / "repro/net/flows.py", [tmp_path])
        assert name == "repro.net.flows"

    def test_init_trimmed(self):
        name = module_name_for(Path("src/repro/sim/__init__.py"), [Path("src")])
        assert name == "repro.sim"

    def test_closest_root_wins(self, tmp_path):
        inner = tmp_path / "src"
        name = module_name_for(inner / "repro/units.py", [tmp_path, inner])
        assert name == "repro.units"


class TestImports:
    def test_import_alias(self, project_factory):
        project = project_factory(
            {"repro/__init__.py": "", "repro/a.py": "import numpy as np\n"}
        )
        info = project.modules["repro.a"]
        assert info.imports["np"] == "numpy"

    def test_from_import_with_alias(self, project_factory):
        project = project_factory(
            {
                "repro/__init__.py": "",
                "repro/sim/__init__.py": "",
                "repro/sim/rng.py": "def make_rng(seed=0):\n    return seed\n",
                "repro/a.py": "from repro.sim.rng import make_rng as mk\n",
            }
        )
        info = project.modules["repro.a"]
        assert info.imports["mk"] == "repro.sim.rng.make_rng"

    def test_relative_import(self, project_factory):
        project = project_factory(
            {
                "repro/__init__.py": "",
                "repro/sim/__init__.py": "",
                "repro/sim/rng.py": "def make_rng(seed=0):\n    return seed\n",
                "repro/sim/engine.py": "from .rng import make_rng\n",
            }
        )
        info = project.modules["repro.sim.engine"]
        assert info.imports["make_rng"] == "repro.sim.rng.make_rng"


class TestSymbols:
    FILES = {
        "repro/__init__.py": "",
        "repro/solver.py": """
            REGISTRY = {}
            LIMIT = 8

            class Base:
                def shared(self):
                    return 0

            class Solver(Base):
                def __init__(self):
                    self.memo = {}
                    self.engine = Helper()

                def solve(self, x):
                    self.last = x
                    return x

            class Helper:
                def ping(self):
                    return 1
        """,
    }

    def test_functions_and_classes_indexed(self, project_factory):
        project = project_factory(self.FILES)
        assert "repro.solver.Solver.solve" in project.functions
        assert "repro.solver.Solver" in project.classes
        fn = project.functions["repro.solver.Solver.solve"]
        assert fn.param_names == ["x"]  # self stripped

    def test_class_bases_and_mro_lookup(self, project_factory):
        project = project_factory(self.FILES)
        assert project.classes["repro.solver.Solver"].bases == ["Base"]
        inherited = project.lookup_method("repro.solver.Solver", "shared")
        assert inherited is not None
        assert inherited.qualname == "repro.solver.Base.shared"

    def test_attr_types_and_mutated_attrs(self, project_factory):
        project = project_factory(self.FILES)
        cinfo = project.classes["repro.solver.Solver"]
        assert cinfo.attr_types["engine"] == "Helper"
        # `self.last = x` happens in solve(), outside __init__.
        assert "last" in cinfo.mutated_attrs
        assert "memo" not in cinfo.mutated_attrs

    def test_module_globals(self, project_factory):
        project = project_factory(self.FILES)
        info = project.modules["repro.solver"]
        assert "REGISTRY" in info.globals
        assert "REGISTRY" in info.mutable_globals
        assert "LIMIT" not in info.mutable_globals


class TestResolve:
    def test_resolve_through_import_alias(self, project_factory):
        project = project_factory(
            {"repro/__init__.py": "", "repro/a.py": "import numpy as np\n"}
        )
        info = project.modules["repro.a"]
        assert project.resolve(info, "np.random.default_rng") == (
            "numpy.random.default_rng"
        )

    def test_resolve_local_symbol(self, project_factory):
        project = project_factory(
            {"repro/__init__.py": "", "repro/a.py": "def helper():\n    return 1\n"}
        )
        info = project.modules["repro.a"]
        assert project.resolve(info, "helper") == "repro.a.helper"

    def test_unknown_bare_name_is_none(self, project_factory):
        project = project_factory({"repro/__init__.py": "", "repro/a.py": "X = 1\n"})
        info = project.modules["repro.a"]
        assert project.resolve(info, "len") is None


class TestParseErrors:
    def test_broken_file_recorded_others_indexed(self, project_factory):
        project = project_factory(
            {
                "repro/__init__.py": "",
                "repro/ok.py": "X = 1\n",
                "repro/broken.py": "def oops(:\n",
            }
        )
        assert "repro.ok" in project.modules
        assert "repro.broken" not in project.modules
        assert len(project.parse_errors) == 1
        assert project.parse_errors[0][0].endswith("broken.py")


class TestSuppressions:
    def test_line_and_file_suppressions_parsed(self, project_factory):
        project = project_factory(
            {
                "repro/__init__.py": "",
                "repro/a.py": (
                    "# repro-lint: disable=RL014\n"
                    "X = 1\n"
                    "Y = 2  # repro-lint: disable=RL013\n"
                ),
            }
        )
        info = project.modules["repro.a"]
        assert info.is_suppressed("RL014", 2)  # file-wide
        assert info.is_suppressed("RL013", 3)  # that line only
        assert not info.is_suppressed("RL013", 2)

    def test_in_packages_matches_path_components(self, project_factory):
        project = project_factory(
            {
                "repro/__init__.py": "",
                "repro/sim/__init__.py": "",
                "repro/sim/engine.py": "X = 1\n",
                "repro/tools.py": "Y = 2\n",
            }
        )
        assert project.modules["repro.sim.engine"].in_packages(["sim"])
        assert not project.modules["repro.tools"].in_packages(["sim"])
