"""Layer-contract tests: the kernel's dependency inversion, enforced.

``tools/check_layers.py`` is the CI gate; these tests (a) run it against
the real tree so a contract break fails the ordinary test run too, not
just the lint job, and (b) pin the checker's own detection semantics —
absolute imports, relative imports, and lazy imports inside functions —
against a synthetic violating package, so the gate can't silently go
blind. The runtime cold-start check gets the same treatment: a synthetic
tree shows it flags a module-scope import of a heavy package and passes a
function-scope one.
"""

import importlib.util
import os
import sys

import pytest

_TOOLS = os.path.join(os.path.dirname(__file__), os.pardir, "tools")


def _load_checker():
    spec = importlib.util.spec_from_file_location(
        "check_layers", os.path.join(_TOOLS, "check_layers.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


checker = _load_checker()


def _repo_src():
    return os.path.join(os.path.dirname(__file__), os.pardir, "src")


class TestRealTree:
    def test_sim_kernel_contract_holds(self):
        for package, forbidden in checker.CONTRACTS.items():
            assert checker.check_package(_repo_src(), package, forbidden) == []

    def test_cli_entrypoint_exits_zero(self):
        assert checker.main(["--root", _repo_src()]) == 0

    def test_entry_points_leave_heavy_packages_unloaded(self):
        assert "scipy" in checker.HEAVY_IMPORTS
        assert checker.check_runtime_imports(_repo_src()) == []

    def test_seam_allowlist_stays_empty(self):
        """The kernel needs no blessed exceptions; keep it that way."""
        assert checker.SEAMS == ()

    def test_runtime_modules_agree_with_ast(self):
        """Belt and braces: import the kernel and inspect loaded modules."""
        import repro.core.sim  # noqa: F401  (ensure the package is loaded)

        kernel_modules = [
            name for name in sys.modules if name.startswith("repro.core.sim")
        ]
        assert kernel_modules
        for name in kernel_modules:
            module = sys.modules[name]
            source = getattr(module, "__file__", "") or ""
            if not source:
                continue
            for _lineno, target in checker.iter_imports(source, name):
                for prefix in ("repro.tenancy", "repro.faults",
                               "repro.observability", "repro.service"):
                    assert not target.startswith(prefix), (
                        f"{name} imports {target}"
                    )


class TestCheckerSemantics:
    @pytest.fixture()
    def violating_tree(self, tmp_path):
        pkg = tmp_path / "repro" / "core" / "sim"
        pkg.mkdir(parents=True)
        for parent in (tmp_path / "repro", tmp_path / "repro" / "core"):
            (parent / "__init__.py").write_text("")
        (pkg / "__init__.py").write_text("")
        (pkg / "absolute.py").write_text(
            "import repro.tenancy.model\n"
        )
        (pkg / "from_import.py").write_text(
            "from repro.observability import Tracer\n"
        )
        (pkg / "relative.py").write_text(
            "from ...faults import FaultSchedule\n"
        )
        (pkg / "lazy.py").write_text(
            "def build():\n    from repro.service import ArchiveService\n"
        )
        (pkg / "clean.py").write_text(
            "from ..events import Simulation\nfrom .hooks import TracerLike\n"
        )
        return str(tmp_path)

    def test_all_import_forms_detected(self, violating_tree):
        violations = checker.check_package(
            violating_tree, "repro.core.sim",
            checker.CONTRACTS["repro.core.sim"],
        )
        flagged = "\n".join(violations)
        assert "absolute.py" in flagged
        assert "from_import.py" in flagged
        assert "relative.py" in flagged
        assert "lazy.py" in flagged  # a deferred import is still a dependency
        assert "clean.py" not in flagged
        assert len(violations) == 4

    def test_relative_import_resolution(self):
        import ast

        node = ast.parse("from ...faults import X").body[0]
        resolved = checker.resolve_relative("repro.core.sim.relative", node, False)
        assert resolved == "repro.faults"
        node = ast.parse("from ..events import Simulation").body[0]
        assert (
            checker.resolve_relative("repro.core.sim.kernel", node, False)
            == "repro.core.events"
        )
        # Package __init__ files resolve one level shallower.
        node = ast.parse("from .hooks import TracerLike").body[0]
        assert (
            checker.resolve_relative("repro.core.sim", node, True)
            == "repro.core.sim.hooks"
        )

    def test_missing_package_is_reported(self, tmp_path):
        violations = checker.check_package(
            str(tmp_path), "repro.core.sim", {"repro.tenancy": "x"}
        )
        assert violations and "not found" in violations[0]


class TestRuntimeImportSemantics:
    """The cold-start gate counts imports that run, not imports that exist."""

    @pytest.fixture()
    def heavy_tree(self, tmp_path):
        (tmp_path / "heavy").mkdir()
        (tmp_path / "heavy" / "__init__.py").write_text("")
        app = tmp_path / "app"
        app.mkdir()
        (app / "__init__.py").write_text("")
        (app / "eager.py").write_text("import heavy\n")
        (app / "lazy.py").write_text("def stats():\n    import heavy\n")
        (app / "chain.py").write_text("from . import lazy, eager\n")
        return str(tmp_path)

    def _check(self, root, *entries):
        return checker.check_runtime_imports(
            root, entry_points=entries, heavy={"heavy": "too slow"}
        )

    def test_module_scope_import_flagged(self, heavy_tree):
        assert self._check(heavy_tree, "app.eager") == [
            "import app.eager loads heavy (forbidden: too slow)"
        ]

    def test_function_scope_import_not_flagged(self, heavy_tree):
        assert self._check(heavy_tree, "app", "app.lazy") == []

    def test_first_loading_entry_point_named(self, heavy_tree):
        violations = self._check(heavy_tree, "app.lazy", "app.chain", "app.eager")
        assert violations == ["import app.chain loads heavy (forbidden: too slow)"]

    def test_failed_import_reported(self, heavy_tree):
        violations = self._check(heavy_tree, "app.missing")
        assert len(violations) == 1 and "import probe failed" in violations[0]
