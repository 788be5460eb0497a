"""The package exports what the CLI runs; reference routes live in tests/oracles.py."""

import ast
import importlib
import pathlib
import types

import pytest

import braidphase

MODULES = ("linalg", "braid", "yangbaxter", "states", "entanglement", "dynamics",
           "berry", "cli")
MOVED_TO_ORACLES = {
    "yangbaxter": ("rational_r", "r_from_spectral", "theta_from_spectral"),
    "states": ("basis_image_formula",),
    "dynamics": ("hamiltonian_from_r", "hamiltonian_grid"),
    "entanglement": ("concurrence", "three_tangle", "one_vs_rest_sq"),
    "linalg": ("as_density_stack",),
    "braid": ("m4_transcribed",),
}
# the CLI composes each level's report from the routes themselves,
# basis_state checks its own label, ladder_residuals, which takes no drive,
# checks the brackets, no spectral parameter on the unit circle is singular,
# and verify-algebra gates mcal against its transcription
REMOVED = {"berry": ("BerryReport", "report"), "states": ("basis_index",),
           "dynamics": ("su2_relation_residuals",), "yangbaxter": ("SingularParameterError",),
           "braid": ("transcription_diagnostics",)}


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"braidphase.{name}")
    assert all(hasattr(module, attr) for attr in module.__all__)


def test_package_exports_resolve():
    assert all(hasattr(braidphase, attr) for attr in braidphase.__all__)


def test_package_root_holds_modules_only():
    # each name has one binding, in its own module, and one export list
    assert sorted(braidphase.__all__) == sorted({*MODULES, "__version__"} - {"cli"})
    public = {name: value for name, value in vars(braidphase).items()
              if not name.startswith("_")}
    assert public and all(isinstance(value, types.ModuleType) for value in public.values())


@pytest.mark.parametrize("path", sorted(
    pathlib.Path(braidphase.__file__).parent.glob("*.py")), ids=lambda path: path.name)
def test_imports_between_modules_are_module_imports(path):
    # "from . import braid", read as braid.name where it is used, so that a
    # patched module attribute reaches every reader
    tree = ast.parse(path.read_text(encoding="utf-8"))
    names = [f"from .{node.module} import {alias.name}" for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and node.level and node.module
             for alias in node.names]
    assert names == []


@pytest.mark.parametrize("name, moved", MOVED_TO_ORACLES.items())
def test_reference_routes_are_not_in_the_package(name, moved):
    module = importlib.import_module(f"braidphase.{name}")
    for attr in moved:
        assert not hasattr(module, attr) and not hasattr(braidphase, attr)


@pytest.mark.parametrize("name, removed", REMOVED.items())
def test_removed_names_are_gone(name, removed):
    module = importlib.import_module(f"braidphase.{name}")
    for attr in removed:
        assert not hasattr(module, attr) and not hasattr(braidphase, attr)
