"""The lazily loaded package: its public names and what each command imports.

`rbhopf/__init__.py` resolves public names on first access, and the CLI
imports inside each command only the modules that command needs.  The
import checks run in fresh interpreters and compare `sys.modules` before
and after; they measure no time.
"""

import ast
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import rbhopf

ROOT = Path(__file__).resolve().parent.parent

# Every name the package exported when its `__init__` imported all modules,
# less the test-only helpers that now live in `conftest.py`.
PINNED = [
    "AlgebraicStructure", "AxiomVerdict", "BudgetExceededError",
    "CoquasitriangularForm", "DefectReport", "FieldMismatchError",
    "FormatError", "Fp", "GF", "HopfModule", "Mat", "PreLieCoalgebra",
    "PreconditionError", "PrimeField", "ProjectionBialgebra", "QQ",
    "RBBialgebraVerdict", "RBVerdict", "Rationals", "SearchResult",
    "ShapeError", "Tensor3", "TermSum", "Vec", "YDModuleCoalgebra",
    "adjoint_yd", "builtin", "builtin_names", "check_antipode",
    "check_associativity", "check_bialgebra", "check_bialgebra_map",
    "check_coassociativity", "check_comodule", "check_coquasitriangular",
    "check_hopf_module", "check_hopf_module_algebra",
    "check_hopf_module_coalgebra", "check_module", "check_pre_lie",
    "check_rb_algebra", "check_rb_bialgebra", "check_rb_coalgebra",
    "check_unit_counit", "check_yd_coalgebra", "check_yd_module",
    "coinvariant_projection", "convolution",
    "coquasitriangular_form", "counit_solutions", "example54_p1",
    "example54_p2", "example54_q", "field_from_name", "find_bialgebra_counit",
    "group_algebra", "hopf_module_from_projection",
    "kron_index", "pi_operator", "prelie_from_rb_minus1",
    "prelie_from_rb_zero", "projection_bialgebra",
    "projection_left_closed_form", "projection_left_sigma_form",
    "projection_right_closed_form", "regular_hopf_module",
    "search_rb_operators", "smash_coproduct", "smash_hopf_module_left",
    "smash_hopf_module_right", "tensor_product",
    "tensor_square_projection", "trivial_yd", "twisted_comul",
    "verify_projection_rb", "yd_action_from_form",
    "yd_from_comodule_coalgebra",
]
LAYERS = ("errors", "fields", "linalg", "tensorops", "structures", "rb",
          "hopfmod", "ydsmash", "prelie", "fileformat", "cli")


def test_all_is_the_pinned_list():
    assert sorted(rbhopf.__all__) == PINNED


@pytest.mark.parametrize("name", PINNED)
def test_public_name_resolves_to_its_definition(name):
    obj = getattr(rbhopf, name)
    home = sys.modules[obj.__module__]
    assert home.__name__.startswith("rbhopf.")
    assert getattr(home, name) is obj


def test_star_import_and_dir_list_every_name():
    namespace: dict = {}
    exec("from rbhopf import *", namespace)
    assert set(PINNED) <= set(namespace)
    assert set(PINNED) <= set(dir(rbhopf))
    assert set(LAYERS) <= set(dir(rbhopf))


@pytest.mark.parametrize("layer", LAYERS)
def test_submodules_are_reachable(layer):
    mod = getattr(rbhopf, layer)
    assert isinstance(mod, types.ModuleType)
    assert mod is sys.modules[f"rbhopf.{layer}"]


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        rbhopf.no_such_name  # noqa: B018
    assert not hasattr(rbhopf, "dataclass")
    with pytest.raises(ImportError):
        exec("from rbhopf import no_such_name", {})


def imported_but_unused(source: str) -> list:
    """The names a module's `import` statements bind that no expression in
    the module reads, `from __future__` imports aside."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items()
                  if name not in read)


def test_imported_but_unused_finds_a_stale_import():
    assert imported_but_unused(
        "from __future__ import annotations\n"
        "import os.path\nfrom itertools import islice, product as prod\n"
        "os.getcwd(islice)\n") == [(3, "prod")]


@pytest.mark.parametrize("path", sorted((ROOT / "src" / "rbhopf").glob("*.py")),
                         ids=lambda p: p.name)
def test_no_module_imports_a_name_it_never_uses(path):
    assert imported_but_unused(path.read_text(encoding="utf-8")) == []


def modules_added(code: str) -> set:
    """The `rbhopf` and stdlib modules a fresh interpreter adds running `code`.

    `code` runs after the snapshot of `sys.modules`; its stdout is discarded.
    """
    script = (
        "import contextlib, io, json, sys\n"
        "before = set(sys.modules)\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        + "".join(f"    {line}\n" for line in code.splitlines())
        + "json.dump(sorted(set(sys.modules) - before), sys.stderr)\n")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", script], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stderr))


def test_import_package_loads_no_submodule():
    added = modules_added("import rbhopf")
    assert not {m for m in added if m.startswith("rbhopf.")}
    added = modules_added("import rbhopf\nrbhopf.GF(2)")
    assert {m for m in added if m.startswith("rbhopf.")} == {
        "rbhopf.errors", "rbhopf.fields"}


def test_cli_import_needs_neither_dataclasses_nor_inspect():
    added = modules_added("import rbhopf.cli")
    assert "rbhopf.cli" in added
    assert not {"dataclasses", "inspect"} & added


def test_verify_builtin_loads_no_construction_module():
    added = modules_added(
        "from rbhopf import cli\n"
        "assert cli.main(['verify', 'builtin:sweedler4', '--report', "
        "'machine']) == 0")
    assert "rbhopf.structures" in added
    assert not {"rbhopf.rb", "rbhopf.hopfmod", "rbhopf.ydsmash",
                "rbhopf.prelie", "dataclasses", "inspect"} & added


def test_search_loads_only_the_rb_layer(tmp_path):
    added = modules_added(
        "from rbhopf import cli\n"
        "assert cli.main(['search', 'builtin:grouplike:2', '--field', 'Fp:2', "
        "'--side', 'coalgebra', '--weight', '1', '--out-dir', "
        f"{str(tmp_path / 'ops')!r}, '--report', 'machine']) == 0")
    assert "rbhopf.rb" in added
    assert not {"rbhopf.hopfmod", "rbhopf.ydsmash", "rbhopf.prelie"} & added
    assert len(list((tmp_path / "ops").iterdir())) == 12
