"""The check table of `rbhopf verify` and the axiom list `builtin` shares.

Every `--checks` name is validated against the table before any check
runs, for every document kind `verify` accepts; the default checks of each
kind are pinned; and `builtin` refuses a fixture that fails an axiom.
"""

import io
from contextlib import redirect_stderr, redirect_stdout

import pytest

import rbhopf
from rbhopf import (QQ, AlgebraicStructure, Tensor3, adjoint_yd, builtin,
                    coquasitriangular_form, regular_hopf_module)
from rbhopf import cli, structures
from rbhopf.fileformat import Comodule, save


def run(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def default_checks(ref):
    """The check names a plain `verify` reports, in order."""
    code, out, err = run("verify", ref, "--report", "machine")
    assert code in (0, 1), err
    return [line.split()[1] for line in out.splitlines()
            if line.startswith("check ")]


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """One file of every kind `verify` accepts, keyed by its kind."""
    tmp = tmp_path_factory.mktemp("kinds")
    c2, h4 = builtin("group:C2"), builtin("sweedler4")
    c2_ref, h4_ref = {"hopf": "builtin:group:C2"}, {"hopf": "builtin:sweedler4"}
    module = regular_hopf_module(c2)
    payloads = {
        "algebra": (AlgebraicStructure(2, QQ, mul=c2.mul), None),
        "coalgebra": (AlgebraicStructure(2, QQ, comul=c2.comul), None),
        "bialgebra": (builtin("example54"), None),
        "hopf": (h4, None),
        "module": (module, c2_ref),
        "module-bare": (module.replace(mul=None, comul=None), c2_ref),
        "module-mul": (module.replace(comul=None), c2_ref),
        "module-comul": (module.replace(mul=None), c2_ref),
        "comodule": (Comodule(c2, 2, c2.comul.comul_matrix(), "right"), c2_ref),
        "yd": (adjoint_yd(h4), h4_ref),
        "sigma": (coquasitriangular_form(
            c2, {(0, 0): 1, (0, 1): 1, (1, 0): 1, (1, 1): -1}), c2_ref),
    }
    paths = {}
    for name, (payload, refs) in payloads.items():
        paths[name] = str(tmp / f"{name}.rbh")
        save(payload, paths[name], refs=refs)
    paths["prelie"] = str(tmp / "prelie.rbh")
    (tmp / "prelie.rbh").write_text("rbhopf 1 prelie\nfield Q\ndim 3\n")
    return paths


# Per kind: a check of its own and a known check of another kind.
KINDS = {
    "algebra": ("associativity", "prelie"),
    "coalgebra": ("coassociativity", "hopf-module"),
    "bialgebra": ("bialgebra", "comodule"),
    "hopf": ("antipode", "coquasitriangular"),
    "prelie": ("prelie", "associativity"),
    "module": ("hopf-module", "yd-module"),
    "comodule": ("comodule", "hopf-module-algebra"),
    "yd": ("yd-coalgebra", "coassociativity"),
    "sigma": ("coquasitriangular", "yd-coalgebra"),
}


def refuse_to_run(monkeypatch):
    def ran(report, name, verdict):
        raise AssertionError(f"check {name} ran")
    monkeypatch.setattr(cli.Report, "check", ran)


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_check_names_are_validated_before_any_check_runs(kind, files,
                                                         monkeypatch):
    own, other = KINDS[kind]
    refuse_to_run(monkeypatch)
    for checks, message in (
            ("bogus", "unknown check 'bogus'"),
            (f"{own},bogus", "unknown check 'bogus'"),
            (other, f"check {other!r} does not apply to kind {kind!r}"),
            (f"{own},{other}",
             f"check {other!r} does not apply to kind {kind!r}")):
        assert run("verify", files[kind], "--checks", checks,
                   "--report", "machine") == (2, "", f"error: {message}\n"), \
            checks


def test_a_builtin_is_validated_as_its_kind(monkeypatch):
    refuse_to_run(monkeypatch)
    assert run("verify", "builtin:group:S3", "--checks", "hopf-module") == (
        2, "", "error: check 'hopf-module' does not apply to kind 'hopf'\n")
    assert run("verify", "builtin:group:S3", "--checks", "hopf,bogus") == (
        2, "", "error: unknown check 'bogus'\n")


STRUCTURE_CHECKS = ["associativity", "coassociativity", "unit-counit",
                    "bialgebra", "antipode"]


@pytest.mark.parametrize("name, expected", [
    ("algebra", ["associativity"]),
    ("coalgebra", ["coassociativity"]),
    ("bialgebra", ["associativity", "coassociativity", "unit-counit",
                   "bialgebra"]),
    ("hopf", STRUCTURE_CHECKS),
    ("prelie", ["prelie"]),
    ("module", ["hopf-module", "hopf-module-algebra", "hopf-module-coalgebra"]),
    ("module-bare", ["hopf-module"]),
    ("module-mul", ["hopf-module", "hopf-module-algebra"]),
    ("module-comul", ["hopf-module", "hopf-module-coalgebra"]),
    ("comodule", ["comodule"]),
    ("yd", ["yd-module", "yd-coalgebra"]),
    ("sigma", ["coquasitriangular"]),
])
def test_default_checks_per_kind(name, expected, files):
    assert default_checks(files[name]) == expected


def test_default_checks_of_builtins():
    assert default_checks("builtin:grouplike:3") == ["coassociativity",
                                                     "unit-counit"]
    assert default_checks("builtin:example54") == STRUCTURE_CHECKS[:4]
    assert default_checks("builtin:group:C2") == STRUCTURE_CHECKS


def test_every_checker_is_a_public_callable():
    for name, (kinds, _, checker, _, _) in cli._CHECKS.items():
        assert kinds, name
        assert checker in rbhopf.__all__, name
        assert callable(getattr(rbhopf, checker)), name
    assert [name for name, _, _ in structures._AXIOMS] == STRUCTURE_CHECKS
    assert cli._CHECK_GROUPS["hopf"] == tuple(STRUCTURE_CHECKS)


def test_builtin_refuses_a_fixture_failing_an_axiom(monkeypatch):
    def bad(field):
        s = structures.sweedler_hopf_algebra(field)
        entries = dict(s.mul.items())
        entries[(2, 2, 0)] = field.one    # x·x = 1
        return s.replace(mul=Tensor3(field, (4, 4, 4), entries))

    monkeypatch.setattr(structures, "_BUILTINS",
                        {**structures._BUILTINS, "bad": bad})
    with pytest.raises(AssertionError) as info:
        builtin("bad")
    assert str(info.value) == ("builtin bad fails associativity fails at "
                               "(1, 2, 2, 1) (8 nonzero residual entries)")
    assert ("bad", QQ) not in structures._builtin_cache
