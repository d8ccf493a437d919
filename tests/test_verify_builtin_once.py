"""`rbhopf verify builtin:<name>` runs each structure axiom once.

`builtin` verifies and caches its fixtures, but `verify` runs the axioms
itself, so it builds the fixture unverified
(`structures._unverified_builtin`).  Its output must be the one it gave
when the fixture was verified first, for every builtin over QQ, F_2 and
F_3, with the default budget and with budgets at the edges of the checks'
charges.
"""

import pytest

from rbhopf import cli, structures
from test_verify_checks import run

BUILTINS = ("dual-group:C2", "example54", "group:C2", "group:C3", "group:S3",
            "grouplike:3", "sweedler4", "trivial")
FIELDS = ((), ("--field", "Fp:2"), ("--field", "Fp:3"))


def test_one_lights_test_per_verify(monkeypatch):
    muls = []
    light_test = structures._light_test

    def counted(mul, charge):
        muls.append(mul)
        return light_test(mul, charge)

    monkeypatch.setattr(structures, "_light_test", counted)
    monkeypatch.setattr(structures, "_builtin_cache", {})
    code, out, _ = run("verify", "builtin:group:S3", "--report", "machine")
    assert code == 0 and "check associativity pass" in out.splitlines()
    assert len(muls) == 1 and muls[0].dims == (6, 6, 6)


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("name", BUILTINS)
def test_output_is_the_verified_fixtures(name, field, monkeypatch):
    dim = structures.builtin(name).dim
    for budget in (cli.VERIFY_BUDGET, dim ** 2, dim ** 2 - 1, dim, dim - 1,
                   3 * dim ** 2):
        monkeypatch.setattr(cli, "VERIFY_BUDGET", budget)
        argv = ("verify", f"builtin:{name}", *field, "--report", "machine")
        got = run(*argv)
        with monkeypatch.context() as m:
            m.setattr(cli, "_unverified_builtin", structures.builtin)
            assert got == run(*argv), budget
