import io
import os
import time
from contextlib import redirect_stderr, redirect_stdout

from rbhopf import QQ, Mat, builtin, example54_p1, example54_q
from rbhopf import cli
from rbhopf.cli import main
from rbhopf.fileformat import load, save
from rbhopf.structures import _generators, cyclic_group_algebra


def run(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def test_verify_builtin_bialgebra():
    code, out, _ = run("verify", "builtin:example54", "--checks", "bialgebra",
                       "--report", "machine")
    assert code == 0
    assert "check bialgebra pass" in out
    assert out.endswith("status pass\n")


def test_verify_builtin_hopf_group():
    code, out, _ = run("verify", "builtin:sweedler4", "--checks", "hopf",
                       "--report", "machine")
    assert code == 0
    for name in ("associativity", "coassociativity", "unit-counit",
                 "bialgebra", "antipode"):
        assert f"check {name} pass" in out


def test_verify_defaults_run_all_applicable():
    code, out, _ = run("verify", "builtin:grouplike:2", "--report", "machine")
    assert code == 0
    assert "check coassociativity pass" in out
    assert "check associativity" not in out


def test_verify_corrupted_file_exit_2(tmp_path):
    bad = tmp_path / "bad.rbh"
    bad.write_text("rbhopf 1 coalgebra\nfield Q\ndim 2\ncomul 0 0 9 1 1\n")
    code, _, err = run("verify", str(bad))
    assert code == 2
    assert "line 4" in err


def test_huge_dense_operator_rejected_before_allocation(tmp_path):
    big = tmp_path / "big.rbh"
    big.write_text("rbhopf 1 operator\nfield Q\nrows 30000\ncols 30000\n"
                   "entry 0 0 1 1\n")
    code, out, err = run("rb-check", "builtin:example54", "--side", "algebra",
                         "--operator", str(big), "--weight", "0")
    assert code == 2 and out == ""
    assert err.count("\n") == 1
    assert err.startswith("error: line 4: dense map of 30000 x 30000")


def test_huge_prime_modulus_in_file_exits_promptly(tmp_path):
    """A hostile file naming the field F_p for p = 2^61 - 1 is decided at once."""
    big = tmp_path / "big.rbh"
    big.write_text("rbhopf 1 operator\nfield Fp:2305843009213693951\n")
    start = time.perf_counter()
    code, _, _ = run("rb-check", "builtin:grouplike:2", "--side", "coalgebra",
                     "--operator", str(big), "--weight", "0")
    assert 0 <= code <= 3
    assert time.perf_counter() - start < 5
    code, _, err = run("verify", "builtin:grouplike:2",
                       "--field", "Fp:3317044064679887385961981")
    assert code == 2 and err.startswith("error")


def test_verify_missing_file_exit_2():
    code, _, err = run("verify", "/does/not/exist.rbh")
    assert code == 2 and "error" in err


def test_verify_unknown_check_exit_2():
    code, _, err = run("verify", "builtin:example54", "--checks", "hopfness")
    assert code == 2


def test_verify_failing_check_exit_1(tmp_path):
    bad = tmp_path / "bad.rbh"
    bad.write_text("rbhopf 1 coalgebra\nfield Q\ndim 2\ncomul 0 0 1 1 1\n")
    code, out, _ = run("verify", str(bad), "--report", "machine")
    assert code == 1
    assert "check coassociativity fail" in out
    assert "defect coassociativity witness" in out
    assert "status fail" in out


def test_verify_operator_file_is_input_error(tmp_path):
    path = tmp_path / "q.rbh"
    save(example54_q(1), path)
    code, _, err = run("verify", str(path))
    assert code == 2


def test_rb_check_example54_family(tmp_path):
    p1 = tmp_path / "p1.rbh"
    q = tmp_path / "q.rbh"
    save(example54_p1(1, 1), p1)
    save(example54_q(1), q)
    code, out, _ = run("rb-check", "builtin:example54", "--side", "bialgebra",
                       "--operator", str(p1), "--operator", str(q),
                       "--weight", "0", "--weight", "1", "--report", "machine")
    assert code == 0
    assert "check rb-algebra pass" in out and "check rb-coalgebra pass" in out


def test_rb_check_p2_family(tmp_path):
    from rbhopf import example54_p2
    p2 = tmp_path / "p2.rbh"
    q = tmp_path / "q.rbh"
    save(example54_p2(1), p2)
    save(example54_q(2), q)
    code, out, _ = run("rb-check", "builtin:example54", "--side", "bialgebra",
                       "--operator", str(p2), "--operator", str(q),
                       "--weight", "1", "--weight", "2", "--report", "machine")
    assert code == 0 and "status pass" in out


def test_rb_check_failure_exit_1(tmp_path):
    q = tmp_path / "q.rbh"
    save(example54_q(3), q)
    code, out, _ = run("rb-check", "builtin:example54", "--side", "coalgebra",
                       "--operator", str(q), "--weight", "0",
                       "--report", "machine")
    assert code == 1
    assert "defect rb-coalgebra witness 0,2,2 entries 2" in out
    assert "defect-entry 0,2,2 9" in out


def test_rb_check_identity_weight(tmp_path):
    eye = tmp_path / "id.rbh"
    from rbhopf import Mat, QQ
    save(Mat.identity(QQ, 3), eye)
    code, out, _ = run("rb-check", "builtin:example54", "--side", "coalgebra",
                       "--operator", str(eye), "--weight=-1",
                       "--report", "machine")
    assert code == 0
    code, out, _ = run("rb-check", "builtin:example54", "--side", "coalgebra",
                       "--operator", str(eye), "--weight", "0")
    assert code == 1


def test_rb_check_on_algebra_file_without_products(tmp_path):
    """A three-line algebra file has the zero multiplication, on which every
    operator is Rota-Baxter."""
    algebra = tmp_path / "zero.rbh"
    algebra.write_text("rbhopf 1 algebra\nfield Q\ndim 2\n")
    op = str(tmp_path / "p.rbh")
    save(Mat(QQ, ((1, 2), (3, 4))), op)
    code, out, _ = run("rb-check", str(algebra), "--side", "algebra",
                       "--operator", op, "--weight", "1", "--report", "machine")
    assert code == 0 and "check rb-algebra pass" in out


def test_rb_check_arity_validation(tmp_path):
    q = tmp_path / "q.rbh"
    save(example54_q(1), q)
    code, _, err = run("rb-check", "builtin:example54", "--side", "bialgebra",
                       "--operator", str(q), "--weight", "1")
    assert code == 2


def test_construct_full_pipeline(tmp_path):
    smash = str(tmp_path / "smash.rbh")
    pr = str(tmp_path / "pr.rbh")
    pl = str(tmp_path / "pl.rbh")
    prelie = str(tmp_path / "prelie.rbh")
    assert run("construct", "smash", "--hopf", "builtin:sweedler4",
               "--yd", "adjoint", "-o", smash)[0] == 0
    assert run("construct", "projection-right", "--hopf", "builtin:sweedler4",
               "--yd", "adjoint", "-o", pr)[0] == 0
    assert run("construct", "projection-left", "--hopf", "builtin:sweedler4",
               "--yd", "adjoint", "-o", pl)[0] == 0
    code, out, _ = run("construct", "prelie", "--structure", smash,
                       "--operator", pr, "--weight=-1", "-o", prelie,
                       "--report", "machine")
    assert code == 0 and "check pre-lie pass" in out
    assert run("verify", prelie)[0] == 0
    # the created operators satisfy the rb-check via the CLI as well
    assert run("rb-check", smash, "--side", "coalgebra", "--operator", pl,
               "--weight=-1")[0] == 0


def test_construct_smash_writes_counital_coalgebra(tmp_path):
    out_path = str(tmp_path / "smash.rbh")
    run("construct", "smash", "--hopf", "builtin:group:C3", "--yd", "adjoint",
        "-o", out_path)
    doc = load(out_path)
    assert doc.kind == "coalgebra"
    assert doc.payload.dim == 9
    assert doc.payload.counit is not None


def test_construct_pi_operator(tmp_path):
    pi = str(tmp_path / "pi.rbh")
    hh = str(tmp_path / "hh.rbh")
    code, out, _ = run("construct", "pi-operator", "--hopf", "builtin:group:C2",
                       "-o", pi, "--structure-out", hh, "--report", "machine")
    assert code == 0
    assert "check convolution-matches-projection pass" in out
    assert run("rb-check", hh, "--side", "bialgebra", "--operator", pi,
               "--operator", pi, "--weight=-1", "--weight=-1")[0] == 0


def test_construct_projection_matches_closed_form(tmp_path):
    out_path = str(tmp_path / "pr.rbh")
    code, _, _ = run("construct", "projection-right", "--hopf",
                     "builtin:group:C2", "--yd", "adjoint", "-o", out_path)
    assert code == 0
    from rbhopf import adjoint_yd, projection_right_closed_form
    expected = projection_right_closed_form(adjoint_yd(builtin("group:C2")))
    assert load(out_path).payload == expected


def test_construct_projection_from_module_file(tmp_path):
    from rbhopf import regular_hopf_module
    hm = regular_hopf_module(builtin("sweedler4"))
    mod = tmp_path / "m.rbh"
    save(hm, mod, refs={"hopf": "builtin:sweedler4"})
    out_path = str(tmp_path / "p.rbh")
    code, out, _ = run("construct", "projection-right", "--module", str(mod),
                       "-o", out_path, "--report", "machine")
    assert code == 0
    doc = load(out_path)
    h4 = builtin("sweedler4")
    assert doc.payload == h4.unit.as_column() * h4.counit


def test_construct_from_yd_file(tmp_path):
    """`--yd <file>` gives what `--yd adjoint` gives for the same YD
    coalgebra; a YD file stores no coalgebra names, so the smash file
    differs only by its `names` line."""
    from rbhopf import adjoint_yd
    yd = tmp_path / "yd.rbh"
    save(adjoint_yd(builtin("sweedler4")), yd, refs={"hopf": "builtin:sweedler4"})
    for what in ("projection-right", "projection-left", "smash"):
        from_file, adjoint = tmp_path / f"{what}-f.rbh", tmp_path / f"{what}-a.rbh"
        assert run("construct", what, "--yd", str(yd), "-o", str(from_file))[0] == 0
        assert run("construct", what, "--hopf", "builtin:sweedler4",
                   "--yd", "adjoint", "-o", str(adjoint))[0] == 0
        if what == "smash":
            got, want = load(from_file).payload, load(adjoint).payload
            assert got.comul == want.comul and got.names is None
            assert got == want.replace(names=None)
        else:
            assert from_file.read_bytes() == adjoint.read_bytes()
    alg = tmp_path / "alg.rbh"
    save(builtin("group:C2"), alg)
    code, _, err = run("construct", "smash", "--yd", str(alg),
                       "-o", str(tmp_path / "x.rbh"))
    assert code == 2 and "not a yd structure" in err


def test_construct_prelie_rejects_other_weights(tmp_path):
    q = tmp_path / "q.rbh"
    save(example54_q(3), q)
    code, _, err = run("construct", "prelie", "--structure",
                       "builtin:example54", "--operator", str(q),
                       "--weight", "3", "-o", str(tmp_path / "x.rbh"))
    assert code == 2


def test_search_writes_and_reverifies(tmp_path):
    out_dir = str(tmp_path / "ops")
    code, out, _ = run("search", "builtin:grouplike:2", "--field", "Fp:2",
                       "--side", "coalgebra", "--weight", "1",
                       "--out-dir", out_dir, "--report", "machine")
    assert code == 0
    assert "scanned 16" in out and "found 12" in out
    assert "check reload-and-reverify pass" in out
    files = sorted(os.listdir(out_dir))
    assert len(files) == 12 and files[0] == "op_0000.rbh"
    assert load(os.path.join(out_dir, files[0])).payload.is_zero()


def test_search_dim1_via_cli(tmp_path):
    out_dir = str(tmp_path / "ops")
    code, out, _ = run("search", "builtin:grouplike:1", "--field", "Fp:2",
                       "--side", "coalgebra", "--weight", "1",
                       "--out-dir", out_dir, "--report", "machine")
    assert code == 0
    assert "scanned 2" in out and "found 2" in out  # the zero map and id


def test_search_budget_exit_3():
    code, _, err = run("search", "builtin:grouplike:2", "--field", "Fp:3",
                       "--side", "coalgebra", "--weight", "0", "--budget", "8")
    assert code == 3


def hostile(tmp_path, dim):
    """A 4-line algebra file of dimension `dim` with a single product."""
    path = tmp_path / f"big{dim}.rbh"
    path.write_text(f"rbhopf 1 algebra\nfield Q\ndim {dim}\nmul 0 0 0 1 1\n")
    return str(path)


def test_verify_budget_bounds_hostile_structure(tmp_path):
    """With one product the associativity generating set is the whole basis,
    so even Light's test needs dim³ basis triples; past the budget verify
    refuses at once."""
    start = time.perf_counter()
    code, out, err = run("verify", hostile(tmp_path, 3000), "--report", "machine")
    assert time.perf_counter() - start < 2
    assert code == 3 and out == ""
    assert err.startswith("error: associativity on dim 3000")
    assert err.count("\n") == 1


def test_verify_huge_dim_unit_is_stored_sparse(tmp_path):
    """The unit of a five-line file of dim 3,000,000 loads as one entry, and
    verify refuses the structure by its budget."""
    path = tmp_path / "unit.rbh"
    path.write_text("rbhopf 1 algebra\nfield Q\ndim 3000000\nunit 0 1 1\n"
                    "mul 0 0 0 1 1\n")
    assert len(load(str(path)).payload.unit.terms) == 1
    code, out, _ = run("verify", str(path), "--report", "machine")
    assert code == 3 and out == ""


def test_verify_budget_boundary_dimension(tmp_path):
    # dim 99 charges 99³ triples plus 19,208 closure inputs, dim 100 charges
    # 100³ plus its closure.
    assert 99 ** 3 + 2 * 99 ** 2 <= cli.VERIFY_BUDGET <= 100 ** 3
    start = time.perf_counter()
    assert run("verify", hostile(tmp_path, 99))[0] == 0
    assert time.perf_counter() - start < 10
    start = time.perf_counter()
    assert run("verify", hostile(tmp_path, 100))[0] == 3
    assert time.perf_counter() - start < 2


def test_verify_budget_charges_light_test_work(tmp_path):
    """A cyclic group algebra has G = {e, g}: 2·n² triples, not n³."""
    n = 101
    assert n ** 3 > cli.VERIFY_BUDGET
    path = str(tmp_path / "cyclic.rbh")
    save(cyclic_group_algebra(QQ, n), path)
    code, out, _ = run("verify", path, "--report", "machine")
    assert code == 0 and "check associativity pass" in out


def test_verify_budget_edges_per_check(monkeypatch):
    # sweedler4 has dim 4: bialgebra charges 16 inputs, antipode 4, and
    # associativity what Light's test schedules for it.
    charges = []
    _generators(builtin("sweedler4"), charges.append)
    for budget, checks, code in ((sum(charges), "associativity", 0),
                                 (sum(charges) - 1, "associativity", 3),
                                 (16, "bialgebra,antipode", 0),
                                 (15, "bialgebra", 3),
                                 (4, "coassociativity,unit-counit,antipode", 0),
                                 (3, "antipode", 3)):
        monkeypatch.setattr(cli, "VERIFY_BUDGET", budget)
        assert run("verify", "builtin:sweedler4", "--checks", checks)[0] == code


def test_verify_budget_bounds_module_checks(tmp_path):
    """A one-dimensional module over a dim-3000 bialgebra: module
    associativity alone is 3000² basis inputs, refused before it runs."""
    (tmp_path / "big.rbh").write_text(
        "rbhopf 1 bialgebra\nfield Q\ndim 3000\n"
        "mul 0 0 0 1 1\ncomul 0 0 0 1 1\n")
    path = tmp_path / "m.rbh"
    path.write_text("rbhopf 1 module\nfield Q\nside right\nhopf big.rbh\n"
                    "mdim 1\n")
    start = time.perf_counter()
    code, out, err = run("verify", str(path), "--report", "machine")
    assert time.perf_counter() - start < 1
    assert code == 3 and out == ""
    assert err == f"error: hopf-module needs 9000000 basis inputs, more than " \
                  f"{cli.VERIFY_BUDGET}\n"


def test_verify_budget_edges_per_named_check(tmp_path, monkeypatch):
    from rbhopf import (adjoint_yd, coquasitriangular_form,
                        hopf_module_from_projection, tensor_square_projection)
    from rbhopf.fileformat import Comodule
    c2 = builtin("group:C2")
    ref = {"hopf": "builtin:group:C2"}
    payloads = {
        # m = 4 over h = 2: m·h² = 16, and m²·h = 32 for the module algebra.
        "module": hopf_module_from_projection(tensor_square_projection(c2)),
        "comodule": Comodule(c2, 2, c2.comul.comul_matrix(), "right"),
        "yd": adjoint_yd(c2),
        "sigma": coquasitriangular_form(
            c2, {(0, 0): 1, (0, 1): 1, (1, 0): 1, (1, 1): -1}),
    }
    paths = {kind: str(tmp_path / f"{kind}.rbh") for kind in payloads}
    for kind, payload in payloads.items():
        save(payload, paths[kind], kind=kind, refs=ref)
    paths["prelie"] = str(tmp_path / "prelie.rbh")
    (tmp_path / "prelie.rbh").write_text("rbhopf 1 prelie\nfield Q\ndim 3\n")
    for kind, check, charge in (("module", "hopf-module", 16),
                                ("module", "hopf-module-algebra", 32),
                                ("module", "hopf-module-coalgebra", 16),
                                ("comodule", "comodule", 2),
                                ("yd", "yd-module", 8),
                                ("yd", "yd-coalgebra", 8),
                                ("sigma", "coquasitriangular", 8),
                                ("prelie", "prelie", 3)):
        for budget, code in ((charge, 0), (charge - 1, 3)):
            monkeypatch.setattr(cli, "VERIFY_BUDGET", budget)
            assert run("verify", paths[kind], "--checks", check)[0] == code, \
                (check, budget)


def test_search_rejects_rationals():
    code, _, err = run("search", "builtin:grouplike:2", "--side", "coalgebra",
                       "--weight", "1")
    assert code == 2


def test_field_flag_only_for_builtins(tmp_path):
    path = tmp_path / "s.rbh"
    save(builtin("group:C2"), path)
    code, _, err = run("verify", str(path), "--field", "Fp:2")
    assert code == 2


def test_verify_module_file_defaults(tmp_path):
    from rbhopf import regular_hopf_module
    hm = regular_hopf_module(builtin("group:C2"))
    mod = tmp_path / "m.rbh"
    save(hm, mod, refs={"hopf": "builtin:group:C2"})
    code, out, _ = run("verify", str(mod), "--report", "machine")
    assert code == 0
    for name in ("hopf-module", "hopf-module-algebra", "hopf-module-coalgebra"):
        assert f"check {name} pass" in out


def test_machine_report_deterministic():
    a = run("verify", "builtin:sweedler4", "--report", "machine")
    b = run("verify", "builtin:sweedler4", "--report", "machine")
    assert a == b


def test_human_report_has_status_line():
    code, out, _ = run("verify", "builtin:group:C2")
    assert code == 0
    assert "[PASS]" in out and "OK (" in out


def test_usage_error_exit_2():
    assert run("verify")[0] == 2
    assert run("frobnicate")[0] == 2


def test_builtin_list_modes():
    code, out, _ = run("builtin-list", "--report", "machine")
    assert code == 0
    assert "builtin sweedler4 hopf 4" in out
    assert "builtin-family grouplike:<n> coalgebra" in out


def test_internal_error_exit_4(monkeypatch):
    import rbhopf.cli as cli

    def boom():
        raise RuntimeError("structure table corrupted")

    monkeypatch.setattr(cli, "builtin_names", boom)
    code, out, err = run("builtin-list", "--report", "machine")
    assert code == 4
    assert out == ""
    assert err == "internal error: RuntimeError: structure table corrupted\n"
