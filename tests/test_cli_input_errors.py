"""Input errors in `construct`, `search` and `verify` exit 2, not 4.

Every case must exit 2 with nothing on stdout and exactly one `error:`
line on stderr: a `ValueError` the package raises on its input, or an
output path that cannot be written.
"""

import io
from contextlib import redirect_stderr, redirect_stdout

import pytest

from rbhopf import GF, QQ, Mat, builtin
from rbhopf.cli import main
from rbhopf.fileformat import save


def run(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main([str(a) for a in argv])
    return code, out.getvalue(), err.getvalue()


def assert_input_error(argv, message):
    code, out, err = run(*argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err


def test_smash_over_a_coalgebra_without_multiplication(tmp_path):
    assert_input_error(("construct", "smash", "--hopf", "builtin:grouplike:2",
                        "--yd", "adjoint", "-o", tmp_path / "x.rbh"),
                       "structure has no mul")


def test_left_projection_over_a_bialgebra_without_antipode(tmp_path):
    assert_input_error(("construct", "projection-left", "--hopf",
                        "builtin:example54", "--yd", "adjoint",
                        "-o", tmp_path / "x.rbh"),
                       "no antipode")


def test_prelie_with_an_operator_of_the_wrong_shape(tmp_path):
    op = tmp_path / "op4.rbh"
    save(Mat.identity(QQ, 4), op)
    assert_input_error(("construct", "prelie", "--structure", "builtin:group:C2",
                        "--operator", op, "--weight", "0",
                        "-o", tmp_path / "x.rbh"),
                       "operator must be 2 x 2")


@pytest.mark.parametrize("target", ["dir", "missing"])
def test_construct_output_that_cannot_be_written(tmp_path, target):
    path = tmp_path if target == "dir" else tmp_path / "no" / "such" / "x.rbh"
    assert_input_error(("construct", "smash", "--hopf", "builtin:group:C2",
                        "--yd", "adjoint", "-o", path),
                       f"cannot write {path}")
    assert not (tmp_path / "no").exists()


def test_search_out_dir_that_is_a_file(tmp_path):
    path = tmp_path / "taken"
    path.write_text("")
    assert_input_error(("search", "builtin:grouplike:2", "--side", "coalgebra",
                        "--weight", "0", "--field", "Fp:2", "--out-dir", path),
                       f"cannot write {path}")


# Integers in a file are ASCII decimal, as `save` writes them; `int` alone
# would also take other scripts' digits, `_` separators and a `+`.
@pytest.mark.parametrize("field, old, new, lineno", [
    (QQ, "dim 2", "dim ２", 3),                      # fullwidth 2
    (GF(3), "field Fp:3", "field Fp:٣", 2),         # Arabic-Indic 3
    (QQ, "mul 0 0 0 1 1", "mul ٠ 0 0 1 1", 8),      # Arabic-Indic 0
    (QQ, "mul 0 0 0 1 1", "mul 0 0 0 1_0 1_0", 8),
    (QQ, "dim 2", "dim +2", 3),
    (GF(3), "unit 0 1", "unit 0 ７", 5),              # fullwidth 7
], ids=["dim", "field", "index", "scalar-underscore", "dim-plus",
        "residue"])
def test_verify_rejects_integers_that_are_not_ascii_decimal(
        tmp_path, field, old, new, lineno):
    path = tmp_path / "c2.rbh"
    save(builtin("group:C2", field), path)
    text = path.read_text(encoding="utf-8")
    assert text.splitlines()[lineno - 1] == old
    assert run("verify", path)[0] == 0
    path.write_text(text.replace(old + "\n", new + "\n"), encoding="utf-8")
    assert_input_error(("verify", path), f"line {lineno}: ")


@pytest.mark.parametrize("dim", ["٢", "1_0", "+2"])
def test_builtin_grouplike_dimension_is_ascii_decimal(tmp_path, dim):
    assert_input_error(("search", f"builtin:grouplike:{dim}", "--side",
                        "coalgebra", "--weight", "0", "--field", "Fp:2",
                        "--out-dir", tmp_path / "ops"),
                       "not a decimal integer")


@pytest.mark.parametrize("name, message", [
    ("grouplike", "unknown builtin 'grouplike'"),
    ("grouplike:٢", "not a decimal integer"),
    ("grouplike:0", "grouplike dimension must be positive")])
def test_verify_names_a_bad_grouplike_builtin(name, message):
    assert_input_error(("verify", f"builtin:{name}"), message)


@pytest.mark.parametrize("what, source", [
    ("smash", "--yd"), ("projection-right", "--yd"),
    ("projection-right", "--module")])
def test_field_beside_a_file_is_refused(tmp_path, what, source):
    """A file names its own field; `--field` beside one would be ignored."""
    from rbhopf import adjoint_yd, regular_hopf_module
    h = builtin("sweedler4")
    payload = (adjoint_yd(h) if source == "--yd"
               else regular_hopf_module(h, "right"))
    path, out = tmp_path / "in.rbh", tmp_path / "x.rbh"
    save(payload, path, refs={"hopf": "builtin:sweedler4"})
    assert_input_error(("construct", what, source, path, "--field", "Fp:3",
                        "-o", out),
                       "--field applies only to builtin: references")
    assert not out.exists()
