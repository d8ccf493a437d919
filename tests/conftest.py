from contextlib import contextmanager
from itertools import product

import pytest

from rbhopf import (GF, QQ, Mat, ShapeError, TermSum, Vec, builtin, kron_index,
                    rref)
from rbhopf import hopfmod, prelie, rb, structures, ydsmash
from rbhopf.structures import AxiomVerdict, DefectReport

HOPF_FIXTURES = ["group:C2", "group:C3", "group:S3", "sweedler4",
                 "dual-group:C2", "trivial"]


@pytest.fixture(scope="session")
def c2():
    return builtin("group:C2")


@pytest.fixture(scope="session")
def c3():
    return builtin("group:C3")


@pytest.fixture(scope="session")
def s3():
    return builtin("group:S3")


@pytest.fixture(scope="session")
def h4():
    return builtin("sweedler4")


@pytest.fixture(scope="session")
def e54():
    return builtin("example54")


@pytest.fixture(scope="session")
def f2():
    return GF(2)


@pytest.fixture(scope="session")
def f3():
    return GF(3)


def small_fraction_entries(n):
    """Hypothesis strategy for n rational scalars of modest height."""
    from hypothesis import strategies as st
    return st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=4),
                    min_size=n, max_size=n)


def random_mat(field, rows, cols):
    """Hypothesis strategy for a rows x cols matrix over QQ or F_p."""
    from hypothesis import strategies as st
    if field is QQ or field == QQ:
        scal = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    else:
        scal = st.integers(min_value=0, max_value=field.p - 1).map(field.from_int)
    return st.lists(st.lists(scal, min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows).map(lambda e: Mat(field, e))


def random_sparse_mat(field, rows, cols):
    """Hypothesis strategy for a mostly-zero rows x cols matrix over QQ or F_p."""
    from hypothesis import strategies as st
    if field is QQ or field == QQ:
        nonzero = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    else:
        nonzero = st.integers(min_value=1, max_value=field.p - 1).map(field.from_int)
    entry = st.one_of(st.just(field.zero), st.just(field.zero), nonzero)
    return st.lists(st.lists(entry, min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows).map(
                        lambda e: Mat(field, e, cols=cols))


def per_basis(identity, field, dims, residual):
    """Test-only reference for `structures._batched`: one basis input at a time.

    The residual chain runs on each basis tensor e_idx of shape `dims`, in
    lexicographic order of idx, with no tag factors: the evaluation the
    checkers did before batching.  Returns the arguments of `_verdict`.
    """
    def residuals():
        for idx in product(*map(range, dims)):
            yield idx, residual(TermSum.basis(field, dims, idx))

    return identity, residuals(), 0


def verdict_key(v):
    """What two verdicts must share: passed, identity, residual and witness."""
    d = v.defect
    if d is None:
        return (v.passed, None, None, None)
    return (v.passed, d.identity, d.residual, d.witness)


@contextmanager
def patched_batching(replacement):
    """Run every checker with `replacement` in place of `_batched`."""
    mods = (structures, hopfmod, rb, prelie, ydsmash)
    saved = [m._batched for m in mods]
    for m in mods:
        m._batched = replacement
    try:
        yield
    finally:
        for m, orig in zip(mods, saved):
            m._batched = orig


def matrix_verdict(identity, diff):
    """Verdict from a matrix that should be zero, keyed (row, column)."""
    entries = {(i, j): v for i, row in enumerate(diff.entries)
               for j, v in enumerate(row) if v}
    if not entries:
        return AxiomVerdict(True)
    return AxiomVerdict(False, DefectReport(identity, entries, next(iter(entries))))


def dense_bialgebra_map_verdict(f, src, dst):
    """Test-only reference for `check_bialgebra_map`: the dense matrix formulas.

    Each identity is a difference of composites of `f`, its Kronecker square
    `f @ f` and the dense structure matrices; the first nonzero one, scanned
    row by row, is the verdict.
    """
    ff = f @ f
    checks = [
        ("map-multiplicative",
         f * src.mul.mul_matrix() - dst.mul.mul_matrix() * ff),
        ("map-comultiplicative",
         dst.comul.comul_matrix() * f - ff * src.comul.comul_matrix()),
        ("map-unit", f * src.unit.as_column() - dst.unit.as_column()),
        ("map-counit", dst.counit * f - src.counit),
    ]
    for name, diff in checks:
        v = matrix_verdict(name, diff)
        if not v.passed:
            return v
    return AxiomVerdict(True)


def flip_matrix(field, dim_a: int, dim_b: int) -> Mat:
    """Test-only reference: the permutation V_a ⊗ V_b → V_b ⊗ V_a, v⊗w ↦ w⊗v."""
    return Mat.from_terms(field, (dim_a * dim_b,) * 2, {
        (kron_index(j, i, dim_a), kron_index(i, j, dim_b)): 1
        for i in range(dim_a) for j in range(dim_b)})


def column_space_basis(a: Mat) -> list:
    """Test-only reference: the pivot columns of A, a basis of its image."""
    _, pivots = rref(a)
    return [a.col(j) for j in pivots]


def apply_mul(t, v: Vec, w: Vec) -> Vec:
    """Test-only reference: Σ v_i w_j t[i,j,·], the product of two vectors
    through the structure constants of a `Tensor3`."""
    a, b, c = t.dims
    if v.dim != a or w.dim != b:
        raise ShapeError(f"arguments ({v.dim},{w.dim}) do not fit dims {t.dims}")
    out = [t.field.zero] * c
    for (i, j, k), x in t.entries.items():
        out[k] = out[k] + v[i] * w[j] * x
    return Vec(t.field, out)


def apply_comul(t, v: Vec) -> Vec:
    """Test-only reference: Σ v_i t[i,·,·] as a flat vector in V_b ⊗ V_c."""
    a, b, c = t.dims
    if v.dim != a:
        raise ShapeError(f"argument dim {v.dim} does not fit dims {t.dims}")
    out = [t.field.zero] * (b * c)
    for (i, j, k), x in t.entries.items():
        f = kron_index(j, k, c)
        out[f] = out[f] + v[i] * x
    return Vec(t.field, out)
