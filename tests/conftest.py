from contextlib import contextmanager
from itertools import product

import pytest

from rbhopf import GF, QQ, Mat, ShapeError, TermSum, Vec, builtin, kron_index
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


def per_basis(identity, field, dims, residual, *certificate):
    """Test-only reference for `structures._batched`: one basis input at a time.

    The residual chain runs on each basis tensor e_idx of shape `dims`, in
    lexicographic order of idx, with no tag factors: the evaluation the
    checkers did before batching.  The certificate arguments (slot, gens,
    charge) are ignored: evaluating every input is the full check.
    Returns the arguments of `_verdict`.
    """
    def residuals():
        for idx in product(*map(range, dims)):
            yield idx, residual(TermSum.basis(field, dims, idx))

    return identity, residuals(), 0, None


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


def rref(mat: Mat) -> tuple[Mat, tuple[int, ...]]:
    """Test-only reference: dense reduced row echelon form and pivot columns."""
    rows = [list(r) for r in mat.entries]
    nrows, ncols = mat.rows, mat.cols
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, nrows) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = rows[r][c]
        rows[r] = [x / inv for x in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return Mat(mat.field, rows, cols=ncols), tuple(pivots)


def solve_linear(a: Mat, b: Vec):
    """Test-only reference: one exact solution of A x = b with the free
    variables set to zero, or None if the system is inconsistent."""
    if b.dim != a.rows:
        raise ShapeError("right-hand side does not match row count")
    aug = Mat(a.field, tuple(row + (b[i],) for i, row in enumerate(a.entries)),
              cols=a.cols + 1)
    red, pivots = rref(aug)
    if a.cols in pivots:
        return None
    x = [a.field.zero] * a.cols
    for r, c in enumerate(pivots):
        x[c] = red[r, a.cols]
    return Vec(a.field, x)


def nullspace(a: Mat) -> list:
    """Test-only reference: a basis of the exact kernel of A, one vector per
    free column."""
    red, pivots = rref(a)
    zero, one = a.field.zero, a.field.one
    basis = []
    for free in range(a.cols):
        if free in pivots:
            continue
        v = [zero] * a.cols
        v[free] = one
        for r, c in enumerate(pivots):
            v[c] = -red[r, free]
        basis.append(Vec(a.field, v))
    return basis


def dense_counit_solutions(s):
    """Test-only reference for `structures.counit_solutions`: the dense
    2n² x n system, one row per (i, k) for each of (ε⊗id)Δ = id and
    (id⊗ε)Δ = id, solved by `solve_linear` and `nullspace`."""
    n, field = s.dim, s.field
    zero, one = field.zero, field.one
    rows, rhs = [], []
    left, right = {}, {}
    for (i, j, k), v in s.comul.entries.items():
        row = left.setdefault((i, k), [zero] * n)
        row[j] = row[j] + v
        row = right.setdefault((i, j), [zero] * n)
        row[k] = row[k] + v
    for i, k in product(range(n), repeat=2):
        rows.append(left.get((i, k), [zero] * n))
        rhs.append(one if i == k else zero)
        rows.append(right.get((i, k), [zero] * n))
        rhs.append(one if i == k else zero)
    a = Mat(field, rows, cols=n)
    return solve_linear(a, Vec(field, rhs)), nullspace(a)


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
