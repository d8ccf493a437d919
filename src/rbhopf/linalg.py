"""Exact dense matrices, vectors, and sparse rank-3 structure tensors.

Tensor products follow one global basis convention: e_i ⊗ e_j of V ⊗ W sits
at flat index i*dim(W) + j (left factor major).  `kron_index` is the only
place this is spelled out; every other tensor computation goes through it.

On `Mat`, `*` is composition (matrix product) and `@` is the Kronecker
product, so (f⊗g)∘(h⊗k) = (f∘h)⊗(g∘k) reads (f @ g) * (h @ k) == (f * h) @ (g * k).

`Mat`, `Vec` and `Tensor3` are immutable (`Tensor3.entries` is a read-only
mapping), so copying one gives the object itself, as for a tuple.  `Mat` and
`Tensor3` each keep one cache slot, `_fans`, which only the rewrite engine
fills (`tensorops._reading`): a map's sparse fan-out, read once from the
rows of a `Mat` or from `Tensor3.entries`.
The public constructors validate shapes and coerce every scalar;
`Mat._trusted` and `Tensor3._trusted` are internal constructors for results
built from entries that are already field elements of a known shape (matrix
products, maps built by rewrites in `tensorops._matrix_of`, the structure
constants of a tensor product), and skip both.
"""

from __future__ import annotations

from types import MappingProxyType

from .errors import FieldMismatchError, ShapeError


def kron_index(i: int, j: int, dim_j: int) -> int:
    """Flat index of e_i ⊗ e_j when the right factor has dimension dim_j."""
    if not 0 <= j < dim_j or i < 0:
        raise ShapeError(f"tensor index ({i},{j}) out of range for dim {dim_j}")
    return i * dim_j + j


def unkron_index(flat: int, dim_j: int) -> tuple[int, int]:
    """Inverse of `kron_index`."""
    return divmod(flat, dim_j)


def flatten_index(idx: tuple[int, ...], dims: tuple[int, ...]) -> int:
    """Flat index of e_{i1}⊗...⊗e_{ik} in V_{d1}⊗...⊗V_{dk}."""
    flat = 0
    for i, d in zip(idx, dims):
        if not 0 <= i < d:
            raise ShapeError(f"index {idx} out of range for dims {dims}")
        flat = flat * d + i
    return flat


def _check_same_field(a, b):
    if a.field != b.field:
        raise FieldMismatchError(f"mixed fields {a.field!r} and {b.field!r}")


class _Immutable:
    """Refuses attribute assignment; a copy is the object itself.

    Pickling rebuilds an object through its public constructor, called with
    the attributes `_init_args` names (a read-only mapping as a plain dict).
    """

    __slots__ = ()
    _init_args: tuple[str, ...] = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):
        args = (getattr(self, a) for a in self._init_args)
        return type(self), tuple(dict(v) if isinstance(v, MappingProxyType)
                                 else v for v in args)

    def __copy__(self):
        return self

    def __deepcopy__(self, memo):
        return self


class Vec(_Immutable):
    """Immutable vector of exact scalars over one field."""

    __slots__ = ("field", "entries")
    _init_args = ("field", "entries")

    def __init__(self, field, entries):
        coerce = field.coerce
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "entries", tuple(coerce(x) for x in entries))

    @classmethod
    def zero(cls, field, dim: int) -> "Vec":
        return cls(field, (field.zero,) * dim)

    @classmethod
    def basis(cls, field, dim: int, i: int) -> "Vec":
        if not 0 <= i < dim:
            raise ShapeError(f"basis index {i} out of range for dim {dim}")
        return cls(field, tuple(field.one if j == i else field.zero
                                for j in range(dim)))

    @property
    def dim(self) -> int:
        return len(self.entries)

    def __len__(self):
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def __getitem__(self, i):
        return self.entries[i]

    def __add__(self, other: "Vec") -> "Vec":
        _check_same_field(self, other)
        if len(other) != len(self):
            raise ShapeError(f"vector dims {len(self)} vs {len(other)}")
        return Vec(self.field, (a + b for a, b in zip(self.entries, other.entries)))

    def __sub__(self, other: "Vec") -> "Vec":
        return self + (-other)

    def __neg__(self) -> "Vec":
        return Vec(self.field, (-a for a in self.entries))

    def scale(self, scalar) -> "Vec":
        s = self.field.coerce(scalar)
        return Vec(self.field, (s * a for a in self.entries))

    __rmul__ = scale

    def tensor(self, other: "Vec") -> "Vec":
        """v ⊗ w as a flat vector under the `kron_index` convention."""
        _check_same_field(self, other)
        return Vec(self.field, (a * b for a in self.entries for b in other.entries))

    def is_zero(self) -> bool:
        return not any(self.entries)

    def as_column(self) -> "Mat":
        return Mat(self.field, tuple((a,) for a in self.entries))

    def as_row(self) -> "Mat":
        return Mat(self.field, (self.entries,))

    def __eq__(self, other):
        if not isinstance(other, Vec):
            return NotImplemented
        return self.field == other.field and self.entries == other.entries

    def __hash__(self):
        return hash((self.field, self.entries))

    def __repr__(self):
        return f"Vec({self.field!r}, [{', '.join(map(str, self.entries))}])"


class Mat(_Immutable):
    """Immutable dense matrix of exact scalars.

    Matrices act on column vectors from the left, so column j is the image
    of the j-th basis vector.
    """

    __slots__ = ("field", "entries", "rows", "cols", "_fans")
    _init_args = ("field", "entries", "cols")

    def __init__(self, field, rows_of_entries, cols: int | None = None):
        coerce = field.coerce
        rows = tuple(tuple(coerce(x) for x in row) for row in rows_of_entries)
        if rows:
            ncols = len(rows[0])
            if any(len(r) != ncols for r in rows):
                raise ShapeError("ragged rows in matrix")
        else:
            ncols = 0 if cols is None else cols
        self._set_state(field, rows, ncols)

    def _set_state(self, field, rows: tuple, ncols: int):
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "entries", rows)
        object.__setattr__(self, "rows", len(rows))
        object.__setattr__(self, "cols", ncols)
        object.__setattr__(self, "_fans", None)

    @classmethod
    def _trusted(cls, field, rows: tuple, ncols: int) -> "Mat":
        """Internal: wrap a tuple of `ncols`-tuples of field elements as is.

        No scalar is coerced and no shape is checked; callers guarantee both.
        """
        m = object.__new__(cls)
        m._set_state(field, rows, ncols)
        return m

    @classmethod
    def identity(cls, field, n: int) -> "Mat":
        one, zero = field.one, field.zero
        return cls(field, tuple(tuple(one if i == j else zero for j in range(n))
                                for i in range(n)))

    @classmethod
    def zeros(cls, field, rows: int, cols: int) -> "Mat":
        zero = field.zero
        return cls(field, tuple((zero,) * cols for _ in range(rows)), cols=cols)

    @classmethod
    def from_function(cls, field, rows: int, cols: int, fn) -> "Mat":
        return cls(field, tuple(tuple(fn(i, j) for j in range(cols))
                                for i in range(rows)), cols=cols)

    @classmethod
    def from_columns(cls, field, columns, rows: int | None = None) -> "Mat":
        columns = list(columns)
        if not columns:
            if rows is None:
                raise ShapeError("cannot infer row count of empty matrix")
            return cls.zeros(field, rows, 0)
        n = len(columns[0])
        if any(len(c) != n for c in columns):
            raise ShapeError("ragged columns in matrix")
        return cls(field, tuple(tuple(c[i] for c in columns) for i in range(n)))

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def row(self, i: int) -> Vec:
        return Vec(self.field, self.entries[i])

    def col(self, j: int) -> Vec:
        return Vec(self.field, (r[j] for r in self.entries))

    def columns(self):
        return [self.col(j) for j in range(self.cols)]

    def __mul__(self, other):
        if isinstance(other, Mat):
            _check_same_field(self, other)
            if self.cols != other.rows:
                raise ShapeError(
                    f"cannot compose {self.rows}x{self.cols} with "
                    f"{other.rows}x{other.cols}")
            zero = self.field.zero
            ncols = other.cols
            sparse_rows = [[(j, b) for j, b in enumerate(row) if b]
                           for row in other.entries]
            out = []
            for arow in self.entries:
                orow = [None] * ncols
                for k, a in enumerate(arow):
                    if not a:
                        continue
                    for j, b in sparse_rows[k]:
                        prev = orow[j]
                        orow[j] = a * b if prev is None else prev + a * b
                out.append(tuple(zero if x is None else x for x in orow))
            return Mat._trusted(self.field, tuple(out), ncols)
        if isinstance(other, Vec):
            return self.apply(other)
        s = self.field.coerce(other)
        return self.scale(s)

    def __rmul__(self, other):
        return self.scale(self.field.coerce(other))

    def scale(self, scalar) -> "Mat":
        s = self.field.coerce(scalar)
        return Mat(self.field, tuple(tuple(s * a for a in row)
                                     for row in self.entries), cols=self.cols)

    def apply(self, v: Vec) -> Vec:
        _check_same_field(self, v)
        if v.dim != self.cols:
            raise ShapeError(f"cannot apply {self.rows}x{self.cols} to dim {v.dim}")
        zero = self.field.zero
        out = [zero] * self.rows
        for j, x in enumerate(v.entries):
            if not x:
                continue
            for i, row in enumerate(self.entries):
                a = row[j]
                if a:
                    out[i] = out[i] + a * x
        return Vec(self.field, out)

    def __matmul__(self, other: "Mat") -> "Mat":
        """Kronecker product, consistent with `kron_index`."""
        if not isinstance(other, Mat):
            return NotImplemented
        _check_same_field(self, other)
        zero = self.field.zero
        r1, c1, r2, c2 = self.rows, self.cols, other.rows, other.cols
        out = [[zero] * (c1 * c2) for _ in range(r1 * r2)]
        for i1, row1 in enumerate(self.entries):
            for j1, a in enumerate(row1):
                if not a:
                    continue
                for i2, row2 in enumerate(other.entries):
                    orow = out[i1 * r2 + i2]
                    base = j1 * c2
                    for j2, b in enumerate(row2):
                        if b:
                            orow[base + j2] = a * b
        return Mat(self.field, out, cols=c1 * c2)

    def __add__(self, other: "Mat") -> "Mat":
        _check_same_field(self, other)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ShapeError("matrix shapes differ")
        return Mat(self.field,
                   tuple(tuple(a + b for a, b in zip(r1, r2))
                         for r1, r2 in zip(self.entries, other.entries)),
                   cols=self.cols)

    def __sub__(self, other: "Mat") -> "Mat":
        return self + (-other)

    def __neg__(self) -> "Mat":
        return Mat(self.field, tuple(tuple(-a for a in row)
                                     for row in self.entries), cols=self.cols)

    @property
    def T(self) -> "Mat":
        return Mat(self.field, tuple(zip(*self.entries)) if self.entries
                   else (), cols=self.rows)

    def is_zero(self) -> bool:
        return not any(any(row) for row in self.entries)

    def __eq__(self, other):
        if not isinstance(other, Mat):
            return NotImplemented
        return (self.field == other.field
                and (self.rows, self.cols) == (other.rows, other.cols)
                and self.entries == other.entries)

    def __hash__(self):
        return hash((self.field, self.cols, self.entries))

    def __repr__(self):
        return f"Mat({self.rows}x{self.cols} over {self.field!r})"

    def __str__(self):
        fmt = self.field.format
        widths = [max((len(fmt(self.entries[i][j])) for i in range(self.rows)),
                      default=1)
                  for j in range(self.cols)]
        lines = ["[" + "  ".join(fmt(a).rjust(w) for a, w in zip(row, widths)) + "]"
                 for row in self.entries]
        return "\n".join(lines) if lines else "[]"


def flip_matrix(field, dim_a: int, dim_b: int) -> Mat:
    """The permutation V_a ⊗ V_b → V_b ⊗ V_a, v⊗w ↦ w⊗v."""
    zero, one = field.zero, field.one
    n = dim_a * dim_b
    out = [[zero] * n for _ in range(n)]
    for i in range(dim_a):
        for j in range(dim_b):
            out[kron_index(j, i, dim_a)][kron_index(i, j, dim_b)] = one
    return Mat(field, out, cols=n)


class Tensor3(_Immutable):
    """Immutable sparse rank-3 tensor of exact scalars.

    Holds multiplication tables, e_i e_j = Σ_k t[i,j,k] e_k (dims (n,n,n)),
    comultiplication tables, Δ(e_i) = Σ_{j,k} t[i,j,k] e_j⊗e_k, and the
    residuals of failed identities.  Only nonzero entries are stored.
    """

    __slots__ = ("field", "dims", "entries", "_fans")
    _init_args = ("field", "dims", "entries")

    def __init__(self, field, dims: tuple[int, int, int], entries):
        a, b, c = dims
        clean = {}
        coerce = field.coerce
        for (i, j, k), v in dict(entries).items():
            if not (0 <= i < a and 0 <= j < b and 0 <= k < c):
                raise ShapeError(f"index ({i},{j},{k}) out of range for {dims}")
            v = coerce(v)
            if v:
                clean[(i, j, k)] = v
        self._set_state(field, (a, b, c), clean)

    def _set_state(self, field, dims: tuple, entries: dict):
        set_ = object.__setattr__
        set_(self, "field", field)
        set_(self, "dims", dims)
        set_(self, "entries", MappingProxyType(entries))
        set_(self, "_fans", None)

    @classmethod
    def _trusted(cls, field, dims: tuple, entries: dict) -> "Tensor3":
        """Internal: wrap {(i, j, k): nonzero field element} as is.

        No key is range-checked and no scalar coerced; callers guarantee both.
        """
        t = object.__new__(cls)
        t._set_state(field, tuple(dims), entries)
        return t

    @classmethod
    def zero(cls, field, dims) -> "Tensor3":
        return cls(field, dims, {})

    def __getitem__(self, ijk):
        return self.entries.get(ijk, self.field.zero)

    def items(self):
        return sorted(self.entries.items())

    def is_zero(self) -> bool:
        return not self.entries

    def __eq__(self, other):
        if not isinstance(other, Tensor3):
            return NotImplemented
        return (self.field == other.field and self.dims == other.dims
                and self.entries == other.entries)

    def __hash__(self):
        return hash((self.field, self.dims, tuple(self.items())))

    def __repr__(self):
        return f"Tensor3(dims={self.dims}, nnz={len(self.entries)})"

    def mul_matrix(self) -> Mat:
        """The map V_a ⊗ V_b → V_c as a dense c × (a·b) matrix."""
        a, b, c = self.dims
        zero = self.field.zero
        out = [[zero] * (a * b) for _ in range(c)]
        for (i, j, k), v in self.entries.items():
            out[k][kron_index(i, j, b)] = v
        return Mat(self.field, out, cols=a * b)

    def comul_matrix(self) -> Mat:
        """The map V_a → V_b ⊗ V_c as a dense (b·c) × a matrix."""
        a, b, c = self.dims
        zero = self.field.zero
        out = [[zero] * a for _ in range(b * c)]
        for (i, j, k), v in self.entries.items():
            out[kron_index(j, k, c)][i] = v
        return Mat(self.field, out, cols=a)

    def apply_mul(self, v: Vec, w: Vec) -> Vec:
        """Σ v_i w_j t[i,j,·], the bilinear product of two vectors."""
        a, b, c = self.dims
        if v.dim != a or w.dim != b:
            raise ShapeError(f"arguments ({v.dim},{w.dim}) do not fit dims {self.dims}")
        _check_same_field(self, v)
        _check_same_field(self, w)
        zero = self.field.zero
        out = [zero] * c
        for (i, j, k), t in self.entries.items():
            s = v.entries[i] * w.entries[j]
            if s:
                out[k] = out[k] + s * t
        return Vec(self.field, out)

    def apply_comul(self, v: Vec) -> Vec:
        """Σ v_i t[i,·,·] as a flat vector in V_b ⊗ V_c."""
        a, b, c = self.dims
        if v.dim != a:
            raise ShapeError(f"argument dim {v.dim} does not fit dims {self.dims}")
        _check_same_field(self, v)
        zero = self.field.zero
        out = [zero] * (b * c)
        for (i, j, k), t in self.entries.items():
            s = v.entries[i]
            if s:
                f = kron_index(j, k, c)
                out[f] = out[f] + s * t
        return Vec(self.field, out)


def rref(mat: Mat) -> tuple[Mat, tuple[int, ...]]:
    """Reduced row echelon form and pivot columns, over the exact field."""
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


def solve_linear(a: Mat, b: Vec) -> Vec | None:
    """One exact solution of A x = b, or None if the system is inconsistent.

    Free variables are set to zero.
    """
    _check_same_field(a, b)
    if b.dim != a.rows:
        raise ShapeError("right-hand side does not match row count")
    aug = Mat(a.field, tuple(row + (b[i],) for i, row in enumerate(a.entries)),
              cols=a.cols + 1)
    red, pivots = rref(aug)
    if a.cols in pivots:
        return None
    zero = a.field.zero
    x = [zero] * a.cols
    for r, c in enumerate(pivots):
        x[c] = red[r, a.cols]
    return Vec(a.field, x)


def nullspace(a: Mat) -> list[Vec]:
    """Basis of the exact kernel of A, one vector per free column."""
    red, pivots = rref(a)
    pivot_set = set(pivots)
    zero, one = a.field.zero, a.field.one
    basis = []
    for free in range(a.cols):
        if free in pivot_set:
            continue
        v = [zero] * a.cols
        v[free] = one
        for r, c in enumerate(pivots):
            v[c] = -red[r, free]
        basis.append(Vec(a.field, v))
    return basis


def column_space_basis(a: Mat) -> list[Vec]:
    """The pivot columns of A: a basis of its image."""
    _, pivots = rref(a)
    return [a.col(j) for j in pivots]
