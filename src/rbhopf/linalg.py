"""Exact vectors, maps and tensors, all on one sparse storage.

Tensor products follow one global basis convention: e_i ⊗ e_j of V ⊗ W sits
at flat index i*dim(W) + j (left factor major).  `kron_index` is the only
place this is spelled out; every other tensor computation goes through it.

Every container, `Vec`, `Mat`, `Tensor3` and the rewrite engine's
`tensorops.TermSum`, is a `_Sparse`: a field, a `dims` tuple and a
read-only mapping `terms` from index tuples to nonzero entries.  A `Vec` is
keyed (i,), a `Mat` (row, column), a `Tensor3` (i, j, k), a `TermSum` by one
index per tensor factor.  Entry validation, the trusted constructor,
equality (only within one class), hashing, pickling, immutability, `items`,
`is_zero` and elementwise `+`, `-`, negation and `scale` are written once,
there.  They know the field's interned `one` and `minus_one` by identity,
as the rewrite kernel knows `one`: negation swaps them, `one + minus_one`
and `x - x` (one object twice) cancel, `scale(-1)` negates, and the
matrix product `*` takes the other factor of a product with `one`, with no
scalar arithmetic; other values get the field's.  Nothing is stored
densely: `Vec.entries` is a dense tuple and `Mat.entries` dense rows, each
built on access, for printing and callers that want them.  Exact
elimination is `_Echelon`, a sparse echelon basis of dict vectors.

On `Mat`, `*` is composition (matrix product) and `@` is the Kronecker
product, so (f⊗g)∘(h⊗k) = (f∘h)⊗(g∘k) reads (f @ g) * (h @ k) == (f * h) @ (g * k).

Every container is immutable, so copying one gives the object itself, as
for a tuple.  Each sparse object has one cache slot, `_fans`, which only the
rewrite engine fills (`tensorops._reading`): a map's fan-out, read once from
`terms`.  The public constructors validate shapes and coerce every scalar;
`_trusted` wraps entries that are already nonzero field elements at valid
keys (matrix products, maps built by rewrites in `tensorops._matrix_of`, the
structure constants of a tensor product, every rewrite result) and skips
both.
"""

from __future__ import annotations

from operator import index
from types import MappingProxyType

from .errors import FieldMismatchError, ShapeError


def kron_index(i: int, j: int, dim_j: int) -> int:
    """Flat index of e_i ⊗ e_j when the right factor has dimension dim_j."""
    if not 0 <= j < dim_j or i < 0:
        raise ShapeError(f"tensor index ({i},{j}) out of range for dim {dim_j}")
    return i * dim_j + j


def flatten_index(idx: tuple[int, ...], dims: tuple[int, ...]) -> int:
    """Flat index of e_{i1}⊗...⊗e_{ik} in V_{d1}⊗...⊗V_{dk}."""
    flat = 0
    for i, d in zip(idx, dims):
        if not 0 <= i < d:
            raise ShapeError(f"index {idx} out of range for dims {dims}")
        flat = flat * d + i
    return flat


def _check_same_field(a, b):
    if a.field is not b.field and a.field != b.field:
        raise FieldMismatchError(f"mixed fields {a.field!r} and {b.field!r}")


class _Sparse:
    """The storage of `Vec`, `Mat`, `Tensor3` and `TermSum`.

    `field`, `dims` (one size per index), and `terms`, a read-only mapping
    from index tuples to the nonzero entries.  `_fans` is unset until the
    rewrite engine caches a reading of the object there.  Attributes cannot
    be assigned, and a copy is the object itself.
    """

    __slots__ = ("field", "dims", "terms", "_fans")

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __copy__(self):
        return self

    def __deepcopy__(self, memo):
        return self

    def _validate(self, field, dims, terms):
        """Set the state from a mapping, checking every key against `dims`
        and coercing every value; zero values are dropped."""
        dims = tuple(dims)
        if any(d < 0 for d in dims):
            raise ShapeError(f"negative dimension in {dims}")
        ranges = tuple(map(range, dims))
        coerce = field.coerce
        clean = {}
        for key, val in terms.items():
            if len(key) != len(dims) or not all(
                    map(range.__contains__, ranges, key)):
                raise ShapeError(f"index {key} out of range for dims {dims}")
            val = coerce(val)
            if val:
                clean[key] = val
        set_ = object.__setattr__
        set_(self, "field", field)
        set_(self, "dims", dims)
        set_(self, "terms", MappingProxyType(clean))

    @classmethod
    def from_terms(cls, field, dims, terms):
        """The object of shape `dims` with the entries of a mapping
        {index tuple: scalar}; keys are range-checked, values coerced."""
        t = object.__new__(cls)
        t._validate(field, dims, terms)
        return t

    @classmethod
    def _trusted(cls, field, dims: tuple, terms: dict, cancelled=()):
        """Internal: wrap valid keys and nonzero field-element values as is.

        `cancelled` lists the keys where an accumulation summed to zero (a
        key may repeat, or have been filled again later); those still zero
        are deleted from `terms`.  No other value is looked at.
        """
        for key in cancelled:
            if key in terms and not terms[key]:
                del terms[key]
        t = object.__new__(cls)
        set_ = object.__setattr__
        set_(t, "field", field)
        set_(t, "dims", dims)
        set_(t, "terms", MappingProxyType(terms))
        return t

    def __reduce__(self):
        return type(self).from_terms, (self.field, self.dims, dict(self.terms))

    def __getitem__(self, key):
        return self.terms.get(key, self.field.zero)

    def items(self):
        return sorted(self.terms.items())

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return (self.field == other.field and self.dims == other.dims
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.field, self.dims, frozenset(self.terms.items())))

    def __repr__(self):
        return f"{type(self).__name__}(dims={self.dims}, nnz={len(self.terms)})"

    def _check_same_shape(self, other):
        if type(other) is not type(self):
            raise TypeError(f"cannot combine {type(self).__name__} "
                            f"with {type(other).__name__}")
        _check_same_field(self, other)
        if self.dims != other.dims:
            raise ShapeError(f"shapes {self.dims} and {other.dims} differ")

    def __add__(self, other):
        self._check_same_shape(other)
        one, minus_one = self.field.one, self.field.minus_one
        out = self.terms.copy()
        get = out.get
        cancelled = []
        for k, v in other.terms.items():
            prev = get(k)
            if prev is None:
                out[k] = v
            elif (prev is one and v is minus_one
                  or prev is minus_one and v is one):
                del out[k]
            else:
                out[k] = v = prev + v
                if not v:
                    cancelled.append(k)
        return self._trusted(self.field, self.dims, out, cancelled)

    def __sub__(self, other):
        self._check_same_shape(other)
        if self.terms == other.terms:
            return self._trusted(self.field, self.dims, {})
        one, minus_one = self.field.one, self.field.minus_one
        out = self.terms.copy()
        get = out.get
        cancelled = []
        for k, v in other.terms.items():
            prev = get(k)
            if prev is None:
                out[k] = (minus_one if v is one else
                          one if v is minus_one else -v)
            elif prev is v:
                del out[k]
            else:
                out[k] = v = prev - v
                if not v:
                    cancelled.append(k)
        return self._trusted(self.field, self.dims, out, cancelled)

    def __neg__(self):
        one, minus_one = self.field.one, self.field.minus_one
        return self._trusted(self.field, self.dims, {
            k: minus_one if v is one else one if v is minus_one else -v
            for k, v in self.terms.items()})

    def scale(self, scalar):
        s = self.field.coerce(scalar)
        if s == self.field.minus_one:
            return -self
        if not s:
            return self._trusted(self.field, self.dims, {})
        return self._trusted(self.field, self.dims,
                             {k: s * v for k, v in self.terms.items()})

    __rmul__ = scale


class Vec(_Sparse):
    """Immutable vector of exact scalars, keyed (i,).

    `entries` is the dense tuple, built from `terms` on each access;
    iteration goes through it, and `v[i]` takes int indices, negative ones
    too.
    """

    __slots__ = ()

    def __init__(self, field, entries):
        terms = {(i,): x for i, x in enumerate(entries)}
        self._validate(field, (len(terms),), terms)

    @classmethod
    def zero(cls, field, dim: int) -> "Vec":
        return cls.from_terms(field, (dim,), {})

    @classmethod
    def basis(cls, field, dim: int, i: int) -> "Vec":
        if not 0 <= i < dim:
            raise ShapeError(f"basis index {i} out of range for dim {dim}")
        return cls._trusted(field, (dim,), {(i,): field.one})

    @property
    def dim(self) -> int:
        return self.dims[0]

    @property
    def entries(self) -> tuple:
        out = [self.field.zero] * self.dim
        for (i,), v in self.terms.items():
            out[i] = v
        return tuple(out)

    def __len__(self):
        return self.dim

    def __iter__(self):
        return iter(self.entries)

    def __getitem__(self, i):
        return self.terms.get((range(self.dim)[index(i)],), self.field.zero)

    def tensor(self, other: "Vec") -> "Vec":
        """v ⊗ w as a flat vector under the `kron_index` convention."""
        _check_same_field(self, other)
        n = other.dim
        right = other.terms.items()
        return Vec._trusted(self.field, (self.dim * n,), {
            (i * n + j,): a * b for (i,), a in self.terms.items()
            for (j,), b in right})

    def as_column(self) -> "Mat":
        return Mat._trusted(self.field, (self.dim, 1),
                            {(i, 0): v for (i,), v in self.terms.items()})

    def as_row(self) -> "Mat":
        return Mat._trusted(self.field, (1, self.dim),
                            {(0, i): v for (i,), v in self.terms.items()})


class Mat(_Sparse):
    """Immutable matrix of exact scalars, keyed (row, column).

    Matrices act on column vectors from the left, so column j is the image
    of the j-th basis vector.
    """

    __slots__ = ()

    def __init__(self, field, rows_of_entries, cols: int | None = None):
        rows = tuple(map(tuple, rows_of_entries))
        if cols is None:
            cols = len(rows[0]) if rows else 0
        if any(len(r) != cols for r in rows):
            raise ShapeError(f"matrix rows must all have {cols} entries")
        self._validate(field, (len(rows), cols),
                       {(i, j): x for i, row in enumerate(rows)
                        for j, x in enumerate(row)})

    @property
    def rows(self) -> int:
        return self.dims[0]

    @property
    def cols(self) -> int:
        return self.dims[1]

    @property
    def entries(self) -> tuple:
        """The dense rows, built from `terms` on each access."""
        zero = self.field.zero
        out = [[zero] * self.cols for _ in range(self.rows)]
        for (i, j), v in self.terms.items():
            out[i][j] = v
        return tuple(map(tuple, out))

    @classmethod
    def identity(cls, field, n: int) -> "Mat":
        if n < 0:
            raise ShapeError(f"negative dimension in {(n, n)}")
        return cls._trusted(field, (n, n), {(i, i): field.one for i in range(n)})

    @classmethod
    def zeros(cls, field, rows: int, cols: int) -> "Mat":
        return cls.from_terms(field, (rows, cols), {})

    @classmethod
    def from_function(cls, field, rows: int, cols: int, fn) -> "Mat":
        return cls.from_terms(field, (rows, cols),
                              {(i, j): fn(i, j) for i in range(rows)
                               for j in range(cols)})

    def col(self, j: int) -> Vec:
        get = self.terms.get
        return Vec._trusted(self.field, (self.rows,), {
            (i,): v for i in range(self.rows) if (v := get((i, j)))})

    def __mul__(self, other):
        if isinstance(other, Mat):
            _check_same_field(self, other)
            if self.cols != other.rows:
                raise ShapeError(
                    f"cannot compose {self.rows}x{self.cols} with "
                    f"{other.rows}x{other.cols}")
            right = [[] for _ in range(other.rows)]
            for (k, j), b in other.terms.items():
                right[k].append((j, b))
            one = self.field.one
            out: dict = {}
            get = out.get
            cancelled = []
            for (i, k), a in self.terms.items():
                unit = a is one
                for j, b in right[k]:
                    x = b if unit else a if b is one else a * b
                    prev = get((i, j))
                    if prev is None:
                        out[i, j] = x
                    else:
                        out[i, j] = x = prev + x
                        if not x:
                            cancelled.append((i, j))
            return Mat._trusted(self.field, (self.rows, other.cols), out,
                                cancelled)
        if isinstance(other, Vec):
            return self.apply(other)
        return self.scale(other)

    def apply(self, v: Vec) -> Vec:
        _check_same_field(self, v)
        if v.dim != self.cols:
            raise ShapeError(f"cannot apply {self.rows}x{self.cols} to dim {v.dim}")
        return (self * v.as_column()).col(0)

    def __matmul__(self, other: "Mat") -> "Mat":
        """Kronecker product, consistent with `kron_index`."""
        if not isinstance(other, Mat):
            return NotImplemented
        _check_same_field(self, other)
        r2, c2 = other.dims
        right = list(other.terms.items())
        return Mat._trusted(self.field, (self.rows * r2, self.cols * c2), {
            (i1 * r2 + i2, j1 * c2 + j2): a * b
            for (i1, j1), a in self.terms.items() for (i2, j2), b in right})

    def __str__(self):
        fmt = self.field.format
        rows = [[fmt(a) for a in row] for row in self.entries]
        widths = [max(map(len, col)) for col in zip(*rows)]
        lines = ["[" + "  ".join(a.rjust(w) for a, w in zip(row, widths)) + "]"
                 for row in rows]
        return "\n".join(lines) if lines else "[]"


class Tensor3(_Sparse):
    """Immutable sparse rank-3 tensor of exact scalars, keyed (i, j, k).

    Holds multiplication tables, e_i e_j = Σ_k t[i,j,k] e_k (dims (n,n,n)),
    comultiplication tables, Δ(e_i) = Σ_{j,k} t[i,j,k] e_j⊗e_k, and the
    residuals of failed identities.  `entries` is the storage mapping.
    """

    __slots__ = ()

    def __init__(self, field, dims: tuple[int, int, int], entries):
        if len(dims) != 3:
            raise ShapeError(f"a Tensor3 has three dims, got {dims}")
        self._validate(field, dims, entries)

    @property
    def entries(self):
        return self.terms

    @classmethod
    def zero(cls, field, dims) -> "Tensor3":
        return cls(field, dims, {})

    def mul_matrix(self) -> Mat:
        """The map V_a ⊗ V_b → V_c as a c × (a·b) matrix."""
        a, b, c = self.dims
        return Mat._trusted(self.field, (c, a * b), {
            (k, i * b + j): v for (i, j, k), v in self.terms.items()})

    def comul_matrix(self) -> Mat:
        """The map V_a → V_b ⊗ V_c as a (b·c) × a matrix."""
        a, b, c = self.dims
        return Mat._trusted(self.field, (b * c, a), {
            (j * c + k, i): v for (i, j, k), v in self.terms.items()})


class _Echelon:
    """The one exact Gaussian elimination: a sparse echelon basis.

    Vectors are dicts {index: nonzero coefficient}.  `rows` maps each pivot,
    the smallest index of a stored vector, to that vector, whose pivot
    coefficient is 1; no two stored vectors share a pivot, so the pivots are
    the leading indices of the span.
    """

    __slots__ = ("zero", "one", "rows")

    def __init__(self, field):
        self.zero, self.one = field.zero, field.one
        self.rows: dict = {}

    def _subtract(self, v: dict, c, row: dict):
        """v -= c·row, in place, dropping the entries that become zero."""
        zero = self.zero
        for k, x in row.items():
            y = v.get(k, zero) - c * x
            if y:
                v[k] = y
            else:
                del v[k]

    def reduce(self, v: dict):
        """Eliminate v's leading index while it is a pivot, in place; the
        rest of v when it leaves the span's pivots, None when v is in it."""
        rows = self.rows
        while v:
            p = min(v)
            row = rows.get(p)
            if row is None:
                return v
            self._subtract(v, v[p], row)
        return None

    def add(self, v: dict):
        """Store a reduced nonzero v under its leading index, scaled to 1."""
        p = min(v)
        c = v[p]
        if c != self.one:
            v = {k: x / c for k, x in v.items()}
        self.rows[p] = v

    def solve(self, n: int):
        """Read the stored rows as equations in unknowns 0..n-1 with the
        right-hand side at index n.

        Back-substitutes the rows into reduced echelon form, then returns
        the solution whose free unknowns are 0 (None when n is a pivot,
        that is when the system is inconsistent) and one kernel vector per
        free unknown f: 1 at f, minus each pivot row's coefficient of f at
        that row's pivot.  Given the pivots both are unique, so they are
        what dense reduced row echelon form gives.
        """
        rows = self.rows
        for p in sorted(rows, reverse=True):
            row = rows[p]
            for q in [k for k in row if k != p and k in rows]:
                self._subtract(row, row[q], rows[q])
        particular = None if n in rows else {
            p: row[n] for p, row in rows.items() if n in row}
        kernel = {f: {f: self.one} for f in range(n) if f not in rows}
        for p, row in rows.items():
            for f, x in row.items():
                if f in kernel:
                    kernel[f][p] = -x
        return particular, list(kernel.values())
