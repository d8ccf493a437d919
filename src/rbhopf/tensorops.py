"""Sparse evaluation of Sweedler-style tensor expressions.

Identities such as Δ(m·h) = m₁·h₁ ⊗ m₂·h₂ are verified by expanding both
sides on basis elements.  A `TermSum` is a linear combination of basis
tensors e_{i1}⊗...⊗e_{ik} of a fixed factor shape; its methods rewrite one
factor at a time (apply a linear map, split through a comultiplication or
coaction, merge through a multiplication or action, contract a pair through
a bilinear form, permute factors), which is exactly the vocabulary those
identities are written in.

Structure constants are sparse, so a chain of rewrites stays sparse: the
fan-out of each step is bounded by the nonzero count of the map applied.
Every map is read through its sparse fan-out (`Tensor3.by_first`/`by_pair`,
`Mat.by_col`), so a step never scans the zero entries of a dense `Mat`.
The fan-outs store coefficients equal to 1 as the field's `one`, and a
rewrite skips the product when either factor is that object; equal values
that are other objects are still multiplied, so the skip is only a shortcut.

Rewrites address factors by position from the front, so a sum may carry
extra trailing factors that no rewrite touches.  `basis_batches` uses them
as tags: it sums many basis inputs into one TermSum, each input carrying its
own remaining indices as trailing factors, so an identity written for one
basis tensor is evaluated on a whole batch in one rewrite chain, and the
tags of each output term name the input it came from.  `permute` likewise
reorders only the leading factors its order names.

When a map is monomial, every input (a column, e_i, or a pair e_i, e_j) has
exactly one output with coefficient `one`, as for the structure constants,
counit and antipode of a group algebra.  `Mat.monomial_cols` and
`Tensor3.monomial_first`/`monomial_pair` then give a table of outputs, and a
rewrite builds its result in one dict comprehension that only relabels keys.
If two input keys land on one output key, the comprehension has fewer keys
than the input; it is discarded and the general loop runs, which adds them.

The public `TermSum(...)` constructor checks every key against the shape and
coerces every value.  The rewrites build their results through the internal
`TermSum._trusted`, which wraps the dict as it is: keys come from valid keys
and fan-outs, and values are nonzero.  Over a field a product of nonzeros is
nonzero, and fan-outs and terms hold no zeros, so a zero can only appear
where two contributions are added.  Each accumulating rewrite records the
keys whose sum became zero and passes them to `_trusted`, which deletes
those still zero; no result is re-scanned.  `permute`, `drop_at`,
`insert_at`, `__neg__` and `scale` (by a nonzero scalar; by zero it gives
the empty sum) add nothing, so their dicts are wrapped as they are.

`_matrix_of` turns a rewrite chain into the matrix of the linear map it
computes: it runs the chain once on `tagged_basis` and reads each column off
the tags.  Convolutions, projections, module maps and the counit and
antipode of a tensor product are built this way.
"""

from __future__ import annotations

from itertools import product
from math import prod
from operator import itemgetter

from .errors import FieldMismatchError, ShapeError
from .linalg import Mat, Tensor3, Vec, flatten_index


class TermSum:
    """A sparse element of V_{d1} ⊗ ... ⊗ V_{dk}, keyed by basis multi-index."""

    __slots__ = ("field", "dims", "terms")

    def __init__(self, field, dims, terms):
        coerce = field.coerce
        clean = {}
        dims = tuple(dims)
        for key, val in terms.items():
            if len(key) != len(dims) or any(
                    not 0 <= i < d for i, d in zip(key, dims)):
                raise ShapeError(f"key {key} out of range for dims {dims}")
            val = coerce(val)
            if val:
                clean[key] = val
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "terms", clean)

    @classmethod
    def _trusted(cls, field, dims: tuple, terms: dict,
                 cancelled=()) -> "TermSum":
        """Internal: wrap valid keys and nonzero field-element values as is.

        `cancelled` lists the keys where an accumulation summed to zero (a
        key may repeat, or have been filled again later); those still zero
        are deleted from `terms`.  No other value is looked at.
        """
        for key in cancelled:
            if key in terms and not terms[key]:
                del terms[key]
        t = object.__new__(cls)
        object.__setattr__(t, "field", field)
        object.__setattr__(t, "dims", dims)
        object.__setattr__(t, "terms", terms)
        return t

    def __setattr__(self, name, value):
        raise AttributeError("TermSum is immutable")

    @classmethod
    def basis(cls, field, dims, idx) -> "TermSum":
        return cls(field, dims, {tuple(idx): field.one})

    @classmethod
    def from_vec(cls, vec: Vec) -> "TermSum":
        return cls(vec.field, (vec.dim,),
                   {(i,): v for i, v in enumerate(vec.entries) if v})

    def _factor_dim(self, pos: int) -> int:
        if not 0 <= pos < len(self.dims):
            raise ShapeError(f"factor {pos} out of range for shape {self.dims}")
        return self.dims[pos]

    def _check_field(self, other):
        if self.field is not other.field and self.field != other.field:
            raise FieldMismatchError(
                f"mixed fields {self.field!r} and {other.field!r}")

    def map_at(self, pos: int, m: Mat) -> "TermSum":
        """Apply a linear map to factor `pos`."""
        self._check_field(m)
        if m.cols != self._factor_dim(pos):
            raise ShapeError(
                f"map with {m.cols} columns applied to factor of dim {self.dims[pos]}")
        dims = self.dims[:pos] + (m.rows,) + self.dims[pos + 1:]
        terms = self.terms
        mono = m.monomial_cols()
        if mono is not None:
            out = {key[:pos] + (mono[key[pos]],) + key[pos + 1:]: val
                   for key, val in terms.items()}
            if len(out) == len(terms):
                return TermSum._trusted(self.field, dims, out)
        fan = m.by_col()
        one = self.field.one
        out = {}
        get = out.get
        cancelled = []
        for key, val in terms.items():
            head, tail = key[:pos], key[pos + 1:]
            unit = val is one
            for i, a in fan[key[pos]]:
                x = a if unit else val if a is one else a * val
                nk = head + (i,) + tail
                prev = get(nk)
                if prev is None:
                    out[nk] = x
                else:
                    out[nk] = x = prev + x
                    if not x:
                        cancelled.append(nk)
        return TermSum._trusted(self.field, dims, out, cancelled)

    def split_at(self, pos: int, comul: Tensor3) -> "TermSum":
        """Replace factor `pos` by two factors through a comultiplication."""
        self._check_field(comul)
        d, a, b = comul.dims
        if d != self._factor_dim(pos):
            raise ShapeError(
                f"comultiplication of dim {d} applied to factor of dim {self.dims[pos]}")
        dims = self.dims[:pos] + (a, b) + self.dims[pos + 1:]
        terms = self.terms
        mono = comul.monomial_first()
        if mono is not None:
            out = {key[:pos] + mono[key[pos]] + key[pos + 1:]: val
                   for key, val in terms.items()}
            if len(out) == len(terms):
                return TermSum._trusted(self.field, dims, out)
        fan = comul.by_first()
        one = self.field.one
        out = {}
        get = out.get
        cancelled = []
        for key, val in terms.items():
            head, tail = key[:pos], key[pos + 1:]
            unit = val is one
            for j, k, coeff in fan.get(key[pos], ()):
                x = coeff if unit else val if coeff is one else coeff * val
                nk = head + (j, k) + tail
                prev = get(nk)
                if prev is None:
                    out[nk] = x
                else:
                    out[nk] = x = prev + x
                    if not x:
                        cancelled.append(nk)
        return TermSum._trusted(self.field, dims, out, cancelled)

    def split_map_at(self, pos: int, m: Mat, out_dims: tuple[int, int]) -> "TermSum":
        """Replace factor `pos` by two factors through a map V → A ⊗ B."""
        self._check_field(m)
        a, b = out_dims
        if m.rows != a * b or m.cols != self._factor_dim(pos):
            raise ShapeError(
                f"{m.rows}x{m.cols} map does not send dim {self.dims[pos]} to {a}x{b}")
        dims = self.dims[:pos] + (a, b) + self.dims[pos + 1:]
        terms = self.terms
        mono = m.monomial_cols()
        if mono is not None:
            pairs = [divmod(flat, b) for flat in mono]
            out = {key[:pos] + pairs[key[pos]] + key[pos + 1:]: val
                   for key, val in terms.items()}
            if len(out) == len(terms):
                return TermSum._trusted(self.field, dims, out)
        fan = m.by_col()
        one = self.field.one
        out = {}
        get = out.get
        cancelled = []
        for key, val in terms.items():
            head, tail = key[:pos], key[pos + 1:]
            unit = val is one
            for flat, coeff in fan[key[pos]]:
                x = coeff if unit else val if coeff is one else coeff * val
                nk = head + divmod(flat, b) + tail
                prev = get(nk)
                if prev is None:
                    out[nk] = x
                else:
                    out[nk] = x = prev + x
                    if not x:
                        cancelled.append(nk)
        return TermSum._trusted(self.field, dims, out, cancelled)

    def merge_at(self, pos: int, mul: Tensor3) -> "TermSum":
        """Combine factors `pos`, `pos+1` through a multiplication."""
        self._check_field(mul)
        a, b, c = mul.dims
        if pos + 1 >= len(self.dims):
            raise ShapeError(f"no factor pair at {pos} in shape {self.dims}")
        if (a, b) != (self.dims[pos], self.dims[pos + 1]):
            raise ShapeError(
                f"multiplication {mul.dims} applied to factors "
                f"({self.dims[pos]},{self.dims[pos + 1]})")
        dims = self.dims[:pos] + (c,) + self.dims[pos + 2:]
        terms = self.terms
        mono = mul.monomial_pair()
        if mono is not None:
            out = {key[:pos] + (mono[key[pos] * b + key[pos + 1]],) + key[pos + 2:]: val
                   for key, val in terms.items()}
            if len(out) == len(terms):
                return TermSum._trusted(self.field, dims, out)
        fan = mul.by_pair()
        one = self.field.one
        out = {}
        get = out.get
        cancelled = []
        for key, val in terms.items():
            head, tail = key[:pos], key[pos + 2:]
            unit = val is one
            for k, coeff in fan.get(key[pos:pos + 2], ()):
                x = coeff if unit else val if coeff is one else coeff * val
                nk = head + (k,) + tail
                prev = get(nk)
                if prev is None:
                    out[nk] = x
                else:
                    out[nk] = x = prev + x
                    if not x:
                        cancelled.append(nk)
        return TermSum._trusted(self.field, dims, out, cancelled)

    def merge_map_at(self, pos: int, m: Mat) -> "TermSum":
        """Combine factors `pos`, `pos+1` through a map A ⊗ B → V."""
        self._check_field(m)
        if pos + 1 >= len(self.dims):
            raise ShapeError(f"no factor pair at {pos} in shape {self.dims}")
        b = self.dims[pos + 1]
        if m.cols != self.dims[pos] * b:
            raise ShapeError(
                f"map with {m.cols} columns applied to factors "
                f"({self.dims[pos]},{b})")
        dims = self.dims[:pos] + (m.rows,) + self.dims[pos + 2:]
        terms = self.terms
        mono = m.monomial_cols()
        if mono is not None:
            out = {key[:pos] + (mono[key[pos] * b + key[pos + 1]],) + key[pos + 2:]: val
                   for key, val in terms.items()}
            if len(out) == len(terms):
                return TermSum._trusted(self.field, dims, out)
        fan = m.by_col()
        one = self.field.one
        out = {}
        get = out.get
        cancelled = []
        for key, val in terms.items():
            head, tail = key[:pos], key[pos + 2:]
            unit = val is one
            for i, a in fan[key[pos] * b + key[pos + 1]]:
                x = a if unit else val if a is one else a * val
                nk = head + (i,) + tail
                prev = get(nk)
                if prev is None:
                    out[nk] = x
                else:
                    out[nk] = x = prev + x
                    if not x:
                        cancelled.append(nk)
        return TermSum._trusted(self.field, dims, out, cancelled)

    def pair_at(self, pos: int, form: Mat) -> "TermSum":
        """Contract factors `pos`, `pos+1` through a bilinear form (1 × a·b)."""
        self._check_field(form)
        if pos + 1 >= len(self.dims):
            raise ShapeError(f"no factor pair at {pos} in shape {self.dims}")
        b = self.dims[pos + 1]
        if form.rows != 1 or form.cols != self.dims[pos] * b:
            raise ShapeError(
                f"form {form.rows}x{form.cols} applied to factors "
                f"({self.dims[pos]},{b})")
        row = form.entries[0]
        out: dict = {}
        get = out.get
        cancelled = []
        for key, val in self.terms.items():
            coeff = row[key[pos] * b + key[pos + 1]]
            if not coeff:
                continue
            x = coeff * val
            nk = key[:pos] + key[pos + 2:]
            prev = get(nk)
            if prev is None:
                out[nk] = x
            else:
                out[nk] = x = prev + x
                if not x:
                    cancelled.append(nk)
        dims = self.dims[:pos] + self.dims[pos + 2:]
        return TermSum._trusted(self.field, dims, out, cancelled)

    def insert_at(self, pos: int, vec: Vec) -> "TermSum":
        """Insert a fixed vector as a new factor at position `pos`."""
        self._check_field(vec)
        if not 0 <= pos <= len(self.dims):
            raise ShapeError(f"insert position {pos} out of range")
        fan = [(i, x) for i, x in enumerate(vec.entries) if x]
        out: dict = {}
        for key, val in self.terms.items():
            head, tail = key[:pos], key[pos:]
            for i, x in fan:
                out[head + (i,) + tail] = x * val
        dims = self.dims[:pos] + (vec.dim,) + self.dims[pos:]
        return TermSum._trusted(self.field, dims, out)

    def drop_at(self, pos: int) -> "TermSum":
        """Remove a one-dimensional factor."""
        if self._factor_dim(pos) != 1:
            raise ShapeError(f"factor {pos} has dim {self.dims[pos]}, cannot drop")
        dims = self.dims[:pos] + self.dims[pos + 1:]
        return TermSum._trusted(self.field, dims,
                                {key[:pos] + key[pos + 1:]: v
                                 for key, v in self.terms.items()})

    def swap_at(self, pos: int) -> "TermSum":
        """Exchange adjacent factors `pos`, `pos+1`."""
        if pos + 1 >= len(self.dims):
            raise ShapeError(f"no factor pair at {pos} in shape {self.dims}")
        order = list(range(len(self.dims)))
        order[pos], order[pos + 1] = order[pos + 1], order[pos]
        return self.permute(order)

    def permute(self, order) -> "TermSum":
        """Reorder the leading `len(order)` factors; trailing factors stay put.

        `order[n]` is the old position of new factor n and must be a
        permutation of range(len(order)), at most the number of factors.
        """
        order = tuple(order)
        k = len(order)
        if k > len(self.dims) or sorted(order) != list(range(k)):
            raise ShapeError(f"{order} is not a permutation of leading factors "
                             f"of shape {self.dims}")
        if order == tuple(range(k)):
            return self
        pick = itemgetter(*order)
        dims = pick(self.dims) + self.dims[k:]
        return TermSum._trusted(self.field, dims,
                                {pick(key) + key[k:]: v
                                 for key, v in self.terms.items()})

    def scale(self, scalar) -> "TermSum":
        s = self.field.coerce(scalar)
        if not s:
            return TermSum._trusted(self.field, self.dims, {})
        return TermSum._trusted(self.field, self.dims,
                                {k: s * v for k, v in self.terms.items()})

    def _check_same_shape(self, other: "TermSum"):
        self._check_field(other)
        if self.dims != other.dims:
            raise ShapeError(f"shapes {self.dims} and {other.dims} differ")

    def __add__(self, other: "TermSum") -> "TermSum":
        self._check_same_shape(other)
        out = dict(self.terms)
        get = out.get
        cancelled = []
        for k, v in other.terms.items():
            prev = get(k)
            if prev is None:
                out[k] = v
            else:
                out[k] = v = prev + v
                if not v:
                    cancelled.append(k)
        return TermSum._trusted(self.field, self.dims, out, cancelled)

    def __sub__(self, other: "TermSum") -> "TermSum":
        self._check_same_shape(other)
        if self.terms == other.terms:
            return TermSum._trusted(self.field, self.dims, {})
        out = dict(self.terms)
        get = out.get
        cancelled = []
        for k, v in other.terms.items():
            prev = get(k)
            if prev is None:
                out[k] = -v
            else:
                out[k] = v = prev - v
                if not v:
                    cancelled.append(k)
        return TermSum._trusted(self.field, self.dims, out, cancelled)

    def __neg__(self) -> "TermSum":
        return TermSum._trusted(self.field, self.dims,
                                {k: -v for k, v in self.terms.items()})

    def is_zero(self) -> bool:
        return not self.terms

    def items(self):
        return sorted(self.terms.items())

    def to_vec(self) -> Vec:
        """Flatten to a vector under the `kron_index` convention."""
        size = 1
        for d in self.dims:
            size *= d
        out = [self.field.zero] * size
        for key, val in self.terms.items():
            out[flatten_index(key, self.dims)] = val
        return Vec(self.field, out)

    def __eq__(self, other):
        if not isinstance(other, TermSum):
            return NotImplemented
        return (self.field == other.field and self.dims == other.dims
                and self.terms == other.terms)

    def __repr__(self):
        return f"TermSum(dims={self.dims}, nnz={len(self.terms)})"


def basis_batches(field, dims, lead: int = 1):
    """Every basis tensor of shape `dims`, summed per leading index.

    Yields (prefix, TermSum) in lexicographic order of the first `lead`
    indices.  The TermSum holds e_prefix⊗e_rest ⊗ e_rest for every completion
    `rest`: the input's remaining indices ride along as trailing tag factors
    of shape dims[lead:].  A rewrite chain written for one basis tensor of
    `dims` touches only leading factors, so it evaluates the whole batch in
    one pass, and each output term's tags name the input it came from.
    """
    dims = tuple(dims)
    rests = list(product(*map(range, dims[lead:])))
    tagged = dims + dims[lead:]
    one = field.one
    for prefix in product(*map(range, dims[:lead])):
        yield prefix, TermSum._trusted(field, tagged,
                                       {prefix + r + r: one for r in rests})


def tagged_basis(field, dims) -> TermSum:
    """All basis tensors of shape `dims` in one sum, each tagged with its index.

    The single batch of `basis_batches(field, dims, lead=0)`: a rewrite chain
    run on it builds every column of a linear map at once.
    """
    (_, batch), = basis_batches(field, dims, lead=0)
    return batch


def _matrix_of(field, in_dims: tuple[int, ...], image) -> Mat:
    """The matrix whose column for basis index `idx` of `in_dims` is image(e_idx).

    `image` runs once, on every basis input at once (`tagged_basis`); the
    tags of an output term name its column.  The entries are field elements
    already, so the rows are wrapped by `Mat._trusted` as they are.
    """
    res = image(tagged_basis(field, in_dims))
    k = len(in_dims)
    out_dims, cols = res.dims[:-k], prod(in_dims)
    rows = [[field.zero] * cols for _ in range(prod(out_dims))]
    for key, val in res.terms.items():
        rows[flatten_index(key[:-k], out_dims)][flatten_index(key[-k:], in_dims)] = val
    return Mat._trusted(field, tuple(map(tuple, rows)), cols)
