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
Every map, split and merge rewrite runs one kernel, `TermSum._rewrite`,
which removes one or two factors and puts the map's output factors in
their place.  It reads the map through `_reading`, the map's fan-out,
built by one loop over its nonzero entries (every container shares one
sparse storage, see `linalg`) and cached in the map's `_fans`
slot.  The reading is indexed by the flat input index (i, or i·b + j for a
pair of factors) and holds precomputed output index tuples.  It stores
coefficients equal to 1 as the field's `one`, and the kernel skips the
product when either factor is that object; equal values that are other
objects are still multiplied, so the skip is only a shortcut.

Rewrites address factors by position from the front, so a sum may carry
extra trailing factors that no rewrite touches.  `tagged_basis` and the
checkers' batches (`structures._batched`) use them as tags: they sum many
basis inputs into one TermSum, each input carrying its own remaining
indices as trailing factors, so an identity written for one basis tensor
is evaluated on a whole batch in one rewrite chain, and the tags of each
output term name the input it came from.  `permute` likewise reorders
only the leading factors its order names.

When a map is monomial, every input has exactly one output with
coefficient `one`, as for the structure constants, counit and antipode of a
group algebra.  The reading then also holds a table of those outputs, and
the kernel builds its result in one dict comprehension that only relabels
keys.  If two input keys land on one output key, the comprehension has
fewer keys than the input; it is discarded and the general loop runs,
which adds them.

The public `TermSum(...)` constructor checks every key against the shape and
coerces every value; `terms` is a read-only mapping.  The rewrites build
their results through the internal `TermSum._trusted`, which wraps the dict
as it is: keys come from valid keys and fan-outs, and values are nonzero.
Over a field a product of nonzeros is nonzero, and fan-outs and terms hold
no zeros, so a zero can only appear where two contributions are added.  The
kernel, like the storage's `+` and `-`, records the keys whose sum became
zero and passes them to `_trusted`, which deletes those still zero; no
result is re-scanned.  `permute`, `drop_at` and `insert_at` add nothing, so
their dicts are wrapped as they are.

`_matrix_of` turns a rewrite chain into the matrix of the linear map it
computes: it runs the chain once on `tagged_basis` and re-keys each output
term to (row, column), the column named by its tags.  Convolutions,
projections, module maps and the counit and antipode of a tensor product
are built this way.
"""

from __future__ import annotations

from itertools import product
from math import prod
from operator import itemgetter

from .errors import ShapeError
from .linalg import (Mat, Tensor3, Vec, _check_same_field, _Sparse,
                     flatten_index)


def _cache(m) -> dict:
    """The dict in `m`'s `_fans` slot, made on first use.

    It holds the readings of `m` (see `_reading`), keyed (role, b), and
    the facts about `m` and other maps, keyed (kind, their ids), which
    only `structures._record` writes and `structures._recorded` reads
    (the kinds are listed there).  All depend only on `m`, which is
    immutable, and on objects the entry holds.
    """
    fans = getattr(m, "_fans", None)
    if fans is None:
        fans = {}
        object.__setattr__(m, "_fans", fans)
    return fans


def _reading(m, role: str, b: int = 0) -> tuple:
    """(fan-out, monomial table) of a map, built once and cached on it.

    Both are indexed by the flat input index: column j of a `Mat`; i of a
    comultiplication `Tensor3` (role "first"); i·dims[1] + j of a
    multiplication `Tensor3` (role "pair").  fan[n] is the tuple of
    (output index tuple, value) pairs of input n, in the order of the
    sorted keys, and values equal to 1 are stored as the field's `one`.
    The output index tuple of an entry (i, j) of a `Mat` is (i,) for role
    "map", divmod(i, b) for "split" and () for "form" (a one-row bilinear
    form); of an entry (i, j, k) of a `Tensor3` it is (j, k) for "first"
    and (k,) for "pair".  The monomial table holds the single output of
    each input, and exists only when every input has exactly one output
    with value `one`; otherwise it is None.
    """
    fans = _cache(m)
    got = fans.get((role, b))
    if got is not None:
        return got
    if role == "pair":
        n = m.dims[1]
        inputs = m.dims[0] * n
        split = lambda i, j, k: (i * n + j, (k,))
    elif role == "first":
        inputs = m.dims[0]
        split = lambda i, j, k: (i, (j, k))
    else:
        inputs = m.dims[1]
        split = {"map": lambda i, j: (j, (i,)),
                 "split": lambda i, j: (j, divmod(i, b)),
                 "form": lambda i, j: (j, ())}[role]
    one = m.field.one
    cols = [[] for _ in range(inputs)]
    for key, v in sorted(m.terms.items()):
        col, out = split(*key)
        cols[col].append((out, one if v is one or v == one else v))
    fan = tuple(map(tuple, cols))
    mono = None
    if all(len(col) == 1 and col[0][1] is one for col in fan):
        mono = tuple(col[0][0] for col in fan)
    fans[(role, b)] = got = (fan, mono)
    return got


class TermSum(_Sparse):
    """A sparse element of V_{d1} ⊗ ... ⊗ V_{dk}, keyed by basis multi-index."""

    __slots__ = ()

    def __init__(self, field, dims, terms):
        self._validate(field, dims, terms)

    @classmethod
    def basis(cls, field, dims, idx) -> "TermSum":
        return cls(field, dims, {tuple(idx): field.one})

    @classmethod
    def from_vec(cls, vec: Vec) -> "TermSum":
        return cls._trusted(vec.field, vec.dims, dict(vec.terms))

    def _factor_dim(self, pos: int) -> int:
        if not 0 <= pos < len(self.dims):
            raise ShapeError(f"factor {pos} out of range for shape {self.dims}")
        return self.dims[pos]

    def _rewrite(self, pos: int, width: int, out_dims: tuple, m, role: str,
                 b: int = 0) -> "TermSum":
        """Internal: replace the `width` (1 or 2) factors at `pos` by factors
        of dims `out_dims`, through the map `m` read as `_reading(m, role, b)`.

        Callers have checked the field and the shapes.  The monomial table
        relabels keys in one comprehension; if the map is not monomial, or
        two input keys land on one output key, the general loop accumulates
        instead and records the keys whose sum cancelled.
        """
        fan, mono = _reading(m, role, b)
        end = pos + width
        dims = self.dims[:pos] + out_dims + self.dims[end:]
        terms = self.terms
        # The flat input index is key[pos] * right + key[last]; for one
        # factor right is 0 and last is pos, so it is key[pos].
        right = self.dims[pos + 1] if width == 2 else 0
        last = end - 1
        if mono is not None:
            out = {key[:pos] + mono[key[pos] * right + key[last]] + key[end:]: val
                   for key, val in terms.items()}
            if len(out) == len(terms):
                return TermSum._trusted(self.field, dims, out)
        one = self.field.one
        out = {}
        get = out.get
        cancelled = []
        for key, val in terms.items():
            head, tail = key[:pos], key[end:]
            unit = val is one
            for mid, coeff in fan[key[pos] * right + key[last]]:
                x = coeff if unit else val if coeff is one else coeff * val
                nk = head + mid + tail
                prev = get(nk)
                if prev is None:
                    out[nk] = x
                else:
                    out[nk] = x = prev + x
                    if not x:
                        cancelled.append(nk)
        return TermSum._trusted(self.field, dims, out, cancelled)

    def _pair_dims(self, pos: int) -> tuple[int, int]:
        if pos + 1 >= len(self.dims):
            raise ShapeError(f"no factor pair at {pos} in shape {self.dims}")
        return self.dims[pos], self.dims[pos + 1]

    def map_at(self, pos: int, m: Mat) -> "TermSum":
        """Apply a linear map to factor `pos`."""
        _check_same_field(self, m)
        if m.cols != self._factor_dim(pos):
            raise ShapeError(
                f"map with {m.cols} columns applied to factor of dim {self.dims[pos]}")
        return self._rewrite(pos, 1, (m.rows,), m, "map")

    def split_at(self, pos: int, comul: Tensor3) -> "TermSum":
        """Replace factor `pos` by two factors through a comultiplication."""
        _check_same_field(self, comul)
        d, a, b = comul.dims
        if d != self._factor_dim(pos):
            raise ShapeError(
                f"comultiplication of dim {d} applied to factor of dim {self.dims[pos]}")
        return self._rewrite(pos, 1, (a, b), comul, "first")

    def split_map_at(self, pos: int, m: Mat, out_dims: tuple[int, int]) -> "TermSum":
        """Replace factor `pos` by two factors through a map V → A ⊗ B."""
        _check_same_field(self, m)
        a, b = out_dims
        if m.rows != a * b or m.cols != self._factor_dim(pos):
            raise ShapeError(
                f"{m.rows}x{m.cols} map does not send dim {self.dims[pos]} to {a}x{b}")
        return self._rewrite(pos, 1, (a, b), m, "split", b)

    def merge_at(self, pos: int, mul: Tensor3) -> "TermSum":
        """Combine factors `pos`, `pos+1` through a multiplication."""
        _check_same_field(self, mul)
        a, b, c = mul.dims
        if (a, b) != self._pair_dims(pos):
            raise ShapeError(
                f"multiplication {mul.dims} applied to factors "
                f"({self.dims[pos]},{self.dims[pos + 1]})")
        return self._rewrite(pos, 2, (c,), mul, "pair")

    def merge_map_at(self, pos: int, m: Mat) -> "TermSum":
        """Combine factors `pos`, `pos+1` through a map A ⊗ B → V."""
        _check_same_field(self, m)
        a, b = self._pair_dims(pos)
        if m.cols != a * b:
            raise ShapeError(
                f"map with {m.cols} columns applied to factors ({a},{b})")
        return self._rewrite(pos, 2, (m.rows,), m, "map")

    def pair_at(self, pos: int, form: Mat) -> "TermSum":
        """Contract factors `pos`, `pos+1` through a bilinear form (1 × a·b)."""
        _check_same_field(self, form)
        a, b = self._pair_dims(pos)
        if form.rows != 1 or form.cols != a * b:
            raise ShapeError(
                f"form {form.rows}x{form.cols} applied to factors ({a},{b})")
        return self._rewrite(pos, 2, (), form, "form")

    def insert_at(self, pos: int, vec: Vec) -> "TermSum":
        """Insert a fixed vector as a new factor at position `pos`.

        As in `_rewrite`, a product with the field's `one` is skipped."""
        _check_same_field(self, vec)
        if not 0 <= pos <= len(self.dims):
            raise ShapeError(f"insert position {pos} out of range")
        one = self.field.one
        fan = list(vec.terms.items())
        out: dict = {}
        for key, val in self.terms.items():
            head, tail = key[:pos], key[pos:]
            unit = val is one
            for i, x in fan:
                out[head + i + tail] = (
                    x if unit else val if x is one else x * val)
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

    def to_vec(self) -> Vec:
        """Flatten to a vector under the `kron_index` convention."""
        dims = self.dims
        return Vec._trusted(self.field, (prod(dims),), {
            (flatten_index(key, dims),): v for key, v in self.terms.items()})


def tagged_basis(field, dims) -> TermSum:
    """All basis tensors of shape `dims` in one sum, each tagged with its index.

    The sum holds e_idx ⊗ e_idx for every index idx: the input's indices
    ride along as trailing tag factors, so a rewrite chain run on it builds
    every column of a linear map at once.
    """
    dims = tuple(dims)
    one = field.one
    return TermSum._trusted(field, dims + dims, {
        idx + idx: one for idx in product(*map(range, dims))})


def _matrix_of(field, in_dims: tuple[int, ...], image) -> Mat:
    """The matrix whose column for basis index `idx` of `in_dims` is image(e_idx).

    `image` runs once, on every basis input at once (`tagged_basis`); the
    tags of an output term name its column.  Each term is re-keyed to
    (row, column) and the result wrapped by `Mat._trusted` as it is.
    """
    res = image(tagged_basis(field, in_dims))
    k = len(in_dims)
    out_dims = res.dims[:-k]
    return Mat._trusted(field, (prod(out_dims), prod(in_dims)), {
        (flatten_index(key[:-k], out_dims), flatten_index(key[-k:], in_dims)): v
        for key, v in res.terms.items()})
