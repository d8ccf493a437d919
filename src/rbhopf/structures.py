"""Algebras, coalgebras, bialgebras and Hopf algebras by structure constants.

An `AlgebraicStructure` is a based vector space of finite dimension together
with whichever structure maps it carries: multiplication, comultiplication,
unit, counit, antipode.  Unit and counit are optional independently (the
package works with non-unital algebras and non-counital coalgebras), and
every axiom has an exact checker returning an `AxiomVerdict` whose defect
pinpoints the first violated structure constant.

`builtin` exposes a zoo of verified fixtures: small group algebras, the dual
group algebra of C2, Sweedler's 4-dimensional Hopf algebra, grouplike
coalgebras, and a 3-dimensional bialgebra with a unit but no counit.
"""

from __future__ import annotations

from itertools import islice, permutations, product

from .errors import BudgetExceededError, ShapeError
from .fields import QQ, parse_decimal
from .linalg import Mat, Tensor3, Vec, _Echelon
from .record import Record
from .tensorops import TermSum, _cache, _matrix_of, _reading, basis_batches


class DefectReport(Record):
    """Residual of a failed identity.

    `residual` maps (input basis indices..., output basis indices...) to the
    nonzero residual scalar (`check_bialgebra_map` keys by matrix position
    instead, see there); `witness` is its lexicographically first key.
    """

    identity: str
    residual: dict
    witness: tuple[int, ...]

    def __str__(self):
        return (f"{self.identity} fails at {self.witness} "
                f"({len(self.residual)} nonzero residual entries)")


class AxiomVerdict(Record):
    passed: bool
    defect: DefectReport | None = None

    def __bool__(self):
        return self.passed


def _verdict(identity: str, residuals, tags: int = 0, key=None) -> AxiomVerdict:
    """Collect residual TermSums into a verdict.

    `residuals` yields (input prefix tuple, TermSum).  The last `tags` factors of
    each TermSum are the rest of the input indices (see `basis_batches`);
    they move in front of the output indices, so every residual key reads
    (input indices..., output indices...) however the inputs were batched.
    A `key` function, when given, then maps each such key to the one the
    identity reports.  The residual is sorted by key and the witness is its
    first key.
    """
    entries: dict = {}
    for prefix, res in residuals:
        for k, val in res.terms.items():
            if tags:
                k = k[-tags:] + k[:-tags]
            entries[prefix + k] = val
    if not entries:
        return AxiomVerdict(True)
    if key is not None:
        entries = {key(k): val for k, val in entries.items()}
    entries = dict(sorted(entries.items()))
    return AxiomVerdict(False, DefectReport(identity, entries, next(iter(entries))))


def _batched(identity: str, field, dims: tuple, residual):
    """A lazy verdict part: `residual` run on tagged batches of basis inputs.

    `residual` is written for one basis tensor of shape `dims`; it receives
    each tagged batch of `basis_batches` instead: one per leading basis
    index when there are several input factors (a batch then holds
    dim^(k-1) inputs), a single batch of all inputs when there is one.
    Returns the arguments of `_verdict`.
    """
    lead = 1 if len(dims) > 1 else 0
    batches = ((p, residual(t)) for p, t in basis_batches(field, dims, lead))
    return identity, batches, len(dims) - lead


def _on_generators(identity: str, field, dims: tuple, slot, gens,
                   residual, charge=lambda count: None):
    """A lazy verdict part like `_batched`, certified on generators.

    `slot` names one input factor and `gens` its indices, or `slot` is a
    tuple of factors and `gens` the tuple of their index sets; one factor
    is the one-element case.  For an identity that holds for all inputs
    once it holds on the certified grid, the inputs whose indices in the
    slots form a combination in the product of `gens` (the checkers'
    docstrings prove this for theirs), `residual` runs on one batch per
    combination c: every basis input with c in the slots, tagged with its
    other indices.  If any residual is nonzero, the same batches run for
    every combination outside the grid, and `charge` is told their inputs
    first; the keys are put back in (input indices..., output indices...)
    order, so the verdict is the one `_batched` gives.  With `gens` None
    the part is `_batched`'s.
    """
    if gens is None:
        return _batched(identity, field, dims, residual)
    if isinstance(slot, int):
        slot, gens = (slot,), (gens,)
    slots, gens = zip(*sorted(zip(slot, gens)))
    others = tuple(d for i, d in enumerate(dims) if i not in slots)
    rests = list(product(*map(range, others)))
    tagged = dims + others
    one = field.one

    def batch(c):
        axes = list(map(range, dims))
        for i, g in zip(slots, c):
            axes[i] = (g,)
        # Both products run in lexicographic order of the other indices.
        return residual(TermSum._trusted(field, tagged, {
            x + r: one for x, r in zip(product(*axes), rests)}))

    def residuals():
        failed = False
        for c in product(*gens):
            res = batch(c)
            failed = failed or not res.is_zero()
            yield c, res
        if failed:
            grid = set(product(*gens))
            rest = [c for c in product(*(range(dims[i]) for i in slots))
                    if c not in grid]
            charge(len(rest) * len(rests))
            for c in rest:
                yield c, batch(c)

    def key(k):
        # Keys arrive as (c..., other indices..., output...).
        x = list(k[len(slots):len(slots) + len(others)])
        for i, g in zip(slots, k):
            x.insert(i, g)
        return tuple(x) + k[len(slots) + len(others):]

    leading = slots == tuple(range(len(slots)))
    return identity, residuals(), len(others), None if leading else key


def _meter(budget: int | None, message: str):
    """A `charge(count)` that adds up counts of basis inputs and raises
    `BudgetExceededError(message)` once they exceed `budget` (None: never)."""
    spent = 0

    def charge(count: int):
        nonlocal spent
        spent += count
        if budget is not None and spent > budget:
            raise BudgetExceededError(message)

    return charge


def _first_failure(parts) -> AxiomVerdict:
    """Run identity parts in order; the first failure wins.

    Each part is (identity, residuals), (identity, residuals, tags) or
    (identity, residuals, tags, key), as `_verdict` takes them.
    """
    for part in parts:
        v = _verdict(*part)
        if not v.passed:
            return v
    return AxiomVerdict(True)


def _record(kind: str, value, *maps):
    """Record the fact `kind` about `maps`, with `value`.

    Stored in the first map's `tensorops._cache` under (kind, ids of the
    other maps), with those maps held so their ids stay unique.  All maps
    are immutable, so a record stays true.  The kinds: "light" (G) and
    "factors" on a multiplication, "multiplicative" on (mul, Δ),
    "projection" on (i, π, H, C), and what `hopfmod` builds from a
    proved projection: "<side>-projection-action" on (action, H),
    "<side>-projection-coaction" on (coaction, H),
    "<side>-projection-module" (value C) on (action, coaction, H) and
    "pi-operator" on (Π, C's mul)."""
    first, *others = maps
    _cache(first)[(kind, *map(id, others))] = (value, others)


def _recorded(kind: str, *maps):
    """The value `_record` stored for `kind` on `maps`, or None."""
    first, *others = maps
    return _cache(first).get((kind, *map(id, others)), (None,))[0]


class AlgebraicStructure(Record):
    """A based space with optional mul/comul/unit/counit/antipode.

    Structure constants: mul[i,j,k] is the e_k coefficient of e_i·e_j,
    comul[i,j,k] the e_j⊗e_k coefficient of Δ(e_i).  The antipode, like all
    maps here, acts on column vectors, so column i is the image of e_i.
    """

    dim: int
    field: object
    mul: Tensor3 | None = None
    comul: Tensor3 | None = None
    unit: Vec | None = None
    counit: Mat | None = None
    antipode: Mat | None = None
    names: tuple[str, ...] | None = None

    def __post_init__(self):
        n = self.dim
        if n < 0:
            raise ShapeError(f"dimension must be nonnegative, got {n}")
        if self.mul is None and self.comul is None:
            raise ShapeError("a structure needs a multiplication or a comultiplication")
        for t3 in (self.mul, self.comul):
            if t3 is not None and (t3.dims != (n, n, n) or t3.field != self.field):
                raise ShapeError(f"structure constants do not fit dim {n}")
        if self.unit is not None:
            if self.mul is None:
                raise ShapeError("unit requires a multiplication")
            if self.unit.dim != n or self.unit.field != self.field:
                raise ShapeError("unit vector does not fit")
        if self.counit is not None:
            if self.comul is None:
                raise ShapeError("counit requires a comultiplication")
            if (self.counit.rows, self.counit.cols) != (1, n) or \
                    self.counit.field != self.field:
                raise ShapeError("counit must be a 1 x dim map")
        if self.antipode is not None:
            if None in (self.mul, self.comul, self.unit, self.counit):
                raise ShapeError("antipode requires mul, comul, unit and counit")
            if (self.antipode.rows, self.antipode.cols) != (n, n) or \
                    self.antipode.field != self.field:
                raise ShapeError("antipode must be a dim x dim map")
        if self.names is not None and len(self.names) != n:
            raise ShapeError("wrong number of basis names")

    def require(self, attr: str):
        val = getattr(self, attr)
        if val is None:
            raise ValueError(f"structure has no {attr}")
        return val

    @property
    def kind(self) -> str:
        """The richest kind this structure's maps support."""
        if self.antipode is not None:
            return "hopf"
        if self.mul is not None and self.comul is not None:
            return "bialgebra"
        return "algebra" if self.mul is not None else "coalgebra"


# ---------------------------------------------------------------------------
# Axiom checkers
# ---------------------------------------------------------------------------

def _associator(mul: Tensor3):
    """The residual (ab)c - a(bc) of a basis tensor a⊗b⊗c, or of a tagged batch."""
    def residual(t):
        return (t.merge_at(0, mul).merge_at(0, mul)
                - t.merge_at(1, mul).merge_at(0, mul))

    return residual


def _generators(s: AlgebraicStructure, charge=lambda count: None,
                triples: bool = True) -> list[int]:
    """Basis indices G whose closure U under u ↦ u·g, u ↦ g·u is the whole space.

    Greedy: e_0, e_1, ... are taken in order, e_i joins G when it is not yet
    in U, and U is then closed again under products with G.  Each closure
    round computes the products of every pending (u, g) pair with one
    `merge_at` per side, the pairs told apart by a tag factor, and reduces
    them against U, kept as a sparse echelon basis (`linalg._Echelon`).
    With few products G can be the whole basis.

    `charge` is told each count of basis inputs before they are evaluated:
    the terms of a closure round, and (with `triples`) the n² triples
    (x, g, y) of Light's test as soon as g joins G, so that an over-budget
    test stops early.
    """
    mul, field, n = s.mul, s.field, s.dim
    echelon = _Echelon(field)
    vecs = echelon.rows.values()  # live, in the order the vectors were found
    gens: list = []

    def products(pairs):
        size = (n, n, len(pairs))
        ug = TermSum._trusted(field, size, {
            (k, g, p): c for p, (u, g) in enumerate(pairs) for k, c in u.items()})
        gu = TermSum._trusted(field, size, {
            (g, k, p): c for p, (u, g) in enumerate(pairs) for k, c in u.items()})
        charge(2 * len(ug.terms))
        out = [{} for _ in range(2 * len(pairs))]
        for (k, p), c in ug.merge_at(0, mul).terms.items():
            out[p][k] = c
        for (k, p), c in gu.merge_at(0, mul).terms.items():
            out[len(pairs) + p][k] = c
        return out

    for i in range(n):
        if len(vecs) == n:
            break
        v = echelon.reduce({i: field.one})
        if v is None:
            continue
        if triples:
            charge(n * n)
        gens.append(i)
        pairs = [(u, i) for u in vecs]
        fresh = len(vecs)
        echelon.add(v)
        while fresh < len(vecs) < n:
            pairs += [(u, g) for u in islice(vecs, fresh, None) for g in gens]
            fresh = len(vecs)
            for w in products(pairs):
                w = echelon.reduce(w)
                if w is not None:
                    echelon.add(w)
            pairs = []
    return gens


def check_associativity(s: AlgebraicStructure,
                        budget: int | None = None) -> AxiomVerdict:
    """(ab)c = a(bc) on all basis triples, certified by Light's test.

    Light's criterion (Clifford and Preston, *The Algebraic Theory of
    Semigroups* I, 1961, §1.2).  Let B = {b : (xb)y = x(by) for all x, y}.

    - B is a subspace.
    - B is closed under products: for b, c in B,
      (x(bc))y = ((xb)c)y = (xb)(cy) = x(b(cy)) = x((bc)y).
    - So if G ⊆ B, the closure of G under left and right products with G
      lies in B, and when that closure spans the space, B is everything.

    This needs no unit and holds over any field.  `_generators` picks G,
    and the identity is evaluated on the |G|·n² basis triples (x, g, y),
    one batch of e_x⊗e_g⊗e_y tagged (x, y) per generator g
    (`_on_generators`).  If any residual is nonzero, the same batches run
    for every other middle index b, so a failure costs the n³ triples of
    the full check and its verdict (residual over all basis triples,
    witness its first key) is the one the full check reports.

    A multiplication built by `tensor_product` needs no triples of its
    own: (a⊗b)(c⊗d) = ac⊗bd, so ((a⊗b)(c⊗d))(e⊗f) = (ac)e⊗(bd)f and
    (a⊗b)((c⊗d)(e⊗f)) = a(ce)⊗b(df), equal whenever both factors are
    associative.  A call without `budget` therefore asks `_proved`, the
    one prover of associativity (see there).  A product can be
    associative when a factor is not (a zero multiplication on the other
    side), so a failing factor sends the product through Light's test
    unchanged, and its verdict is the one it always was.

    A pass records G as "light" on `s.mul` (`_record`), so a call without
    `budget` on a multiplication already proved associative does no work.
    Failures are not recorded: their residual is a mutable dict.

    `budget`, when given, bounds the basis inputs the check hands to the
    rewrite kernel, closure products included: `BudgetExceededError` is
    raised as soon as the inputs it is committed to exceed it.  A budgeted
    call reads neither the record nor the factors, so it charges what it
    always did.
    """
    mul = s.require("mul")
    if budget is None and _proved(mul, own_test=False) is not None:
        return AxiomVerdict(True)
    return _light_test(mul, _meter(
        budget, f"associativity on dim {s.dim} needs more than {budget} basis inputs"))


def _light_test(mul: Tensor3, charge) -> AxiomVerdict:
    """Light's test on `mul` (see `check_associativity`), charging the
    inputs it schedules; a pass records G as "light" on `mul`."""
    gens = _generators(_algebra(mul), charge)
    v = _verdict(*_on_generators("associativity", mul.field, mul.dims, 1,
                                 gens, _associator(mul), charge))
    if v.passed:
        _record("light", tuple(gens), mul)
    return v


def _algebra(mul: Tensor3) -> AlgebraicStructure:
    return AlgebraicStructure(mul.dims[0], mul.field, mul=mul)


def _unit_index(mul: Tensor3):
    """The u for which e_u is a two-sided unit of `mul`, read from its
    fan-out, or None when no basis vector is one."""
    n = mul.dims[0]
    fan = _reading(mul, "pair")[0]
    one = mul.field.one
    for u in range(n):
        if all(fan[u * n + i] == fan[i * n + u] == (((i,), one),)
               for i in range(n)):
            return u
    return None


def _proved(mul: Tensor3, charge=lambda count: None, own_test: bool = True):
    """G of `mul` when `mul` is proved associative, else None.

    The one prover of associativity; `charge` is told the basis inputs
    each step schedules.  Three sources, in order:

    1. the G recorded as "light" on `mul` by an earlier proof;
    2. for a `tensor_product` whose factors are `_proved` (recursively, at
       their size), G read off the factors (see `check_associativity`),
       recorded on `mul`;
    3. with `own_test`, Light's test on `mul`, whose pass records G.

    In 2, when the factors A, B have basis vectors e_u, e_v that are
    two-sided units, G = {g⊗e_v : g ∈ G_A} ∪ {e_u⊗h : h ∈ G_B}, with no
    product of A⊗B evaluated.  Words in G_A span A (Light's closure of G_A
    lies in their span) and (a⊗1)(a'⊗1) = aa'⊗1, so words in G_A⊗1 span
    A⊗1; likewise 1⊗B; and (a⊗1)(1⊗b) = a⊗b, so words in G span A⊗B,
    which is all Light's criterion and the certificates ask of G.
    Otherwise G is the closure `_generators` finds at product size,
    charging its products.  A failing factor falls through to 3.
    """
    gens = _recorded("light", mul)
    if gens is not None:
        return gens
    factors = _recorded("factors", mul)
    if factors is not None and all(_proved(f, charge) is not None for f in factors):
        units = list(map(_unit_index, factors))
        if None in units:
            gens = _generators(_algebra(mul), charge, triples=False)
        else:
            ga, gb = (_recorded("light", f) for f in factors)
            nb = factors[1].dims[0]
            gens = sorted({g * nb + units[1] for g in ga}
                          | {units[0] * nb + h for h in gb})
        _record("light", tuple(gens), mul)
    elif own_test:
        _light_test(mul, charge)
    return _recorded("light", mul)


def _comul_product(mul: Tensor3, comul: Tensor3):
    """The residual Δ(ab) - Δ(a)Δ(b) of a basis tensor a⊗b, or of a tagged batch."""
    def residual(t):
        lhs = t.merge_at(0, mul).split_at(0, comul)
        rhs = (t.split_at(0, comul).split_at(2, comul)
               .permute((0, 2, 1, 3)).merge_at(0, mul).merge_at(1, mul))
        return lhs - rhs

    return residual


def _generators_within(mul: Tensor3, budget: int, comul: Tensor3 | None = None):
    """G of `mul` when a generator certificate may be used, else None.

    A certificate needs `mul` associative (`_proved`, whose G it uses)
    and, when `comul` is given, Δ(ab) = Δ(a)Δ(b) (`_multiplicative`).
    Each fact not recorded yet is proved on at most `budget` basis inputs
    in all: the count of the identity to be certified, so that a
    precondition costs no more than the full check it may replace.  None
    when one fails or the budget runs out; the caller then runs the full
    check.
    """
    charge = _meter(budget, "precondition over budget")
    try:
        gens = _proved(mul, charge)
        if gens is None or comul is None or _multiplicative(mul, comul, gens, charge):
            return gens
    except BudgetExceededError:
        pass
    return None


def _multiplicative(mul: Tensor3, comul: Tensor3, gens,
                    charge=lambda count: None) -> AxiomVerdict:
    """The verdict of Δ(ab) = Δ(a)Δ(b), certified on the G `gens` of `mul`
    (see `check_bialgebra`), or on all pairs when `gens` is None; the one
    place it is evaluated.  A recorded pass is read first.  A pass is
    recorded as "multiplicative" on (mul, Δ) only on all pairs or on the G
    recorded for `mul`: on any other set it proves nothing."""
    if _recorded("multiplicative", mul, comul):
        return AxiomVerdict(True)
    n = mul.dims[0]
    charge(n * (n if gens is None else len(gens)))
    v = _verdict(*_on_generators("comul-multiplicative", mul.field, mul.dims[:2],
                                 1, gens, _comul_product(mul, comul), charge))
    if v.passed and (gens is None or gens == _recorded("light", mul)):
        _record("multiplicative", True, mul, comul)
    return v


def _inherited_generators(mul: Tensor3, budget: int):
    """G of `mul` when it is `_proved` without a Light's test of its own
    (a recorded G, or a tensor product of associative factors, charged
    within `budget`), else None."""
    try:
        return _proved(mul, _meter(budget, "precondition over budget"),
                       own_test=False)
    except BudgetExceededError:
        return None


def check_coassociativity(s: AlgebraicStructure) -> AxiomVerdict:
    """(Δ⊗id)Δ = (id⊗Δ)Δ on all basis vectors."""
    comul = s.require("comul")

    def residual(t):
        t = t.split_at(0, comul)
        return t.split_at(0, comul) - t.split_at(1, comul)

    return _verdict(*_batched("coassociativity", s.field, (s.dim,), residual))


def check_unit_counit(s: AlgebraicStructure) -> AxiomVerdict:
    """1·a = a·1 = a and (ε⊗id)Δ = (id⊗ε)Δ = id, for the maps present."""
    if s.unit is None and s.counit is None:
        raise ValueError("structure has neither unit nor counit")
    field, dims = s.field, (s.dim,)
    parts = []
    if s.unit is not None:
        mul, unit = s.mul, s.unit
        parts += [
            _batched("left-unit", field, dims,
                     lambda t: t.insert_at(0, unit).merge_at(0, mul) - t),
            _batched("right-unit", field, dims,
                     lambda t: t.insert_at(1, unit).merge_at(0, mul) - t)]
    if s.counit is not None:
        comul, counit = s.comul, s.counit
        parts += [
            _batched("left-counit", field, dims, lambda t: (
                t.split_at(0, comul).map_at(0, counit).drop_at(0) - t)),
            _batched("right-counit", field, dims, lambda t: (
                t.split_at(0, comul).map_at(1, counit).drop_at(1) - t))]
    return _first_failure(parts)


def check_bialgebra(s: AlgebraicStructure) -> AxiomVerdict:
    """Δ and (when present) ε, 1 are compatible with the multiplication.

    Δ(ab) = Δ(a)Δ(b) on basis pairs; if a counit exists, ε(ab) = ε(a)ε(b);
    if a unit exists, Δ(1) = 1⊗1; if both exist, ε(1) = 1.

    When the multiplication is associative, the first two are certified on
    the pairs (a, g) with g in a generating set G (`_on_generators`): if
    Δ(ab) = Δ(a)Δ(b) for all a and b in {g, g'}, then
    Δ(a(gg')) = Δ((ag)g') = Δ(a)Δ(g)Δ(g') = Δ(a)Δ(gg'), and likewise for ε.
    Δ(ab) = Δ(a)Δ(b) is `_multiplicative`'s, which reads and records it.
    """
    mul = s.require("mul")
    comul = s.require("comul")
    field, n = s.field, s.dim
    dims = (n, n)
    gens = _generators_within(mul, n * n)
    v = _multiplicative(mul, comul, gens)
    if not v.passed:
        return v
    parts = []
    if s.counit is not None:
        counit = s.counit

        def counit_mult(t):
            return (t.merge_at(0, mul).map_at(0, counit)
                    - t.map_at(0, counit).map_at(1, counit).drop_at(1))

        parts.append(_on_generators("counit-multiplicative", field, dims, 1,
                                    gens, counit_mult))
    if s.unit is not None:
        unit = s.unit

        def unit_grouplike():
            t = TermSum.from_vec(unit)
            yield (), t.split_at(0, comul) - t.insert_at(1, unit)

        parts.append(("comul-unit", unit_grouplike()))
    if s.unit is not None and s.counit is not None:
        unit, counit = s.unit, s.counit

        def counit_unit():
            one = TermSum(field, (1,), {(0,): field.one})
            yield (), TermSum.from_vec(unit).map_at(0, counit) - one

        parts.append(("counit-unit", counit_unit()))
    return _first_failure(parts)


def check_antipode(s: AlgebraicStructure) -> AxiomVerdict:
    """S(a₁)a₂ = ε(a)1 = a₁S(a₂) on all basis vectors."""
    antipode = s.require("antipode")
    mul, comul, unit, counit = s.mul, s.comul, s.unit, s.counit

    def side(pos):
        return lambda t: (
            t.split_at(0, comul).map_at(pos, antipode).merge_at(0, mul)
            - t.map_at(0, counit).insert_at(0, unit).drop_at(1))

    return _first_failure([
        _batched("antipode-left", s.field, (s.dim,), side(0)),
        _batched("antipode-right", s.field, (s.dim,), side(1))])


def _h_position(side: str) -> int:
    """Where H sits next to M on `side`: 1 on the right (M⊗H), 0 on the left (H⊗M).

    The placement rule every left/right identity is written with: it names
    H's factor, M's is the other one, and `_placed` builds shapes from it.
    """
    if side not in ("left", "right"):
        raise ShapeError(f"side must be 'left' or 'right', got {side!r}")
    return ("left", "right").index(side)


def _placed(h_pos: int, m_part: tuple, h_part: tuple) -> tuple:
    """`m_part` and `h_part` joined in the order `h_pos` gives (`_h_position`)."""
    return (h_part + m_part, m_part + h_part)[h_pos]


def check_comodule(hopf: AlgebraicStructure, m_dim: int, coaction: Mat,
                   side: str) -> AxiomVerdict:
    """Coassociativity and (when ε exists) counitality of a coaction.

    Right coactions map M → M⊗H and satisfy
    m₍₀₎⊗m₍₁₎₁⊗m₍₁₎₂ = m₍₀₎₍₀₎⊗m₍₀₎₍₁₎⊗m₍₁₎; left coactions map M → H⊗M and
    satisfy m₍₋₁₎₁⊗m₍₋₁₎₂⊗m₍₀₎ = m₍₋₁₎⊗m₍₀₎₍₋₁₎⊗m₍₀₎₍₀₎.
    """
    comul = hopf.require("comul")
    h = hopf.dim
    h_pos = _h_position(side)
    m_pos = 1 - h_pos
    out_dims = _placed(h_pos, (m_dim,), (h,))
    if coaction.rows != m_dim * h or coaction.cols != m_dim or \
            coaction.field != hopf.field:
        raise ShapeError(f"coaction must be {m_dim * h} x {m_dim}")
    if _recorded(f"{side}-projection-coaction", coaction, hopf):
        return AxiomVerdict(True)

    def coassoc(t):
        rho = t.split_map_at(0, coaction, out_dims)
        return (rho.split_at(h_pos, comul)
                - rho.split_map_at(m_pos, coaction, out_dims))

    def counital(t):
        return (t.split_map_at(0, coaction, out_dims)
                .map_at(h_pos, hopf.counit).drop_at(h_pos) - t)

    dims = (m_dim,)
    parts = [_batched(f"{side}-coaction-coassociativity", hopf.field, dims, coassoc)]
    if hopf.counit is not None:
        parts.append(_batched(f"{side}-coaction-counital", hopf.field, dims, counital))
    return _first_failure(parts)


def check_module(hopf: AlgebraicStructure, m_dim: int, action: Mat,
                 side: str) -> AxiomVerdict:
    """Associativity and (when 1 exists) unitality of a module action.

    When H is associative, associativity is certified on a generating set
    G of H (`_on_generators`), in h' on the right and h on the left.  If
    (m·h)·x = m·(hx) for all m, h and x in {g, g'}, then (m·h)·(gg') =
    ((m·h)·g)·g' = (m·(hg))·g' = m·((hg)g') = m·(h(gg')); on the left,
    (gg')·(h·m) = g·(g'·(h·m)) = g·((g'h)·m) = (g(g'h))·m = ((gg')h)·m.

    An action from `hopfmod.hopf_module_from_projection` of a proved
    projection carries both axioms, and its coaction those of
    `check_comodule`, each one record on the map, its side and H (the
    proof is in that constructor's docstring): none is evaluated.
    """
    mul = hopf.require("mul")
    h = hopf.dim
    h_pos = _h_position(side)
    if action.rows != m_dim or action.cols != m_dim * h or action.field != hopf.field:
        raise ShapeError(f"action must be {m_dim} x {m_dim * h}")
    field = hopf.field

    def assoc(t):
        return (t.merge_map_at(1 - h_pos, action).merge_map_at(0, action)
                - t.merge_at(h_pos, mul).merge_map_at(0, action))

    if _recorded(f"{side}-projection-action", action, hopf):
        return AxiomVerdict(True)
    parts = [_on_generators(f"{side}-action-associativity", field,
                            _placed(h_pos, (m_dim,), (h, h)), 2 * h_pos,
                            _generators_within(mul, m_dim * h * h), assoc)]
    if hopf.unit is not None:
        parts.append(_batched(f"{side}-action-unital", field, (m_dim,), lambda t: (
            t.insert_at(h_pos, hopf.unit).merge_map_at(0, action) - t)))
    return _first_failure(parts)


def _record_projection(embed: Mat, project: Mat, hopf: AlgebraicStructure,
                       big: AlgebraicStructure):
    """Record the projection (i, π, H, C) as proved when H passes every
    axiom of `_AXIOMS`, C coassociativity and unit-counit, and C is
    associative, with G read from a record or its factors (`_proved`, no
    Light's test of C), and Δ(ab) = Δ(a)Δ(b) (`_multiplicative`).

    `hopfmod.projection_bialgebra` calls this once it has passed i and π
    as bialgebra maps and π∘i = id, so a record names a projection whose
    every precondition holds.  It is recorded as "projection" on
    (i, π, H, C) (`_record`); the maps built from it record what they
    carry only when it is there.  A failure records no projection.
    """
    axioms = [(hopf, checker) for _, checker, _ in _AXIOMS] + [
        (big, "check_coassociativity"), (big, "check_unit_counit")]
    if not all(globals()[checker](s).passed for s, checker in axioms):
        return
    gens = _proved(big.mul, own_test=False)
    if gens is not None and _multiplicative(big.mul, big.comul, gens):
        _record("projection", True, embed, project, hopf, big)


def check_bialgebra_map(f: Mat, src: AlgebraicStructure,
                        dst: AlgebraicStructure) -> AxiomVerdict:
    """f preserves mul, comul, unit and counit (all required on both sides).

    Checks f(ab) = f(a)f(b), Δf = (f⊗f)Δ, f(1) = 1 and ε∘f = ε, in that
    order, on batched basis inputs.  Each residual is keyed (row, column) in
    the matrix of its difference map, with tensor factors flattened by
    `kron_index`; for ns = src.dim and nd = dst.dim:

    - map-multiplicative: (k, i·ns + j) for the e_k coefficient of
      f(e_i e_j) - f(e_i)f(e_j);
    - map-comultiplicative: (j·nd + k, i) for the e_j⊗e_k coefficient of
      Δf(e_i) - (f⊗f)Δ(e_i);
    - map-unit: (k, 0) for the e_k coefficient of f(1) - 1;
    - map-counit: (0, i) for ε(f(e_i)) - ε(e_i).

    When both multiplications are proved associative (`_proved`, within
    the identity's ns² inputs in all), f(ab) = f(a)f(b) is certified on
    the pairs (a, g) with g in src's generating set G (`_on_generators`).
    Let B = {b : f(ab) = f(a)f(b) for all a}, a subspace.  For b, b' in B,
    f(a(bb')) = f((ab)b') = f(ab)f(b') = (f(a)f(b))f(b') = f(a)(f(b)f(b'))
    = f(a)f(bb'), by src's associativity, b' ∈ B, b ∈ B, dst's
    associativity and b' ∈ B again; so B is closed under products, and
    G ⊆ B gives every word in G, which span src.  A nonzero residual runs
    every other b, so a failing verdict is the full check's.  A G found
    here is recorded on its multiplication (`_proved`); nothing is
    recorded on `f`: `hopfmod.projection_bialgebra` records the
    projection it validates (`_record_projection`).
    """
    for s in (src, dst):
        for attr in ("mul", "comul", "unit", "counit"):
            s.require(attr)
    if f.rows != dst.dim or f.cols != src.dim:
        raise ShapeError(f"map must be {dst.dim} x {src.dim}")
    field, ns, nd = src.field, src.dim, dst.dim

    def multiplicative(t):
        return (t.merge_at(0, src.mul).map_at(0, f)
                - t.map_at(0, f).map_at(1, f).merge_at(0, dst.mul))

    def comultiplicative(t):
        return (t.map_at(0, f).split_at(0, dst.comul)
                - t.split_at(0, src.comul).map_at(0, f).map_at(1, f))

    def unital():
        yield (), (TermSum.from_vec(src.unit).map_at(0, f)
                   - TermSum.from_vec(dst.unit))

    def counital(t):
        return t.map_at(0, f).map_at(0, dst.counit) - t.map_at(0, src.counit)

    charge = _meter(ns * ns, "precondition over budget")
    try:
        gens = _proved(src.mul, charge)
        if gens is not None and _proved(dst.mul, charge) is None:
            gens = None
    except BudgetExceededError:
        gens = None
    identity, residuals, tags, *order = _on_generators(
        "map-multiplicative", field, (ns, ns), 1, gens, multiplicative)

    def position(k):
        # A certified key comes back in (i, j, output) order through `order`.
        i, j, out = order[0](k) if order else k
        return out, i * ns + j

    return _first_failure([
        (identity, residuals, tags, position),
        (*_batched("map-comultiplicative", field, (ns,), comultiplicative),
         lambda k: (k[1] * nd + k[2], k[0])),
        ("map-unit", unital(), 0, lambda k: (k[0], 0)),
        (*_batched("map-counit", field, (ns,), counital),
         lambda k: (k[1], k[0])),
    ])


# ---------------------------------------------------------------------------
# Counit solving
# ---------------------------------------------------------------------------

def counit_solutions(s: AlgebraicStructure) -> tuple[Vec | None, list[Vec]]:
    """Affine solution set of the counit equations (ε⊗id)Δ = (id⊗ε)Δ = id.

    Returns (particular solution or None, basis of the homogeneous kernel):
    the solution whose free coordinates are 0, and one kernel vector per
    free coordinate.  Each equation is a sparse row over ε_0..ε_{n-1} with
    its right-hand side at index n: Σ_j Δ[i,j,k] ε_j = δ_ik and
    Σ_k Δ[i,j,k] ε_k = δ_ij.
    """
    comul = s.require("comul")
    n, field = s.dim, s.field
    left: dict = {}   # (i, k) -> {j: Δ[i,j,k]}
    right: dict = {}  # (i, j) -> {k: Δ[i,j,k]}
    for (i, j, k), v in comul.entries.items():
        left.setdefault((i, k), {})[j] = v
        right.setdefault((i, j), {})[k] = v
    echelon = _Echelon(field)
    for i in range(n):
        for rows in (left, right):
            rows.setdefault((i, i), {})[n] = field.one
    for row in (*left.values(), *right.values()):
        row = echelon.reduce(row)
        if row is not None:
            echelon.add(row)
    particular, kernel = echelon.solve(n)

    def vec(x):
        return Vec._trusted(field, (n,), {(c,): v for c, v in x.items()})

    return (None if particular is None else vec(particular),
            [vec(x) for x in kernel])


def find_bialgebra_counit(s: AlgebraicStructure) -> Vec | None:
    """The unique counit making s a counital bialgebra, or None if provably none.

    Counitality is a linear system in ε, with at most one solution: if ε
    and ε' both solve it, ε' = ε'(ε⊗id)Δ = (ε⊗ε')Δ = ε(id⊗ε')Δ = ε.  If it
    is inconsistent, or its solution is not multiplicative (or sends the
    unit elsewhere than 1), no counit exists and None is returned.
    """
    s.require("mul")
    particular, _ = counit_solutions(s)
    if particular is None:
        return None
    eps = particular.as_row()
    candidate = AlgebraicStructure(s.dim, s.field, mul=s.mul, comul=s.comul,
                                   unit=s.unit, counit=eps)
    if check_bialgebra(candidate).passed and check_unit_counit(candidate).passed:
        return particular
    return None


# ---------------------------------------------------------------------------
# Tensor products
# ---------------------------------------------------------------------------

def _tensor3_product(x: Tensor3, y: Tensor3) -> Tensor3:
    """x ⊗ y on (A⊗B)^3, each index pair flattened as i1·dim(B) + i2.

    The flattening is injective, so every key arises from one pair of
    entries: nothing is summed.  Over a field a product of nonzero entries
    is nonzero, so the result is wrapped by `Tensor3._trusted` as it is;
    products with a factor that is the field's `one` are skipped.
    """
    one = x.field.one
    db = y.dims[0]
    ys = list(y.entries.items())
    entries = {}
    for (i1, j1, k1), v1 in x.entries.items():
        i1, j1, k1 = i1 * db, j1 * db, k1 * db
        unit = v1 is one
        for (i2, j2, k2), v2 in ys:
            entries[(i1 + i2, j1 + j2, k1 + k2)] = (
                v2 if unit else v1 if v2 is one else v1 * v2)
    n = x.dims[0] * db
    return Tensor3._trusted(x.field, (n, n, n), entries)


def tensor_product(a: AlgebraicStructure, b: AlgebraicStructure) -> AlgebraicStructure:
    """The tensor product structure on A ⊗ B (componentwise, no braiding).

    The product multiplication records the factor multiplications it was
    built from, as "factors" (`_record`).  Since (a⊗b)(c⊗d) = ac⊗bd,
    the associator of A⊗B on basis triples is
    (ac)e⊗(bd)f - a(ce)⊗b(df), which vanishes when both factors are
    associative; `_proved` then proves the factors instead of the product
    and reads G off them (see there).  The multiplication is immutable, so
    the record stays true; a copy of it (`Tensor3.from_terms`, pickling)
    has no record and is checked in full.
    """
    if a.field != b.field:
        raise ShapeError("tensor factors live over different fields")
    field = a.field
    da, db = a.dim, b.dim
    n = da * db

    mul = comul = None
    if a.mul is not None and b.mul is not None:
        mul = _tensor3_product(a.mul, b.mul)
        _record("factors", (a.mul, b.mul), mul)
    if a.comul is not None and b.comul is not None:
        comul = _tensor3_product(a.comul, b.comul)
    unit = a.unit.tensor(b.unit) if a.unit is not None and b.unit is not None else None
    counit = antipode = None
    if a.counit is not None and b.counit is not None:
        counit = _matrix_of(field, (da, db), lambda t: (
            t.map_at(0, a.counit).map_at(1, b.counit)))
    if a.antipode is not None and b.antipode is not None:
        antipode = _matrix_of(field, (da, db), lambda t: (
            t.map_at(0, a.antipode).map_at(1, b.antipode)))
    names = None
    if a.names is not None and b.names is not None:
        names = tuple(f"{x}*{y}" for x in a.names for y in b.names)
    return AlgebraicStructure(n, field, mul=mul, comul=comul, unit=unit,
                              counit=counit, antipode=antipode, names=names)


# ---------------------------------------------------------------------------
# Builtin fixtures
# ---------------------------------------------------------------------------

def group_algebra(field, table, identity_idx, inverses, names) -> AlgebraicStructure:
    """Group algebra k[G] from a multiplication table of element indices.

    Basis elements are grouplike; the antipode sends g to its inverse.
    """
    n = len(table)
    one = field.one
    mul = Tensor3(field, (n, n, n),
                  {(i, j, table[i][j]): one for i in range(n) for j in range(n)})
    comul = Tensor3(field, (n, n, n), {(i, i, i): one for i in range(n)})
    unit = Vec.basis(field, n, identity_idx)
    counit = Mat(field, ((one,) * n,))
    antipode = Mat.from_function(
        field, n, n, lambda i, j: one if i == inverses[j] else field.zero)
    return AlgebraicStructure(n, field, mul=mul, comul=comul, unit=unit,
                              counit=counit, antipode=antipode,
                              names=tuple(names))


def cyclic_group_algebra(field, order: int) -> AlgebraicStructure:
    table = [[(i + j) % order for j in range(order)] for i in range(order)]
    inverses = [(-i) % order for i in range(order)]
    names = ["1"] + [f"g{i}" if i > 1 else "g" for i in range(1, order)]
    return group_algebra(field, table, 0, inverses, names)


def _perm_cycle_name(perm: tuple[int, ...]) -> str:
    seen = [False] * len(perm)
    cycles = []
    for start in range(len(perm)):
        if seen[start] or perm[start] == start:
            seen[start] = True
            continue
        cycle = [start]
        seen[start] = True
        nxt = perm[start]
        while nxt != start:
            cycle.append(nxt)
            seen[nxt] = True
            nxt = perm[nxt]
        cycles.append("(" + "".join(str(p + 1) for p in cycle) + ")")
    return "".join(cycles) if cycles else "e"


def symmetric_group_algebra(field, points: int) -> AlgebraicStructure:
    elements = sorted(permutations(range(points)))
    index = {p: i for i, p in enumerate(elements)}
    compose = lambda p, q: tuple(p[q[i]] for i in range(points))
    table = [[index[compose(p, q)] for q in elements] for p in elements]
    inverses = [index[tuple(sorted(range(points), key=lambda i: p[i]))]
                for p in elements]
    names = [_perm_cycle_name(p) for p in elements]
    return group_algebra(field, table, index[tuple(range(points))], inverses, names)


def sweedler_hopf_algebra(field) -> AlgebraicStructure:
    """Sweedler's 4-dimensional Hopf algebra on 1, g, x, gx.

    g² = 1, x² = 0, xg = -gx, Δ(g) = g⊗g, Δ(x) = x⊗1 + g⊗x; the antipode
    has S² ≠ id, which makes it the smallest genuinely noncommutative,
    noncocommutative test case.
    """
    one = field.one
    mul = {}
    for i in range(4):
        mul[(0, i, i)] = one
        mul[(i, 0, i)] = one
    mul[(1, 1, 0)] = one    # g g = 1
    mul[(1, 2, 3)] = one    # g x = gx
    mul[(1, 3, 2)] = one    # g gx = x
    mul[(2, 1, 3)] = -one   # x g = -gx
    mul[(3, 1, 2)] = -one   # gx g = -x
    comul = {
        (0, 0, 0): one,                   # Δ1 = 1⊗1
        (1, 1, 1): one,                   # Δg = g⊗g
        (2, 2, 0): one, (2, 1, 2): one,   # Δx = x⊗1 + g⊗x
        (3, 3, 1): one, (3, 0, 3): one,   # Δgx = gx⊗g + 1⊗gx
    }
    zero = field.zero
    antipode = Mat(field, (
        (one, zero, zero, zero),
        (zero, one, zero, zero),
        (zero, zero, zero, one),
        (zero, zero, -one, zero),
    ))  # S(x) = -gx, S(gx) = x
    return AlgebraicStructure(
        4, field,
        mul=Tensor3(field, (4, 4, 4), mul),
        comul=Tensor3(field, (4, 4, 4), comul),
        unit=Vec.basis(field, 4, 0),
        counit=Mat(field, ((one, one, zero, zero),)),
        antipode=antipode,
        names=("1", "g", "x", "gx"))


def example54_bialgebra(field) -> AlgebraicStructure:
    """3-dimensional bialgebra on x, y, z with a unit but provably no counit.

    x² = x, y² = y, z² = 0, xy = yx = y, yz = z, xz = zx = z, zy = 0, and
    every basis element is grouplike.  x is a two-sided unit; the unique
    solution of the counit equations fails multiplicativity on z.
    """
    one = field.one
    mul = {
        (0, 0, 0): one, (1, 1, 1): one,
        (0, 1, 1): one, (1, 0, 1): one,
        (1, 2, 2): one,
        (0, 2, 2): one, (2, 0, 2): one,
    }
    comul = {(i, i, i): one for i in range(3)}
    return AlgebraicStructure(
        3, field,
        mul=Tensor3(field, (3, 3, 3), mul),
        comul=Tensor3(field, (3, 3, 3), comul),
        unit=Vec.basis(field, 3, 0),
        names=("x", "y", "z"))


def dual_cyclic2(field) -> AlgebraicStructure:
    """Functions on C2 with pointwise product: the dual of k[C2]."""
    one, zero = field.one, field.zero
    mul = Tensor3(field, (2, 2, 2), {(0, 0, 0): one, (1, 1, 1): one})
    comul = Tensor3(field, (2, 2, 2), {
        (0, 0, 0): one, (0, 1, 1): one,
        (1, 0, 1): one, (1, 1, 0): one,
    })
    return AlgebraicStructure(
        2, field, mul=mul, comul=comul,
        unit=Vec(field, (one, one)),
        counit=Mat(field, ((one, zero),)),
        antipode=Mat.identity(field, 2),
        names=("d1", "dg"))


def grouplike_coalgebra(field, dim: int) -> AlgebraicStructure:
    """The coalgebra with Δ(e_i) = e_i⊗e_i and ε = 1 (no multiplication)."""
    one = field.one
    comul = Tensor3(field, (dim, dim, dim), {(i, i, i): one for i in range(dim)})
    return AlgebraicStructure(dim, field, comul=comul,
                              counit=Mat(field, ((one,) * dim,)))


def trivial_hopf_algebra(field) -> AlgebraicStructure:
    """The ground field as a 1-dimensional Hopf algebra."""
    one = field.one
    return AlgebraicStructure(
        1, field,
        mul=Tensor3(field, (1, 1, 1), {(0, 0, 0): one}),
        comul=Tensor3(field, (1, 1, 1), {(0, 0, 0): one}),
        unit=Vec(field, (one,)),
        counit=Mat(field, ((one,),)),
        antipode=Mat.identity(field, 1),
        names=("1",))


_BUILTINS = {
    "group:C2": lambda field: cyclic_group_algebra(field, 2),
    "group:C3": lambda field: cyclic_group_algebra(field, 3),
    "group:S3": lambda field: symmetric_group_algebra(field, 3),
    "sweedler4": sweedler_hopf_algebra,
    "example54": example54_bialgebra,
    "dual-group:C2": dual_cyclic2,
    "trivial": trivial_hopf_algebra,
}

_builtin_cache: dict = {}


def builtin_names() -> list[str]:
    return sorted(_BUILTINS) + ["grouplike:<n>"]


def builtin(name: str, field=QQ) -> AlgebraicStructure:
    """A verified fixture by name; see `builtin_names`.

    All applicable axiom checks are run once per (name, field) and must
    pass; instances are cached and shared (they are immutable).
    """
    key = (name, field)
    if key in _builtin_cache:
        return _builtin_cache[key]
    s = _unverified_builtin(name, field)
    _assert_axioms(name, s)
    _builtin_cache[key] = s
    return s


def _unverified_builtin(name: str, field=QQ) -> AlgebraicStructure:
    """The fixture `builtin` returns, built afresh with no axiom checked,
    for a caller that checks the axioms itself (`rbhopf verify`)."""
    if name.startswith("grouplike:"):
        dim = parse_decimal(name.split(":", 1)[1])
        if dim < 1:
            raise ValueError(f"grouplike dimension must be positive, got {dim}")
        return grouplike_coalgebra(field, dim)
    if name in _BUILTINS:
        return _BUILTINS[name](field)
    raise ValueError(f"unknown builtin {name!r}")


# The axioms of an `AlgebraicStructure`, in the order they run: each one's
# name, its checker (named, so a checker rebound on this module is the one
# called) and when it applies.  `builtin` and `rbhopf verify` both read this.
_AXIOMS = (
    ("associativity", "check_associativity", lambda s: s.mul is not None),
    ("coassociativity", "check_coassociativity", lambda s: s.comul is not None),
    ("unit-counit", "check_unit_counit",
     lambda s: s.unit is not None or s.counit is not None),
    ("bialgebra", "check_bialgebra",
     lambda s: s.mul is not None and s.comul is not None),
    ("antipode", "check_antipode", lambda s: s.antipode is not None),
)

# The basis inputs each axiom's full check evaluates on a structure of dim
# n: the n² pairs of the bialgebra axiom and n for the others.
# Associativity (None) charges what its Light's test schedules as it goes.
_AXIOM_INPUTS = {"associativity": None,
                 "coassociativity": lambda s: s.dim,
                 "unit-counit": lambda s: s.dim,
                 "bialgebra": lambda s: s.dim ** 2,
                 "antipode": lambda s: s.dim}


def _assert_axioms(name: str, s: AlgebraicStructure):
    for _, checker, applies in _AXIOMS:
        if applies(s):
            v = globals()[checker](s)
            if not v.passed:
                raise AssertionError(f"builtin {name} fails {v.defect}")


# Rota-Baxter operator families on the example54 fixture, one column per
# basis vector x, y, z.

def example54_p1(a, b, field=QQ) -> Mat:
    """P(x) = a·z, P(y) = b·z, P(z) = 0."""
    zero = field.zero
    return Mat(field, ((zero, zero, zero),
                       (zero, zero, zero),
                       (field.coerce(a), field.coerce(b), zero)))


def example54_p2(c, field=QQ) -> Mat:
    """P(x) = -c·x - c·y, P(y) = -c·y, P(z) = -c·z."""
    zero = field.zero
    c = field.coerce(c)
    return Mat(field, ((-c, zero, zero),
                       (-c, -c, zero),
                       (zero, zero, -c)))


def example54_q(d, field=QQ) -> Mat:
    """Q(x) = Q(y) = d·z, Q(z) = 0."""
    zero = field.zero
    d = field.coerce(d)
    return Mat(field, ((zero, zero, zero),
                       (zero, zero, zero),
                       (d, d, zero)))
