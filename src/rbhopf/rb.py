"""Rota-Baxter operator verification and exhaustive finite-field search.

An operator P on an algebra has weight λ when
P(x)P(y) = P(xP(y)) + P(P(x)y) + λP(xy); dually, Q on a coalgebra has
weight γ when Q(c₁)⊗Q(c₂) = Q(c)₁⊗Q(Q(c)₂) + Q(Q(c)₁)⊗Q(c)₂ + γQ(c)₁⊗Q(c)₂.
A bialgebra carrying both is checked one side at a time.  Weights are
explicit inputs everywhere: Q = 0 passes for every weight, so inferring one
silently would be ambiguous.
"""

from __future__ import annotations

from itertools import product

from .errors import BudgetExceededError, ShapeError
from .fields import PrimeField
from .linalg import Mat
from .record import Record
from .structures import (AlgebraicStructure, DefectReport, _batched,
                         _recorded, _verdict)


class RBVerdict(Record):
    passed: bool
    weight: object
    side: str
    defect: DefectReport | None = None
    idempotent: bool | None = None

    def __bool__(self):
        return self.passed


class RBBialgebraVerdict(Record):
    algebra: RBVerdict
    coalgebra: RBVerdict

    @property
    def passed(self) -> bool:
        return self.algebra.passed and self.coalgebra.passed

    def __bool__(self):
        return self.passed


class SearchResult(Record):
    field: PrimeField
    dim: int
    side: str
    weight: object
    operators: tuple[Mat, ...]
    candidates_scanned: int


def _check_operator_shape(s: AlgebraicStructure, op: Mat):
    if op.field != s.field:
        raise ShapeError("operator field does not match the structure")
    if (op.rows, op.cols) != (s.dim, s.dim):
        raise ShapeError(f"operator must be {s.dim} x {s.dim}")


def check_rb_algebra(s: AlgebraicStructure, p: Mat, weight) -> RBVerdict:
    """Does P(x)P(y) = P(xP(y)) + P(P(x)y) + λP(xy) hold on all basis pairs?

    The convolution projection Π of a bialgebra C with a projection
    (`hopfmod.pi_operator`: bialgebra maps i: H→C, π: C→H, π∘i = id)
    carries its weight -1.  When λ is the field's -1 and `p` has the
    "pi-operator" record with `s.mul` (`structures._recorded`), which
    `pi_operator` writes only for a projection whose preconditions
    `hopfmod.projection_bialgebra` proved (i and π bialgebra maps,
    π∘i = id, H a Hopf algebra, C a bialgebra), the verdict is a pass
    with no pair evaluated.  On the right side, with
    ρ(c) = c₁⊗π(c₂) = c₍₀₎⊗c₍₁₎ and Π(c) = c₁·i(S(π(c₂))):

    1. ρ is coassociative, counital and multiplicative, and
       ρ(i(h)) = i(h₁)⊗h₂: C is a bialgebra, π a bialgebra map and i a
       comultiplicative one with π∘i = id.
    2. Π(c) = c₍₀₎·i(S(c₍₁₎)), so, H being a Hopf algebra,
       ρ(Π(c)) = c₍₀₎i(S(c₍₃₎))⊗c₍₁₎S(c₍₂₎) = Π(c)⊗1.  On the
       coinvariants C^{coH} = {x : ρ(x) = x⊗1}, Π(x) = x·i(S(1)) = x.  So Π
       is idempotent with image C^{coH}, which is closed under products
       because ρ is multiplicative.
    3. c = Π(c₍₀₎)·i(c₍₁₎), and Π(x·i(h)) = ε(h)x for x in C^{coH}, so
       Π(c·i(h)) = Π(c)ε(h) and ker Π = C·i(H⁺) with H⁺ = ker ε.  This
       is a left ideal, so it is closed under products.
    4. Guo's criterion (L. Guo, *An Introduction to Rota-Baxter Algebra*,
       2012, ch. 1): an idempotent P has weight -1 when its image and
       kernel are closed under products.  Write x = x₁ + x₂ with x₁ in
       im P and x₂ in ker P, and y likewise; then
       P(x)P(y) - P(xP(y)) - P(P(x)y) + P(xy) =
       (x₁y₁ - P(x₁y₁)) + P(x₂y₂), which is 0 here.

    The left side mirrors this, with ρ(c) = π(c₁)⊗c₂, the left
    coinvariants as image and the right ideal i(H⁺)·C as kernel, so both
    sides ask the same of i, π, H and C.  When one fails, and for a copy,
    a pickle, a loaded file or the Π of a projection not built by
    `projection_bialgebra`, which carry no proved projection, the
    identity is evaluated on all pairs, so a failing verdict is the one it
    always was.
    """
    mul = s.require("mul")
    _check_operator_shape(s, p)
    lam = s.field.coerce(weight)
    if lam == -s.field.one and _recorded("pi-operator", p, mul):
        return RBVerdict(True, lam, "algebra")

    def residual(t):
        lhs = t.map_at(0, p).map_at(1, p).merge_at(0, mul)
        r1 = t.map_at(1, p).merge_at(0, mul).map_at(0, p)
        r2 = t.map_at(0, p).merge_at(0, mul).map_at(0, p)
        r3 = t.merge_at(0, mul).map_at(0, p).scale(lam)
        return lhs - r1 - r2 - r3

    v = _verdict(*_batched("rb-algebra", s.field, (s.dim, s.dim), residual))
    return RBVerdict(v.passed, lam, "algebra", v.defect)


def check_rb_coalgebra(s: AlgebraicStructure, q: Mat, weight,
                       report_idempotency: bool = False) -> RBVerdict:
    """Does (Q⊗Q)Δ = (id⊗Q)ΔQ + (Q⊗id)ΔQ + γΔQ hold on all basis vectors?"""
    comul = s.require("comul")
    _check_operator_shape(s, q)
    gamma = s.field.coerce(weight)

    def residual(t):
        lhs = t.split_at(0, comul).map_at(0, q).map_at(1, q)
        dq = t.map_at(0, q).split_at(0, comul)
        return lhs - dq.map_at(1, q) - dq.map_at(0, q) - dq.scale(gamma)

    v = _verdict(*_batched("rb-coalgebra", s.field, (s.dim,), residual))
    idem = (q * q == q) if report_idempotency else None
    return RBVerdict(v.passed, gamma, "coalgebra", v.defect, idem)


def check_rb_bialgebra(s: AlgebraicStructure, p: Mat, q: Mat,
                       algebra_weight, coalgebra_weight) -> RBBialgebraVerdict:
    """Both Rota-Baxter conditions on one bialgebra, reported per side."""
    s.require("mul")
    s.require("comul")
    return RBBialgebraVerdict(
        algebra=check_rb_algebra(s, p, algebra_weight),
        coalgebra=check_rb_coalgebra(s, q, coalgebra_weight))


def search_rb_operators(s: AlgebraicStructure, side: str, weight,
                        idempotent_only: bool = False,
                        budget: int = 10 ** 8) -> SearchResult:
    """All dim×dim matrices over F_p satisfying the Rota-Baxter condition.

    Candidates are enumerated in lexicographic order of their row-major
    entry tuples, so the result order is deterministic; the zero operator
    always appears.  `idempotent_only` additionally requires Q² = Q.
    """
    field = s.field
    if not isinstance(field, PrimeField):
        raise ValueError("exhaustive search needs a structure over a prime field")
    if side == "algebra":
        check = lambda op: check_rb_algebra(s, op, weight).passed
        s.require("mul")
    elif side == "coalgebra":
        check = lambda op: check_rb_coalgebra(s, op, weight).passed
        s.require("comul")
    else:
        raise ValueError(f"side must be 'algebra' or 'coalgebra', got {side!r}")
    n = s.dim
    total = field.p ** (n * n)
    if total > budget:
        # As a power: past 4,300 digits str() of an int raises ValueError.
        raise BudgetExceededError(
            f"{field.p}^{n * n} candidates exceed the budget of {budget}")
    found = []
    for flat in product(range(field.p), repeat=n * n):
        op = Mat(field, tuple(flat[i * n:(i + 1) * n] for i in range(n)), cols=n)
        if idempotent_only and op * op != op:
            continue
        if check(op):
            found.append(op)
    return SearchResult(field, n, side, field.coerce(weight),
                        tuple(found), total)
