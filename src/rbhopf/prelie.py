"""Pre-Lie coalgebras derived from Rota-Baxter coalgebras.

A comultiplication Δ (not necessarily coassociative) is pre-Lie when its
coassociator Δ_C = (Δ⊗id)Δ - (id⊗Δ)Δ is symmetric in the first two tensor
slots: Δ_C - Φ₍₁₂₎Δ_C = 0.  A Rota-Baxter operator Q of weight -1 induces

    Δ̃(c) = Q(c₁)⊗c₂ - Q(c₂)⊗c₁ - c₁⊗c₂,

and one of weight 0 induces the same without the last term; either way
(C, Δ̃) is pre-Lie.  The constructors gate on the Rota-Baxter hypothesis
(it is what makes the conclusion hold), while `twisted_comul`
builds the raw tensor unconditionally for experimentation.
"""

from __future__ import annotations

from .errors import PreconditionError
from .linalg import Mat, Tensor3
from .record import Record
from .structures import AlgebraicStructure, AxiomVerdict, _batched, _verdict
from .rb import check_rb_coalgebra
from .tensorops import tagged_basis


class PreLieCoalgebra(Record):
    dim: int
    field: object
    comul: Tensor3


def check_pre_lie(comul: Tensor3) -> AxiomVerdict:
    """Is the coassociator of Δ symmetric in the first two slots?"""
    n, b, c = comul.dims
    if (b, c) != (n, n):
        raise ValueError(f"comultiplication tensor must be cubical, got {comul.dims}")

    def residual(t):
        t = t.split_at(0, comul)
        coassociator = t.split_at(0, comul) - t.split_at(1, comul)
        return coassociator - coassociator.swap_at(0)

    return _verdict(*_batched("pre-lie", comul.field, (n,), residual))


def twisted_comul(s: AlgebraicStructure, q: Mat, include_comul_term: bool) -> Tensor3:
    """Q(c₁)⊗c₂ - Q(c₂)⊗c₁, minus c₁⊗c₂ when `include_comul_term`.

    Ungated; the result is a plain structure-constant tensor with no pre-Lie
    promise attached.
    """
    comul = s.require("comul")
    n = s.dim
    t = tagged_basis(s.field, (n,)).split_at(0, comul)
    out = t.map_at(0, q) - t.map_at(1, q).swap_at(0)
    if include_comul_term:
        out = out - t
    return Tensor3(s.field, (n, n, n),
                   {(i, j, k): v for (j, k, i), v in out.terms.items()})


def _gated(s: AlgebraicStructure, q: Mat, weight,
           include_comul_term: bool) -> PreLieCoalgebra:
    rb = check_rb_coalgebra(s, q, weight)
    if not rb.passed:
        raise PreconditionError(
            f"operator is not Rota-Baxter of weight {weight}: {rb.defect}")
    comul = twisted_comul(s, q, include_comul_term)
    v = check_pre_lie(comul)
    if not v.passed:
        raise AssertionError(f"derived comultiplication is not pre-Lie: {v.defect}")
    return PreLieCoalgebra(s.dim, s.field, comul)


def prelie_from_rb_minus1(s: AlgebraicStructure, q: Mat) -> PreLieCoalgebra:
    """Pre-Lie coalgebra from a weight -1 Rota-Baxter coalgebra.

    Δ̃(c) = Q(c₁)⊗c₂ - Q(c₂)⊗c₁ - c₁⊗c₂; refuses operators failing the
    weight -1 check.
    """
    return _gated(s, q, -1, include_comul_term=True)


def prelie_from_rb_zero(s: AlgebraicStructure, q: Mat) -> PreLieCoalgebra:
    """Pre-Lie coalgebra from a weight 0 Rota-Baxter coalgebra.

    Δ̃(c) = Q(c₁)⊗c₂ - Q(c₂)⊗c₁; refuses operators failing the weight 0
    check.
    """
    return _gated(s, q, 0, include_comul_term=False)
