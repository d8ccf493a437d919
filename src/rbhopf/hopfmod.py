"""Hopf modules, Hopf module (co)algebras, and coinvariant projections.

A right H-Hopf module is a simultaneous module and comodule satisfying
ρ(m·h) = ρ(m)Δ(h); its coinvariant projection P_R(m) = m₍₀₎·S(m₍₁₎) (left
variant P_L(m) = S(m₍₋₁₎)·m₍₀₎) is idempotent onto the coinvariants.  When
the module also carries a compatible comultiplication (a Hopf module
coalgebra), P_R is a Rota-Baxter operator of weight -1; that fact is
executable here as `verify_projection_rb`.

A bialgebra C with a projection onto a Hopf algebra H (bialgebra maps
i: H→C, π: C→H, π∘i = id) becomes such a module via c·h = c·i(h) and
ρ(c) = c₁⊗π(c₂); the associated projection is the convolution
Π = id ⋆ (i∘S∘π).  Every Hopf-module identity of that module, and Π's
weight -1, follow from one set of preconditions on i, π, H and C.
`projection_bialgebra` proves them all once, where the projection is
built, and records the proof (`structures._record`);
`hopf_module_from_projection` and `pi_operator` then record on the maps
they build what they carry, and each `check_hopf_module*` check of the
module, like the Rota-Baxter check of Π, is one lookup
(`structures._recorded`) and evaluates no basis input.  A
projection built any other way, a copy, a pickle or a loaded file has
no record and runs every identity.

Every constructed map is built by pushing all basis vectors at once, each
tagged with its index, through the `TermSum` rewrites the checkers use
(`tensorops._matrix_of`), so no path forms a dense Kronecker product.

Each identity is written once for both sides.  The placement rule
`structures._h_position` validates a side and gives H's factor position
next to M: 1 on the right (M⊗H), 0 on the left (H⊗M), M's being the
other.  Every rewrite chain reads its factor positions, its certificate
slot and, through `structures._placed`, its input shapes from it, so a
left module runs the right module's chain with positions mirrored, on the
same maps: no H^{op,cop} structure is built.
"""

from __future__ import annotations

from .errors import PreconditionError, ShapeError
from .linalg import Mat, Tensor3
from .rb import RBVerdict, check_rb_coalgebra
from .record import Record
from .structures import (AlgebraicStructure, AxiomVerdict, _batched,
                         _first_failure, _generators_within, _h_position,
                         _placed, _record, _record_projection, _recorded,
                         _verdict, check_bialgebra_map, check_coassociativity,
                         check_comodule, check_module, tensor_product)
from .tensorops import _matrix_of


class HopfModule(Record):
    """A (left or right) H-module-and-comodule, with optional extra structure.

    Shapes for side="right": action M⊗H→M, coaction M→M⊗H; for side="left":
    action H⊗M→M, coaction M→H⊗M.  `mul`/`comul` are an optional
    multiplication/comultiplication carried by M itself, used by the Hopf
    module algebra/coalgebra compatibility checks.
    """

    hopf: AlgebraicStructure
    m_dim: int
    action: Mat
    coaction: Mat
    side: str
    mul: Tensor3 | None = None
    comul: Tensor3 | None = None

    def __post_init__(self):
        _h_position(self.side)
        h, m = self.hopf.dim, self.m_dim
        if m < 0:
            raise ShapeError("module dimension must be nonnegative")
        if (self.action.rows, self.action.cols) != (m, m * h):
            raise ShapeError(f"action must be {m} x {m * h}")
        if (self.coaction.rows, self.coaction.cols) != (m * h, m):
            raise ShapeError(f"coaction must be {m * h} x {m}")
        for comp in (self.action, self.coaction, self.mul, self.comul):
            if comp is not None and comp.field != self.hopf.field:
                raise ShapeError("module components live over different fields")
        for t3 in (self.mul, self.comul):
            if t3 is not None and t3.dims != (m, m, m):
                raise ShapeError("extra structure constants do not fit the module")

    @property
    def field(self):
        return self.hopf.field

    def coaction_dims(self) -> tuple[int, int]:
        return _placed(_h_position(self.side), (self.m_dim,), (self.hopf.dim,))

    def as_coalgebra(self) -> AlgebraicStructure:
        """M with its own comultiplication, forgetting the Hopf action."""
        if self.comul is None:
            raise ValueError("module carries no comultiplication")
        return AlgebraicStructure(self.m_dim, self.field, comul=self.comul)


def regular_hopf_module(hopf: AlgebraicStructure, side: str = "right") -> HopfModule:
    """H acting and coacting on itself by its multiplication and Δ."""
    mul = hopf.require("mul")
    comul = hopf.require("comul")
    n = hopf.dim
    action = _matrix_of(hopf.field, (n, n), lambda t: t.merge_at(0, mul))
    coaction = _matrix_of(hopf.field, (n,), lambda t: t.split_at(0, comul))
    return HopfModule(hopf, n, action, coaction, side, mul=mul, comul=comul)


def check_hopf_module(hm: HopfModule) -> AxiomVerdict:
    """Module axioms, comodule axioms, and ρ(m·h) = ρ(m)Δ(h) (or the left analogue).

    Once the module axioms pass, the compatibility is certified on a
    generating set G of H (`_batched`) when H is associative and
    Δ(ab) = Δ(a)Δ(b): if it holds for h in {g, g'}, then ρ(m·(gg')) =
    ρ((m·g)·g') = ρ(m)Δ(g)Δ(g') = ρ(m)Δ(gg'), since M⊗H is an associative
    module over H⊗H; on the left, ρ((gg')·m) = Δ(g)Δ(g')ρ(m) likewise.

    A module from `hopf_module_from_projection` with its record
    (`_carried_module`) passes with no identity evaluated: on the right,
    (c·h)·h' = c·i(h)i(h') = c·i(hh'), c·1 = c·i(1) = c,
    (ρ⊗id)ρ(c) = c₁⊗π(c₂)⊗π(c₃) = (id⊗Δ)ρ(c), (id⊗ε)ρ(c) = c and
    ρ(c·i(h)) = c₁i(h₁)⊗π(c₂)π(i(h₂)) = ρ(c)Δ(h) (see there).
    """
    if _carried_module(hm):
        return AxiomVerdict(True)
    v = check_module(hm.hopf, hm.m_dim, hm.action, hm.side)
    if not v.passed:
        return v
    v = check_comodule(hm.hopf, hm.m_dim, hm.coaction, hm.side)
    if not v.passed:
        return v
    hopf = hm.hopf
    comul = hopf.require("comul")
    mul = hopf.require("mul")
    h_pos = _h_position(hm.side)
    out_dims = hm.coaction_dims()

    def compat(t):
        lhs = t.merge_map_at(0, hm.action).split_map_at(0, hm.coaction, out_dims)
        # ρ(m)Δ(h) as m₍₀₎⊗h₁⊗m₍₁₎⊗h₂ (h₁⊗m₍₋₁₎⊗h₂⊗m₍₀₎ on the left): the
        # action merges the pair at 2·(1 - h_pos), then H's pair at h_pos.
        rhs = (t.split_at(h_pos, comul)
               .split_map_at(2 - 2 * h_pos, hm.coaction, out_dims)
               .permute((0, 2, 1, 3))
               .merge_map_at(2 - 2 * h_pos, hm.action)
               .merge_at(h_pos, mul))
        return lhs - rhs

    gens = _generators_within(mul, hm.m_dim * hopf.dim, comul)
    return _verdict(*_batched(f"{hm.side}-hopf-module-compatibility",
                              hm.field, out_dims, compat, h_pos, gens))


def check_hopf_module_algebra(hm: HopfModule) -> AxiomVerdict:
    """Hopf module whose own multiplication is action- and coaction-compatible.

    Right side: (mm')·h = m(m'·h) and ρ(mm') = m₍₀₎m'₍₀₎ ⊗ m₍₁₎m'₍₁₎.
    Left side: h·(mm') = (h·m)m' and ρ(mm') = m₍₋₁₎m'₍₋₁₎ ⊗ m₍₀₎m'₍₀₎.

    Both are certified on generating sets (`_batched`).  The action
    part, in h on a generating set G_H of an associative H: the module
    axioms passed first, so (mm')·(gg') = ((mm')·g)·g' = (m(m'·g))·g' =
    m((m'·g)·g') = m(m'·(gg')), and on the left likewise.

    The coaction part, in m' on a generating set of M's multiplication
    when M and H are associative: ρ(m(nn')) = ρ((mn)n') = ρ(m)ρ(n)ρ(n') =
    ρ(m)ρ(nn'), since M⊗H (H⊗M on the left) is then an associative algebra.

    A projection module with its record (`_carried_module`) passes
    with no identity evaluated: (cc')·i(h) = c(c'i(h)) and ρ(cc') =
    c₁c'₁⊗π(c₂c'₂) = ρ(c)ρ(c') (see `hopf_module_from_projection`).
    """
    if hm.mul is None:
        raise ValueError("module carries no multiplication")
    if _carried_module(hm):
        return AxiomVerdict(True)
    v = check_hopf_module(hm)
    if not v.passed:
        return v
    mmul = hm.mul
    hmul = hm.hopf.require("mul")
    m_dim, h = hm.m_dim, hm.hopf.dim
    h_pos = _h_position(hm.side)
    out_dims = hm.coaction_dims()

    def action_compat(t):
        # m⊗m'⊗h on the right, h⊗m⊗m' on the left.
        return (t.merge_at(1 - h_pos, mmul).merge_map_at(0, hm.action)
                - t.merge_map_at(h_pos, hm.action).merge_at(0, mmul))

    def coaction_compat(t):
        lhs = t.merge_at(0, mmul).split_map_at(0, hm.coaction, out_dims)
        # ρ(m)ρ(m') with M's pair at 2·(1 - h_pos), then H's at h_pos.
        rhs = (t.split_map_at(0, hm.coaction, out_dims)
               .split_map_at(2, hm.coaction, out_dims)
               .permute((0, 2, 1, 3))
               .merge_at(2 - 2 * h_pos, mmul).merge_at(h_pos, hmul))
        return lhs - rhs

    hgens = _generators_within(hmul, m_dim * m_dim * h)
    v = _verdict(*_batched(f"{hm.side}-module-algebra-action", hm.field,
                           _placed(h_pos, (m_dim, m_dim), (h,)),
                           action_compat, 2 * h_pos, hgens))
    if not v.passed:
        return v
    mgens = None if hgens is None else _generators_within(mmul, m_dim * m_dim)
    return _verdict(*_batched(f"{hm.side}-module-algebra-coaction",
                              hm.field, (m_dim, m_dim), coaction_compat, 1,
                              mgens))


def check_hopf_module_coalgebra(hm: HopfModule) -> AxiomVerdict:
    """Hopf module whose own Δ is action- and coaction-compatible.

    Right side: m₍₀₎₁ ⊗ m₍₀₎₂ ⊗ m₍₁₎ = m₁ ⊗ m₂₍₀₎ ⊗ m₂₍₁₎ and
    Δ(m·h) = m₁·h₁ ⊗ m₂·h₂.  Left side: m₍₋₁₎ ⊗ m₍₀₎₁ ⊗ m₍₀₎₂ =
    m₁₍₋₁₎ ⊗ m₁₍₀₎ ⊗ m₂ and Δ(h·m) = h₁·m₁ ⊗ h₂·m₂.

    The action part is certified in h on a generating set of an
    associative H with Δ(ab) = Δ(a)Δ(b) (`_batched`): the module
    axioms passed first, so Δ(m·(gg')) = Δ((m·g)·g') =
    (m₁·g₁)·g'₁ ⊗ (m₂·g₂)·g'₂ = m₁·(gg')₁ ⊗ m₂·(gg')₂, and on the left
    likewise.

    A projection module with its record (`_carried_module`) passes
    with no identity evaluated: Δ(c·i(h)) = c₁i(h₁)⊗c₂i(h₂), (Δ⊗id)ρ(c) =
    c₁⊗c₂⊗π(c₃) = (id⊗ρ)Δ(c) (see `hopf_module_from_projection`).
    """
    if hm.comul is None:
        raise ValueError("module carries no comultiplication")
    if _carried_module(hm):
        return AxiomVerdict(True)
    v = check_hopf_module(hm)
    if not v.passed:
        return v
    v = check_coassociativity(hm.as_coalgebra())
    if not v.passed:
        return v
    mcomul = hm.comul
    hcomul = hm.hopf.require("comul")
    m_dim, h = hm.m_dim, hm.hopf.dim
    h_pos = _h_position(hm.side)
    out_dims = hm.coaction_dims()

    def coaction_compat(t):
        lhs = t.split_map_at(0, hm.coaction, out_dims).split_at(1 - h_pos, mcomul)
        rhs = t.split_at(0, mcomul).split_map_at(h_pos, hm.coaction, out_dims)
        return lhs - rhs

    gens = _generators_within(hm.hopf.require("mul"), m_dim * h, hcomul)
    return _first_failure([
        _batched(f"{hm.side}-module-coalgebra-coaction", hm.field, (m_dim,),
                 coaction_compat),
        _batched(f"{hm.side}-module-coalgebra-action", hm.field, out_dims,
                 _module_coalgebra_action(h_pos, hm.action, mcomul, hcomul),
                 h_pos, gens),
    ])


def _carried_module(hm: HopfModule) -> bool:
    """Whether `hm`'s action and coaction were built together from a proved
    projection on `hm`'s side and H (`hopf_module_from_projection`), with
    C's multiplication and Δ as `hm`'s own (each unless None)."""
    big = _recorded(f"{hm.side}-projection-module", hm.action, hm.coaction,
                    hm.hopf)
    return big is not None and all(x is None or x is y for x, y in (
        (hm.mul, big.mul), (hm.comul, big.comul)))


def _module_coalgebra_action(h_pos: int, action: Mat, mcomul: Tensor3,
                             hcomul: Tensor3):
    """The residual Δ(m·h) - m₁·h₁ ⊗ m₂·h₂ of a basis tensor, or of a tagged
    batch, with H at `h_pos` (`_h_position`): Δ(h·m) - h₁·m₁ ⊗ h₂·m₂ on the
    left, the identity of left Yetter-Drinfeld module coalgebras too."""
    first, second = _placed(h_pos, (mcomul,), (hcomul,))

    def residual(t):
        lhs = t.merge_map_at(0, action).split_at(0, mcomul)
        rhs = (t.split_at(0, first).split_at(2, second)
               .permute((0, 2, 1, 3))
               .merge_map_at(0, action).merge_map_at(1, action))
        return lhs - rhs

    return residual


def coinvariant_projection(hm: HopfModule) -> Mat:
    """P_R(m) = m₍₀₎·S(m₍₁₎) for right modules, P_L(m) = S(m₍₋₁₎)·m₍₀₎ for left.

    For a valid Hopf module this is the idempotent projection onto the
    coinvariants {m : ρ(m) = m⊗1} (resp. {m : ρ(m) = 1⊗m}).
    """
    antipode = hm.hopf.require("antipode")
    out_dims = hm.coaction_dims()
    h_pos = _h_position(hm.side)
    return _matrix_of(hm.field, (hm.m_dim,), lambda t: (
        t.split_map_at(0, hm.coaction, out_dims)
        .map_at(h_pos, antipode)
        .merge_map_at(0, hm.action)))


def verify_projection_rb(hm: HopfModule) -> tuple[Mat, RBVerdict]:
    """Certify the coinvariant projection as a weight -1 Rota-Baxter operator.

    Requires a Hopf module coalgebra; returns the projection matrix and the
    Rota-Baxter verdict (with idempotency reported) for M's comultiplication.
    """
    v = check_hopf_module_coalgebra(hm)
    if not v.passed:
        raise PreconditionError(f"not a Hopf module coalgebra: {v.defect}")
    p = coinvariant_projection(hm)
    verdict = check_rb_coalgebra(hm.as_coalgebra(), p, -1,
                                 report_idempotency=True)
    return p, verdict


def convolution(f: Mat, g: Mat, s: AlgebraicStructure) -> Mat:
    """(f ⋆ g)(c) = f(c₁)·g(c₂) on endomorphisms of a bialgebra."""
    mul = s.require("mul")
    comul = s.require("comul")
    for op in (f, g):
        if (op.rows, op.cols) != (s.dim, s.dim) or op.field != s.field:
            raise ShapeError(f"convolution operands must be {s.dim} x {s.dim}")
    return _matrix_of(s.field, (s.dim,), lambda t: (
        t.split_at(0, comul).map_at(0, f).map_at(1, g).merge_at(0, mul)))


class ProjectionBialgebra(Record):
    """A bialgebra C with bialgebra maps i: H→C, π: C→H and π∘i = id_H.

    Build it with `projection_bialgebra`, which validates the maps and
    proves the preconditions its maps' checks read.  One built directly
    or changed with `.replace` is not validated, and its maps carry
    nothing: every check of them runs in full.
    """

    big: AlgebraicStructure
    hopf: AlgebraicStructure
    embed: Mat
    project: Mat


def projection_bialgebra(big: AlgebraicStructure, hopf: AlgebraicStructure,
                         embed: Mat, project: Mat) -> ProjectionBialgebra:
    """Validated constructor; raises PreconditionError on any failed invariant.

    The invariants are that H has an antipode, i and π are bialgebra maps
    (`check_bialgebra_map`) and π∘i = id.  Once they pass, the rest of the
    preconditions of a carried verdict are proved here, once: H passes
    the five axioms of a Hopf algebra, C coassociativity and unit-counit,
    and C is associative, with G read from a record or C's factors, and
    Δ(ab) = Δ(a)Δ(b) on G.  When they pass too, the projection is
    recorded on i (`structures._record_projection`), and the maps built
    from it carry their identities (`hopf_module_from_projection`,
    `pi_operator`).  When one fails, the projection is still returned,
    with no record, so every check of a map built from it runs in full.
    """
    hopf.require("antipode")
    for name, f, src, dst in (("i", embed, hopf, big), ("pi", project, big, hopf)):
        v = check_bialgebra_map(f, src, dst)
        if not v.passed:
            raise PreconditionError(f"{name} is not a bialgebra map: {v.defect}")
    if project * embed != Mat.identity(hopf.field, hopf.dim):
        raise PreconditionError("pi∘i is not the identity on H")
    _record_projection(embed, project, hopf, big)
    return ProjectionBialgebra(big, hopf, embed, project)


def hopf_module_from_projection(pb: ProjectionBialgebra,
                                side: str = "right") -> HopfModule:
    """The Hopf module on C given by a bialgebra with a projection.

    Right side: c·h = c·i(h) and ρ(c) = c₁⊗π(c₂); left side: h·c = i(h)·c
    and ρ(c) = π(c₁)⊗c₂.  C's own multiplication and comultiplication ride
    along, so the result supports both the module algebra and the module
    coalgebra checks.

    Nothing is evaluated here.  When `projection_bialgebra` recorded the
    projection as proved (i and π bialgebra maps, π∘i = id, H a Hopf
    algebra, C coassociative and counital, associative and with Δ
    multiplicative), one record on the action and the coaction, at
    `side` over H, names C, whose multiplication and Δ the module must
    have (`structures._record`).  The `check_hopf_module*` checks read it
    (`_carried_module`); `check_module` and `check_comodule` of one map
    read no record.  Every identity of those checks follows; on the
    right:

    - module: (c·h)·h' = c·i(h)i(h') = c·i(hh') and c·1 = c·i(1) = c, by
      C associative and unital and i multiplicative and unital;
    - comodule: (ρ⊗id)ρ(c) = c₁⊗π(c₂)⊗π(c₃) = (id⊗Δ)ρ(c) and
      (id⊗ε)ρ(c) = c₁ε(π(c₂)) = c, by Δ_C coassociative and counital and
      π a coalgebra map;
    - compatibility: ρ(c·i(h)) = c₁i(h₁)⊗π(c₂)π(i(h₂)) = ρ(c)Δ(h), by Δ_C
      multiplicative, i comultiplicative, π multiplicative, π∘i = id;
    - module algebra: (cc')·h = c(c'·h) and ρ(cc') = ρ(c)ρ(c');
    - module coalgebra: Δ(c·h) = c₁·h₁⊗c₂·h₂, (Δ⊗id)ρ = (id⊗ρ)Δ, and
      Δ_M = Δ_C is coassociative.

    The left side mirrors each step through `structures._h_position`.
    The maps are immutable, so the record stays true; a copy, a pickle, a
    loaded file, or the module of a `ProjectionBialgebra` built directly
    or changed with `.replace`, carries no proved projection and runs
    every identity.
    """
    big, hopf = pb.big, pb.hopf
    field, n = big.field, big.dim
    h_pos = _h_position(side)
    action = _matrix_of(field, _placed(h_pos, (n,), (hopf.dim,)), lambda t: (
        t.map_at(h_pos, pb.embed).merge_at(0, big.mul)))
    coaction = _matrix_of(field, (n,), lambda t: (
        t.split_at(0, big.comul).map_at(h_pos, pb.project)))
    if _recorded("projection", pb.embed, pb.project, hopf, big):
        _record(f"{side}-projection-module", big, action, coaction, hopf)
    return HopfModule(hopf, n, action, coaction, side,
                      mul=big.mul, comul=big.comul)


def pi_operator(pb: ProjectionBialgebra, side: str = "right") -> Mat:
    """The convolution form of the coinvariant projection.

    Π = id_C ⋆ (i∘S∘π) on the right, (i∘S∘π) ⋆ id_C on the left.  When
    `projection_bialgebra` recorded the projection as proved, the matrix
    records "pi-operator" with C's multiplication (`structures._record`),
    and `rb.check_rb_algebra` reads its weight -1 off that record (see
    there).  The matrix is immutable, so the record stays true; a copy, a
    pickle or a loaded file has none.
    """
    eye = Mat.identity(pb.big.field, pb.big.dim)
    isp = pb.embed * pb.hopf.antipode * pb.project
    pi = convolution(*_placed(_h_position(side), (eye,), (isp,)), pb.big)
    if _recorded("projection", pb.embed, pb.project, pb.hopf, pb.big):
        _record("pi-operator", True, pi, pb.big.mul)
    return pi


def tensor_square_projection(hopf: AlgebraicStructure) -> ProjectionBialgebra:
    """H⊗H with i(h) = h⊗1 and π(h⊗h') = h·ε(h')."""
    unit = hopf.require("unit")
    counit = hopf.require("counit")
    big = tensor_product(hopf, hopf)
    field, n = hopf.field, hopf.dim
    embed = _matrix_of(field, (n,), lambda t: t.insert_at(1, unit))
    project = _matrix_of(field, (n, n), lambda t: t.map_at(1, counit).drop_at(1))
    return projection_bialgebra(big, hopf, embed, project)
