import pytest

from rbhopf import (QQ, AlgebraicStructure, Mat, PreconditionError, TermSum,
                    Vec, adjoint_yd, builtin, check_coassociativity,
                    check_coquasitriangular, check_rb_coalgebra,
                    check_unit_counit, check_yd_coalgebra, check_yd_module,
                    coquasitriangular_form, projection_left_closed_form,
                    projection_left_sigma_form, projection_right_closed_form,
                    smash_coproduct, smash_hopf_module_left,
                    smash_hopf_module_right, trivial_yd, yd_action_from_form,
                    yd_from_comodule_coalgebra)

GROUPS = ["group:C2", "group:C3", "group:S3"]


def sweedler_braiding(h4, alpha=1):
    """The one-parameter braiding form on Sweedler's Hopf algebra."""
    return coquasitriangular_form(h4, {
        (0, 0): 1, (0, 1): 1,
        (1, 0): 1, (1, 1): -1,
        (2, 2): alpha, (2, 3): alpha,
        (3, 2): -alpha, (3, 3): alpha,
    })


def c2_sign_form(c2):
    return coquasitriangular_form(c2, {(0, 0): 1, (0, 1): 1,
                                       (1, 0): 1, (1, 1): -1})


@pytest.fixture(scope="module", params=GROUPS + ["sweedler4"])
def adj(request):
    return adjoint_yd(builtin(request.param))


def test_trivial_yd_passes(c2):
    cstr = AlgebraicStructure(2, QQ, comul=c2.comul, counit=c2.counit)
    ydc = trivial_yd(c2, cstr)
    assert check_yd_module(c2, 2, ydc.action, ydc.coaction).passed
    assert check_yd_coalgebra(ydc).passed


def test_adjoint_yd_is_coalgebra_in_yd(adj):
    assert check_yd_module(adj.hopf, adj.coalgebra.dim, adj.action,
                           adj.coaction).passed
    assert check_yd_coalgebra(adj).passed


def test_adjoint_coaction_trivial_for_group_algebras():
    for name in GROUPS:
        h = builtin(name)
        adj = adjoint_yd(h)
        trivial = h.unit.as_column() @ Mat.identity(QQ, h.dim)
        assert adj.coaction == trivial


def test_adjoint_coaction_nontrivial_on_sweedler(h4):
    adj = adjoint_yd(h4)
    # rho(x) = x(x)1 - x(x)g + g(x)x, column 2 of the coaction matrix
    col = adj.coaction.col(2)
    expect = (Vec.basis(QQ, 4, 2).tensor(Vec.basis(QQ, 4, 0))
              - Vec.basis(QQ, 4, 2).tensor(Vec.basis(QQ, 4, 1))
              + Vec.basis(QQ, 4, 1).tensor(Vec.basis(QQ, 4, 2)))
    assert col == expect


def test_mul_action_with_plain_comul_coaction_fails_yd(h4):
    # coaction Delta instead of the adjoint one breaks the compatibility
    v = check_yd_module(h4, 4, h4.mul.mul_matrix(), h4.comul.comul_matrix())
    assert not v.passed
    assert v.defect.identity == "yetter-drinfeld-compatibility"


def test_grouplike_diagonal_coaction_fails_comodule_coalgebra(c2):
    # rho(c) = c (x) c on k[C2] is a comodule but not a comodule coalgebra
    cstr = AlgebraicStructure(2, QQ, comul=c2.comul, counit=c2.counit)
    from rbhopf import YDModuleCoalgebra
    ydc = YDModuleCoalgebra(c2, cstr, c2.mul.mul_matrix(),
                            c2.comul.comul_matrix())
    v = check_yd_coalgebra(ydc)
    assert not v.passed


def test_smash_coproduct_coassociative(adj):
    sm = smash_coproduct(adj)
    assert sm.dim == adj.hopf.dim * adj.coalgebra.dim
    assert check_coassociativity(sm).passed
    assert check_unit_counit(sm).passed


def test_smash_degenerate_one_dimensional_hopf():
    triv = builtin("trivial")
    cstr = AlgebraicStructure(2, QQ, comul=builtin("grouplike:2").comul,
                              counit=builtin("grouplike:2").counit)
    ydc = trivial_yd(triv, cstr)
    sm = smash_coproduct(ydc)
    # H = k: the smash coproduct reduces to Delta_C
    assert sm.comul.entries == cstr.comul.entries


def test_smash_collapses_for_commutative_grouplike(c2):
    adj = adjoint_yd(c2)
    sm = smash_coproduct(adj)
    # Delta(c (x) h) = (c (x) h1) (x) (c (x) h2); all grouplike here
    for c in range(2):
        for h in range(2):
            i = c * 2 + h
            assert {k: v for k, v in sm.comul.entries.items()
                    if k[0] == i} == {(i, i, i): QQ.one}


def test_smash_closed_form_on_sweedler(h4):
    # Delta(h (x) h') = h1 (x) (h2 S(h4)) h'1 (x) h3 (x) h'2
    adj = adjoint_yd(h4)
    sm = smash_coproduct(adj)
    for a in range(4):
        for b in range(4):
            t = (TermSum.basis(QQ, (4, 4), (a, b))
                 .split_at(0, h4.comul).split_at(0, h4.comul)
                 .split_at(0, h4.comul)                       # h1 h2 h3 h4 h'
                 .split_at(4, h4.comul)                       # ... h'1 h'2
                 .map_at(3, h4.antipode)
                 .permute((0, 1, 3, 4, 2, 5))                 # h1 h2 S(h4) h'1 h3 h'2
                 .merge_at(1, h4.mul).merge_at(1, h4.mul))    # h1, (h2 S(h4))h'1, h3, h'2
            direct = {}
            for (x1, x2, x3, x4), val in t.terms.items():
                key = (x1 * 4 + x2, x3 * 4 + x4)
                direct[key] = direct.get(key, QQ.zero) + val
            direct = {k: v for k, v in direct.items() if v}
            from_tensor = {(j, k): v for (i, j, k), v in sm.comul.entries.items()
                           if i == a * 4 + b}
            assert direct == from_tensor


def test_smash_right_module_pipeline(adj):
    hm, p, verdict = smash_hopf_module_right(adj)
    assert verdict.passed and verdict.idempotent
    assert p * p == p
    assert p == projection_right_closed_form(adj)
    # coinvariant vectors c (x) 1: P fixes them
    h = adj.hopf
    one_idx = next(i for i, v in enumerate(h.unit.entries) if v)
    for c in range(adj.coalgebra.dim):
        i = c * h.dim + one_idx
        assert p.col(i) == Vec.basis(QQ, p.rows, i)


def test_smash_left_module_pipeline(adj):
    hm, p, verdict = smash_hopf_module_left(adj)
    assert verdict.passed and verdict.idempotent
    assert p * p == p
    assert p == projection_left_closed_form(adj)


def test_left_projection_collapses_on_c2(c2):
    # trivial coaction and S = id collapse the closed form to
    # P_L(c (x) h) = S(h2)c (x) S(h1)h3 = hc (x) 1 on the grouplike basis
    adj = adjoint_yd(c2)
    _, pl, _ = smash_hopf_module_left(adj)
    expected = Mat.zeros(QQ, 4, 4).entries
    expected = [list(r) for r in expected]
    for c in range(2):
        for h in range(2):
            expected[((h + c) % 2) * 2 + 0][c * 2 + h] = QQ.one
    assert pl == Mat(QQ, expected)


def test_projection_image_is_coinvariant(adj):
    # rho(P(m)) = P(m) (x) 1 on the right, 1 (x) P(m) on the left
    hm_r, pr, _ = smash_hopf_module_right(adj)
    unit_col = adj.hopf.unit.as_column()
    eye = Mat.identity(QQ, hm_r.m_dim)
    assert hm_r.coaction * pr == (eye @ unit_col) * pr
    hm_l, pl, _ = smash_hopf_module_left(adj)
    assert hm_l.coaction * pl == (unit_col @ eye) * pl


def test_smash_pipeline_rejects_invalid(c2):
    cstr = AlgebraicStructure(2, QQ, comul=c2.comul, counit=c2.counit)
    from rbhopf import YDModuleCoalgebra
    bad = YDModuleCoalgebra(c2, cstr, c2.mul.mul_matrix(),
                            c2.comul.comul_matrix())
    with pytest.raises(PreconditionError):
        smash_hopf_module_right(bad)


def test_dim_zero_coalgebra_vacuous(c2):
    from rbhopf import Tensor3, YDModuleCoalgebra
    cstr = AlgebraicStructure(0, QQ, comul=Tensor3(QQ, (0, 0, 0), {}))
    ydc = YDModuleCoalgebra(c2, cstr, Mat.zeros(QQ, 0, 0), Mat.zeros(QQ, 0, 0))
    hm, p, verdict = smash_hopf_module_right(ydc)
    assert verdict.passed
    assert p.rows == 0


# -- coquasitriangular forms -------------------------------------------------

def test_counit_tensor_form_passes(c2):
    sigma = coquasitriangular_form(c2, {(0, 0): 1, (0, 1): 1,
                                        (1, 0): 1, (1, 1): 1})
    assert check_coquasitriangular(sigma).passed


def test_sign_form_on_c2(c2):
    assert check_coquasitriangular(c2_sign_form(c2)).passed


def test_sigma_2_fails_br2_with_witness(c2):
    bad = coquasitriangular_form(c2, {(0, 0): 1, (0, 1): 1,
                                      (1, 0): 1, (1, 1): 2})
    v = check_coquasitriangular(bad)
    assert not v.passed
    assert v.defect.identity == "BR2"
    assert v.defect.witness is not None


def test_br1_reports_left_and_right_defects(c2):
    # sigma(1,g) - eps(g) = 1 on the left, sigma(g,1) - eps(g) = 2 on the right
    bad = coquasitriangular_form(c2, {(0, 0): 1, (0, 1): 2,
                                      (1, 0): 3, (1, 1): 1})
    v = check_coquasitriangular(bad)
    assert not v.passed
    assert v.defect.identity == "BR1"
    assert v.defect.residual == {(1, 0): QQ.coerce(1), (1, 1): QQ.coerce(2)}
    assert v.defect.witness == (1, 0)


def test_sweedler_braiding_passes(h4):
    for alpha in (0, 1, -2):
        assert check_coquasitriangular(sweedler_braiding(h4, alpha)).passed


def test_induced_action_trivial_for_counit_form(c2):
    sigma = coquasitriangular_form(c2, {(0, 0): 1, (0, 1): 1,
                                        (1, 0): 1, (1, 1): 1})
    coaction = c2.unit.as_column() @ Mat.identity(QQ, 2)
    action, v = yd_action_from_form(sigma, 2, coaction)
    assert v.passed
    assert action == c2.counit @ Mat.identity(QQ, 2)


def test_induced_sign_action(c2):
    # coaction Delta on k[C2] with sigma(g,g) = -1: g.g = -g
    action, v = yd_action_from_form(c2_sign_form(c2), 2,
                                    c2.comul.comul_matrix())
    assert v.passed
    g_dot_g = action.col(1 * 2 + 1)
    assert g_dot_g == Vec(QQ, (0, -1))


def test_sigma_pipeline_on_sweedler(h4):
    cq = sweedler_braiding(h4)
    adj = adjoint_yd(h4)
    ydc = yd_from_comodule_coalgebra(cq, adj.coalgebra, adj.coaction)
    assert check_yd_coalgebra(ydc).passed
    hm, pl, verdict = smash_hopf_module_left(ydc)
    assert verdict.passed and verdict.idempotent
    assert projection_left_sigma_form(cq, ydc) == pl
    hm_r, pr, verdict_r = smash_hopf_module_right(ydc)
    assert verdict_r.passed
    assert pr == projection_right_closed_form(ydc)


def test_sigma_pipeline_trivial_coaction(c2):
    cq = c2_sign_form(c2)
    cstr = AlgebraicStructure(2, QQ, comul=c2.comul, counit=c2.counit)
    coaction = c2.unit.as_column() @ Mat.identity(QQ, 2)
    ydc = yd_from_comodule_coalgebra(cq, cstr, coaction)
    hm, pl, verdict = smash_hopf_module_left(ydc)
    assert verdict.passed
    assert projection_left_sigma_form(cq, ydc) == pl


def test_smash_projections_feed_prelie(adj):
    from rbhopf import prelie_from_rb_minus1
    sm = smash_coproduct(adj)
    for pipeline in (smash_hopf_module_right, smash_hopf_module_left):
        _, p, verdict = pipeline(adj)
        assert verdict.passed
        plc = prelie_from_rb_minus1(sm, p)
        assert plc.dim == sm.dim
