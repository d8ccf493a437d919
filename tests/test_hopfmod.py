import random

import pytest

from rbhopf import (QQ, HopfModule, Mat, PreconditionError, Vec, builtin,
                    check_hopf_module, check_hopf_module_algebra,
                    check_hopf_module_coalgebra, check_rb_bialgebra,
                    coinvariant_projection, convolution,
                    hopf_module_from_projection, pi_operator,
                    projection_bialgebra, regular_hopf_module,
                    tensor_square_projection, verify_projection_rb)


@pytest.fixture(scope="module", params=["group:C2", "group:C3", "sweedler4"])
def regular(request):
    return regular_hopf_module(builtin(request.param))


def test_regular_module_is_hopf_module(regular):
    assert check_hopf_module(regular).passed
    assert check_hopf_module_algebra(regular).passed
    assert check_hopf_module_coalgebra(regular).passed


def test_regular_module_left_side(h4):
    hm = regular_hopf_module(h4, side="left")
    assert check_hopf_module(hm).passed
    assert check_hopf_module_algebra(hm).passed
    assert check_hopf_module_coalgebra(hm).passed


def test_regular_projection_is_unit_counit(h4):
    # P_R on the regular module is eta.eps: the antipode axiom in disguise
    hm = regular_hopf_module(h4)
    p = coinvariant_projection(hm)
    expected = h4.unit.as_column() * h4.counit
    assert p == expected
    assert p * p == p


def test_projection_image_basis_by_column_reduction(h4):
    from conftest import column_space_basis
    hm = regular_hopf_module(h4)
    p = coinvariant_projection(hm)
    basis = column_space_basis(p)
    # the regular module's coinvariants are spanned by the unit
    assert basis == [h4.unit]


def test_corrupted_action_fails_with_witness(c2):
    hm = regular_hopf_module(c2)
    cols = list(zip(*hm.action.entries))
    cols[0], cols[1] = cols[1], cols[0]
    bad_action = Mat(QQ, tuple(zip(*cols)))
    bad = HopfModule(c2, 2, bad_action, hm.coaction, "right", comul=hm.comul)
    v = check_hopf_module(bad)
    assert not v.passed
    assert v.defect.witness is not None


def test_verify_projection_rb_on_regular(regular):
    p, verdict = verify_projection_rb(regular)
    assert verdict.passed and verdict.idempotent
    assert verdict.weight == QQ.coerce(-1)
    # coinvariance: rho(P(m)) = P(m) (x) 1
    hm = regular
    unit_embed = Mat.identity(QQ, hm.m_dim) @ hm.hopf.unit.as_column()
    assert hm.coaction * p == unit_embed * p


def test_verify_projection_rb_rejects_invalid(c2):
    hm = regular_hopf_module(c2)
    bad = HopfModule(c2, 2, hm.action, hm.coaction, "right")  # no comul
    with pytest.raises(ValueError):
        verify_projection_rb(bad)


def test_convolution_antipode_axiom(h4, c2, s3):
    # id * S = unit.counit on any verified Hopf algebra
    for s in (h4, c2, s3):
        eye = Mat.identity(QQ, s.dim)
        assert convolution(eye, s.antipode, s) == s.unit.as_column() * s.counit
        assert convolution(s.antipode, eye, s) == s.unit.as_column() * s.counit


def test_convolution_identity_and_associativity(h4):
    eye = Mat.identity(QQ, 4)
    eta_eps = h4.unit.as_column() * h4.counit
    f = h4.antipode
    g = h4.antipode * h4.antipode
    assert convolution(eta_eps, f, h4) == f
    assert convolution(f, eta_eps, h4) == f
    lhs = convolution(convolution(f, g, h4), eye, h4)
    rhs = convolution(f, convolution(g, eye, h4), h4)
    assert lhs == rhs


def test_tensor_square_projection_builds(c2):
    pb = tensor_square_projection(c2)
    assert pb.project * pb.embed == Mat.identity(QQ, 2)
    hm = hopf_module_from_projection(pb)
    assert check_hopf_module(hm).passed
    assert check_hopf_module_algebra(hm).passed
    assert check_hopf_module_coalgebra(hm).passed


def test_pi_operator_matches_projection(c2):
    pb = tensor_square_projection(c2)
    hm = hopf_module_from_projection(pb)
    pi = pi_operator(pb)
    assert pi == coinvariant_projection(hm)
    p, verdict = verify_projection_rb(hm)
    assert p == pi and verdict.passed and verdict.idempotent


def test_pi_operator_closed_form(c2):
    # Pi(h (x) h') = eps(h) 1 (x) h' on the tensor square
    pb = tensor_square_projection(c2)
    pi = pi_operator(pb)
    expected = (c2.unit.as_column() * c2.counit) @ Mat.identity(QQ, 2)
    assert pi == expected


def test_pi_operator_left_variant(c2, h4):
    for hopf in (c2, h4):
        pb = tensor_square_projection(hopf)
        hm = hopf_module_from_projection(pb, side="left")
        assert check_hopf_module_coalgebra(hm).passed
        pl, verdict = verify_projection_rb(hm)
        assert verdict.passed and verdict.idempotent
        assert pl == pi_operator(pb, side="left")


def test_identity_projection_gives_eta_eps(c2):
    # i = pi = id on H itself: P_R = id * S = eta.eps
    pb = projection_bialgebra(c2, c2, Mat.identity(QQ, 2), Mat.identity(QQ, 2))
    hm = hopf_module_from_projection(pb)
    p = coinvariant_projection(hm)
    assert p == c2.unit.as_column() * c2.counit


def test_projection_bialgebra_rejects_corruption(c2):
    pb = tensor_square_projection(c2)
    bad_embed = Mat(QQ, tuple(tuple(row) for row in
                              reversed(pb.embed.entries)))
    with pytest.raises(PreconditionError):
        projection_bialgebra(pb.big, pb.hopf, bad_embed, pb.project)
    with pytest.raises(PreconditionError):
        projection_bialgebra(pb.big, pb.hopf, pb.embed,
                             pb.project.scale(2))


def test_compound_rb_bialgebra_on_tensor_square(c2):
    # simultaneous module algebra + coalgebra: (C, Pi, Pi) has weight (-1,-1)
    pb = tensor_square_projection(c2)
    hm = hopf_module_from_projection(pb)
    assert check_hopf_module_algebra(hm).passed
    assert check_hopf_module_coalgebra(hm).passed
    pi = pi_operator(pb)
    v = check_rb_bialgebra(pb.big, pi, pi, -1, -1)
    assert v.passed


def test_sweedler_tensor_square_projection(h4):
    pb = tensor_square_projection(h4)
    hm = hopf_module_from_projection(pb)
    p, verdict = verify_projection_rb(hm)
    assert verdict.passed and verdict.idempotent
    assert p == pi_operator(pb)


def _zoo_modules():
    """Named builders of valid Hopf module coalgebras across the fixture zoo."""
    builders = {}
    for name in ("group:C2", "group:C3", "group:S3", "sweedler4",
                 "dual-group:C2"):
        builders[f"regular/{name}"] = (
            lambda n=name: regular_hopf_module(builtin(n)))
        builders[f"regular-left/{name}"] = (
            lambda n=name: regular_hopf_module(builtin(n), side="left"))
    for name in ("group:C2", "sweedler4"):
        builders[f"projection/{name}"] = (
            lambda n=name: hopf_module_from_projection(
                tensor_square_projection(builtin(n))))
        builders[f"projection-left/{name}"] = (
            lambda n=name: hopf_module_from_projection(
                tensor_square_projection(builtin(n)), side="left"))
    return builders


ZOO_MODULES = _zoo_modules()


@pytest.mark.parametrize("label", sorted(ZOO_MODULES))
def test_projection_rb_theorem_as_property(label):
    # every valid Hopf module coalgebra in the zoo certifies its projection
    hm = ZOO_MODULES[label]()
    p, verdict = verify_projection_rb(hm)
    assert verdict.passed and verdict.idempotent
    assert p * p == p


def test_projection_rb_theorem_hypothesis_sampling():
    from hypothesis import given, settings, strategies as st

    @settings(max_examples=10, deadline=None)
    @given(st.sampled_from(sorted(ZOO_MODULES)))
    def run(label):
        _, verdict = verify_projection_rb(ZOO_MODULES[label]())
        assert verdict.passed

    run()


def test_dim_zero_module_vacuous(c2):
    hm = HopfModule(c2, 0, Mat.zeros(QQ, 0, 0), Mat.zeros(QQ, 0, 0),
                    "right", comul=__import__("rbhopf").Tensor3(QQ, (0, 0, 0), {}))
    assert check_hopf_module(hm).passed
    assert check_hopf_module_coalgebra(hm).passed
    p, verdict = verify_projection_rb(hm)
    assert verdict.passed


# Oracle for the constructions, which are built from TermSum rewrites: the
# dense Kronecker-product formulas for the same maps.

_ORACLE_HOPFS = ("sweedler4", "group:S3")


def _identity_projection(name):
    h = builtin(name)
    eye = Mat.identity(QQ, h.dim)
    return projection_bialgebra(h, h, eye, eye)


_PROJECTIONS = {
    **{name: (lambda n=name: _identity_projection(n)) for name in _ORACLE_HOPFS},
    **{f"{name}^2": (lambda n=name: tensor_square_projection(builtin(n)))
       for name in _ORACLE_HOPFS},
}


def _sparse_endomorphism(n, seed):
    rng = random.Random(seed)
    return Mat(QQ, [[rng.choice((0, 0, 0, 1, -1, 2)) for _ in range(n)]
                    for _ in range(n)])


@pytest.mark.parametrize("name", _ORACLE_HOPFS)
@pytest.mark.parametrize("side", ["right", "left"])
def test_regular_module_maps_match_dense_structure_matrices(name, side):
    s = builtin(name)
    hm = regular_hopf_module(s, side)
    assert hm.action == s.mul.mul_matrix()
    assert hm.coaction == s.comul.comul_matrix()


@pytest.mark.parametrize("name", _ORACLE_HOPFS)
def test_convolution_matches_kronecker_formula(name):
    s = builtin(name)
    f, g = _sparse_endomorphism(s.dim, 1), _sparse_endomorphism(s.dim, 2)
    mul, comul = s.mul.mul_matrix(), s.comul.comul_matrix()
    for a, b in ((f, g), (g, f), (s.antipode, f)):
        assert convolution(a, b, s) == mul * (a @ b) * comul


@pytest.mark.parametrize("label", sorted(_PROJECTIONS))
def test_projection_constructions_match_kronecker_formulas(label):
    pb = _PROJECTIONS[label]()
    big = pb.big
    eye = Mat.identity(QQ, big.dim)
    mul, comul = big.mul.mul_matrix(), big.comul.comul_matrix()
    isp = pb.embed * pb.hopf.antipode * pb.project
    assert convolution(eye, isp, big) == mul * (eye @ isp) * comul
    assert convolution(isp, eye, big) == mul * (isp @ eye) * comul
    antipode = pb.hopf.antipode
    for side in ("right", "left"):
        hm = hopf_module_from_projection(pb, side)
        if side == "right":
            action = mul * (eye @ pb.embed)
            coaction = (eye @ pb.project) * comul
            projection = action * (eye @ antipode) * coaction
        else:
            action = mul * (pb.embed @ eye)
            coaction = (pb.project @ eye) * comul
            projection = action * (antipode @ eye) * coaction
        assert hm.action == action and hm.coaction == coaction
        assert coinvariant_projection(hm) == projection
        assert pi_operator(pb, side) == projection


@pytest.mark.parametrize("name", _ORACLE_HOPFS)
@pytest.mark.parametrize("side", ["right", "left"])
def test_regular_coinvariant_projection_matches_kronecker_formula(name, side):
    h = builtin(name)
    hm = regular_hopf_module(h, side)
    eye = Mat.identity(QQ, h.dim)
    middle = eye @ h.antipode if side == "right" else h.antipode @ eye
    assert coinvariant_projection(hm) == hm.action * middle * hm.coaction
