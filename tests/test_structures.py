import pickle
import random
from collections import Counter
from fractions import Fraction

import pytest

from rbhopf import (GF, QQ, AlgebraicStructure, Mat, ShapeError, Tensor3,
                    TermSum, Vec, builtin, builtin_names, check_antipode,
                    check_associativity, check_bialgebra, check_bialgebra_map,
                    check_coassociativity, check_comodule, check_module,
                    check_unit_counit, counit_solutions, find_bialgebra_counit,
                    tensor_product)
from conftest import HOPF_FIXTURES, apply_mul, dense_counit_solutions


def test_all_builtins_pass_their_axioms():
    # builtin() itself asserts the applicable axioms; also spot-check verdicts
    for name in HOPF_FIXTURES:
        s = builtin(name)
        assert check_associativity(s).passed
        assert check_coassociativity(s).passed
        assert check_unit_counit(s).passed
        assert check_bialgebra(s).passed
        assert check_antipode(s).passed


@pytest.mark.parametrize("field", [QQ, GF(5)])
@pytest.mark.parametrize("name", [n.replace("<n>", "3") for n in builtin_names()])
def test_builtins_pickle_round_trip(name, field):
    s = builtin(name, field)
    back = pickle.loads(pickle.dumps(s))
    assert back == s
    assert back.field is field


def test_containers_pickle_through_their_constructors():
    f5 = GF(5)
    for obj in (Vec(f5, (1, 2)), Vec.zero(QQ, 3), Vec(QQ, ()),
                Mat.identity(QQ, 2), Mat(QQ, (), cols=3),
                Tensor3(f5, (1, 2, 2), {(0, 1, 1): 3}),
                TermSum(QQ, (2, 3), {(1, 2): Fraction(1, 2)})):
        back = pickle.loads(pickle.dumps(obj))
        assert back == obj and type(back) is type(obj)
        assert back.field is obj.field
    with pytest.raises(AttributeError):
        back.field = f5


def test_builtins_over_prime_fields():
    for name in HOPF_FIXTURES + ["example54", "grouplike:2"]:
        for p in (2, 3, 5):
            builtin(name, GF(p))


def test_unknown_builtin():
    with pytest.raises(ValueError):
        builtin("group:C5")


def test_builtin_names_mentions_core_zoo():
    names = builtin_names()
    for expected in ("group:C2", "group:S3", "sweedler4", "example54",
                     "dual-group:C2"):
        assert expected in names


def test_example54_shape(e54):
    assert e54.dim == 3
    assert e54.unit == Vec.basis(QQ, 3, 0)
    assert e54.counit is None
    assert check_bialgebra(e54).passed


def test_sweedler4_spot_entries(h4):
    # x*g = -gx, g*x = gx, Delta(x) = x(x)1 + g(x)x, S(x) = -gx
    assert h4.mul[(2, 1, 3)] == Fraction(-1)
    assert h4.mul[(1, 2, 3)] == Fraction(1)
    assert h4.comul[(2, 2, 0)] == Fraction(1)
    assert h4.comul[(2, 1, 2)] == Fraction(1)
    assert h4.antipode.col(2) == Vec(QQ, (0, 0, 0, -1))
    s2 = h4.antipode * h4.antipode
    assert s2 != Mat.identity(QQ, 4)


def test_antipode_squared_identity_for_commutative_cocommutative():
    for name in ("group:C2", "group:C3", "dual-group:C2", "trivial"):
        s = builtin(name)
        assert s.antipode * s.antipode == Mat.identity(QQ, s.dim)


def test_group_s3_antipode_inverts(s3):
    assert s3.antipode * s3.antipode == Mat.identity(QQ, 6)
    # S(g) = g^{-1}: check on the 3-cycle (123) whose inverse is (132)
    i123 = s3.names.index("(123)")
    i132 = s3.names.index("(132)")
    assert s3.antipode.col(i123) == Vec.basis(QQ, 6, i132)


def test_associativity_failure_witness():
    # e0e0 = e1, e1e0 = e0: (e0e0)e0 = e0 but e0(e0e0) = e0e1 = 0
    bad = AlgebraicStructure(2, QQ, mul=Tensor3(QQ, (2, 2, 2),
                                                {(0, 0, 1): 1, (1, 0, 0): 1}))
    v = check_associativity(bad)
    assert not v.passed
    assert v.defect.witness[:3] == (0, 0, 0)
    assert v.defect.identity == "associativity"


def test_coassociativity_failure():
    # Delta(e0) = e0(x)e1, else 0: (D(x)id)D(e0) = 0, (id(x)D)D(e0) = 0 too?
    # (D(x)id)D(e0) = D(e0)(x)e1 = e0(x)e1(x)e1; (id(x)D)D(e0) = e0(x)D(e1) = 0
    bad = AlgebraicStructure(2, QQ, comul=Tensor3(QQ, (2, 2, 2), {(0, 0, 1): 1}))
    v = check_coassociativity(bad)
    assert not v.passed
    assert v.defect.residual == {(0, 0, 1, 1): Fraction(1)}


def test_candidate_counit_on_example54_fails_multiplicativity(e54):
    # eps = (1,1,1) satisfies counitality but not eps(z*z) = eps(z)^2
    candidate = AlgebraicStructure(3, QQ, mul=e54.mul, comul=e54.comul,
                                   unit=e54.unit,
                                   counit=Mat(QQ, ((1, 1, 1),)))
    assert check_unit_counit(candidate).passed
    v = check_bialgebra(candidate)
    assert not v.passed
    assert v.defect.identity == "counit-multiplicative"
    # zy = 0 fails first in basis order; z*z = 0 fails too
    assert v.defect.witness == (2, 1, 0)
    assert v.defect.residual[(2, 2, 0)] == Fraction(-1)


def test_counit_solver_on_example54(e54):
    particular, kernel = counit_solutions(e54)
    assert particular == Vec(QQ, (1, 1, 1))
    assert kernel == []
    # the unique counitality solution is not multiplicative on z (z^2 = 0)
    assert find_bialgebra_counit(e54) is None


def _random_comul(rng, field, n):
    """A random Δ on n basis vectors.  Half the time Δ(e_i) = s_i e_i⊗e_i
    plus terms x⊗y with x, y in the kernel of ε = (1/s_0, ..., 1/s_{n-1}),
    so ε is a counit; otherwise sparse random constants."""
    def scalar():
        if field is QQ:
            return Fraction(rng.choice((-2, -1, 1, 2, 3)), rng.randint(1, 3))
        return field.from_int(rng.randrange(1, field.p))

    terms: dict = {}

    def add(key, c):
        terms[key] = terms.get(key, field.zero) + c

    if rng.random() < 0.5:
        s = [scalar() for _ in range(n)]
        for i in range(n):
            add((i, i, i), s[i])
            for _ in range(rng.randrange(3)):
                a, b, c, d = (rng.randrange(n) for _ in range(4))
                w = scalar()
                for j, x in ((a, s[a]), (b, -s[b])):
                    for k, y in ((c, s[c]), (d, -s[d])):
                        add((i, j, k), w * x * y)
    else:
        for _ in range(rng.randrange(2 * n * n)):
            add(tuple(rng.randrange(n) for _ in range(3)), scalar())
    return AlgebraicStructure(n, field, comul=Tensor3(field, (n, n, n), terms))


@pytest.mark.parametrize("field", [QQ, GF(2), GF(3), GF(5)],
                         ids=["Q", "F2", "F3", "F5"])
def test_counit_solutions_match_the_dense_system(field):
    """The sparse counit solver against the dense 2n² x n system, and a
    consistent system never has a kernel: a counit is unique."""
    rng = random.Random(5)
    counts = Counter()
    for _ in range(250):
        s = _random_comul(rng, field, rng.randint(1, 4))
        particular, kernel = counit_solutions(s)
        assert (particular, kernel) == dense_counit_solutions(s)
        assert particular is None or kernel == []
        counts["consistent"] += particular is not None
        counts["kernel"] += bool(kernel)
    assert counts["consistent"] > 0 and counts["kernel"] > 0, counts


def test_counit_solver_finds_group_counit(c2):
    s = AlgebraicStructure(2, QQ, mul=c2.mul, comul=c2.comul, unit=c2.unit)
    assert find_bialgebra_counit(s) == Vec(QQ, (1, 1))


def test_trivial_structure_passes(c2):
    t = builtin("trivial")
    assert t.dim == 1
    assert check_unit_counit(t).passed


def test_unit_counit_requires_some_map():
    s = AlgebraicStructure(2, QQ, mul=builtin("group:C2").mul)
    with pytest.raises(ValueError):
        check_unit_counit(s)


def test_capability_validation():
    c2 = builtin("group:C2")
    with pytest.raises(ShapeError):
        AlgebraicStructure(2, QQ, comul=c2.comul, unit=c2.unit)
    with pytest.raises(ShapeError):
        AlgebraicStructure(2, QQ, mul=c2.mul, counit=c2.counit)
    with pytest.raises(ShapeError):
        AlgebraicStructure(2, QQ)


def test_comodule_trivial_and_regular(c2, e54):
    # m -> m (x) 1 is a right comodule for any counital H
    triv = Mat.identity(QQ, 2) @ c2.unit.as_column()
    assert check_comodule(c2, 2, triv, "right").passed
    # Delta of example54 as a right coaction over itself
    assert check_comodule(e54, 3, e54.comul.comul_matrix(), "right").passed


def test_comodule_adjoint_coaction_on_c2(c2):
    from rbhopf import adjoint_yd
    adj = adjoint_yd(c2)
    assert check_comodule(c2, 2, adj.coaction, "left").passed
    # commutative grouplike case collapses to the trivial coaction
    assert adj.coaction == c2.unit.as_column() @ Mat.identity(QQ, 2)


def test_module_regular_action(h4):
    assert check_module(h4, 4, h4.mul.mul_matrix(), "right").passed
    assert check_module(h4, 4, h4.mul.mul_matrix(), "left").passed


def test_module_shape_mismatch(c2):
    with pytest.raises(ShapeError):
        check_module(c2, 3, Mat.identity(QQ, 2), "right")


def test_bialgebra_map_checker(c2):
    ok = check_bialgebra_map(Mat.identity(QQ, 2), c2, c2)
    assert ok.passed
    swap = Mat(QQ, ((0, 1), (1, 0)))
    bad = check_bialgebra_map(swap, c2, c2)
    assert not bad.passed  # does not preserve the unit


def test_tensor_product_of_hopf_algebras(c2, h4):
    t = tensor_product(c2, h4)
    assert t.dim == 8
    assert check_associativity(t).passed
    assert check_coassociativity(t).passed
    assert check_bialgebra(t).passed
    assert check_antipode(t).passed
    assert t.names[1] == "1*g"


def _summed_tensor_product(x, y, field, db):
    """The tensor product of two Tensor3s as first written: every product
    added into a dict, then validated by the public constructor."""
    n = x.dims[0] * db
    entries = {}
    for (i1, j1, k1), v1 in x.entries.items():
        for (i2, j2, k2), v2 in y.entries.items():
            key = (i1 * db + i2, j1 * db + j2, k1 * db + k2)
            entries[key] = entries.get(key, field.zero) + v1 * v2
    return Tensor3(field, (n, n, n), entries)


@pytest.mark.parametrize("field", [QQ, GF(5)])
@pytest.mark.parametrize("left, right", [("sweedler4", "group:S3"),
                                         ("group:S3", "group:S3"),
                                         ("sweedler4", "sweedler4")])
def test_tensor_product_matches_summed_formula(field, left, right):
    a, b = builtin(left, field), builtin(right, field)
    ab = tensor_product(a, b)
    for name in ("mul", "comul"):
        got = getattr(ab, name)
        assert got == _summed_tensor_product(getattr(a, name), getattr(b, name),
                                             field, b.dim)
        assert all(got.entries.values())
        if left == right == "group:S3":
            # Group-algebra constants are all `one`: no product was formed.
            assert all(v is ab.field.one for v in got.entries.values())
    assert ab.unit == a.unit.tensor(b.unit)


def test_tensor_product_field_mismatch(c2):
    with pytest.raises(ShapeError):
        tensor_product(c2, builtin("group:C2", GF(2)))


def test_defect_reproduces_by_reevaluation():
    bad = AlgebraicStructure(2, QQ, mul=Tensor3(QQ, (2, 2, 2),
                                                {(0, 0, 1): 1, (1, 0, 0): 1}))
    v = check_associativity(bad)
    i, j, k = v.defect.witness[:3]
    mul = bad.mul
    e = [Vec.basis(QQ, 2, n) for n in range(2)]
    lhs = apply_mul(mul, apply_mul(mul, e[i], e[j]), e[k])
    rhs = apply_mul(mul, e[i], apply_mul(mul, e[j], e[k]))
    out = v.defect.witness[3]
    assert (lhs - rhs)[out] == v.defect.residual[v.defect.witness]
