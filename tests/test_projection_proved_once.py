"""A projection is proved once, where `projection_bialgebra` builds it.

`projection_bialgebra` validates i and π as bialgebra maps and π∘i = id,
and then proves the rest of what a carried verdict rests on: H passes
the five axioms of a Hopf algebra, C coassociativity and unit-counit,
and C is associative, with G read from a record or its factors, and
Δ(ab) = Δ(a)Δ(b).  Only a full pass records the projection, and only
then do the maps built from it record what they carry.  Here: a projection whose
H or C fails a precondition, or whose C's multiplication is a copy with
no factors, is returned with no record, and its checks give the full
verdicts at no more work than the full check; a `ProjectionBialgebra`
built directly, from maps that pass `check_bialgebra_map`, is not
carried, and gives the carried verdicts by evaluating them.
"""

import pickle
from functools import partial

import pytest

from rbhopf import (ProjectionBialgebra, Tensor3, builtin,
                    check_bialgebra_map, check_hopf_module_coalgebra,
                    check_module, hopf_module_from_projection, pi_operator,
                    projection_bialgebra, tensor_product,
                    tensor_square_projection)
from rbhopf.structures import _recorded
from rbhopf.tensorops import _matrix_of
from test_pi_rota_baxter import REPLACED, c2_over_klein
from test_projection_module_carried import (  # noqa: F401
    SIDES, assert_carried, rewritten, verdicts, wrong_antipode)
from test_tensor_provenance import inputs_per_identity  # noqa: F401


def square_maps(hopf):
    """C = H⊗H, i(h) = h⊗1 and π(h⊗h') = h·ε(h'), built afresh, as
    `tensor_square_projection` builds them, with no record."""
    n = hopf.dim
    embed = _matrix_of(hopf.field, (n,), lambda t: t.insert_at(1, hopf.unit))
    project = _matrix_of(hopf.field, (n, n),
                         lambda t: t.map_at(1, hopf.counit).drop_at(1))
    return tensor_product(hopf, hopf), embed, project


def s3_with_wrong_antipode():
    """The group:S3 square over H with its antipode moved: i and π are
    still bialgebra maps and π∘i = id, but H is not a Hopf algebra."""
    h = builtin("group:S3")
    big, embed, project = square_maps(h)
    hopf = wrong_antipode(ProjectionBialgebra(big, h, embed, project))["hopf"]
    return projection_bialgebra(big, hopf, embed, project)


def c2_over_klein_replaced(how):
    """`c2_over_klein` with C's comultiplication replaced by
    `REPLACED[how]`, through which i and π are still bialgebra maps,
    built again from copies of i and π."""
    pb = c2_over_klein()
    big = pb.big.replace(**REPLACED[how](pb.big))
    embed, project = (type(m).from_terms(m.field, m.dims, dict(m.terms))
                      for m in (pb.embed, pb.project))
    return projection_bialgebra(big, pb.hopf, embed, project)


UNPROVED = {"wrong-antipode": s3_with_wrong_antipode,
            "not-coassociative": partial(c2_over_klein_replaced,
                                         "not-coassociative"),
            "not-multiplicative": partial(c2_over_klein_replaced,
                                          "not-multiplicative")}


@pytest.mark.parametrize("side", SIDES)
@pytest.mark.parametrize("how", sorted(UNPROVED))
def test_a_failed_precondition_records_nothing(how, side):
    pb = UNPROVED[how]()
    assert _recorded("projection", pb.embed, pb.project, pb.hopf,
                     pb.big) is None
    got = assert_carried(hopf_module_from_projection(pb, side),
                         pi_operator(pb, side), pb.big)
    assert any("passed=False" in v for v in got)


def test_a_failed_precondition_is_not_proved_again(rewritten):
    """One module-coalgebra check on a projection with no record hands the
    rewrite kernel no more input terms than the same check of a pickled
    copy, which carries no record of any kind: no failing proof runs."""
    hm = hopf_module_from_projection(s3_with_wrong_antipode(), "right")
    copy = pickle.loads(pickle.dumps(hm))
    rewritten[0] = 0
    got = check_hopf_module_coalgebra(hm)
    work = rewritten[0]
    rewritten[0] = 0
    assert repr(got) == repr(check_hopf_module_coalgebra(copy))
    assert 0 < work <= rewritten[0]


@pytest.mark.parametrize("side", SIDES)
@pytest.mark.parametrize("name", ["sweedler4", "group:S3"])
def test_a_direct_projection_is_evaluated(name, side, inputs_per_identity):
    h = builtin(name)
    big, embed, project = square_maps(h)
    for f, src, dst in ((embed, h, big), (project, big, h)):
        assert check_bialgebra_map(f, src, dst).passed
    direct = ProjectionBialgebra(big, h, embed, project)
    hm = hopf_module_from_projection(direct, side)
    assert check_module(h, hm.m_dim, hm.action, side).passed
    assert inputs_per_identity[f"{side}-action-associativity"] > 0
    carried = tensor_square_projection(h)
    assert _recorded("projection", carried.embed, carried.project,
                     carried.hopf, carried.big) is True
    expected = verdicts(hopf_module_from_projection(carried, side),
                        pi_operator(carried, side), carried.big)
    assert all("passed=True" in v for v in expected)
    assert verdicts(hm, pi_operator(direct, side), big) == expected


def test_a_copied_multiplication_is_not_proved():
    """C's multiplication copied by `Tensor3.from_terms` records no
    factors, and `projection_bialgebra` runs no Light's test of C, so it
    finds no G of C and records no projection: every identity is
    evaluated, and passes."""
    h = builtin("group:S3")
    big, embed, project = square_maps(h)
    big = big.replace(mul=Tensor3.from_terms(h.field, big.mul.dims,
                                             dict(big.mul.terms)))
    pb = projection_bialgebra(big, h, embed, project)
    assert _recorded("projection", embed, project, h, big) is None
    for side in SIDES:
        got = assert_carried(hopf_module_from_projection(pb, side),
                             pi_operator(pb, side), pb.big)
        assert all("passed=True" in v for v in got)
