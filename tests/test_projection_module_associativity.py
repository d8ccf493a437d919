"""Projection Hopf modules carry their module associativity.

`projection_bialgebra` records the projection it proved, C associative
without a Light's test of its own among its preconditions, and
`hopf_module_from_projection` then records on the action it builds, C's
multiplication after i, that it carries its identities.  With that
record, `check_module` drops its associativity identity: c·(hh') = c·i(hh') = c·(i(h)i(h')) = (c·i(h))·i(h').  On fresh
tensor squares of sweedler4 and group:S3 the identity evaluates no basis
input, on either side.  Everything without matching records (a copied
action, a pickle, a loaded file, C's multiplication copied without its
factors, a replaced H or side, a projection built directly) evaluates it,
and every verdict must equal, by `repr`, the full check's on a copy with
no record.
"""

import pickle
import random

import pytest

from rbhopf import (AlgebraicStructure, Mat, PreconditionError,
                    ProjectionBialgebra, Tensor3, Vec, builtin,
                    check_associativity, check_bialgebra_map,
                    check_hopf_module, check_hopf_module_algebra,
                    check_hopf_module_coalgebra, check_module,
                    hopf_module_from_projection, projection_bialgebra,
                    tensor_product, tensor_square_projection,
                    verify_projection_rb)
from rbhopf.fileformat import load, save
from rbhopf.structures import _recorded
from rbhopf.tensorops import _matrix_of
from conftest import verdict_key
from test_generator_certificates import full_check, moved
from test_tensor_provenance import inputs_per_identity  # noqa: F401

SQUARES = ("sweedler4", "group:S3")
SIDES = ("right", "left")


def module_check(hm):
    return check_module(hm.hopf, hm.m_dim, hm.action, hm.side)


def copied(m):
    """A copy of a `Mat` or `Tensor3` with no record."""
    return type(m).from_terms(m.field, m.dims, dict(m.terms))


def stripped(hm):
    """`hm` with every map copied, so that no record survives."""
    return pickle.loads(pickle.dumps(hm))


def assert_full_verdict(got, check, hm):
    """`got`, the verdict of `check(hm)`, against the full check of a copy
    of `hm` with no record.  Run it after counting `got`'s inputs: the
    full check counts its own."""
    expected = full_check(lambda: check(stripped(hm)))
    assert verdict_key(got) == verdict_key(expected)
    assert repr(got) == repr(expected)


@pytest.mark.parametrize("side", SIDES)
@pytest.mark.parametrize("name", SQUARES)
def test_fresh_module_evaluates_no_associativity_input(name, side,
                                                       inputs_per_identity):
    pb = tensor_square_projection(builtin(name))
    hm = hopf_module_from_projection(pb, side)
    assert module_check(hm).passed
    assert check_hopf_module(hm).passed
    assert inputs_per_identity[f"{side}-action-associativity"] == 0
    # The records carry every other identity too.
    assert inputs_per_identity[f"{side}-action-unital"] == 0
    assert inputs_per_identity[f"{side}-hopf-module-compatibility"] == 0
    assert inputs_per_identity[f"{side}-coaction-coassociativity"] == 0
    # A copied action and coaction have no record: these identities run.
    copy = hm.replace(action=copied(hm.action), coaction=copied(hm.coaction))
    assert module_check(copy).passed
    assert check_hopf_module(copy).passed
    assert inputs_per_identity[f"{side}-action-unital"] == 2 * hm.m_dim
    assert inputs_per_identity[f"{side}-hopf-module-compatibility"] > 0
    assert inputs_per_identity[f"{side}-coaction-coassociativity"] > 0


def test_the_map_record_names_both_multiplications():
    pb = tensor_square_projection(builtin("group:S3"))
    assert _recorded("projection", pb.embed, pb.project, pb.hopf,
                     pb.big) is True


def from_terms_copy(pb, side, tmp_path):
    hm = hopf_module_from_projection(pb, side)
    return hm.replace(action=copied(hm.action))


def pickle_copy(pb, side, tmp_path):
    return pickle.loads(pickle.dumps(hopf_module_from_projection(pb, side)))


def fileformat_copy(pb, side, tmp_path):
    name = {4: "sweedler4", 6: "group:S3"}[pb.hopf.dim]
    path = str(tmp_path / f"m_{side}.rbh")
    save(hopf_module_from_projection(pb, side), path,
         refs={"hopf": f"builtin:{name}"})
    return load(path).payload


def mul_copy(pb, side, tmp_path):
    big = pb.big.replace(mul=copied(pb.big.mul))
    assert _recorded("factors", big.mul) is None
    pb = projection_bialgebra(big, pb.hopf, pb.embed, pb.project)
    return hopf_module_from_projection(pb, side)


def hopf_copy(pb, side, tmp_path):
    hm = hopf_module_from_projection(pb, side)
    return hm.replace(hopf=hm.hopf.replace(mul=copied(hm.hopf.mul)))


COPIES = {"from_terms": from_terms_copy, "pickle": pickle_copy,
          "fileformat": fileformat_copy, "mul_copy": mul_copy,
          "hopf_copy": hopf_copy}


@pytest.mark.parametrize("how", sorted(COPIES))
@pytest.mark.parametrize("side", SIDES)
@pytest.mark.parametrize("name", SQUARES)
def test_copies_evaluate_the_identity(name, side, how, tmp_path,
                                      inputs_per_identity):
    pb = tensor_square_projection(builtin(name))
    hm = COPIES[how](pb, side, tmp_path)
    got = module_check(hm)
    assert got.passed
    assert inputs_per_identity[f"{side}-action-associativity"] > 0
    assert_full_verdict(got, module_check, hm)
    assert_full_verdict(check_hopf_module(hm), check_hopf_module, hm)


@pytest.mark.parametrize("side", SIDES)
@pytest.mark.parametrize("name", SQUARES)
def test_a_replaced_side_evaluates_the_identity(name, side,
                                                inputs_per_identity):
    hm = hopf_module_from_projection(tensor_square_projection(builtin(name)),
                                     side)
    other = hm.replace(side=SIDES[1 - SIDES.index(side)])
    got = module_check(other)
    assert inputs_per_identity[f"{other.side}-action-associativity"] > 0
    assert_full_verdict(got, module_check, other)


def moved_embed(pb):
    """i with i(e_1) = e_1⊗e_0 moved to e_1⊗e_1: a basis element that is
    not a unit goes where i(e_1)i(e_j) ≠ i(e_1 e_j) for some j."""
    n = pb.hopf.dim
    terms = dict(pb.embed.terms)
    terms[n + 1, 1] = terms.pop((n, 1))
    return Mat.from_terms(pb.embed.field, pb.embed.dims, terms)


@pytest.mark.parametrize("side", SIDES)
@pytest.mark.parametrize("name", SQUARES)
def test_only_passes_are_recorded(name, side, inputs_per_identity):
    pb = tensor_square_projection(builtin(name))
    bad = moved_embed(pb)
    v = check_bialgebra_map(bad, pb.hopf, pb.big)
    assert not v.passed and v.defect.identity == "map-multiplicative"
    with pytest.raises(PreconditionError, match="i is not a bialgebra map"):
        projection_bialgebra(pb.big, pb.hopf, bad, pb.project)
    assert _recorded("projection", bad, pb.project, pb.hopf, pb.big) is None
    raw = ProjectionBialgebra(pb.big, pb.hopf, bad, pb.project)
    hm = hopf_module_from_projection(raw, side)
    assert _recorded(f"{side}-projection-action", hm.action, pb.hopf) is None
    assert _recorded(f"{side}-projection-module", hm.action, hm.coaction,
                     pb.hopf) is None
    got = module_check(hm)
    assert not got.passed
    assert got.defect.identity == f"{side}-action-associativity"
    assert inputs_per_identity[f"{side}-action-associativity"] > 0
    assert_full_verdict(got, module_check, hm)
    for check in (check_hopf_module, check_hopf_module_algebra,
                  check_hopf_module_coalgebra):
        assert_full_verdict(check(hm), check, hm)


# ---------------------------------------------------------------------------
# Moved entries, with the records and with every record stripped
# ---------------------------------------------------------------------------

def projection_result(hm):
    try:
        p, v = verify_projection_rb(hm)
    except PreconditionError as exc:
        return repr(exc)
    return repr((p.terms, v))


CHECKS = (module_check, check_hopf_module, check_hopf_module_algebra,
          check_hopf_module_coalgebra, projection_result)
TARGETS = ("action", "coaction", "embed", "project", "mul")


def corpus_module(name, side, rng, moves):
    """The projection module of the square of `name` after `moves` moved
    entries, each in a seeded one of the action, the coaction, i, π and
    C's multiplication.  i and π are validated by `check_bialgebra_map`,
    which records nothing: the module is carried only when i, π and C
    are the square's own."""
    pb = tensor_square_projection(builtin(name))
    big, embed, project = pb.big, pb.embed, pb.project
    after = []
    for _ in range(moves):
        target = rng.choice(TARGETS)
        if target == "mul":
            big = big.replace(mul=moved(rng, big.mul))
        elif target == "embed":
            embed = moved(rng, embed)
        elif target == "project":
            project = moved(rng, project)
        else:
            after.append(target)
    for f, src, dst in ((embed, pb.hopf, big), (project, big, pb.hopf)):
        check_bialgebra_map(f, src, dst)
    hm = hopf_module_from_projection(
        ProjectionBialgebra(big, pb.hopf, embed, project), side)
    for target in after:
        hm = hm.replace(**{target: moved(rng, getattr(hm, target))})
    return hm


@pytest.mark.parametrize("side", SIDES)
@pytest.mark.parametrize("name", ["group:C2", "sweedler4"])
def test_moved_entries_give_the_verdicts_of_the_stripped_module(name, side):
    rng = random.Random(f"{name}/{side}")
    failed = 0
    for moves in (0, 1, 1, 2, 2):
        hm = corpus_module(name, side, rng, moves)
        for check in CHECKS:
            got = check(hm)
            assert repr(got) == repr(check(stripped(hm)))
            failed += "False" in repr(got) or "Error" in repr(got)
    assert failed


def test_c_not_known_associative_is_not_carried(inputs_per_identity):
    """i passes into C = H⊗N with N unital but not associative, so
    `projection_bialgebra` finds no G of C and records no projection: the
    identity runs, and passes, since only the unit of N is acted on."""
    h = builtin("group:S3")
    field, one = h.field, h.field.one
    # The magma algebra with unit e0, e1e1 = e2, e1e2 = e1, e2e1 = e2 and
    # e2e2 = e0, grouplike: (e1e1)e1 = e2 ≠ e1 = e1(e1e1).
    n = AlgebraicStructure(3, field, mul=Tensor3(field, (3, 3, 3), {
        **{(0, i, i): one for i in range(3)},
        **{(i, 0, i): one for i in range(1, 3)},
        (1, 1, 2): one, (1, 2, 1): one, (2, 1, 2): one, (2, 2, 0): one}),
        comul=Tensor3(field, (3, 3, 3), {(i, i, i): one for i in range(3)}),
        unit=Vec.basis(field, 3, 0), counit=Mat(field, ((one,) * 3,)))
    assert not check_associativity(n).passed
    big = tensor_product(h, n)
    embed = _matrix_of(field, (6,), lambda t: t.insert_at(1, n.unit))
    project = _matrix_of(field, (6, 3),
                         lambda t: t.map_at(1, n.counit).drop_at(1))
    pb = projection_bialgebra(big, h, embed, project)
    assert _recorded("projection", embed, project, h, big) is None
    for side in SIDES:
        hm = hopf_module_from_projection(pb, side)
        got = module_check(hm)
        assert got.passed
        assert inputs_per_identity[f"{side}-action-associativity"] > 0
        assert_full_verdict(got, module_check, hm)
        inputs_per_identity.clear()
