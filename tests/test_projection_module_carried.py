"""Projection Hopf modules carry every Hopf-module identity.

`hopf_module_from_projection` and `pi_operator` record on the pair of
action and coaction, and on Π, what they carry, when the projection they
were built from was proved (once per projection).  `check_hopf_module`,
`check_hopf_module_algebra`, `check_hopf_module_coalgebra` and
`check_rb_algebra(C, Π, -1)` then pass with no identity evaluated, each
after one lookup (`structures._recorded`); `check_module` and
`check_comodule` of one map read no record.  Every verdict here
must equal, by `repr`, the full check's on a pickled copy, which carries no
record: on fresh squares of group:C2, sweedler4 and group:S3 over QQ, GF(2)
and GF(3), after moved entries of every map the records or the proof read,
and with each precondition broken on its own.
"""

import pickle
import random

import pytest

from rbhopf import (GF, QQ, Mat, ProjectionBialgebra, builtin,
                    check_bialgebra_map, check_comodule, check_hopf_module,
                    check_hopf_module_algebra, check_hopf_module_coalgebra,
                    check_module, check_rb_algebra,
                    hopf_module_from_projection, pi_operator,
                    tensor_square_projection)
from rbhopf import tensorops
from rbhopf.structures import _recorded
from rbhopf.tensorops import _matrix_of
from test_generator_certificates import full_check, moved
from test_pi_rota_baxter import (REPLACED, c2_over_klein, moved_embed,
                                 moved_project)
from test_tensor_provenance import inputs_per_identity  # noqa: F401

SIDES = ("right", "left")
SQUARES = ("group:C2", "sweedler4", "group:S3")
FIELDS = (QQ, GF(2), GF(3))
MODULE_CHECKS = (check_hopf_module, check_hopf_module_algebra,
                 check_hopf_module_coalgebra)
# The identities of the three module checks, without their side.
MODULE_IDENTITIES = (
    "action-associativity", "action-unital", "coaction-coassociativity",
    "coaction-counital", "hopf-module-compatibility",
    "module-algebra-action", "module-algebra-coaction",
    "module-coalgebra-coaction", "module-coalgebra-action")


@pytest.fixture
def rewritten(monkeypatch):
    """Input terms of every rewrite, the whole work of a check."""
    count = [0]
    rewrite = tensorops.TermSum._rewrite

    def counting(self, *args):
        count[0] += len(self.terms)
        return rewrite(self, *args)

    monkeypatch.setattr(tensorops.TermSum, "_rewrite", counting)
    return count


def verdicts(hm, pi, big):
    """The three module checks on `hm` and `check_rb_algebra(big, Π, -1)`,
    as `repr`s."""
    return [*(repr(check(hm)) for check in MODULE_CHECKS),
            repr(check_rb_algebra(big, pi, -1))]


def assert_carried(hm, pi, big):
    """`verdicts` with the records, against the full check of a pickled
    copy, which has none."""
    got = verdicts(hm, pi, big)
    copy = pickle.loads(pickle.dumps((hm, pi, big)))
    assert got == full_check(lambda: verdicts(*copy))
    return got


def validated(pb):
    """`pb` after `check_bialgebra_map` of i and π, which records nothing:
    a `ProjectionBialgebra` built directly is not carried."""
    for f, src, dst in ((pb.embed, pb.hopf, pb.big),
                        (pb.project, pb.big, pb.hopf)):
        check_bialgebra_map(f, src, dst)
    return pb


# ---------------------------------------------------------------------------
# Fresh squares
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("field", FIELDS, ids=str)
@pytest.mark.parametrize("name", SQUARES)
def test_fresh_square_gives_the_full_verdicts(name, field):
    pb = tensor_square_projection(builtin(name, field))
    for side in SIDES:
        hm = hopf_module_from_projection(pb, side)
        got = assert_carried(hm, pi_operator(pb, side), pb.big)
        assert all("passed=True" in v for v in got)


@pytest.mark.parametrize("name", ["sweedler4", "group:S3"])
def test_fresh_module_evaluates_no_module_identity(name, inputs_per_identity,
                                                   rewritten):
    pb = tensor_square_projection(builtin(name))
    for side in SIDES:
        hm = hopf_module_from_projection(pb, side)
        for check in MODULE_CHECKS:
            assert check(hm).passed
    assert not any(inputs_per_identity[f"{side}-{identity}"]
                   for side in SIDES for identity in MODULE_IDENTITIES)
    # The preconditions ran once, where the projection was built: modules
    # of the same projection built again read them too.
    modules = [hopf_module_from_projection(pb, side) for side in SIDES]
    rewritten[0] = 0
    for hm in modules:
        for check in MODULE_CHECKS:
            assert check(hm).passed
    assert rewritten[0] == 0


# The checks that read a record, each run as the first check of a fresh
# square.
FIRST_CHECKS = {
    "hopf-module": lambda hm, pi, big: check_hopf_module(hm),
    "hopf-module-algebra": lambda hm, pi, big: check_hopf_module_algebra(hm),
    "hopf-module-coalgebra":
        lambda hm, pi, big: check_hopf_module_coalgebra(hm),
    "rb-algebra": lambda hm, pi, big: check_rb_algebra(big, pi, -1),
}


@pytest.mark.parametrize("check", sorted(FIRST_CHECKS))
@pytest.mark.parametrize("side", SIDES)
@pytest.mark.parametrize("name", ["group:C2", "dual-group:C2", "sweedler4",
                                  "group:S3"])
def test_any_first_check_evaluates_no_basis_input(name, side, check,
                                                  inputs_per_identity,
                                                  rewritten):
    """The preconditions were proved where the projection was built, so
    which check runs first does not decide whether it is carried."""
    pb = tensor_square_projection(builtin(name))
    built = (hopf_module_from_projection(pb, side), pi_operator(pb, side),
             pb.big)
    copy = pickle.loads(pickle.dumps(built))
    inputs_per_identity.clear()
    rewritten[0] = 0
    got = FIRST_CHECKS[check](*built)
    assert got.passed
    assert not inputs_per_identity and rewritten[0] == 0
    assert repr(got) == repr(full_check(lambda: FIRST_CHECKS[check](*copy)))


@pytest.mark.parametrize("side", SIDES)
def test_one_map_check_evaluates_its_identities(side, inputs_per_identity):
    """The record names the action and the coaction together, so the
    check of either map alone runs in full."""
    pb = tensor_square_projection(builtin("group:S3"))
    hm = hopf_module_from_projection(pb, side)
    copy = pickle.loads(pickle.dumps(hm))
    for identity, check in (
            ("action-associativity", lambda hm: check_module(
                hm.hopf, hm.m_dim, hm.action, hm.side)),
            ("coaction-coassociativity", lambda hm: check_comodule(
                hm.hopf, hm.m_dim, hm.coaction, hm.side))):
        inputs_per_identity.clear()
        got = check(hm)
        assert got.passed and inputs_per_identity[f"{side}-{identity}"] > 0
        assert repr(got) == repr(full_check(lambda: check(copy)))


def test_second_rota_baxter_check_evaluates_no_precondition(
        inputs_per_identity, rewritten):
    pb = tensor_square_projection(builtin("group:S3"))
    pi = pi_operator(pb)
    assert check_rb_algebra(pb.big, pi, -1).passed
    assert sum(inputs_per_identity.values()) > 0
    inputs_per_identity.clear()
    rewritten[0] = 0
    assert check_rb_algebra(pb.big, pi, -1).passed
    assert not inputs_per_identity and rewritten[0] == 0


def test_the_maps_share_one_record():
    pb = tensor_square_projection(builtin("group:S3"))
    hm = hopf_module_from_projection(pb, "left")
    other = hopf_module_from_projection(pb, "left")
    assert _recorded("left-projection-module", hm.action, hm.coaction,
                     pb.hopf) is pb.big
    assert _recorded("left-projection-module", hm.action, other.coaction,
                     pb.hopf) is None
    assert _recorded("pi-operator", pi_operator(pb, "left"),
                     pb.big.mul) is True


# ---------------------------------------------------------------------------
# Moved entries, with the records and with every record stripped
# ---------------------------------------------------------------------------

BUILT = ("mul", "comul", "embed", "project", "antipode")
AFTER = ("action", "coaction", "module-mul", "module-comul", "side", "hopf")


def corpus(pb, side, rng, moves):
    """The module and Π of `pb` after `moves` moved entries, each in a
    seeded one of C's mul and comul, i, π and H's antipode (before the
    maps are built) or of the module's action, coaction, mul, comul, side
    and H's multiplication (after)."""
    hopf, big, embed, project = pb.hopf, pb.big, pb.embed, pb.project
    after = []
    for _ in range(moves):
        target = rng.choice(BUILT + AFTER)
        if target in ("mul", "comul"):
            big = big.replace(**{target: moved(rng, getattr(big, target))})
        elif target == "antipode":
            hopf = hopf.replace(antipode=moved(rng, hopf.antipode))
        elif target == "embed":
            embed = moved(rng, embed)
        elif target == "project":
            project = moved(rng, project)
        else:
            after.append(target)
    raw = validated(ProjectionBialgebra(big, hopf, embed, project))
    hm = hopf_module_from_projection(raw, side)
    for target in after:
        if target == "side":
            hm = hm.replace(side=SIDES[1 - SIDES.index(hm.side)])
        elif target == "hopf":
            hm = hm.replace(hopf=hm.hopf.replace(
                mul=moved(rng, hm.hopf.mul)))
        else:
            attr = target.removeprefix("module-")
            hm = hm.replace(**{attr: moved(rng, getattr(hm, attr))})
    return hm, pi_operator(raw, side), big


@pytest.mark.parametrize("field", FIELDS, ids=str)
@pytest.mark.parametrize("name", SQUARES)
def test_moved_entries_give_the_full_verdicts(name, field):
    pb = tensor_square_projection(builtin(name, field))
    rng = random.Random(f"{name}/{field}")
    seen = {True: 0, False: 0}
    for side in SIDES:
        for moves in ((0, 1, 2) if name == "group:S3" else (0, 1, 1, 2, 2)):
            for v in assert_carried(*corpus(pb, side, rng, moves)):
                seen["passed=True" in v] += 1
    assert seen[True] and seen[False]


# ---------------------------------------------------------------------------
# Each precondition broken on its own
# ---------------------------------------------------------------------------

def after(change):
    """The module of `pb` with the fields `change(hm)` gives replaced after
    it is built, its records kept."""
    def build(pb, side):
        hm = hopf_module_from_projection(pb, side)
        return hm.replace(**change(hm)), pi_operator(pb, side), pb.big

    return build


def moved_field(attr):
    return after(lambda hm: {attr: moved(random.Random(hm.side),
                                         getattr(hm, attr))})


def raw(replace):
    def build(pb, side):
        pb = validated(pb.replace(**replace(pb)))
        return (hopf_module_from_projection(pb, side), pi_operator(pb, side),
                pb.big)

    return build


def i_onto_the_second_factor(pb):
    h = pb.hopf
    return {"embed": _matrix_of(h.field, (h.dim,),
                                lambda t: t.insert_at(0, h.unit))}


def wrong_antipode(pb):
    s = pb.hopf.antipode
    terms = dict(s.terms)
    i, j = max(terms)
    terms[i, (j + 1) % s.cols] = terms.pop((i, j))
    return {"hopf": pb.hopf.replace(
        antipode=Mat.from_terms(s.field, s.dims, terms))}


BROKEN = {
    "side": after(lambda hm: {"side": SIDES[1 - SIDES.index(hm.side)]}),
    # H's multiplication moved on the module only: the records name the H
    # they were built with.
    "hopf": after(lambda hm: {"hopf": hm.hopf.replace(
        mul=moved(random.Random(hm.side), hm.hopf.mul))}),
    "action": moved_field("action"),
    "coaction": moved_field("coaction"),
    "module-mul": moved_field("mul"),
    "module-comul": moved_field("comul"),
    "i-not-multiplicative": raw(lambda pb: {"embed": moved_embed(pb)}),
    "pi-not-multiplicative": raw(lambda pb: {"project": moved_project(pb)}),
    "pi-after-i-not-the-identity": raw(i_onto_the_second_factor),
    "wrong-antipode": raw(wrong_antipode),
}


@pytest.mark.parametrize("side", SIDES)
@pytest.mark.parametrize("how", sorted(BROKEN))
def test_broken_precondition_gives_the_full_verdicts(how, side):
    pb = tensor_square_projection(builtin("group:S3"))
    got = assert_carried(*BROKEN[how](pb, side))
    assert any("passed=False" in v for v in got)


@pytest.mark.parametrize("side", SIDES)
@pytest.mark.parametrize("how", sorted(REPLACED))
def test_replaced_coalgebra_gives_the_full_verdicts(how, side):
    """C's comultiplication or counit replaced, its multiplication kept,
    so the records of i and π still name it (see `test_pi_rota_baxter`).
    Without a counit of C every check passes."""
    pb = c2_over_klein()
    pb = pb.replace(big=pb.big.replace(**REPLACED[how](pb.big)))
    got = assert_carried(hopf_module_from_projection(pb, side),
                         pi_operator(pb, side), pb.big)
    assert any("passed=False" in v for v in got) is (how != "no-counit")
