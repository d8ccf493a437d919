"""The frozen-record contract of every result and payload record.

Each record class is checked against a `dataclasses.dataclass(frozen=True)`
twin with the same fields and defaults, which is what the records replace:
construction, equality, hash, repr, immutability, defaults, argument
errors, `replace`, and the `__post_init__` validation.
"""

import copy
import dataclasses
from fractions import Fraction

import pytest

from rbhopf import (GF, QQ, AlgebraicStructure, AxiomVerdict,
                    CoquasitriangularForm, DefectReport, HopfModule, Mat,
                    PreLieCoalgebra, ProjectionBialgebra, RBBialgebraVerdict,
                    RBVerdict, SearchResult, ShapeError, Tensor3,
                    YDModuleCoalgebra, adjoint_yd, builtin,
                    coquasitriangular_form, regular_hopf_module,
                    tensor_square_projection)
from rbhopf.fileformat import Comodule, Document
from rbhopf.record import Record

H = builtin("sweedler4")
C2 = builtin("group:C2")
REG = regular_hopf_module(H, "right")
YD = adjoint_yd(H)
PB = tensor_square_projection(C2)
SIGMA = coquasitriangular_form(C2, {(0, 0): 1, (0, 1): 1, (1, 0): 1, (1, 1): -1})
DEFECT = DefectReport("associativity", {(0, 1, 2): Fraction(3)}, (0, 1, 2))
RBV = RBVerdict(True, Fraction(-1), "coalgebra", None, True)
F2 = GF(2)


def values_of(rec):
    return tuple(getattr(rec, f) for f in type(rec).__annotations__)


# class -> (field values of one valid record, {field: another valid value}).
CASES = {
    DefectReport: (values_of(DEFECT), {"identity": "coassociativity"}),
    AxiomVerdict: ((False, DEFECT), {"defect": None}),
    AlgebraicStructure: ((H.dim, H.field, H.mul, H.comul, H.unit, H.counit,
                          H.antipode, H.names), {"antipode": None}),
    RBVerdict: (values_of(RBV), {"idempotent": False}),
    RBBialgebraVerdict: ((RBV, RBV), {"coalgebra": RBVerdict(False, 0, "coalgebra")}),
    SearchResult: ((F2, 2, "coalgebra", F2.one, (Mat.identity(F2, 2),), 16),
                   {"candidates_scanned": 17}),
    HopfModule: (values_of(REG), {"side": "left"}),
    ProjectionBialgebra: (values_of(PB), {"project": PB.embed}),
    YDModuleCoalgebra: (values_of(YD),
                        {"action": Mat.zeros(QQ, YD.action.rows, YD.action.cols)}),
    CoquasitriangularForm: (values_of(SIGMA), {"form": Mat.zeros(QQ, 1, 4)}),
    PreLieCoalgebra: ((2, QQ, builtin("grouplike:2").comul),
                      {"comul": Tensor3.zero(QQ, (2, 2, 2))}),
    Comodule: ((H, REG.m_dim, REG.coaction, "right"), {"side": "left"}),
    Document: (("operator", Mat.identity(QQ, 2), {}), {"refs": {"hopf": "x"}}),
}
DEFAULTS = {
    AxiomVerdict: ("defect",),
    AlgebraicStructure: ("mul", "comul", "unit", "counit", "antipode", "names"),
    RBVerdict: ("defect", "idempotent"),
    HopfModule: ("mul", "comul"),
}
# Defaulted fields that validation needs for a record of required fields.
NEEDED = {AlgebraicStructure: {"comul": H.comul}}
CLASSES = list(CASES)


def test_every_record_class_is_covered():
    assert len(CLASSES) == 13


def fields_of(cls):
    return tuple(cls.__annotations__)


def twin(cls):
    """A frozen dataclass with the same name, fields and defaults."""
    spec = [(f, object, dataclasses.field(default=None))
            if f in DEFAULTS.get(cls, ()) else (f, object)
            for f in fields_of(cls)]
    return dataclasses.make_dataclass(cls.__name__, spec, frozen=True)


def make(cls):
    return cls(*CASES[cls][0])


def hash_or_type_error(value):
    try:
        return hash(value)
    except TypeError:
        return TypeError


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_positional_and_keyword_construction_agree(cls):
    values = CASES[cls][0]
    rec = make(cls)
    assert tuple(getattr(rec, f) for f in fields_of(cls)) == values
    assert cls(**dict(zip(fields_of(cls), values))) == rec
    half = len(values) // 2
    assert cls(*values[:half], **dict(zip(fields_of(cls)[half:], values[half:]))) == rec


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_equality_and_hash(cls):
    values, change = CASES[cls]
    rec, again = make(cls), make(cls)
    assert rec == again and not rec != again
    assert hash_or_type_error(rec) == hash_or_type_error(values)
    if hash_or_type_error(rec) is not TypeError:
        assert hash(rec) == hash(again)
    other = rec.replace(**change)
    assert other != rec and not other == rec
    # Equal field tuples of another class, or the bare tuple, are not equal.
    assert rec != twin(cls)(*values)
    record_twin = type(cls.__name__, (Record,),
                       {"__annotations__": dict(cls.__annotations__)})
    assert rec != record_twin(*values)
    assert rec != values


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_repr_matches_dataclass(cls):
    rec = make(cls)
    body = ", ".join(f"{f}={getattr(rec, f)!r}" for f in fields_of(cls))
    assert repr(rec) == f"{cls.__name__}({body})"
    assert repr(rec) == repr(twin(cls)(*CASES[cls][0]))


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_frozen(cls):
    rec = make(cls)
    first = fields_of(cls)[0]
    before = getattr(rec, first)
    for name in (first, "not_a_field"):
        with pytest.raises(AttributeError):
            setattr(rec, name, 0)
        with pytest.raises(AttributeError):
            delattr(rec, name)
    assert getattr(rec, first) is before
    assert not hasattr(rec, "not_a_field")


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_defaults_and_argument_errors(cls):
    values = CASES[cls][0]
    fields = fields_of(cls)
    defaulted = DEFAULTS.get(cls, ())
    required = len(fields) - len(defaulted)
    assert fields[required:] == defaulted
    if defaulted:
        needed = NEEDED.get(cls, {})
        rec = cls(*values[:required], **needed)
        assert all(getattr(rec, f) is needed.get(f) for f in defaulted)
        assert repr(rec) == repr(twin(cls)(*values[:required], **needed))
    with pytest.raises(TypeError, match="missing"):
        cls(*values[:required - 1])
    with pytest.raises(TypeError, match="unexpected keyword"):
        cls(*values, bogus=1)
    with pytest.raises(TypeError, match="positional"):
        cls(*values, None)
    with pytest.raises(TypeError, match="multiple values"):
        cls(*values, **{fields[0]: values[0]})


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_replace_and_copy(cls):
    rec = make(cls)
    same = rec.replace()
    assert same == rec and same is not rec
    name, value = next(iter(CASES[cls][1].items()))
    changed = rec.replace(**{name: value})
    assert getattr(changed, name) is value
    assert all(getattr(changed, f) is getattr(rec, f)
               for f in fields_of(cls) if f != name)
    with pytest.raises(TypeError):
        rec.replace(bogus=1)
    assert copy.copy(rec) == rec


@pytest.mark.parametrize("build", [
    lambda: AlgebraicStructure(-1, QQ, mul=H.mul),
    lambda: AlgebraicStructure(4, QQ),
    lambda: H.replace(names=("a",)),
    lambda: H.replace(dim=3),
    lambda: HopfModule(H, 4, Mat.zeros(QQ, 4, 15), REG.coaction, "right"),
    lambda: REG.replace(coaction=Mat.zeros(QQ, 4, 4)),
    lambda: REG.replace(side="up"),
    lambda: YDModuleCoalgebra(H, YD.coalgebra, Mat.zeros(QQ, 4, 4), YD.coaction),
    lambda: CoquasitriangularForm(C2, Mat.zeros(QQ, 1, 3)),
    lambda: CoquasitriangularForm(C2, Mat.zeros(GF(5), 1, 4)),
], ids=["negative-dim", "no-maps", "names", "dim", "hopf-module-action",
        "hopf-module-coaction", "hopf-module-side", "yd-action", "sigma-shape",
        "sigma-field"])
def test_post_init_rejects_bad_shapes(build):
    with pytest.raises(ShapeError):
        build()


class Point(Record):
    x: int
    y: int = 7
    z: tuple = ()


def test_record_base_defaults_and_field_order():
    assert Point(1) == Point(x=1) == Point(1, 7, ())
    assert repr(Point(z=(2,), x=1)) == "Point(x=1, y=7, z=(2,))"
    assert Point(1).replace(y=8) == Point(1, 8)
    assert hash(Point(1)) == hash((1, 7, ()))


def test_record_base_rejects_a_required_field_after_a_default():
    with pytest.raises(TypeError, match="follows"):
        class Bad(Record):
            x: int = 0
            y: int
