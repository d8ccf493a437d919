import pytest
from hypothesis import given, settings, strategies as st

from rbhopf import (GF, QQ, AlgebraicStructure, FormatError, HopfModule, Mat,
                    PreLieCoalgebra, ShapeError, Tensor3, Vec,
                    YDModuleCoalgebra, adjoint_yd, builtin,
                    coquasitriangular_form, example54_q, regular_hopf_module,
                    smash_hopf_module_left)
from rbhopf.fileformat import (MAX_DENSE_ENTRIES, Comodule, Document, dumps,
                               load, loads, save)


STRUCTS = ["group:C2", "group:C3", "group:S3", "sweedler4", "example54",
           "dual-group:C2", "grouplike:2", "trivial"]


@pytest.mark.parametrize("name", STRUCTS)
def test_structure_round_trip(name, tmp_path):
    s = builtin(name)
    path = tmp_path / "s.rbh"
    text = save(s, path)
    doc = load(path)
    assert doc.payload == s
    assert dumps(doc) == text


@pytest.mark.parametrize("name", ["group:C2", "example54"])
def test_structure_round_trip_over_f5(name, tmp_path):
    s = builtin(name, GF(5))
    path = tmp_path / "s.rbh"
    save(s, path)
    assert load(path).payload == s


ZERO = Tensor3(QQ, (2, 2, 2), {})


@pytest.mark.parametrize("maps", [
    {"mul": ZERO}, {"comul": ZERO},
    {"mul": ZERO, "comul": builtin("group:C2").comul}],
    ids=["algebra", "coalgebra", "bialgebra"])
def test_zero_structure_maps_round_trip(maps):
    s = AlgebraicStructure(2, QQ, **maps)
    text = dumps(s)
    doc = loads(text)
    assert doc.kind == s.kind and doc.payload == s
    assert dumps(doc) == text


def _zero_optional_maps():
    """(payload, refs, section) for each optional map that can be zero."""
    c2 = builtin("group:C2")
    unit, counit = Vec.zero(QQ, 2), Mat.zeros(QQ, 1, 2)
    hm = regular_hopf_module(c2)
    module = {"action": hm.action, "coaction": hm.coaction, "side": hm.side}
    yd = adjoint_yd(c2)
    ref = {"hopf": "builtin:group:C2"}
    return [
        (AlgebraicStructure(2, QQ, mul=c2.mul, unit=unit), {}, "unit"),
        (AlgebraicStructure(2, QQ, comul=c2.comul, counit=counit), {},
         "counit"),
        (AlgebraicStructure(2, QQ, mul=c2.mul, comul=c2.comul, unit=c2.unit,
                            counit=c2.counit, antipode=Mat.zeros(QQ, 2, 2)),
         {}, "antipode"),
        (HopfModule(c2, 2, mul=ZERO, **module), ref, "mul"),
        (HopfModule(c2, 2, comul=ZERO, **module), ref, "comul"),
        (YDModuleCoalgebra(c2, AlgebraicStructure(2, QQ, comul=c2.comul,
                                                  counit=counit),
                           yd.action, yd.coaction), ref, "ccounit")]


# One valid entry line per section: 1, 2 or 3 indices and the scalar 1.
_ENTRY = {"unit": "unit 1 1 1", "counit": "counit 1 1 1",
          "ccounit": "ccounit 1 1 1", "antipode": "antipode 1 1 1 1",
          "mul": "mul 1 1 1 1 1", "comul": "comul 1 1 1 1 1"}


@pytest.mark.parametrize("payload,refs,section", _zero_optional_maps(),
                         ids=["unit", "counit", "antipode", "module-mul",
                              "module-comul", "ccounit"])
def test_zero_optional_maps_round_trip_as_a_bare_line(payload, refs, section):
    text = dumps(payload, refs=refs)
    bare = f"\n{section}\n"
    assert bare in text
    doc = loads(text)
    assert doc.payload == payload
    assert dumps(doc) == text
    entry = f"\n{_ENTRY[section]}\n"
    assert loads(text.replace(bare, entry)).payload != payload
    with pytest.raises(FormatError, match="indices and a scalar"):
        loads(text.replace(bare, bare + entry[1:]))


def test_save_load_save_is_byte_identical(tmp_path):
    s = builtin("sweedler4")
    p1 = tmp_path / "a.rbh"
    p2 = tmp_path / "b.rbh"
    save(s, p1)
    save(load(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_operator_round_trip(tmp_path):
    q = example54_q(3)
    path = tmp_path / "q.rbh"
    save(q, path)
    doc = load(path)
    assert doc.kind == "operator" and doc.payload == q


def test_rational_entries_survive_exactly(tmp_path):
    from fractions import Fraction
    m = Mat(QQ, ((Fraction(22, 7), Fraction(-1, 3)), (0, Fraction(10 ** 20))))
    path = tmp_path / "m.rbh"
    text = save(m, path)
    assert "22 7" in text and "-1 3" in text
    assert load(path).payload == m


def test_module_round_trip_with_builtin_ref(tmp_path):
    hm = regular_hopf_module(builtin("sweedler4"))
    path = tmp_path / "m.rbh"
    text = save(hm, path, refs={"hopf": "builtin:sweedler4"})
    doc = load(path)
    assert doc.kind == "module"
    assert doc.payload == hm
    assert doc.refs == {"hopf": "builtin:sweedler4"}
    assert dumps(doc) == text


def test_module_round_trip_with_file_ref(tmp_path):
    h4 = builtin("sweedler4")
    save(h4, tmp_path / "h4.rbh")
    hm = regular_hopf_module(h4)
    save(hm, tmp_path / "m.rbh", refs={"hopf": "h4.rbh"})
    doc = load(tmp_path / "m.rbh")
    assert doc.payload == hm


def test_yd_round_trip(tmp_path):
    ydc = adjoint_yd(builtin("sweedler4"))
    path = tmp_path / "yd.rbh"
    text = save(ydc, path, refs={"hopf": "builtin:sweedler4"})
    doc = load(path)
    assert doc.kind == "yd"
    # names are not serialized for the embedded coalgebra
    assert doc.payload.coalgebra.comul == ydc.coalgebra.comul
    assert doc.payload.action == ydc.action
    assert doc.payload.coaction == ydc.coaction
    assert dumps(doc) == text


def test_sigma_round_trip(tmp_path):
    c2 = builtin("group:C2")
    cq = coquasitriangular_form(c2, {(0, 0): 1, (0, 1): 1,
                                     (1, 0): 1, (1, 1): -1})
    path = tmp_path / "sigma.rbh"
    save(cq, path, refs={"hopf": "builtin:group:C2"})
    doc = load(path)
    assert doc.kind == "sigma" and doc.payload == cq


def test_comodule_round_trip(tmp_path):
    c2 = builtin("group:C2")
    cm = Comodule(c2, 2, c2.comul.comul_matrix(), "right")
    path = tmp_path / "cm.rbh"
    save(cm, path, refs={"hopf": "builtin:group:C2"})
    assert load(path).payload == cm


@pytest.mark.parametrize("m_dim, coaction", [
    (3, lambda c2: c2.comul.comul_matrix()),          # 4 x 2, not 6 x 3
    (2, lambda c2: Mat.zeros(QQ, 4, 3)),
    (-1, lambda c2: Mat.zeros(QQ, 0, 0)),
    (2, lambda c2: builtin("group:C2", GF(3)).comul.comul_matrix()),
], ids=["mdim-3", "cols", "negative", "field"])
def test_comodule_rejects_a_coaction_that_does_not_fit(m_dim, coaction):
    c2 = builtin("group:C2")
    with pytest.raises(ShapeError):
        dumps(Comodule(c2, m_dim, coaction(c2), "right"),
              refs={"hopf": "builtin:group:C2"})


def test_prelie_round_trip(tmp_path):
    plc = PreLieCoalgebra(2, QQ, Tensor3(QQ, (2, 2, 2), {(0, 0, 1): 1}))
    path = tmp_path / "p.rbh"
    save(plc, path)
    doc = load(path)
    assert doc.kind == "prelie" and doc.payload == plc


def test_fp_entries_are_bare_residues(tmp_path):
    s = builtin("group:C2", GF(2))
    text = dumps(s)
    assert "field Fp:2" in text
    assert "mul 0 0 0 1\n" in text


def test_missing_hopf_ref_is_an_error(tmp_path):
    hm = regular_hopf_module(builtin("group:C2"))
    with pytest.raises(ValueError):
        dumps(hm)


def test_parse_errors_carry_line_numbers():
    with pytest.raises(FormatError) as err:
        loads("rbhopf 1 coalgebra\nfield Q\ndim 2\ncomul 0 0 5 1 1\n")
    assert "line 4" in str(err.value)
    with pytest.raises(FormatError):
        loads("not a header\n")
    with pytest.raises(FormatError):
        loads("rbhopf 9 coalgebra\nfield Q\ndim 1\n")
    with pytest.raises(FormatError):
        loads("rbhopf 1 nonsense\nfield Q\n")
    with pytest.raises(FormatError):
        loads("rbhopf 1 coalgebra\nfield Q\ndim 2\ncomul 0 0 0 1 0\n")
    with pytest.raises(FormatError):
        loads("rbhopf 1 hopf\nfield Q\ndim 2\ncomul 0 0 0 1 1\n")


def test_truncated_lines_rejected():
    for text in ("rbhopf 1 operator\nfield Q\nrows\n",
                 "rbhopf 1 module\nfield Q\nside right\nhopf\n",
                 "rbhopf 1 coalgebra\nfield\n"):
        with pytest.raises(FormatError):
            loads(text)


def test_duplicate_entry_rejected():
    with pytest.raises(FormatError):
        loads("rbhopf 1 coalgebra\nfield Q\ndim 1\n"
              "comul 0 0 0 1 1\ncomul 0 0 0 2 1\n")


def test_comments_and_blank_lines_ignored():
    doc = loads("# comment\nrbhopf 1 coalgebra\n\nfield Q\ndim 1\n"
                "comul 0 0 0 1 1\n")
    assert doc.payload.dim == 1


def test_trailing_garbage_rejected():
    with pytest.raises(FormatError):
        loads("rbhopf 1 coalgebra\nfield Q\ndim 1\ncomul 0 0 0 1 1\nwat 1\n")


def test_field_mismatch_between_files(tmp_path):
    save(builtin("group:C2", GF(2)), tmp_path / "h.rbh")
    text = ("rbhopf 1 module\nfield Q\nside right\nhopf h.rbh\nmdim 1\n")
    (tmp_path / "m.rbh").write_text(text)
    with pytest.raises(FormatError):
        load(tmp_path / "m.rbh")


def test_dense_declarations_over_the_limit_rejected():
    side = 1
    while side * side <= MAX_DENSE_ENTRIES:
        side *= 2
    for text in (
            f"rbhopf 1 operator\nfield Q\nrows {side}\ncols {side}\n",
            f"rbhopf 1 module\nfield Q\nside right\nhopf builtin:trivial\n"
            f"mdim {side}\n",
            f"rbhopf 1 hopf\nfield Q\ndim {side}\nantipode 0 0 1 1\n"):
        with pytest.raises(FormatError, match="exceeds the limit"):
            loads(text)
    # exactly at the limit is accepted
    rows = MAX_DENSE_ENTRIES // 4
    doc = loads(f"rbhopf 1 operator\nfield Fp:2\nrows {rows}\ncols 4\n")
    assert (doc.payload.rows, doc.payload.cols) == (rows, 4)


def test_sparse_sections_of_large_dim_still_load():
    n = 30000
    doc = loads(f"rbhopf 1 coalgebra\nfield Q\ndim {n}\n"
                f"comul {n - 1} {n - 1} {n - 1} 1 1\n")
    assert doc.payload.dim == n and len(doc.payload.comul.entries) == 1


def test_largest_builtin_smash_files_fit_the_dense_limit(tmp_path):
    hm, p, _ = smash_hopf_module_left(adjoint_yd(builtin("group:S3")))
    assert hm.action.rows * hm.action.cols <= MAX_DENSE_ENTRIES
    save(hm, tmp_path / "smash.rbh", refs={"hopf": "builtin:group:S3"})
    save(p, tmp_path / "p.rbh")
    assert load(tmp_path / "smash.rbh").payload == hm
    assert load(tmp_path / "p.rbh").payload == p


_SWEEDLER_LINES = dumps(builtin("sweedler4")).splitlines()
_FUZZ_TOKENS = sorted({tok for line in _SWEEDLER_LINES for tok in line.split()}
                      | {"-1", "0", "9", "x", "#", "Fp:5", "Fp:4"})


@st.composite
def _edited_sweedler4(draw):
    """The sweedler4 file with 1-3 lines deleted, inserted, replaced or swapped.

    New lines are lines of the file or 0-6 of its tokens (plus a few small
    ints, junk and field names); every index stays small, so no edit can
    declare a large map."""
    lines = list(_SWEEDLER_LINES)
    new_line = st.one_of(st.sampled_from(_SWEEDLER_LINES),
                         st.lists(st.sampled_from(_FUZZ_TOKENS), max_size=6)
                         .map(" ".join))
    for _ in range(draw(st.integers(1, 3))):
        op = draw(st.sampled_from(["delete", "insert", "replace", "swap"]))
        if not lines:
            op = "insert"
        at = draw(st.integers(0, max(len(lines) - 1, 0)))
        if op == "delete":
            del lines[at]
        elif op == "insert":
            lines.insert(draw(st.integers(0, len(lines))), draw(new_line))
        elif op == "replace":
            lines[at] = draw(new_line)
        else:
            other = draw(st.integers(0, len(lines) - 1))
            lines[at], lines[other] = lines[other], lines[at]
    return "\n".join(lines) + "\n"


@settings(max_examples=300, deadline=None)
@given(_edited_sweedler4())
def test_edited_file_loads_or_raises_format_error(text):
    try:
        doc = loads(text)
    except FormatError:
        return
    assert doc.kind == "hopf"
