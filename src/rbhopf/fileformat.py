"""The structure file format: load and save everything the toolkit computes.

Files are line-oriented UTF-8 text.  The first line is

    rbhopf <format_version> <kind>

with format_version "1" and kind one of algebra, coalgebra, bialgebra, hopf,
prelie, operator, module, comodule, yd, sigma.  A `field` line follows
("Q" or "Fp:<p>"), then kind-specific sections.  Scalars are written as
explicit integer pairs `num den` over Q, never decimal strings, so
exactness survives serialization, and as single residues over F_p (the
modulus appears once, in the field line).  Only nonzero entries are stored.
Every integer (dims, indices, scalars, the p of `Fp:<p>`) is ASCII decimal,
`-?[0-9]+`, as `save` writes it; anything else is a `FormatError`.

Sections by kind:

    algebra/coalgebra/bialgebra/hopf/prelie:
        dim N / names ... / unit i v / counit i v / mul i j k v /
        comul i j k v / antipode r c v
    operator:  rows N / cols N / entry r c v
    module:    side right|left / hopf REF / mdim N / action r c v /
               coaction r c v / mul i j k v / comul i j k v
    comodule:  side / hopf REF / mdim N / coaction r c v
    yd:        hopf REF / cdim N / ccomul i j k v / ccounit i v /
               action r c v / coaction r c v
    sigma:     hopf REF / sigma i j v

(`v` stands for `num den` over Q, one residue over F_p.)  Every map and
vector, the unit included, is held sparse (`linalg`), but a `Mat` is still
shown and printed as dense rows, so a file may declare at most
`MAX_DENSE_ENTRIES` entries for each matrix (operator, action, coaction,
antipode, sigma); a larger declaration is a `FormatError` raised before any
entry is read.  The tensor sections (mul, comul, ccomul) have no such
bound.  A map the kind requires (mul for algebra, comul for coalgebra and
prelie, both for bialgebra and hopf) whose section is empty is zero.  An
optional map (unit, counit, antipode, a module's mul and comul, ccounit)
that is present but zero is written as one bare key line, e.g. `unit`; a
section made of that line alone loads as the zero map, and a bare line
beside entries is a `FormatError`.  So zero maps round-trip.  REF is either
`builtin:<name>`, instantiated over the document's field, or a path to a
companion file, resolved relative to the referring file.  Saving writes
sections in the order above with entries sorted by index, so canonical
files round-trip byte-for-byte.
"""

from __future__ import annotations

import os
from fractions import Fraction

from .errors import FormatError, ShapeError
from .fields import field_from_name, parse_decimal
from .linalg import Mat, Tensor3, Vec
from .record import Record
from .structures import AlgebraicStructure, _h_position, builtin

FORMAT_VERSION = "1"

# Largest rows x cols of one dense map a file may declare: 2048 x 2048.  The
# biggest map any builtin construction saves is the 36 x 216 action of the
# smash coproduct over group:S3.
MAX_DENSE_ENTRIES = 1 << 22

STRUCTURE_KINDS = ("algebra", "coalgebra", "bialgebra", "hopf")
ALL_KINDS = STRUCTURE_KINDS + ("prelie", "operator", "module", "comodule",
                               "yd", "sigma")


class Comodule(Record):
    """A bare comodule: coaction without an action."""

    hopf: AlgebraicStructure
    m_dim: int
    coaction: Mat
    side: str

    def __post_init__(self):
        _h_position(self.side)
        h, m = self.hopf.dim, self.m_dim
        if m < 0:
            raise ShapeError("module dimension must be nonnegative")
        if (self.coaction.rows, self.coaction.cols) != (m * h, m):
            raise ShapeError(f"coaction must be {m * h} x {m}")
        if self.coaction.field != self.hopf.field:
            raise ShapeError("comodule components live over different fields")


class Document(Record):
    """A parsed file: its kind, the resolved payload, and reference strings.

    `refs` keeps companion references (e.g. {"hopf": "builtin:group:C2"})
    verbatim so that saving reproduces the file exactly.
    """

    kind: str
    payload: object
    refs: dict


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

def _scalar_width(field) -> int:
    return 1 if field.finite else 2


def _parse_scalar(field, tokens, lineno):
    try:
        if field.finite:
            return field.from_int(parse_decimal(tokens[0]))
        num, den = parse_decimal(tokens[0]), parse_decimal(tokens[1])
        if den == 0:
            raise FormatError("zero denominator", lineno)
        return Fraction(num, den)
    except (ValueError, IndexError):
        raise FormatError(f"bad scalar {' '.join(tokens)!r}", lineno) from None


def _parse_int(token, lineno, minimum=0):
    try:
        value = parse_decimal(token)
    except ValueError:
        raise FormatError(f"expected an integer, got {token!r}", lineno) from None
    if value < minimum:
        raise FormatError(f"expected an integer >= {minimum}, got {value}", lineno)
    return value


class _Lines:
    """Tokenized non-blank lines with their 1-based numbers."""

    def __init__(self, text: str):
        self.items = []
        for n, raw in enumerate(text.splitlines(), start=1):
            stripped = raw.strip()
            if not stripped or stripped.startswith("#"):
                continue
            self.items.append((n, stripped.split()))
        self.pos = 0

    def peek(self):
        return self.items[self.pos] if self.pos < len(self.items) else (None, None)

    def next(self):
        item = self.peek()
        self.pos += 1
        return item

    def expect(self, key: str):
        """(line number, value) of a `key <value>` header line."""
        lineno, tokens = self.next()
        if tokens is None or tokens[0] != key:
            raise FormatError(f"expected a {key!r} line", lineno)
        if len(tokens) != 2:
            raise FormatError(f"{key} line takes exactly one value", lineno)
        return lineno, tokens[1]

    def take_section(self, key: str):
        """All consecutive lines starting with `key` (possibly none)."""
        out = []
        while True:
            lineno, tokens = self.peek()
            if tokens is None or tokens[0] != key:
                return out
            self.next()
            out.append((lineno, tokens[1:]))


def _entry_table(field, rows, n_indices, dims):
    """Parse `i... scalar` rows into a {indices: scalar} dict.

    A section that is one bare key line is a present zero map; a bare line
    beside entries is an error.
    """
    if len(rows) == 1 and not rows[0][1]:
        return {}
    width = _scalar_width(field)
    out = {}
    for lineno, tokens in rows:
        if len(tokens) != n_indices + width:
            raise FormatError(
                f"expected {n_indices} indices and a scalar", lineno)
        idx = tuple(_parse_int(t, lineno) for t in tokens[:n_indices])
        for i, d in zip(idx, dims):
            if i >= d:
                raise FormatError(f"index {i} out of range (dim {d})", lineno)
        if idx in out:
            raise FormatError(f"duplicate entry for {idx}", lineno)
        out[idx] = _parse_scalar(field, tokens[n_indices:], lineno)
    return out


def _check_dense_size(shape, lineno=None):
    if shape[0] * shape[1] > MAX_DENSE_ENTRIES:
        raise FormatError(
            f"dense map of {shape[0]} x {shape[1]} entries exceeds the limit "
            f"of {MAX_DENSE_ENTRIES}", lineno)


def _matrix_from_rows(field, rows, shape, lineno=None):
    _check_dense_size(shape, lineno)
    return Mat.from_terms(field, shape, _entry_table(field, rows, 2, shape))


def _row_matrix(field, entries: dict, n: int) -> Mat:
    """The 1 x n matrix of {(i,): v} entries (a counit)."""
    return Mat.from_terms(field, (1, n),
                          {(0, i): v for (i,), v in entries.items()})


def loads(text: str, base_dir: str = ".") -> Document:
    """Parse a structure file; companion paths resolve against `base_dir`."""
    lines = _Lines(text)
    lineno, header = lines.next()
    if header is None or len(header) != 3 or header[0] != "rbhopf":
        raise FormatError("first line must be 'rbhopf <version> <kind>'", lineno)
    if header[1] != FORMAT_VERSION:
        raise FormatError(f"unsupported format version {header[1]!r}", lineno)
    kind = header[2]
    if kind not in ALL_KINDS:
        raise FormatError(f"unknown kind {kind!r}", lineno)
    lineno, name = lines.expect("field")
    try:
        field = field_from_name(name)
    except ValueError:
        raise FormatError("bad field line", lineno) from None

    refs: dict = {}

    def hopf_ref():
        _, refs["hopf"] = lines.expect("hopf")
        return resolve_structure(refs["hopf"], field, base_dir)

    if kind in STRUCTURE_KINDS or kind == "prelie":
        payload = _load_structure_body(lines, field, kind)
    elif kind == "operator":
        lineno, value = lines.expect("rows")
        nrows = _parse_int(value, lineno)
        lineno, value = lines.expect("cols")
        ncols = _parse_int(value, lineno)
        payload = _matrix_from_rows(field, lines.take_section("entry"),
                                    (nrows, ncols), lineno)
    elif kind in ("module", "comodule"):
        lineno, side = lines.expect("side")
        if side not in ("left", "right"):
            raise FormatError(f"bad side {side!r}", lineno)
        hopf = hopf_ref()
        lineno, value = lines.expect("mdim")
        m_dim = _parse_int(value, lineno)
        h = hopf.dim
        if kind == "module":
            action = _matrix_from_rows(field, lines.take_section("action"),
                                       (m_dim, m_dim * h), lineno)
            coaction = _matrix_from_rows(field, lines.take_section("coaction"),
                                         (m_dim * h, m_dim), lineno)
            mul_rows = lines.take_section("mul")
            comul_rows = lines.take_section("comul")
            mul = (Tensor3(field, (m_dim,) * 3,
                           _entry_table(field, mul_rows, 3, (m_dim,) * 3))
                   if mul_rows else None)
            comul = (Tensor3(field, (m_dim,) * 3,
                             _entry_table(field, comul_rows, 3, (m_dim,) * 3))
                     if comul_rows else None)
            from .hopfmod import HopfModule
            payload = HopfModule(hopf, m_dim, action, coaction, side,
                                 mul=mul, comul=comul)
        else:
            coaction = _matrix_from_rows(field, lines.take_section("coaction"),
                                         (m_dim * h, m_dim), lineno)
            payload = Comodule(hopf, m_dim, coaction, side)
    elif kind == "yd":
        hopf = hopf_ref()
        cdim_line, value = lines.expect("cdim")
        c_dim = _parse_int(value, cdim_line)
        h = hopf.dim
        ccomul = Tensor3(field, (c_dim,) * 3,
                         _entry_table(field, lines.take_section("ccomul"), 3,
                                      (c_dim,) * 3))
        counit_rows = lines.take_section("ccounit")
        ccounit = None
        if counit_rows:
            ccounit = _row_matrix(
                field, _entry_table(field, counit_rows, 1, (c_dim,)), c_dim)
        action = _matrix_from_rows(field, lines.take_section("action"),
                                   (c_dim, h * c_dim), cdim_line)
        coaction = _matrix_from_rows(field, lines.take_section("coaction"),
                                     (h * c_dim, c_dim), cdim_line)
        cstr = AlgebraicStructure(c_dim, field, comul=ccomul, counit=ccounit)
        from .ydsmash import YDModuleCoalgebra
        payload = YDModuleCoalgebra(hopf, cstr, action, coaction)
    elif kind == "sigma":
        hopf = hopf_ref()
        h = hopf.dim
        _check_dense_size((h, h))
        table = _entry_table(field, lines.take_section("sigma"), 2, (h, h))
        form = Mat.from_terms(field, (1, h * h),
                              {(0, i * h + j): v for (i, j), v in table.items()})
        from .ydsmash import CoquasitriangularForm
        payload = CoquasitriangularForm(hopf, form)
    lineno, tokens = lines.peek()
    if tokens is not None:
        raise FormatError(f"unexpected line {' '.join(tokens)!r}", lineno)
    return Document(kind, payload, refs)


# The tensors each kind requires; an empty section of one of them is zero.
_REQUIRED = {"algebra": ("mul",), "coalgebra": ("comul",),
             "bialgebra": ("mul", "comul"), "hopf": ("mul", "comul"),
             "prelie": ("comul",)}


def _load_structure_body(lines: _Lines, field, kind: str):
    dim_line, value = lines.expect("dim")
    dim = _parse_int(value, dim_line)
    names = None
    lineno, tokens = lines.peek()
    if tokens is not None and tokens[0] == "names":
        lines.next()
        names = tuple(tokens[1:])
        if len(names) != dim:
            raise FormatError(f"expected {dim} names", lineno)
    cube = (dim,) * 3
    build = {
        "unit": (1, lambda t: Vec.from_terms(field, (dim,), t)),
        "counit": (1, lambda t: _row_matrix(field, t, dim)),
        "mul": (3, lambda t: Tensor3(field, cube, t)),
        "comul": (3, lambda t: Tensor3(field, cube, t)),
        "antipode": (2, lambda t: Mat.from_terms(field, (dim, dim), t)),
    }
    sections = {key: lines.take_section(key) for key in build}
    present = [key for key, rows in sections.items()
               if rows or key in _REQUIRED[kind]]
    if "antipode" in present:
        _check_dense_size((dim, dim), dim_line)
    maps = {}
    for key in present:
        n_indices, make = build[key]
        maps[key] = make(_entry_table(field, sections[key], n_indices,
                                      (dim,) * n_indices))
    if kind == "prelie":
        if set(maps) != {"comul"}:
            raise FormatError("a prelie file carries only a comultiplication")
        from .prelie import PreLieCoalgebra
        return PreLieCoalgebra(dim, field, maps["comul"])
    if kind == "hopf" and "antipode" not in maps:
        raise FormatError("file declares kind 'hopf' but has no antipode")
    try:
        return AlgebraicStructure(dim, field, names=names, **maps)
    except ShapeError as exc:
        raise FormatError(str(exc)) from None


def load(path: str) -> Document:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc.strerror}") from None
    return loads(text, base_dir=os.path.dirname(path) or ".")


def resolve_structure(ref: str, field, base_dir: str = ".") -> AlgebraicStructure:
    """A structure from `builtin:<name>` (over `field`) or a companion file."""
    if ref.startswith("builtin:"):
        try:
            return builtin(ref[len("builtin:"):], field)
        except ValueError as exc:
            raise FormatError(str(exc)) from None
    doc = load(os.path.join(base_dir, ref))
    if doc.kind not in STRUCTURE_KINDS:
        raise FormatError(f"{ref} is a {doc.kind} file, not a structure")
    if doc.payload.field != field:
        raise FormatError(f"{ref} is over {doc.payload.field.name}, expected "
                          f"{field.name}")
    return doc.payload


# ---------------------------------------------------------------------------
# Saving
# ---------------------------------------------------------------------------

def _fmt_scalar(field, value) -> str:
    if field.finite:
        return str(field.coerce(value).residue)
    v = field.coerce(value)
    return f"{v.numerator} {v.denominator}"


def _entry_lines(key, field, items):
    """One `key i... v` line per (index tuple, value) pair, in order."""
    return [f"{key} {' '.join(map(str, idx))} {_fmt_scalar(field, v)}"
            for idx, v in items]


def _optional_lines(key, field, m, index=tuple):
    """The entry lines of an optional map `m`: none when it is absent, one
    bare `key` line when it is zero.  `index` maps each key to the indices
    written (a counit's (0, j) to (j,))."""
    if m is None:
        return []
    items = ((index(k), v) for k, v in m.items())
    return _entry_lines(key, field, items) or [key]


def dumps(payload, kind: str | None = None, refs: dict | None = None) -> str:
    """Serialize a payload to canonical file text.

    `kind` is inferred where possible (structures, operators); module-like
    payloads need a `refs` dict carrying the hopf reference string.  The
    classes of the other kinds are imported only once a payload gets past
    the structure, operator and comodule cases.
    """
    refs = refs or {}
    if isinstance(payload, Document):
        return dumps(payload.payload, payload.kind, payload.refs)
    if isinstance(payload, AlgebraicStructure):
        kind = kind or payload.kind
        return _dump_structure(payload, kind)
    if isinstance(payload, Mat):
        field = payload.field
        lines = [f"rbhopf {FORMAT_VERSION} operator", f"field {field.name}",
                 f"rows {payload.rows}", f"cols {payload.cols}"]
        lines += _entry_lines("entry", field, payload.items())
        return "\n".join(lines) + "\n"
    if isinstance(payload, Comodule):
        field = payload.hopf.field
        lines = [f"rbhopf {FORMAT_VERSION} comodule", f"field {field.name}",
                 f"side {payload.side}", f"hopf {_require_ref(refs)}",
                 f"mdim {payload.m_dim}"]
        lines += _entry_lines("coaction", field, payload.coaction.items())
        return "\n".join(lines) + "\n"
    from .prelie import PreLieCoalgebra
    if isinstance(payload, PreLieCoalgebra):
        field = payload.field
        lines = [f"rbhopf {FORMAT_VERSION} prelie", f"field {field.name}",
                 f"dim {payload.dim}"]
        lines += _entry_lines("comul", field, payload.comul.items())
        return "\n".join(lines) + "\n"
    from .hopfmod import HopfModule
    if isinstance(payload, HopfModule):
        field = payload.field
        lines = [f"rbhopf {FORMAT_VERSION} module", f"field {field.name}",
                 f"side {payload.side}", f"hopf {_require_ref(refs)}",
                 f"mdim {payload.m_dim}"]
        lines += _entry_lines("action", field, payload.action.items())
        lines += _entry_lines("coaction", field, payload.coaction.items())
        lines += _optional_lines("mul", field, payload.mul)
        lines += _optional_lines("comul", field, payload.comul)
        return "\n".join(lines) + "\n"
    from .ydsmash import CoquasitriangularForm, YDModuleCoalgebra
    if isinstance(payload, YDModuleCoalgebra):
        field = payload.field
        cstr = payload.coalgebra
        lines = [f"rbhopf {FORMAT_VERSION} yd", f"field {field.name}",
                 f"hopf {_require_ref(refs)}", f"cdim {cstr.dim}"]
        lines += _entry_lines("ccomul", field, cstr.comul.items())
        lines += _optional_lines("ccounit", field, cstr.counit,
                                 lambda k: k[1:])
        lines += _entry_lines("action", field, payload.action.items())
        lines += _entry_lines("coaction", field, payload.coaction.items())
        return "\n".join(lines) + "\n"
    if isinstance(payload, CoquasitriangularForm):
        field = payload.hopf.field
        h = payload.hopf.dim
        lines = [f"rbhopf {FORMAT_VERSION} sigma", f"field {field.name}",
                 f"hopf {_require_ref(refs)}"]
        lines += _entry_lines("sigma", field, (
            (divmod(f, h), v) for (_, f), v in payload.form.items()))
        return "\n".join(lines) + "\n"
    raise TypeError(f"cannot serialize {type(payload).__name__}")


def _require_ref(refs: dict) -> str:
    ref = refs.get("hopf")
    if not ref:
        raise ValueError("saving this kind needs a hopf reference "
                         "(refs={'hopf': 'builtin:...' or a path})")
    return ref


def _dump_structure(s: AlgebraicStructure, kind: str) -> str:
    if kind not in STRUCTURE_KINDS:
        raise ValueError(f"bad structure kind {kind!r}")
    field = s.field
    lines = [f"rbhopf {FORMAT_VERSION} {kind}", f"field {field.name}",
             f"dim {s.dim}"]
    if s.names is not None:
        lines.append("names " + " ".join(s.names))
    lines += _optional_lines("unit", field, s.unit)
    lines += _optional_lines("counit", field, s.counit, lambda k: k[1:])
    if s.mul is not None:
        lines += _entry_lines("mul", field, s.mul.items())
    if s.comul is not None:
        lines += _entry_lines("comul", field, s.comul.items())
    lines += _optional_lines("antipode", field, s.antipode)
    return "\n".join(lines) + "\n"


def save(payload, path: str, kind: str | None = None, refs: dict | None = None):
    text = dumps(payload, kind, refs)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return text
