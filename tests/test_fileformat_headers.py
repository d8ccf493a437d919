"""Header lines take exactly one value.

`field`, `dim`, `rows`, `cols`, `side`, `hopf`, `mdim` and `cdim` each
name one value.  A header line with an extra token must not load with the
token ignored: it raises a `FormatError` carrying that line's number.
"""

import pytest

from rbhopf import FormatError, Mat, QQ, adjoint_yd, builtin, regular_hopf_module
from rbhopf.fileformat import dumps, loads

REF = {"hopf": "builtin:group:C2"}
FILES = {
    "hopf": dumps(builtin("group:C2")),
    "operator": dumps(Mat.identity(QQ, 2)),
    "module": dumps(regular_hopf_module(builtin("group:C2")), refs=REF),
    "yd": dumps(adjoint_yd(builtin("group:C2")), refs=REF),
}


def with_extra(text: str, key: str, extra: str):
    """`text` with `extra` appended to its `key` line, and that line's number."""
    lines = text.splitlines()
    (at,) = [i for i, line in enumerate(lines) if line.split()[0] == key]
    lines[at] += " " + extra
    return "\n".join(lines) + "\n", at + 1


@pytest.mark.parametrize("kind", FILES)
def test_unedited_files_load(kind):
    assert loads(FILES[kind]).kind == kind


@pytest.mark.parametrize("kind, key, extra", [
    ("hopf", "field", "junk"),
    ("hopf", "dim", "7"),
    ("operator", "field", "Q"),
    ("operator", "rows", "2"),
    ("operator", "cols", "x"),
    ("module", "side", "extra"),
    ("module", "hopf", "builtin:group:C2"),
    ("module", "mdim", "9"),
    ("yd", "cdim", "1"),
])
def test_extra_token_on_a_header_line_is_an_error(kind, key, extra):
    text, lineno = with_extra(FILES[kind], key, extra)
    with pytest.raises(FormatError, match=f"{key} line takes exactly one value") as err:
        loads(text)
    assert err.value.line == lineno
    assert str(err.value).startswith(f"line {lineno}: ")


@pytest.mark.parametrize("key", ["field", "dim"])
def test_header_line_without_its_value_is_an_error(key):
    text = FILES["hopf"].replace(f"\n{key} ", f"\n{key}\n# ")
    with pytest.raises(FormatError, match=f"{key} line takes exactly one value"):
        loads(text)
