"""Fuzz the Python 3.10 fallback TOML parser against ``tomllib``.

Documents are generated inside the subset ``_parse_toml_minimal``
documents: ``[dotted.tables]``, ``[[arrays.of.tables]]`` and
single-line ``key = value`` pairs whose values are strings, numbers,
booleans or arrays of those.  Both parsers must read every such
document to the same structure; input outside the subset raises
:class:`ConfigurationError`.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.fleet.spec import _parse_toml_minimal

tomllib = pytest.importorskip("tomllib")

KEYS = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyzABCXYZ0123456789_-",
    min_size=1,
    max_size=6,
)
STRINGS = st.text(
    alphabet=st.characters(
        blacklist_categories=("Cs",), blacklist_characters="\x7f"
    ),
    max_size=12,
)
NUMBERS = st.integers(min_value=-(2**63), max_value=2**63 - 1) | st.floats(
    allow_nan=False
)
SCALARS = STRINGS | NUMBERS | st.booleans()
VALUES = st.recursive(
    SCALARS, lambda items: st.lists(items, max_size=4), max_leaves=8
)


def _tables(children):
    return st.dictionaries(
        KEYS,
        VALUES
        | children
        | st.lists(children, min_size=1, max_size=3),
        max_size=4,
    )


DOCUMENTS = st.recursive(
    st.dictionaries(KEYS, VALUES, max_size=4), _tables, max_leaves=12
)
SPACES = st.sampled_from(["", " ", "  ", "\t"])

_ESCAPES = {'"': '\\"', "\\": "\\\\", "\n": "\\n", "\t": "\\t"}


def _render_string(text):
    out = []
    for char in text:
        if char in _ESCAPES:
            out.append(_ESCAPES[char])
        elif ord(char) < 0x20:
            out.append(f"\\u{ord(char):04x}")
        else:
            out.append(char)
    return '"' + "".join(out) + '"'


def _render(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, str):
        return _render_string(value)
    if isinstance(value, float) and math.isinf(value):
        return "inf" if value > 0 else "-inf"
    if isinstance(value, (int, float)):
        return repr(value)
    return "[" + ", ".join(_render(item) for item in value) + "]"


def _is_table_array(value):
    return (
        isinstance(value, list)
        and bool(value)
        and all(isinstance(item, dict) for item in value)
    )


def _emit(node, path, lines, pad):
    for key, value in node.items():
        if not isinstance(value, dict) and not _is_table_array(value):
            lines.append(f"{key}{pad}={pad}{_render(value)}")
    for key, value in node.items():
        dotted = f"{pad}.{pad}".join([*path, key])
        if isinstance(value, dict):
            lines.append(f"[{pad}{dotted}{pad}]")
            _emit(value, [*path, key], lines, pad)
        elif _is_table_array(value):
            for entry in value:
                lines.append(f"[[{pad}{dotted}{pad}]]")
                _emit(entry, [*path, key], lines, pad)


def _document(data, pad):
    lines = ["# generated fleet-spec-shaped document", ""]
    _emit(data, [], lines, pad)
    return "\n".join(lines) + "\n"


@settings(max_examples=150, deadline=None)
@given(data=DOCUMENTS, pad=SPACES)
def test_minimal_parser_matches_tomllib(data, pad):
    text = _document(data, pad)
    expected = tomllib.loads(text)
    assert expected == data
    assert _parse_toml_minimal(text, "fuzz") == expected


@settings(max_examples=300, deadline=None)
@given(text=st.text(max_size=80))
def test_minimal_parser_rejects_with_configuration_error(text):
    try:
        _parse_toml_minimal(text, "fuzz")
    except ConfigurationError:
        pass


@pytest.mark.parametrize(
    "text",
    [
        'a = "unterminated',
        "a = [1, 2",
        'a = "x" trailing',
        "[a]\nb = 1\n[[a.b]]",
        "a = 1\n[[a.b]]",
        "a = 1\n[a.b]",
        'a = "\\q"',
        'a = "\\U0001F600"',
        "[a.]",
        "[]",
        " = 1",
    ],
)
def test_out_of_subset_input_raises_configuration_error(text):
    with pytest.raises(ConfigurationError):
        _parse_toml_minimal(text, "bad")
