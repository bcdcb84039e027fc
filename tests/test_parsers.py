"""Properties of the two file parsers: any byte string either parses or
raises a typed DataError, never a bare Python exception."""

from __future__ import annotations

import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from pdmorder import DataError, load_pdm, load_shape_set

_FIELDS = st.one_of(
    st.integers(min_value=-3, max_value=8).map(str),
    st.floats().map(repr),
    st.sampled_from(["", " ", "x", "nan", "-inf", "1e400", "#", "1_0", "١"]),
)
_NEAR_VALID = st.lists(st.lists(_FIELDS, max_size=9).map(",".join), max_size=10).map(
    lambda rows: "\n".join(rows).encode()
)
_FILES = st.one_of(st.binary(max_size=300), _NEAR_VALID)


def _parse_or_data_error(loader, data: bytes) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input"
        path.write_bytes(data)
        try:
            loader(path)
        except DataError:
            pass


@given(_FILES)
@settings(max_examples=300, deadline=None)
def test_load_shape_set_parses_or_raises_data_error(data: bytes) -> None:
    _parse_or_data_error(load_shape_set, data)


@given(_FILES)
@settings(max_examples=300, deadline=None)
def test_load_pdm_parses_or_raises_data_error(data: bytes) -> None:
    _parse_or_data_error(load_pdm, data)
