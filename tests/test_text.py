"""The vectorized float formatter against ``repr``, value class by value class."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from signedfj import _text

SMALLEST_SUBNORMALS = np.arange(1, 1001, dtype=np.uint64).view(np.float64)


def texts(values) -> list[str]:
    """The formatter's text of each of ``values``, split back into one string per value."""
    cells = _text.float_cells(np.asarray(values, dtype=np.float64))
    joined = _text.kept_text(_text.join_blocks(cells, _text.literal("\n")))
    return joined.split("\n")[:-1]


def assert_matches_repr(values) -> None:
    values = np.asarray(values, dtype=np.float64).reshape(-1)
    got, want = texts(values), list(map(repr, values.tolist()))
    mismatched = [(v, g, w) for v, g, w in zip(values.tolist(), got, want) if g != w]
    assert not mismatched, mismatched[:10]
    assert len(got) == len(want)


def powers_of_ten() -> np.ndarray:
    """10**k and both neighbouring doubles for k in -323..308."""
    tens = np.array([float(f"1e{k}") for k in range(-323, 309)])
    return np.concatenate([tens, np.nextafter(tens, 0.0), np.nextafter(tens, np.inf)])


def edge_values() -> np.ndarray:
    """One of each value class the formatter tells apart, both signs."""
    positive = np.concatenate([
        [0.0, 5e-324, 1e-323, 1.5e-323, 2.2250738585072014e-308, 2.225073858507201e-308,
         1.7976931348623157e308, 1e-5, 9.999999999999999e-5, 0.0001, 0.00012345678901234567,
         0.5, 1.0, 1.5, 10.0, 123.0, 2.0 / 3.0, 1e15, 9999999999999998.0, 1e16,
         1.2345678901234568e16, 2.0**53, 2.0**53 - 1, 1e100, 1e-100, 1e300, 1.5e300],
        SMALLEST_SUBNORMALS[:5],
    ])
    return np.concatenate([positive, -positive, [np.inf, -np.inf, np.nan, -np.nan]])


class TestMatchesRepr:
    def test_random_bit_patterns(self):
        bits = np.random.default_rng(9100).integers(0, 2**64, 1_000_000, dtype=np.uint64)
        values = bits.view(np.float64)
        assert_matches_repr(values[np.isfinite(values)])

    def test_edge_values(self):
        assert_matches_repr(edge_values())

    def test_signed_zeros(self):
        assert texts([0.0, -0.0]) == ["0.0", "-0.0"]

    def test_smallest_subnormals(self):
        assert texts(SMALLEST_SUBNORMALS[:3]) == ["5e-324", "1e-323", "1.5e-323"]
        assert_matches_repr(SMALLEST_SUBNORMALS)
        assert_matches_repr(-SMALLEST_SUBNORMALS)

    def test_every_power_of_two(self):
        powers = np.ldexp(1.0, np.arange(-1074, 1024))
        assert np.isfinite(powers).all() and powers[0] == 5e-324
        assert_matches_repr(powers)
        assert_matches_repr(-powers)

    def test_powers_of_ten_and_neighbours(self):
        assert_matches_repr(powers_of_ten())
        assert_matches_repr(-powers_of_ten())

    def test_integers_up_to_2_53(self):
        rng = np.random.default_rng(9101)
        integers = np.concatenate([
            np.arange(0, 100_000),
            rng.integers(0, 2**53, 200_000, endpoint=True),
            2**53 - np.arange(0, 1000),
        ]).astype(np.float64)
        assert_matches_repr(integers)
        assert_matches_repr(-integers)

    def test_switch_to_exponent_form_at_1e16(self):
        assert texts([9999999999999998.0, 1e16, 1.0000000000000002e16]) == [
            "9999999999999998.0", "1e+16", "1.0000000000000002e+16"]

    def test_switch_to_exponent_form_below_1e_4(self):
        assert texts([0.0001, 1e-5, 9.999999999999999e-5]) == [
            "0.0001", "1e-05", "9.999999999999999e-05"]

    def test_infinities_and_nan(self):
        assert texts([np.inf, -np.inf, np.nan, -np.nan]) == ["inf", "-inf", "nan", "nan"]

    def test_leading_axes_are_kept(self):
        values = np.random.default_rng(9102).standard_normal((3, 5))
        cells = _text.float_cells(values)
        assert cells.shape == (3, 5, _text.FLOAT_WIDTH)
        assert texts(values.reshape(-1)) == list(map(repr, values.reshape(-1).tolist()))

    def test_empty(self):
        assert texts(np.empty(0)) == []


class TestBlocks:
    def test_fields_keep_their_bytes(self):
        strings = ["", "a", '"x,1"', "é", "日本", "\ud800", "line\nbreak", "😀"]
        fields = _text.Fields(strings)
        ids = np.array([6, 0, 3, 3, 5, 1, 7, 4, 2, 7])
        cells = _text.join_blocks(fields.cells(ids), _text.literal("|"))
        assert _text.kept_text(cells) == "".join(strings[i] + "|" for i in ids)

    def test_a_long_string_among_short_ones_pads_only_where_it_is(self):
        strings = [f"{i}," for i in range(100)] + ["x" * 10_000 + ","]
        fields = _text.Fields(strings)
        cells = fields.cells(np.arange(100))
        assert cells.shape == (100, 3)
        ids = np.array([100, 7, 100, 42])
        assert _text.kept_text(fields.cells(ids)) == "".join(strings[i] for i in ids)

    def test_blocks_broadcast(self):
        rows = _text.Fields(["r0,", "r1,"]).cells()
        columns = _text.Fields(["a", "bc", "def"]).cells()
        cells = _text.join_blocks(rows[:, None], columns, _text.literal(";"))
        assert cells.shape[:2] == (2, 3)
        assert _text.kept_text(cells) == "r0,a;r0,bc;r0,def;r1,a;r1,bc;r1,def;"

    @given(st.lists(st.text(st.characters(exclude_categories=())
                            | st.characters(categories=["Cs"])), max_size=8))
    def test_field_bytes_never_hold_the_gap_byte(self, strings):
        # any code point, lone surrogates often, which surrogatepass encodes
        fields = _text.Fields(strings)
        assert _text.GAP not in fields._bytes
        cells = fields.cells()
        assert _text.kept_text(cells) == "".join(strings)


def test_importing_the_cli_leaves_the_formatter_unloaded():
    src = str(Path(__file__).resolve().parent.parent / "src")
    pythonpath = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, "-c",
         "import sys, signedfj.cli; print('signedfj._text' in sys.modules)"],
        capture_output=True, text=True, check=True, env={**os.environ, "PYTHONPATH": pythonpath})
    assert done.stdout.strip() == "False"


@pytest.mark.parametrize("value", [5e-324, 1e23, 8.41e21, 5.0e-310, 0.3, 2.0**-1022])
def test_known_hard_cases(value):
    assert_matches_repr([value, -value])
