"""Vectorized CSV text: ``repr`` of float64 arrays and rows joined from byte matrices.

:func:`float_cells` gives, for every value of a float64 array, exactly the
characters of ``float.__repr__``, without a Python call per value.  The
digits come from Schubfach (R. Giulietti, "The Schubfach way to render
doubles", 2020): the shortest decimal that reads back as the same double,
and of those the closest, ties to an even last digit; this is the string
``repr`` prints, placed as ``repr`` places it (exponent form below ``1e-4``
and from ``1e16`` on).  Significands are ``uint64`` (products split into
32-bit halves) and exponents ``int64``, and no operation mixes the two,
which numpy 1.x would promote to float64.  Unlike Giulietti's Java code
this writes one digit where one is enough (``5e-324``, not ``4.9e-324``),
as ``repr`` does.

Text is handled as ``uint8`` matrices, one row per CSV row, whose unused
bytes hold ``GAP`` (``0xFF``), a byte that UTF-8 never produces, not even
for the lone surrogates that ``surrogatepass`` writes.  Blocks of columns
are laid side by side, and :func:`kept_text` drops every gap byte in one C
pass, ``bytes.translate``.  A second file that leaves some columns out is
made by writing ``GAP`` over them in place.  Tables are built on first use,
so importing this module costs nothing beyond numpy.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

__all__ = ["FLOAT_WIDTH", "GAP", "Fields", "float_cells", "join_blocks", "kept_text", "literal"]

_U = np.uint64
_M32 = _U(0xFFFFFFFF)
_M63 = _U((1 << 63) - 1)
_K_MIN, _K_MAX = -324, 292
_POW10 = np.array([10**i for i in range(18)], dtype=np.uint64)
# a 9-digit integer times this is itself / 1e8 with 57 fraction bits, close
# enough that nine rounds of "take the integer part, times 10" give its digits
_FRACTION = _U(-(-(1 << 57) // 10**8))
_LOW57 = _U((1 << 57) - 1)
# the byte that marks a cell's unused bytes; no UTF-8 text holds it
GAP = 0xFF


def _flog2pow10(e: int) -> int:
    """floor(log2(10**e)), exactly."""
    return (10**e).bit_length() - 1 if e >= 0 else -((10**-e).bit_length())


@lru_cache(maxsize=None)
def _powers() -> tuple[np.ndarray, np.ndarray]:
    """``g1``, ``g0`` of g = floor(10**-k * 2**(125 - floor(log2 10**-k))) + 1 = g1 2**63 + g0,
    for k in ``[_K_MIN, _K_MAX]``: 126-bit powers of ten, from Python ints."""
    g1 = np.empty(_K_MAX - _K_MIN + 1, dtype=np.uint64)
    g0 = np.empty_like(g1)
    for i, k in enumerate(range(_K_MIN, _K_MAX + 1)):
        shift = 125 - _flog2pow10(-k)
        if k > 0:
            g = (1 << shift) // 10**k + 1
        else:
            g = (10**-k << shift if shift >= 0 else 10**-k >> -shift) + 1
        g1[i], g0[i] = g >> 63, g & ((1 << 63) - 1)
    return g1, g0


def _high(a: np.ndarray, c0: np.ndarray, c1: np.ndarray) -> np.ndarray:
    """The high 64 bits of ``a * c``, for c = c1 2**32 + c0.

    ``a`` is below 2**63 and c below 2**61, so the partial products of 32-bit
    halves add up without overflow.  Temporaries are reused: a chunk's
    arrays are a large part of what a writer holds.
    """
    a0, a1 = a & _M32, a >> _U(32)
    high = a0 * c0
    high >>= _U(32)
    product = a0 * c1
    high += product
    np.multiply(a1, c0, out=product)
    high += product
    high >>= _U(32)
    np.multiply(a1, c1, out=product)
    high += product
    return high


def _rop(g1: np.ndarray, g0: np.ndarray, cp: np.ndarray) -> np.ndarray:
    """cp * g / 2**127 rounded to odd, for g = g1 2**63 + g0 (Giulietti, section 9.9)."""
    c0, c1 = cp & _M32, cp >> _U(32)
    z = g1 * cp
    z >>= _U(1)
    z += _high(g0, c0, c1)
    rounded = _high(g1, c0, c1)
    rounded += z >> _U(63)
    rounded |= (z & _M63) != 0
    return rounded


def _shortest(bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(f, e)`` with f * 10**e the shortest decimal of each positive finite
    double ``bits`` (a uint64 array): the one closest to the double, ties to even f."""
    g1_table, g0_table = _powers()
    t = bits & _U((1 << 52) - 1)
    bq = bits >> _U(52)
    c = t | (np.minimum(bq, _U(1)) << _U(52))
    q = np.maximum(bq, _U(1)).astype(np.int64) - 1075
    # at a power of two the gap below is half the gap above
    irregular = (t == 0) & (bq > 1)
    del t, bq
    k = (q * 661_971_961_083 - irregular * 274_743_187_321) >> 41
    h = (q + ((-k * 913_124_641_741) >> 38) + 2).astype(np.uint64)
    del q
    g1, g0 = g1_table[k - _K_MIN], g0_table[k - _K_MIN]

    # the double and the ends of the interval that reads back as it, scaled by
    # 2**-q 4 10**-k and rounded to odd; an odd c excludes the ends
    cb = c << _U(2)
    out = c & _U(1)
    vb = _rop(g1, g0, cb << h)
    vbl = _rop(g1, g0, (cb - (_U(2) - irregular)) << h)
    vbl += out
    vbr = _rop(g1, g0, (cb + _U(2)) << h)
    vbr -= out
    del c, cb, out, h, g1, g0, irregular

    s = vb >> _U(2)
    # one digit shorter: the multiples of 10 around s, when exactly one is inside
    sp10 = (s // _U(10)) * _U(10)
    upin = vbl <= sp10 << _U(2)
    wpin = (sp10 + _U(10)) << _U(2) <= vbr
    # otherwise s or s + 1, whichever is inside, or else the closer, ties to even
    uin = vbl <= s << _U(2)
    win = (s + _U(1)) << _U(2) <= vbr
    mid = (s << _U(2)) + _U(2)
    pick_s = np.where(uin != win, uin, (vb < mid) | ((vb == mid) & ((s & _U(1)) == 0)))
    f = np.where(upin != wpin, sp10 + _U(10) * wpin, s + ~pick_s)
    return f, k


# the rows of a value's cells: the sign, "0.000" for values below 1, the
# digits with the point, then the exponent; each part's text starts at its
# first row, so that each is one run of kept bytes
_LEAD = 1
_BODY = _LEAD + 5
_EXP = _BODY + 18
FLOAT_WIDTH = _EXP + 5
# "e-324" to "e+308", by exponent + 324, NUL-padded to one uint64 each
_EXPONENTS = [f"e{e:+03d}" for e in range(-324, 309)]
_EXPONENT_TEXT = np.array(_EXPONENTS, dtype="S8").view(np.uint64)
_EXPONENT_LENGTH = np.array(list(map(len, _EXPONENTS)), dtype=np.uint8)


def float_cells(values: np.ndarray) -> np.ndarray:
    """``repr`` of each float64 value as a row of ``FLOAT_WIDTH`` bytes, unused ones ``GAP``.

    The rows with their gap bytes dropped are the values' ``repr`` strings,
    in order.  Leading dimensions of ``values`` are kept.  The array is built
    column-major, so that every step works on contiguous rows of values.
    """
    shape = np.shape(values)
    bits = np.ascontiguousarray(values, dtype=np.float64).reshape(-1).view(np.uint64)
    count = len(bits)
    magnitude = bits & _U((1 << 63) - 1)
    special = magnitude >= _U(0x7FF << 52)  # inf and nan
    zero = magnitude == 0
    one = _U(0x3FF << 52)  # the bits of 1.0, standing in for zeros, infs and nans
    f, k = _shortest(np.where(special | zero, one, magnitude))

    digit_count = np.searchsorted(_POW10, f, side="right")
    point = digit_count + k  # the value is 0.d1d2... x 10**point
    f *= _POW10[17 - digit_count]  # 17 digits, trailing zeros
    # f's digits as two 9-digit halves, the first with a leading zero: digit
    # r of 17 is row r of ``digits``, and one zero row follows the last
    digits = np.zeros((20, count), dtype=np.uint8)
    halves = digits[:18].reshape(2, 9, count)
    top = f // _U(10**9)
    fraction = np.stack([top, f - top * _U(10**9)]) * _FRACTION
    for j in range(9):
        halves[:, j] = fraction >> _U(57)
        fraction &= _LOW57
        fraction *= _U(10)
    rank = np.arange(1, 18, dtype=np.uint8)[:, None]
    significant = ((digits[1:18] != 0) * rank).max(axis=0)
    digits[1] -= zero  # 1.0's digit becomes 0.0's
    digits += ord("0")

    # repr writes fixed notation from 1e-4 up to 1e16
    point = point.astype(np.int16)
    fixed = (point > -4) & (point < 17)
    whole = fixed & (point > 0)
    cells = np.empty((FLOAT_WIDTH, count), dtype=np.uint8)
    keep = np.empty((FLOAT_WIDTH, count), dtype=bool)
    cells[0] = ord("-")
    keep[0] = bits >> _U(63)
    # below 1: "0." and -point zeros, then the digits
    cells[_LEAD:_BODY] = np.frombuffer(b"0.000", np.uint8)[:, None]
    np.less(np.arange(5, dtype=np.int16)[:, None], np.where(fixed & ~whole, 2 - point, 0),
            out=keep[_LEAD:_BODY])
    # otherwise the point after the first ``at`` digits, with zeros up to the
    # digit after it for whole values; in the exponent form after the first
    position = np.arange(18, dtype=np.uint8)[:, None]
    at = np.where(whole, point, np.where(fixed, 18, 1)).astype(np.uint8)
    # selections by arithmetic on 0/1 bytes, which numpy vectorizes, unlike where
    body = cells[_BODY:_EXP]
    np.bitwise_xor(digits[0:18], digits[1:19], out=body)
    body *= (position < at).view(np.uint8)
    body ^= digits[0:18]
    body += (position == at).view(np.uint8) * (ord(".") - body)
    length = np.where(whole, np.maximum(significant, point + 1) + 1,
                      significant + (~fixed & (significant > 1)))
    np.less(position, length.astype(np.uint8), out=keep[_BODY:_EXP])
    exponent = point + 323  # the table row of exponent point - 1
    cells[_EXP:] = _EXPONENT_TEXT[exponent].view(np.uint8).reshape(count, 8)[:, :5].T
    np.less(np.arange(5, dtype=np.uint8)[:, None], _EXPONENT_LENGTH[exponent] * ~fixed,
            out=keep[_EXP:])
    if special.any():
        nan = magnitude > _U(0x7FF << 52)
        keep[0, special] &= ~nan[special]
        cells[_BODY:_BODY + 3, special] = np.where(
            nan[special], np.frombuffer(b"nan", np.uint8)[:, None],
            np.frombuffer(b"inf", np.uint8)[:, None])
        keep[_LEAD:, special] = (np.arange(_LEAD, FLOAT_WIDTH) - _BODY < 3)[:, None]
        keep[_LEAD:_BODY, special] = False
    cells |= _gaps(keep)
    return cells.T.reshape(shape + (FLOAT_WIDTH,))


def _gaps(keep: np.ndarray) -> np.ndarray:
    """``keep``'s own bytes turned in place into 0 where it is set and ``GAP`` elsewhere,
    to be or-ed into the cells it marks."""
    gaps = keep.view(np.uint8)
    gaps -= 1
    return gaps


class Fields:
    """Strings as UTF-8 bytes, to be laid out as blocks of :func:`join_blocks`.

    They are held as one run of bytes, and each block reads its strings from
    it, as wide as the longest of them: a long string widens only the blocks
    that hold it.
    """

    def __init__(self, texts):
        encoded = [text.encode("utf-8", "surrogatepass") for text in texts]
        self._lengths = np.fromiter(map(len, encoded), dtype=np.intp, count=len(encoded))
        self._starts = np.cumsum(self._lengths) - self._lengths
        # zeros after the last string, so that every read stays in the run
        encoded.append(bytes(self._lengths.max(initial=0)))
        self._bytes = np.frombuffer(b"".join(encoded), dtype=np.uint8)

    def cells(self, ids=None) -> np.ndarray:
        """The strings at the 1-d ``ids`` (all of them by default), one per
        row, as wide as the longest of them, each padded with ``GAP``."""
        if ids is None:
            ids = slice(None)
        lengths = self._lengths[ids]
        width = lengths.max(initial=0)
        # row i of ``windows`` is the ``width`` bytes from byte i on, a view
        windows = np.lib.stride_tricks.as_strided(
            self._bytes, (len(self._bytes) - width + 1, width), (1, 1), writeable=False)
        cells = windows[self._starts[ids]]
        # the mask is built column by column: numpy's loops run fastest over the long axis
        cells |= _gaps(np.arange(width)[:, None] < lengths).T
        return cells


def literal(text: str) -> np.ndarray:
    """``text`` as a block that every row of :func:`join_blocks` holds."""
    return np.frombuffer(text.encode("utf-8", "surrogatepass"), dtype=np.uint8)


def join_blocks(*blocks: np.ndarray) -> np.ndarray:
    """``blocks`` laid side by side, as one array.

    Each block holds the bytes of a row on its last axis; the other axes
    broadcast against the other blocks'.
    """
    shape = np.broadcast_shapes(*(block.shape[:-1] for block in blocks))
    return np.concatenate(
        [np.broadcast_to(block, shape + block.shape[-1:]) for block in blocks], axis=-1)


def kept_text(cells: np.ndarray) -> str:
    """The bytes of ``cells`` other than ``GAP``, row after row, as text."""
    return cells.tobytes().translate(None, bytes([GAP])).decode("utf-8", "surrogatepass")
