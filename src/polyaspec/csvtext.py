"""Columnar CSV text with every float spelled as ``repr`` spells it.

``write_columns(fp, header, columns)`` writes the header line and then one
line per row, cells joined by commas.  A float array is formatted a block
of cells at a time by a vectorised shortest round-trip conversion,
Schubfach (R. Giulietti, "The Schubfach way to render doubles", 2020): for
each value it finds the shortest decimals that read back to the same
double, the rounding interval closed when the significand is even, and of
those the closest, as Python's ``repr`` (David Gay's ``dtoa`` in mode 0)
does.  The digits are laid out as ``repr`` lays them out: positional with
at least one fractional digit for 1e-4 <= |x| < 1e16, ``d.ddde+XX`` (at
least two exponent digits) otherwise, and ``0.0``, ``-0.0``, ``inf``,
``-inf`` and ``nan`` as they are.  An integer array is written from the
same digit tables.  Any other column, such as a list, is a ``ValueError``.

A block, the rows that ``_BLOCK`` cells of its widest run of columns fill,
is one uint64 frame: each cell in as few words as the widest cell of its
run needs, NULs in the rest.  A float has its 17 digits from byte 4 (8 after
"-0.000"), a dot slot shifted in by decimal arithmetic, its sign and
prefix right before them, and its exponent and separator ending the last
word; an integer has its sign first and its digits up to the separator.
One ``bytes.translate`` drops the NULs.
"""

from __future__ import annotations

import functools

import numpy as np

__all__ = ["write_columns"]

#: cells of the widest run of columns per block, keeping scratch under 2 MB
_BLOCK = 1 << 13

_U = np.uint64
_M32 = _U(2**32 - 1)
_S1, _S2, _S32, _S52, _S63, _S64 = (_U(n) for n in (1, 2, 32, 52, 63, 64))
#: k = floor(log10(2^q)) over the binary exponents q of finite doubles
_K_MIN, _K_MAX = -324, 292
#: the decimal exponents of the leading digits of nonzero finite doubles
_E_MIN, _E_MAX = -324, 308
_SPECIALS = ("nan", "inf", "-inf", "0.0", "-0.0")
#: added to a word's exponent as a double, 1023 + its top bit, these give
#: 1024 + that bit's index in three words
_WORD_BITS = np.array([[1], [65], [129]])


def _words(chunks, dtype=np.uint64) -> np.ndarray:
    """Machine words from strings of their bytes."""
    return np.frombuffer("".join(chunks).encode("latin-1"), dtype=dtype).copy()


@functools.cache
def _tables() -> dict:
    """The formatter's tables, built on first use.

    - ``k``, ``h2``, ``hidden``, ``g1``, ``g0``: at the biased binary
      exponent of x, plus 2048 for a power of two above the subnormals,
      Schubfach's k and h + 2, the hidden bit, and g = floor(10^-k 2^-r) + 1
      with 2^125 <= 10^-k 2^-r < 2^126, as g = g1 2^63 + g0;
    - ``form``, ``dot_unit``, ``min_end``, ``tail``: at E - _E_MIN, for a
      leading digit at 10^E, the digits before the dot (1..16) or 17 + the
      zeros of the "0.00" prefix, 10^(17 - the digits before the dot), the
      fewest digits and dot shown, and the exponent suffix up to byte 6;
    - ``digits``: 0..9999 as four bytes 0..9, in the low and high half;
    - ``ascii``: in column (start - 1) 798 + end 42 + form + 21 sign, the
      four words of a float cell with digits from byte 4 start: its sign
      and prefix before them, and the marks that make its first ``end``
      digit bytes "0".."9" and its dot slot the dot;
    - ``long``: at form + 21 sign, whether sign and prefix exceed 4 bytes;
    - ``special``: the float cells of ``_SPECIALS``;
    - ``int``, ``int_lead``, ``int_last``: 0..9999 as four digits, with
      leading zeros, with NULs for them, and with NULs but "0" for 0.
    """
    # floor(log2(10^-k)), floor(log10(2^q)) and floor(log10(3/4 2^q)) below
    g1, g0 = [], []
    for k in range(_K_MIN, _K_MAX + 1):
        r = (-k * 913124641741 >> 38) - 125
        g = (10 ** max(-k, 0) << max(-r, 0)) // (10 ** max(k, 0) << max(r, 0)) + 1
        g1.append(g >> 63)
        g0.append(g & (2**63 - 1))
    bq = np.tile(np.arange(2048), 2)
    q = np.maximum(bq, 1) - 1075
    k = np.concatenate([q[:2048] * 661971961083 >> 41,
                        q[2048:] * 661971961083 - 274743187321 >> 41])
    e = np.arange(_E_MIN, _E_MAX + 1)
    wide, small = (0 <= e) & (e < 16), (-4 <= e) & (e < 0)
    dot = np.where(wide, e + 1, np.where(small, 17, 1))
    forms = [(dot, "") for dot in range(17)] + [(17, "0." + "0" * i) for i in range(4)]
    forms += [(dot, "-" + head) for dot, head in forms]
    digits = sum(np.arange(10000, dtype=np.uint64) // _U(10**i) % _U(10) << _U(24 - 8 * i)
                 for i in range(4))
    quads = [f"{i:04d}" for i in range(10000)]
    unpadded = [q.lstrip("0").rjust(4, "\0") for q in quads]
    return {
        "k": k,
        "h2": (q + (-k * 913124641741 >> 38) + 4).astype(np.uint64),
        "hidden": (bq > 0).astype(np.uint64) << _S52,
        "g1": np.array(g1, dtype=np.uint64)[k - _K_MIN],
        "g0": np.array(g0, dtype=np.uint64)[k - _K_MIN],
        "form": np.where(small, 16 - e, dot),
        "dot_unit": 10 ** (17 - dot.astype(np.uint64)),
        "min_end": np.where(wide, e + 3, 0),
        "tail": _words(f"{'' if -4 <= e < 16 else f'e{e:+03d}':\0>7}\0" for e in e.tolist()),
        "digits": np.array([digits, digits << _S32]),
        "ascii": _words((f"{head:\0>8}"[8 - 4 * start:] + ("0" * dot + "." + "0" * 18)[:end])
                        .ljust(32, "\0") for start in (1, 2) for end in range(19)
                        for dot, head in forms).reshape(-1, 4).T.copy(),
        "long": np.array([len(head) > 4 for _, head in forms]),
        "special": _words(f"{text:\0<8}" for text in _SPECIALS),
        "int": _words(quads, np.uint32),
        "int_lead": _words(unpadded, np.uint32),
        "int_last": _words(["\0\0\0" + "0"] + unpadded[1:], np.uint32),
    }


def _mul_hi(a: tuple, b: tuple) -> np.ndarray:
    """The high 64 bits of a * b for uint64 arrays a < 2^63 and b < 2^60
    given as their (low, high) 32-bit limbs; the low 64 bits are numpy's
    wrapping a * b."""
    cross = a[1] * b[0]
    cross += a[0] * b[1]  # below 2^63 + 2^60, so it does not wrap
    mid = a[0] * b[0]
    mid >>= _S32
    mid += cross & _M32
    hi = a[1] * b[1]
    hi += cross >> _S32
    hi += mid >> _S32
    return hi


def _add(hi, lo, d: tuple, op) -> tuple[np.ndarray, np.ndarray]:
    """(hi, lo) op d in 128 bits, as new arrays, op np.add or np.subtract."""
    out = op(lo, d[1])
    top = op(hi, d[0])
    op(top, out < lo if op is np.add else out > lo, out=top)
    return top, out


def _round_odd(x1, y1, y0) -> np.ndarray:
    """g cp 2^-127 rounded to odd (Schubfach's rop), from x1 = hi(g0 cp)
    and (y1, y0) = g1 cp, with g = g1 2^63 + g0, in y1; y0 is spent."""
    y0 >>= _S1
    y0 += x1
    y1 += y0 >> _S63
    y0 <<= _S1
    y1 |= y0 != 0
    return y1


def _scaled(bits: np.ndarray):
    """x = c 2^q for the bit patterns of finite nonzero x, and the ends of
    its rounding interval, times 4 10^-k and rounded to odd: Schubfach's vb,
    vbl and vbr, after the row of x in the exponent tables."""
    tables = _tables()
    t = bits & _U(2**52 - 1)
    row = ((bits >> _S52) & _U(0x7FF)).view(np.int64)
    # a power of two above the subnormals is irregular: the gap below it is
    # half the gap above it
    irregular = t == 0
    if irregular.any():
        irregular &= row > 1
        row = row + irregular * 2048
    h2 = tables["h2"][row]
    cp = (t | tables["hidden"][row]) << h2  # c 2^(h + 2)
    g1, g0 = tables["g1"][row], tables["g0"][row]
    limbs = cp & _M32, cp >> _S32
    a_hi, a_lo = _mul_hi((g0 & _M32, g0 >> _S32), limbs), g0 * cp
    b_hi, b_lo = _mul_hi((g1 & _M32, g1 >> _S32), limbs), g1 * cp
    # the interval's ends are (4c + 2) 2^h and (4c - 2) 2^h, or (4c - 1) 2^h
    # at an irregular x; g times them is g 4c 2^h plus or minus g 2^up, as
    # 128-bit (high, low) words
    up = h2 - _S1
    down = _S64 - up
    d0, d1 = (g0 >> down, g0 << up), (g1 >> down, g1 << up)
    vbr = _round_odd(_add(a_hi, a_lo, d0, np.add)[0], *_add(b_hi, b_lo, d1, np.add))
    if irregular.any():
        up -= irregular
        down += irregular
        d0, d1 = (g0 >> down, g0 << up), (g1 >> down, g1 << up)
    vbl = _round_odd(_add(a_hi, a_lo, d0, np.subtract)[0], *_add(b_hi, b_lo, d1, np.subtract))
    return row, _round_odd(a_hi, b_hi, b_lo), vbl, vbr


def _shortest(bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(f, k) with |x| = f 10^k, for the bit patterns of finite nonzero x:
    of the shortest decimals that read back to x, the closest."""
    row, vb, vbl, vbr = _scaled(bits)
    # the ends read back to x when c is even
    odd = bits & _S1
    vbl += odd
    vbr -= odd
    s = vb >> _S2
    # one digit fewer, u' = 10 floor(s / 10) or w' = u' + 10, when just one
    # of them is in the interval
    sp10 = s // _U(10) * _U(10)
    sp4 = sp10 << _S2
    upin = vbl <= sp4
    wpin = sp4 + _U(40) <= vbr
    # else u = s or w = s + 1, whichever is in the interval, or the closer,
    # u at a tie if s is even
    s4 = s << _S2
    uin = vbl <= s4
    win = s4 + _U(4) <= vbr
    take_w = win & ~uin
    take_w |= (uin == win) & ((vb & _U(3)) + (s & _S1) > _S2)
    f = np.where(upin != wpin, sp10 + wpin * _U(10), s + take_w)
    return f, _tables()["k"][row]


def _float_words(x: np.ndarray, seps: np.ndarray) -> np.ndarray:
    """The words of the float64 cells x as a (words, n) uint64 array, word
    j of every cell in row j, as few words as the widest cell needs.  Cell
    i ends with the separator word ``seps[i]``."""
    tables = _tables()
    bits = x.view(np.uint64)
    # zeros, infinities and nans: 2 |x| - 1 wraps or reaches 2 inf - 1
    special = np.flatnonzero((bits << _S1) - _S1 >= _U((0x7FF << 53) - 1))
    if special.size:
        bits = bits.copy()
        bits[special] = 0x3FF8 << 48  # 1.5, overwritten below
    f, k = _shortest(bits)
    # f has 16 or 17 digits, or fewer for subnormals; scale it to 17
    if (f < _U(10**15)).any():
        digits = np.searchsorted(10 ** np.arange(20, dtype=np.uint64), f, side="right")
        f *= (10 ** (17 - digits)).astype(np.uint64)
        row = k + (digits - 1 - _E_MIN)
    else:
        short = f < _U(10**16)
        f *= np.where(short, _U(10), _U(1))
        row = k + (16 - _E_MIN)
        row -= short
    # y: the 17 digits with a zero slot for the dot after those before it
    y = f * _U(10) - f % tables["dot_unit"][row] * _U(9)
    quads = np.empty((5, x.size), dtype=np.uint64)
    np.floor_divide(y, _U(100), out=quads[4])
    np.floor_divide(quads[4], _U(10**8), out=quads[1])
    quads[3] = quads[4] - quads[1] * _U(10**8)
    quads[4] = (y - quads[4] * _U(100)) * _U(100)
    np.floor_divide(quads[1:4:2], _U(10**4), out=quads[0:4:2])
    quads[1:4:2] -= quads[0:4:2] * _U(10**4)
    quads = quads.view(np.int64)
    # the digits of y as the bytes 0..9, four to a slot, from slot ``start``
    form = tables["form"][row] + (bits >> _S63).view(np.int64) * 21
    start = 1 + int(tables["long"][form].max())
    first = start // 2
    words = np.empty((first + 4, x.size), dtype=np.uint64)
    words[:first] = words[first + 3:] = 0
    halves = tables["digits"]
    np.take(halves[start % 2], quads[0::2], out=words[first:first + 3], mode="clip")
    words[(start + 1) // 2:(start + 1) // 2 + 2] |= np.take(halves[1 - start % 2], quads[1::2])
    # end: the digits and dot shown, up to the last nonzero digit of y, from
    # the exponents of the digit words as doubles (exact: no byte exceeds
    # 9), the last word first, and at least to one digit past the dot
    last = (words[first + 2].astype(np.float64).view(np.int64) >> 52) + _WORD_BITS[2]
    early = np.flatnonzero(last == _WORD_BITS[2])
    if early.size:
        digits = words[first:first + 2, early].astype(np.float64).view(np.int64)
        last[early] = ((digits >> 52) + _WORD_BITS[:2]).max(axis=0)
    end = np.maximum((last >> 3) - (1024 // 8 - 1 + 4 * (start % 2)), tables["min_end"][row])
    # the characters, the dot, the sign and prefix, and the exponent suffix
    # and the separator at the end of the last word
    suffix = row.min() < -4 - _E_MIN or row.max() >= 16 - _E_MIN
    size = (4 * start + int(end.max()) + 5 * suffix + 8) // 8
    words = words[:size]
    words |= np.take(tables["ascii"][:size], end * 42 + form + 798 * (start - 1), axis=1)
    if suffix:
        words[-1] |= tables["tail"][row]
    if special.size:
        y = x[special]
        words[:, special] = 0
        words[0, special] = tables["special"][(y == y) * (3 - 2 * np.isinf(y) + np.signbit(y))]
    words[-1] |= seps
    return words


def _int_words(x: np.ndarray, seps: np.ndarray) -> np.ndarray:
    """The (n, words) uint64 frame of the int64 values x: the sign in the
    first byte, as many four-digit slots as the largest |x| needs up to the
    last byte, and the separator word ``seps[i]`` in that byte."""
    tables = _tables()
    quads = -(-len(str(max(int(x.max()), -int(x.min())))) // 4)
    words = np.zeros((x.size, (4 * quads + 9) // 8), dtype=np.uint64)
    slots = words.view(np.uint32)[:, -quads:]
    neg = x < 0
    u = x.view(np.uint64)
    u = np.where(neg, _U(0) - u, u)
    parts = []
    for _ in range(quads):
        u, part = u // _U(10**4), u % _U(10**4)
        parts.append(part.view(np.int64))
    started = np.zeros(x.size, dtype=bool)
    for i, part in enumerate(reversed(parts)):
        first = tables["int_last" if i == quads - 1 else "int_lead"][part]
        slots[:, i] = np.where(started, tables["int"][part], first)
        started |= part != 0
    # the digits move down a byte, for the separator
    low = words[:, 1:] << _U(56)
    words >>= _U(8)
    words[:, :-1] |= low
    words[:, 0] |= neg * _U(ord("-"))
    words[:, -1] |= seps
    return words


def _column(values) -> np.ndarray:
    """A 1-D float or integer array as float64 or int64; any other column is
    a ``ValueError``."""
    if isinstance(values, np.ndarray) and values.ndim == 1:
        if values.dtype.kind == "f":
            return values.astype(np.float64, copy=False)
        if values.dtype.kind == "i" or (values.dtype.kind == "u" and values.dtype.itemsize < 8):
            return values.astype(np.int64, copy=False)
    got = values.dtype if isinstance(values, np.ndarray) else type(values).__name__
    raise ValueError(f"a column must be a 1-D float or integer array, got {got}")


def _block_text(runs: list, seps: list) -> str:
    """The CSV lines of one block of rows, given as runs of columns (one
    float run is formatted as one array) and, per run, the separator words
    of its cells row by row, for a block of at least as many rows."""
    parts = []
    for run, marks in zip(runs, seps):
        if run[0].dtype == np.float64:
            cells = np.stack(run, axis=1)
            # the cells' words as (row, column, word), as the frame holds them
            words = _float_words(cells.ravel(), marks[:cells.size])
            parts.append(words.T.reshape(len(cells), len(run), -1))
        else:
            parts.append(_int_words(run[0], marks[:len(run[0])])[:, None, :])
    frame = np.empty((len(parts[0]), sum(w.shape[1] * w.shape[2] for w in parts)),
                     dtype=np.uint64)
    at = 0
    for words in parts:
        width = words.shape[1] * words.shape[2]
        np.copyto(frame[:, at:at + width].reshape(words.shape), words)
        at += width
    return frame.tobytes().translate(None, b"\0").decode()


def write_columns(fp, header, columns) -> None:
    """Write ``header`` and the rows of ``columns``, all of one length, to
    the text file ``fp`` as CSV: cells joined by commas, each line ending in
    LF, each number as ``repr`` spells it.  A column is a 1-D float or
    integer array; anything else is a ``ValueError``."""
    columns = [_column(c) for c in columns]
    if len(columns) != len(header):
        raise ValueError(f"{len(header)} column names for {len(columns)} columns")
    lengths = {len(c) for c in columns}
    if len(lengths) > 1:
        raise ValueError(f"columns of different lengths {sorted(lengths)}")
    fp.write(",".join(header) + "\n")
    rows = lengths.pop() if lengths else 0
    if not rows:
        return
    # adjacent float columns are formatted as one array, row by row
    runs = []
    for column in columns:
        if runs and column.dtype == runs[-1][-1].dtype == np.float64:
            runs[-1].append(column)
        else:
            runs.append([column])
    seps = _words(f"{'':\0<7}{sep}" for sep in "," * (len(columns) - 1) + "\n")
    step = max(1, _BLOCK // max(len(run) for run in runs))
    ends = np.cumsum([len(run) for run in runs])
    marks = [np.tile(seps[end - len(run):end], step) for run, end in zip(runs, ends)]
    for start in range(0, rows, step):
        fp.write(_block_text([[c[start:start + step] for c in run] for run in runs], marks))
