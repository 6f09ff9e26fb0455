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

A block of rows is laid out in one uint64 frame with a fixed number of
words per cell and NUL bytes wherever a cell is shorter than its words;
one ``bytes.translate`` drops the NULs and one ``decode`` makes the text.
The scratch memory is bounded by ``_BLOCK`` cells at any row count.
"""

from __future__ import annotations

import functools

import numpy as np

__all__ = ["write_columns"]

#: cells laid out per block; it keeps the scratch arrays near 2 MB
_BLOCK = 1 << 13

_U = np.uint64
_M32, _M63 = _U(2**32 - 1), _U(2**63 - 1)
_S1, _S2, _S32, _S52, _S63, _S64 = (_U(n) for n in (1, 2, 32, 52, 63, 64))
#: k = floor(log10(2^q)) over the binary exponents q of finite doubles
_K_MIN, _K_MAX = -324, 292
#: the decimal exponents of the leading digits of nonzero finite doubles
_E_MIN, _E_MAX = -324, 308
#: words per float cell: the sign, a "0.000" prefix, the leading digit and
#: its dot; four words of four digits, each digit with a dot slot; the
#: "e+308" suffix, with the separator in its last byte
_FLOAT_WORDS = 6
_SPECIALS = ("nan", "inf", "-inf", "0.0", "-0.0")


def _flog10pow2(q):
    """floor(log10(2^q)) for |q| <= 5456721, on ints or int64 arrays."""
    return (q * 661971961083) >> 41


def _flog10_three_quarters_pow2(q):
    """floor(log10(3/4 2^q))."""
    return (q * 661971961083 - 274743187321) >> 41


def _flog2pow10(e):
    """floor(log2(10^e)) for |e| <= 1233."""
    return (e * 913124641741) >> 38


def _words(chunks, dtype=np.uint64) -> np.ndarray:
    """Machine words from strings of their bytes."""
    return np.frombuffer("".join(chunks).encode("latin-1"), dtype=dtype).copy()


@functools.cache
def _tables() -> dict:
    """The formatter's tables, built with Python ints and strings on first
    use.

    - ``g1``, ``g0``: at k - _K_MIN, g = floor(10^-k 2^-r) + 1 with
      2^125 <= 10^-k 2^-r < 2^126, split as g = g1 2^63 + g0;
    - ``quad``: the four digits of 0..9999, each followed by a dot;
    - ``zeros``: the trailing zeros of 0..9999 as four digits, 4 for 0;
    - ``head``: at (E - _E_MIN) * 2 + sign, the sign and the "0.00" prefix
      of a positional value below 1 with leading digit at 10^E;
    - ``lead``: the leading digit and a dot after it;
    - ``tail``: at E - _E_MIN, the exponent suffix, if any;
    - ``keep``: in column end * 17 + dot + 1, the masks of the first five
      words of a float cell that keep its first ``end`` digits and the dot
      after digit ``dot``, if dot >= 0;
    - ``special``: the float cells of ``_SPECIALS``;
    - ``int``, ``int_lead``, ``int_last``: 0..9999 as four digits, with
      leading zeros, with NULs for them, and with NULs but "0" for 0.
    """
    g1, g0 = [], []
    for k in range(_K_MIN, _K_MAX + 1):
        r = _flog2pow10(-k) - 125
        g = (10 ** max(-k, 0) << max(-r, 0)) // (10 ** max(k, 0) << max(r, 0)) + 1
        g1.append(g >> 63)
        g0.append(g & (2**63 - 1))
    quads = [f"{i:04d}" for i in range(10000)]
    unpadded = [q.lstrip("0").rjust(4, "\0") for q in quads]
    head, tail = [], []
    for e in range(_E_MIN, _E_MAX + 1):
        prefix = "0." + "0" * (-e - 1) if -4 <= e < 0 else ""
        head += [f"\0{prefix:\0<7}", f"-{prefix:\0<7}"]
        tail.append(f"{'' if -4 <= e < 16 else f'e{e:+03d}':\0<8}")
    on = {False: "\0", True: "\xff"}
    keep = ["\xff" * 7 + on[dot == 0] + "".join(on[i < end] + on[i == dot] for i in range(1, 17))
            for end in range(18) for dot in range(-1, 16)]
    special = [f"{text:\0<{8 * _FLOAT_WORDS}}" for text in _SPECIALS]
    return {
        "g1": np.array(g1, dtype=np.uint64),
        "g0": np.array(g0, dtype=np.uint64),
        "quad": _words(".".join(q) + "." for q in quads),
        "zeros": np.array([len(q) - len(q.rstrip("0")) for q in quads], dtype=np.uint8),
        "head": _words(head),
        "lead": _words(f"\0\0\0\0\0\0{d}." for d in range(10)),
        "tail": _words(tail),
        "keep": _words(keep).reshape(-1, 5).T.copy(),
        "special": _words(special).reshape(-1, _FLOAT_WORDS),
        "int": _words(quads, np.uint32),
        "int_lead": _words(unpadded, np.uint32),
        "int_last": _words(["\0\0\0" + "0"] + unpadded[1:], np.uint32),
    }


def _limbs(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    return a & _M32, a >> _S32


def _mul_hi(a: tuple, b: tuple) -> np.ndarray:
    """The high 64 bits of a * b for uint64 arrays given as their (low,
    high) 32-bit limbs; the low 64 bits are numpy's wrapping a * b."""
    ll, hl, lh = a[0] * b[0], a[1] * b[0], a[0] * b[1]
    mid = ll >> _S32
    mid += hl & _M32
    mid += lh & _M32
    hi = a[1] * b[1]
    hi += hl >> _S32
    hi += lh >> _S32
    hi += mid >> _S32
    return hi


def _shifted(g: np.ndarray, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """g 2^s as 128-bit (high, low) words, for s in 1..5."""
    return g >> (_S64 - s), g << s


def _add(hi, lo, d: tuple, sign: int):
    """(hi, lo) + sign * d in 128 bits."""
    if sign > 0:
        out = lo + d[1]
        return hi + d[0] + (out < lo), out
    return hi - d[0] - (lo < d[1]), lo - d[1]


def _round_odd(x1, y1, y0) -> np.ndarray:
    """g cp 2^-127 rounded to odd (Schubfach's rop), from x1 = hi(g0 cp)
    and (y1, y0) = g1 cp, with g = g1 2^63 + g0."""
    z = (y0 >> _S1) + x1
    return (y1 + (z >> _S63)) | ((z & _M63) != 0)


def _decompose(bits: np.ndarray):
    """x = c 2^q for the bit patterns of finite nonzero x: c, Schubfach's
    decimal exponent k and shift h, and whether x is a power of two above
    the subnormals, where the gap below x is half the gap above it."""
    t = bits & _U(2**52 - 1)
    bq = ((bits >> _S52) & _U(0x7FF)).view(np.int64)
    c = t | ((bq > 0) * _U(2**52))
    q = np.maximum(bq, 1) - 1075
    k = _flog10pow2(q)
    irregular = (t == 0) & (bq > 1)
    if irregular.any():
        k = np.where(irregular, _flog10_three_quarters_pow2(q), k)
    h = (q + _flog2pow10(-k) + 2).view(np.uint64)
    return c, k, h, irregular


def _scaled(c, k, h, irregular) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """x and the ends of its rounding interval times 4 10^-k, rounded to
    odd: Schubfach's vb, vbl and vbr."""
    tables = _tables()
    g1, g0 = tables["g1"][k - _K_MIN], tables["g0"][k - _K_MIN]
    cp = c << (h + _S2)
    limbs = _limbs(cp)
    a_hi, a_lo = _mul_hi(_limbs(g0), limbs), g0 * cp
    b_hi, b_lo = _mul_hi(_limbs(g1), limbs), g1 * cp
    vb = _round_odd(a_hi, b_hi, b_lo)
    # the interval's ends are (4c + 2) 2^h and (4c - 2) 2^h, or (4c - 1) 2^h
    # at an irregular x; g times them is g 4c 2^h plus or minus a shifted g
    shift = h + _S1
    d0, d1 = _shifted(g0, shift), _shifted(g1, shift)
    vbr = _round_odd(_add(a_hi, a_lo, d0, 1)[0], *_add(b_hi, b_lo, d1, 1))
    if irregular.any():
        shift -= irregular
        d0, d1 = _shifted(g0, shift), _shifted(g1, shift)
    vbl = _round_odd(_add(a_hi, a_lo, d0, -1)[0], *_add(b_hi, b_lo, d1, -1))
    return vb, vbl, vbr


def _shortest(bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(f, k) with |x| = f 10^k, for the bit patterns of finite nonzero x:
    of the shortest decimals that read back to x, the closest."""
    c, k, h, irregular = _decompose(bits)
    vb, vbl, vbr = _scaled(c, k, h, irregular)
    # the ends read back to x when c is even
    odd = c & _S1
    vbl += odd
    vbr -= odd
    s = vb >> _S2
    # one digit fewer, u' = 10 floor(s / 10) or w' = u' + 10, when just one
    # of them is in the interval
    sp10 = s // _U(10) * _U(10)
    upin = vbl <= sp10 << _S2
    wpin = (sp10 + _U(10)) << _S2 <= vbr
    # else u = s or w = s + 1, whichever is in the interval, or the closer
    uin = vbl <= s << _S2
    win = (s + _S1) << _S2 <= vbr
    mid = (s << _S2) + _S2
    closer_u = (vb < mid) | ((vb == mid) & ((s & _S1) == 0))
    take_u = np.where(uin != win, uin, closer_u)
    f = np.where(upin != wpin, sp10 + ~upin * _U(10), s + ~take_u)
    return f, k


def _float_words(x: np.ndarray, seps: np.ndarray) -> np.ndarray:
    """The words of the float64 cells x as a (_FLOAT_WORDS, n) uint64
    array, word j of every cell in row j.  Cell i ends with the separator
    word ``seps[i % seps.size]``: x holds whole table rows, one separator
    per column."""
    tables = _tables()
    bits = x.view(np.uint64)
    special = ~np.isfinite(x) | (x == 0)
    any_special = special.any()
    if any_special:
        bits = np.where(special, _U(0x3FF << 52), bits)  # 1.0, overwritten below
    f, k = _shortest(bits)
    # f has 16 or 17 digits, or fewer for subnormals; scale it to 17
    if (f < _U(10**15)).any():
        digits = np.searchsorted(10 ** np.arange(20, dtype=np.uint64), f, side="right")
        f *= (10 ** (17 - digits)).astype(np.uint64)
    else:
        short = f < _U(10**16)
        digits = 17 - short
        f *= _U(1) + short * _U(9)
    e = k + (digits - 1)
    lead = f // _U(10**16)
    f -= lead * _U(10**16)
    quads = np.empty((4, x.size), dtype=np.uint64)
    np.floor_divide(f, _U(10**8), out=quads[1])
    quads[3] = f - quads[1] * _U(10**8)
    np.floor_divide(quads[1::2], _U(10**4), out=quads[0::2])
    quads[1::2] -= quads[0::2] * _U(10**4)
    quads = quads.view(np.int64)
    # n: the significant digits, 17 less the trailing zeros of the quads
    zeros = tables["zeros"][quads]
    trailing = zeros[0]
    for i in range(1, 4):
        trailing = zeros[i] + (quads[i] == 0) * trailing
    n = 17 - trailing.astype(np.int64)
    # 1 <= |x| < 1e16 shows every integer digit and at least one more; the
    # dot follows digit ``dot``, or sits in the "0." prefix (1e-4 <= |x| < 1)
    # or is left out (one digit in exponent form), with dot = -1
    wide = e.view(np.uint64) < _U(16)
    end = np.where(wide, np.maximum(n, e + 2), n)
    dot = np.where(wide, e, ((n == 1) | ((e + 4).view(np.uint64) < _U(4))) * -1)
    words = np.empty((_FLOAT_WORDS, x.size), dtype=np.uint64)
    row = e - _E_MIN
    np.bitwise_or(tables["head"][row * 2 + (bits >> _S63).view(np.int64)],
                  tables["lead"][lead.view(np.int64)], out=words[0])
    np.take(tables["quad"], quads, out=words[1:5], mode="clip")
    words[:5] &= np.take(tables["keep"], end * 17 + dot + 1, axis=1)
    words[5] = tables["tail"][row]
    if any_special:
        y = x[special]
        words[:, special] = tables["special"][
            np.where(np.isnan(y), 0, np.where(np.isinf(y), 1, 3) + np.signbit(y))].T
    words[5].reshape(-1, seps.size)[...] |= seps
    return words


def _int_words(x: np.ndarray) -> np.ndarray:
    """The uint64 frame of the int64 values x, in 4-byte slots: the sign,
    as many four-digit slots as the largest |x| needs, and NULs to fill
    the last word but for its last byte, the separator's."""
    tables = _tables()
    quads = -(-len(str(max(int(x.max()), -int(x.min())))) // 4)
    words = np.zeros((x.size, (quads + 3) // 2), dtype=np.uint64)
    slots = words.view(np.uint32)
    neg = x < 0
    u = x.view(np.uint64)
    u = np.where(neg, _U(0) - u, u)
    parts = []
    for _ in range(quads):
        u, part = u // _U(10**4), u % _U(10**4)
        parts.append(part.view(np.int64))
    slots[:, 0] = neg * _words("\0\0\0-", np.uint32)[0]
    started = np.zeros(x.size, dtype=bool)
    for i, part in enumerate(reversed(parts), 1):
        first = tables["int_last" if i == quads else "int_lead"][part]
        slots[:, i] = np.where(started, tables["int"][part], first)
        started |= part != 0
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


def _is_float(column: np.ndarray) -> bool:
    return column.dtype == np.float64


def _block_text(runs: list, seps: np.ndarray) -> str:
    """The CSV lines of one block of rows, given as runs of columns (one
    float run is formatted as one array) and the separator word of each
    column."""
    parts = []
    at = 0
    for run in runs:
        marks, at = seps[at:at + len(run)], at + len(run)
        if _is_float(run[0]):
            cells = np.stack(run, axis=1)
            # the cells' words as (row, column, word), as the frame holds them
            words = _float_words(cells.ravel(), marks).T.reshape(len(cells), len(run), -1)
        else:
            words = _int_words(run[0])
            words[:, -1] |= marks
            words = words[:, None, :]
        parts.append(words)
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
        if runs and _is_float(column) and _is_float(runs[-1][-1]):
            runs[-1].append(column)
        else:
            runs.append([column])
    seps = _words(f"{'':\0<7}{sep}" for sep in "," * (len(columns) - 1) + "\n")
    step = max(1, _BLOCK // len(columns))
    for start in range(0, rows, step):
        fp.write(_block_text([[c[start:start + step] for c in run] for run in runs], seps))
