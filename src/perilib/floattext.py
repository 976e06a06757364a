"""float64 arrays as the exact text CPython gives their values.

Two layouts, each a whole block of text from one array:

* ``csv_table(table, inserts)``: a 2-D table's rows, each field
  ``'%.17g' % v``, fields joined by ``,`` and each row ended by a newline,
  with lines of text between given rows;
* ``json_list(values)``: ``json.dumps`` of the values as a list of floats,
  ``[`` + ``', '.join(...)`` + ``]``, each finite value ``float.__repr__(v)``
  and the others ``NaN``, ``Infinity`` or ``-Infinity``.

The digits come from exact arithmetic in numpy.  k = floor(log10 |v|) is
taken from ``np.log10`` and corrected against x = |v| 10^(16 - k), formed
as a double-double xh + xl: 10^s is split into hi + lo (hi the nearest
double, lo the nearest double to the remainder), hi is split once more by
Veltkamp's rule, and |v| hi is an exact two-product (numpy has no FMA).  x
lies in [1e16, 1e17), and its integer and fractional parts give the p-digit
roundings for p = 17, 16, 15 in int64.  '%.17g' takes p = 17; repr takes
the shortest p whose rounding lies strictly inside the rounding interval
of v, half of ``np.spacing(v)`` either side, since no shorter decimal lies
inside it when the nearest one of that length does not (the interval is
narrower than the gap between 15-digit decimals).

A value is left to Python's own formatter, one at a time, when the vector
path cannot decide it with a proven margin: a non-finite value, a
subnormal or |v| outside [1e-280, 1e280], an x within 1e-6 of a
half-integer at any p (exact ties such as 2**-25 included), a distance
within 1e-9 (relative) of the rounding interval's edge, and, for repr, a
power of two, whose interval is asymmetric.  ±0.0 stays in the vector path.
The error of x is below 1e-14 absolute, so every other value's digits are
decided.  The text is then laid out by one table indexed by (sign,
significant digits, notation, position), applied by one ``take`` per
block of values, and the NUL padding compacted out.
"""

import functools
import json

import numpy as np

# values a pass, and values a block of the layout's gather: each block's
# (BLOCK, WIDTH) intp index, and every array of a pass, stays below glibc's
# default 128 KiB mmap threshold
CHUNK = 2048
BLOCK = 512
WIDTH = 26  # widest field, '-1.2345678901234567e-308', and a 2-byte separator
SPLITTER = 134217729.0  # 2**27 + 1, Veltkamp's split of a double into two halves
TIE_MARGIN = 1e-6  # x this close to a half-integer is left to Python
EDGE_MARGIN = 1e-9  # relative distance to the rounding interval's edge left to Python
LO, HI = 1e-280, 1e280  # |v| outside is left to Python (subnormal 10^s parts)
S_MIN, S_MAX = -266, 298  # 10^s for s = 16 - k, k = floor(log10 |v|) +- 1
X_MIN = -300  # the exponent tables hold X_MIN ... -X_MIN; a decided |v| has |X| <= 281
FORMS = 23  # fixed notation at exponents -4 ... 16, then 2- and 3-digit exponents
MARK = 1  # the byte written in place of a value left to Python

# the bytes of one value's source row, 8 native uint32 words: digit j of
# the 17 at byte 3 + j (each word four digits, "%04d"), the exponent's sign
# and three digits, the constants, the two separator bytes, NUL and MARK
_DIGIT, _EXP_SIGN, _EXP = 3, 20, 21
_MINUS, _DOT, _ZERO, _E, _SEP, _SEP2, _NUL, _MARK = range(24, 32)
_WORDS = 8
# per digit group ("000d", then four digits each), the digits ahead of its
# first, the group's three padding zeros counted off group 0
_GROUP_START = np.array([[-3], [1], [5], [9], [13]], np.int8)


@functools.cache
def _pow10():
    """10^s = hi + lo for s = S_MIN ... S_MAX, hi split into hh + hl: the
    four columns hi, hh, hl, lo, built from Python ints on first use, hi
    the nearest double and lo the nearest double to 10^s - hi.  Like every
    table here, it is cached and read-only."""
    table = np.empty((4, S_MAX - S_MIN + 1))
    for i, s in enumerate(range(S_MIN, S_MAX + 1)):
        if s >= 0:
            hi = float(10**s)
            lo = float(10**s - int(hi))
        else:
            hi = 1 / 10**-s  # int true division rounds correctly
            a, b = hi.as_integer_ratio()
            lo = (b - a * 10**-s) / (b * 10**-s)
        c = SPLITTER * hi
        hh = c - (c - hi)
        table[:, i] = hi, hh, hi - hh, lo
    table.flags.writeable = False
    return table


@functools.cache
def _tables():
    """The lookups of the text: the "%04d" word of 0 ... 9999 and the count
    of its digits up to its last non-zero one (-20 for 0); per exponent
    X - X_MIN its sign-and-three-digits word and its form in each layout
    (fixed notation X + 4, else 21 or 22 by the exponent's digits)."""
    # built by strided byte runs, not 10,000 small objects
    quad, sig = bytearray(40000), bytearray(b"\4" * 10000)
    for j, run in enumerate((1000, 100, 10, 1)):
        quad[j::4] = b"".join(bytes([48 + d]) * run for d in range(10)) * (1000 // run)
    for count, step in ((3, 10), (2, 100), (1, 1000)):
        sig[::step] = bytes([count]) * (10000 // step)
    sig[0] = 256 - 20
    exps = range(X_MIN, -X_MIN + 1)
    exp = "".join(["%+04d" % X for X in exps]).encode()
    forms = [bytes(X + 4 if -4 <= X < limit else 21 + (abs(X) >= 100) for X in exps)
             for limit in (17, 16)]
    return (np.frombuffer(bytes(quad), np.uint32), np.frombuffer(bytes(sig), np.int8),
            np.frombuffer(exp, np.uint32), [np.frombuffer(f, np.uint8) for f in forms],
            np.frombuffer(b"-.0e", np.uint32)[0])


@functools.cache
def _layout(repr_style):
    """The source byte of each output byte, per (sign, significant digits,
    form) and for the mark: a (2 * 17 * FORMS + 1, WIDTH) uint8 table.
    Forms 0 ... 20 are fixed notation at exponent X = form - 4, 21 and 22
    exponent notation with 2 and 3 exponent digits."""
    table = np.full((2 * 17 * FORMS + 1, WIDTH), _NUL, np.uint8)
    table[-1, :3] = _MARK, _SEP, _SEP2
    for key in range(2 * 17 * FORMS):
        neg, s, form = key // (17 * FORMS), key // FORMS % 17 + 1, key % FORMS
        cols = [_MINUS] if neg else []
        digits = [_DIGIT + j for j in range(s)]
        if form <= 20:
            X = form - 4
            if X < 0:
                cols += [_ZERO, _DOT] + [_ZERO] * (-X - 1) + digits
            else:
                # the digits past s are zeros
                whole = [_DIGIT + j for j in range(X + 1)]
                frac = digits[X + 1:]
                if frac:
                    cols += whole + [_DOT] + frac
                else:
                    cols += whole + ([_DOT, _ZERO] if repr_style else [])
        else:
            cols += digits[:1] + ([_DOT] + digits[1:] if s > 1 else [])
            cols += [_E, _EXP_SIGN] + list(range(_EXP + (form == 21), _EXP + 3))
        table[key, :len(cols) + 2] = cols + [_SEP, _SEP2]
    table.flags.writeable = False
    return table


def _scaled(a, i):
    """x = a 10^s as a double-double (xh, xl), for a in [LO, HI] and the
    table index i = s - S_MIN."""
    hi, hh, hl, lo = (col.take(i) for col in _pow10())
    p = a * hi
    c = SPLITTER * a
    ah = c - (c - a)
    al = a - ah
    t = (((ah * hh - p) + ah * hl + al * hh) + al * hl) + a * lo
    xh = p + t
    return xh, t - (xh - p)


def _outside(xh, xl):
    """Whether xh + xl < 1e16 and whether it is >= 1e17, exactly."""
    return ((xh < 1e16) | ((xh == 1e16) & (xl < 0)),
            (xh > 1e17) | ((xh == 1e17) & (xl >= 0)))


def _digits(v, repr_style):
    """Per value of the 1-D float64 array v: the int64 N of its digits,
    padded with zeros to 17, its decimal exponent X and whether the vector
    path decided it."""
    a = np.abs(v)
    ok = (a >= LO) & (a <= HI)
    a[~ok] = 1.0  # a stand-in
    k = np.floor(np.log10(a)).astype(np.intp)
    xh, xl = _scaled(a, 16 - S_MIN - k)
    # np.log10 may be one off near a power of ten: correct k on xh + xl
    low, high = _outside(xh, xl)
    fix = np.flatnonzero(low | high)
    if fix.size:
        k[fix] += high[fix].astype(np.intp) - low[fix]
        xh[fix], xl[fix] = _scaled(a[fix], 16 - S_MIN - k[fix])
        ok[fix] &= ~np.logical_or(*_outside(xh[fix], xl[fix]))
    # xh >= 2**53 is an integer: x = Q + F, F in [0, 1]
    fl = np.floor(xl)
    Q = xh.astype(np.int64) + fl.astype(np.int64)
    F = xl - fl
    ok &= np.abs(F - 0.5) > TIE_MARGIN
    N = Q + (F > 0.5)
    if repr_style:
        # x at p = 16 and 15 digits: q + t, t in [0, 1]; the rounding
        # interval's half-width h there; p digits do when the distance
        # 0.5 - |t - 0.5| to the nearest integer is below h
        h16 = np.spacing(a) * (0.05 * _pow10()[0].take(16 - S_MIN - k))
        h15 = h16 / 10
        q16, r16 = np.divmod(Q, 10)
        t16 = (r16 + F) / 10
        q15, r15 = np.divmod(q16, 10)
        t15 = (r15 + t16) / 10
        u16 = np.abs(t16 - 0.5)
        u15 = np.abs(t15 - 0.5)
        m16 = u16 - (0.5 - h16)  # > 0: the rounding is inside
        m15 = u15 - (0.5 - h15)
        ok &= ((u16 > TIE_MARGIN) & (u15 > TIE_MARGIN) & (np.abs(m16) > EDGE_MARGIN * h16)
               & (np.abs(m15) > EDGE_MARGIN * h15))
        ok &= np.frexp(a)[0] != 0.5  # the interval below a power of two is half as wide
        N = np.where(m15 > 0, (q15 + (t15 > 0.5)) * 100,
                     np.where(m16 > 0, (q16 + (t16 > 0.5)) * 10, N))
    carry = N == 10**17  # rounded up to the next power of ten
    N[carry] = 10**16
    X = k + carry
    zero = v == 0
    N[zero] = 0
    X[zero] = 0
    return N, X, ok | zero


def _render(v, repr_style, sep, sep2):
    """Text of the values of the 1-D float64 array v, each followed by its
    separator bytes (uint8 arrays or scalars, 0 for none)."""
    n = v.size
    N, X, ok = _digits(v, repr_style)
    quad, sig, exp, forms, const = _tables()
    # N's digits in five groups, "%04d" each: digit 0, then 1-4 ... 13-16
    g = np.empty((5, n), np.int64)
    np.divmod(N, 10**16, out=(g[0], N))
    np.divmod(N, 10**8, out=(g[1], g[3]))
    np.divmod(g[1], 10**4, out=(g[1], g[2]))
    np.divmod(g[3], 10**4, out=(g[3], g[4]))
    src = np.empty((n, _WORDS), np.uint32)
    src[:, :5] = quad.take(g).T
    X -= X_MIN
    src[:, 5] = exp[X]
    src[:, 6] = const
    raw = src.view(np.uint8)
    raw[:, _SEP] = sep
    raw[:, _SEP2] = sep2
    raw[:, _NUL] = 0
    raw[:, _MARK] = MARK
    # significant digits: up to the last non-zero group's last non-zero digit
    s = np.maximum((sig.take(g) + _GROUP_START).max(0), 1)
    key = (np.signbit(v) * 17 + s - 1) * FORMS + forms[repr_style][X]
    key[~ok] = 2 * 17 * FORMS
    layout, flat = _layout(repr_style), raw.ravel()
    text = []
    for i in range(0, n, BLOCK):
        rows = np.arange(4 * _WORDS * i, 4 * _WORDS * min(n, i + BLOCK), 4 * _WORDS)
        out = flat.take(layout.take(key[i:i + BLOCK], 0) + rows[:, None])
        text.append(out[out != 0].tobytes().decode("ascii"))
    text = "".join(text)
    if ok.all():
        return text
    spell = json.dumps if repr_style else "%.17g".__mod__
    parts = text.split(chr(MARK))
    spelled = [spell(float(x)) for x in v[~ok]]
    return "".join([p + w for p, w in zip(parts, spelled)] + parts[-1:])


def csv_table(table, inserts=()):
    """The rows of the 2-D float table as CSV text, each field
    ``'%.17g' % v``, fields joined by ``,`` and each row ended by ``\\n``,
    with the text of each (row, text) pair of inserts, in ascending row
    order, written before that row (after the last one for row = rows)."""
    table = np.asarray(table, np.float64)
    rows, cols = table.shape
    per = max(1, CHUNK // cols)  # whole rows a pass
    sep = np.full((per, cols), ord(","), np.uint8)
    sep[:, -1:] = ord("\n")
    parts = []
    inserts = iter(inserts)
    at, text = next(inserts, (None, None))
    for r0 in range(0, rows, per):
        block = table[r0:r0 + per]
        chunk = _render(block.ravel(), False, sep[:len(block)].ravel(), 0)
        if at is not None and at < r0 + len(block):
            ends = [0, *(np.flatnonzero(np.frombuffer(chunk.encode(), np.uint8) == 10) + 1)]
            cut = 0
            while at is not None and at < r0 + len(block):
                parts += [chunk[cut:ends[at - r0]], text]
                cut = ends[at - r0]
                at, text = next(inserts, (None, None))
            chunk = chunk[cut:]
        parts.append(chunk)
    while at is not None:
        parts.append(text)
        at, text = next(inserts, (None, None))
    return "".join(parts)


def json_list(values):
    """``json.dumps`` of the 1-D float array's values as a list of floats."""
    flat = np.asarray(values, np.float64).ravel()
    parts = ["["]
    for i in range(0, flat.size, CHUNK):
        chunk = flat[i:i + CHUNK]
        sep = np.full(chunk.size, ord(","), np.uint8)
        sep2 = np.full(chunk.size, ord(" "), np.uint8)
        if i + CHUNK >= flat.size:  # no separator after the last value
            sep[-1] = sep2[-1] = 0
        parts.append(_render(chunk, True, sep, sep2))
    parts.append("]")
    return "".join(parts)
