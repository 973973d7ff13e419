"""Field CSV output: ``x,delta,u,du`` rows, every value written as ``%.17g``.

Written one value at a time, the text of a field at n ≈ 16k nodes costs more
than its solve: CPython's ``%.17g`` takes its slow bignum path for every
value. This module writes the same bytes with numpy, a block of rows at a
time, and each block goes to the file as soon as it is formatted.

Digits. For a finite normal x with decimal exponent X = ⌊log10 |x|⌋, the 17
significant digits are the integer D nearest to y = |x|·10^(16−X). X is read
from the binary exponent of x and one comparison with a power of ten. With
10^(16−X) = (hi + lo)·2^s, a = |x|·2^s is exact, and y is formed as the
double-double a·hi + a·lo, the first product exact by Dekker's algorithm. The
absolute error of y is below 2^-45, so D is exact unless y lies within that of
a half-integer or of the ends of [10^16, 10^17), where X may also be
misjudged. Values within a wide margin of those cases (2^-36 of a tie, 64 of
either end) are written by ``"%.17g" % x`` itself, as are ±0, subnormals,
infinities and nan. The rows of hi, lo and s are built with exact integer
arithmetic when a field first uses their exponent.

Layout. ``%g`` at precision 17 writes fixed notation for −4 ≤ X < 17 and
``d.ddd…e±XX`` otherwise, without trailing zeros or a bare decimal point.
Each value gets a 32-byte slot of four 8-byte words, filled from tables:

- word 0: sign, the "0.000" prefix of 10^-4 ≤ |x| < 1, the leading digit and,
  in scientific notation and for 1 ≤ |x| < 10, the point;
- words 1-2: the other 16 digits, one byte each;
- word 3: the exponent, and in its last byte the separator; its first byte
  is free.

The table of the last four digits drops their trailing zeros; rows whose last
four digits are all zeros, or whose digits before the point may reach them
(X ≥ 13), are redone. Where the point falls among the 16 digits
(10 ≤ |x| < 10^16), those rows move the digits after it one byte on, into the
free byte. Every byte a value does not use is NUL, and
``bytes.translate`` drops the NULs. The tables are byte strings viewed as
native words, so the layout does not depend on byte order.

Blocks. A block of ROWS_PER_BLOCK rows is filled from the columns, du taken
from x and u for those rows alone, so the writer holds one block's values,
slots and text whatever the field's length.
"""

from __future__ import annotations

import functools
import math
from pathlib import Path

import numpy as np

from .core import GridFunction

__all__ = ["field_csv_text", "write_field_csv"]

_HEADER = b"x,delta,u,du\n"
ROWS_PER_BLOCK = 2048

_TIE_MARGIN = 2.0**-36
_END_MARGIN = 64.0
_X_MAX = 308  # |decimal exponent| of the normal doubles
_NX = 2 * _X_MAX + 1
_SPLIT = 134217729.0  # 2^27 + 1, Veltkamp's splitting constant
_WORD = np.uint64
_SLOT = 4  # words per value
_ABS = np.int64(2**63 - 1)
# the separator of each column: 0 for ",", 1 for a newline
_ROW_SEPS = [0, 0, 0, 1]
_AFTER_LEAD = np.arange(17)  # digit positions after the lead, and the free byte


def _split(a):
    """Veltkamp split: a = hi + lo, each half with at most 26 significant bits."""
    c = _SPLIT * a
    hi = c - (c - a)
    return hi, a - hi


def _words(chunks) -> np.ndarray:
    """8-byte strings, NUL-padded at the start, as native words."""
    return np.frombuffer(b"".join(c.rjust(8, b"\0") for c in chunks), dtype=_WORD)


@functools.cache
def _tables() -> dict[str, np.ndarray]:
    """The layout words. Entry i of a table by exponent is X = i − _X_MAX."""
    # by the top 12 bits of x, its sign and biased exponent e: X_lo + _X_MAX
    # for X_lo = ⌊(e − 1023)·log10 2⌋, and the bits of 10^(X_lo + 1) where
    # that power lies in the binade; X = X_lo + 1 at and above it. A power
    # rounded the other way only sends its double to "%.17g". Zero,
    # subnormals, inf and nan take X = 0 or 1.
    x_lo = np.floor(np.arange(-1023, 1025) * math.log10(2.0)).astype(np.int64)
    tens = 10.0 ** np.minimum(x_lo + 1.0, _X_MAX)
    up = np.where(np.diff(x_lo, append=_X_MAX + 1) > 0, tens, math.inf)
    x_lo[[0, -1]], up[[0, -1]] = 0, math.inf

    xs = np.arange(-_X_MAX, _X_MAX + 1)
    fixed = (-4 <= xs) & (xs < 17)
    # word 0 by sign, kind and lead digit; kind 0 is the bare digit, 1 the
    # digit and the point, 2-5 the digit after "0.", "0.0", "0.00", "0.000"
    prefixes = [b"", b"", b"0.", b"0.0", b"0.00", b"0.000"]
    heads = _words(
        b"-" * neg + prefixes[k] + b"%d" % d + b"." * (k == 1)
        for neg in (0, 1)
        for k in range(6)
        for d in range(10)
    )
    kind = np.where(fixed, np.where(xs > 0, 0, 1 - np.minimum(xs, 0)), 1)
    kind = np.concatenate((kind, kind + 6))[:, None]
    # the four digits of 0..9999, and how many of them are significant
    d = np.indices((10,) * 4, dtype=np.uint8).reshape(4, -1)
    ends = 4 - (d[3] == 0) * (1 + (d[2] == 0) * (1 + (d[1] == 0) * (1 + (d[0] == 0))))
    quads = np.zeros((3, 10000, 8), dtype=np.uint8)
    quads[0, :, :4] = quads[1, :, 4:] = quads[2, :, 4:] = d.T + ord("0")
    quads[2, :, 4:] *= np.arange(4) < ends[:, None]
    keep = np.frombuffer(b"".join((b"\xff" * k).ljust(16, b"\0") for k in range(17)), dtype=_WORD)
    exponents = _words(b"" if f else b"e%+03d\0" % x for x, f in zip(xs.tolist(), fixed.tolist()))
    tables = {
        "x_lo": np.tile(x_lo + _X_MAX, 2),
        "up": np.tile(up.view(np.int64), 2),
        "negative": 10 * _NX * (np.arange(4096) >= 2048),
        # word 0 at 10·(_NX·negative + X + _X_MAX) + lead, and for a lone
        # digit, without the point
        "head": heads[(10 * kind + np.arange(10)).ravel()],
        "bare": heads[(10 * (kind - (kind % 6 == 1)) + np.arange(10)).ravel()],
        # words 1 and 2 from digit groups 0 | 1 and 2 | 3, each of 0..9999;
        # "trimmed" without its trailing zeros
        "first": quads[0].view(_WORD).ravel(),
        "last": quads[1].view(_WORD).ravel(),
        "trimmed": quads[2].view(_WORD).ravel(),
        # the digits after the lead up to the last significant one, at
        # 10000·group + its value
        "ends": np.concatenate([ends + 4 * j * (ends > 0) for j in range(4)]).astype(np.uint8),
        # words 1 and 2 that keep the first k of the 16 digits
        "keep1": keep[0::2].copy(),
        "keep2": keep[1::2].copy(),
        # the digits after the lead that fixed notation keeps before the point
        "whole": np.where(fixed & (xs > 0), xs, 0),
        # word 3 at _NX·separator + X + _X_MAX
        "tail": np.concatenate([exponents | _words([sep]) for sep in (b",", b"\n")]),
    }
    for arr in tables.values():
        arr.setflags(write=False)
    return tables


@functools.cache
def _power(i: int) -> tuple[float, ...]:
    """10^(16−X) = (hi + lo)·2^s for X = i − _X_MAX: hi, its halves hh + hl,
    lo, and the float whose bits are s·2^52, the bits that add s to an
    exponent.

    Exact integer arithmetic: int / int is correctly rounded, so hi is
    10^k/2^s rounded and lo is the rounded remainder.
    """
    k = 16 + _X_MAX - i
    num, den = 10 ** max(k, 0), 10 ** max(-k, 0)
    e = num.bit_length() - den.bit_length()
    if (num << max(-e, 0)) < (den << max(e, 0)):
        e -= 1
    num <<= max(-e, 0)
    den <<= max(e, 0)
    hi = num / den
    a, b = hi.as_integer_ratio()
    shift = float(np.int64(e << 52).view(np.float64))
    return (hi, *_split(hi), (num * b - a * den) / (den * b), shift)


class _Work:
    """Arrays for up to ``n`` values, reused block after block, of whole rows;
    and the rows of _power a field has used."""

    def __init__(self, n: int):
        self.seps = np.tile(_NX * np.array(_ROW_SEPS), n // len(_ROW_SEPS))
        self.powers = np.zeros((_NX, 5))
        self.built = np.zeros(_NX, dtype=bool)
        self.f = np.empty((6, n))
        self.i = np.empty((10, n), dtype=np.int64)
        self.u = np.empty((4, n), dtype=_WORD)
        self.b = np.empty((4, n), dtype=bool)

    def fill_powers(self, i10: np.ndarray) -> None:
        """Fill the rows of ``powers`` that ``i10`` uses and that are empty."""
        if self.built[i10.min() : i10.max() + 1].all():
            return
        new = np.flatnonzero((np.bincount(i10, minlength=_NX) > 0) & ~self.built)
        if new.size:
            self.powers[new] = [_power(i) for i in new.tolist()]
            self.built[new] = True


def _slots(v: np.ndarray, out: np.ndarray, work: _Work) -> None:
    """Write the slots of the contiguous floats ``v`` to ``out``, (v.size, 4)
    words; value i ends in the separator at ``work.seps[i]``."""
    t = _tables()
    n = v.size
    bits = v.view(np.int64)
    a, p, ah, al, r, w = work.f[:, :n]
    top, i10, d, high, lead, q0, q1, q2, q3, k = work.i[:, :n]
    w1, w2, w3, head = work.u[:, :n]
    up, slow, mid, flag = work.b[:, :n]
    # each value's row of powers, in the rows d..q1, which no step writes
    # until y is formed
    pw = work.i[2:7].reshape(-1)[: 5 * n].view(np.float64).reshape(n, 5)
    ai = a.view(np.int64)
    # Each step writes into ``work``: a block frees nothing for glibc to hand
    # back and fault in again. Every index is in range by construction, and
    # mode="clip" spares np.take its check and buffer.
    np.right_shift(bits, 52, out=top)
    top &= 0xFFF
    np.bitwise_and(bits, _ABS, out=ai)
    np.greater_equal(ai, np.take(t["up"], top, out=k, mode="clip"), out=up)
    np.take(t["x_lo"], top, out=i10, mode="clip")
    i10 += up
    work.fill_powers(i10)

    # y = a·hi + a·lo = p + r, with p + err = a·hi exactly. Zero, subnormals,
    # inf and nan scale to tiny values and fail the range test.
    np.take(work.powers, i10, axis=0, out=pw, mode="clip")
    ai += pw[:, 4].view(np.int64)
    hh, hl = pw[:, 1], pw[:, 2]
    np.multiply(a, pw[:, 0], out=p)
    np.multiply(a, _SPLIT, out=ah)  # the Veltkamp split a = ah + al
    np.subtract(ah, a, out=al)
    ah -= al
    np.subtract(a, ah, out=al)
    np.multiply(ah, hh, out=r)
    r -= p
    r += np.multiply(ah, hl, out=w)
    r += np.multiply(al, hh, out=w)
    r += np.multiply(al, hl, out=w)
    r += np.multiply(a, pw[:, 3], out=w)
    rr = np.rint(r, out=ah)
    r -= rr
    np.greater_equal(np.abs(r, out=r), 0.5 - _TIE_MARGIN, out=slow)
    slow |= np.less(p, 1e16 + _END_MARGIN, out=flag)
    slow |= np.greater_equal(p, 1e17 - _END_MARGIN, out=flag)
    # p is an integer above 2^53, so the sum is taken in int64
    np.copyto(d, p, casting="unsafe")
    np.copyto(k, rr, casting="unsafe")
    d += k
    np.copyto(d, 10**16, where=slow)

    # D = lead·10^16 + the 16 digits after it, in groups q0..q3 of four
    np.floor_divide(d, 10**8, out=high)
    d -= np.multiply(high, 10**8, out=k)
    np.floor_divide(high, 10**8, out=lead)
    high -= np.multiply(lead, 10**8, out=k)
    np.floor_divide(high, 10**4, out=q0)
    np.subtract(high, np.multiply(q0, 10**4, out=k), out=q1)
    np.floor_divide(d, 10**4, out=q2)
    np.subtract(d, np.multiply(q2, 10**4, out=k), out=q3)
    np.take(t["first"], q0, out=w1, mode="clip")
    w1 |= np.take(t["last"], q1, out=w3, mode="clip")
    np.take(t["first"], q2, out=w2, mode="clip")
    w2 |= np.take(t["trimmed"], q3, out=w3, mode="clip")
    lead += np.multiply(i10, 10, out=k)  # now word 0's row
    lead += np.take(t["negative"], top, out=k, mode="clip")
    np.take(t["head"], lead, out=head, mode="clip")
    np.take(t["tail"], np.add(i10, work.seps[:n], out=k), out=w3, mode="clip")
    # the point among the 16 digits: fixed notation with 1 ≤ X ≤ 15
    np.less(np.subtract(i10, _X_MAX + 1, out=k).view(np.uint64), 15, out=mid)

    # redo the trailing zeros where the last group is 0000, and where digits
    # before the point may reach into it (X ≥ 13)
    np.greater(i10, _X_MAX + 12, out=flag)
    flag |= np.equal(q3, 0, out=up)
    z = np.flatnonzero(flag)
    if z.size:
        q = q0[z], q1[z], q2[z], q3[z]
        ends = t["ends"]
        nd = np.maximum(ends[q[0]], ends[q[1] + 10000])  # digits after the lead
        nd = np.maximum(nd, np.maximum(ends[q[2] + 20000], ends[q[3] + 30000]))
        whole = t["whole"][i10[z]]
        keep = np.maximum(nd, whole)
        w1[z] &= t["keep1"][keep]
        w2[z] = (t["first"][q[2]] | t["last"][q[3]]) & t["keep2"][keep]
        mid[z] &= nd > whole
        lone = z[nd == 0]
        head[lone] = t["bare"][lead[lone]]

    out[:, 0] = head
    out[:, 1] = w1
    out[:, 2] = w2
    out[:, 3] = w3
    text = out.view(np.uint8)
    rows = np.flatnonzero(mid)
    if rows.size:
        # bytes 8-24 of a slot: the 16 digits and word 3's free byte; the
        # point goes to byte 8 + X, and the digits from there on move up one
        seg = text[rows]
        at = i10[rows, None] - _X_MAX
        digits = np.where(_AFTER_LEAD > at, seg[:, 7:24], seg[:, 8:25])
        np.copyto(digits, ord("."), where=_AFTER_LEAD == at)
        seg[:, 8:25] = digits
        text[rows] = seg
    for i in np.flatnonzero(slow):
        s = ("%.17g" % v[i]).encode("ascii")
        text[i, :31] = 0  # all but the separator
        text[i, : len(s)] = np.frombuffer(s, dtype=np.uint8)


class _Du:
    """du of a field, sliced a block at a time: the centered difference
    quotient at interior nodes and the one-sided quotient at the endpoints."""

    def __init__(self, x: np.ndarray, v: np.ndarray):
        self.x, self.v = x, v

    def __getitem__(self, nodes: slice) -> np.ndarray:
        x, v = self.x, self.v
        start, stop, _ = nodes.indices(x.size)
        du = np.empty(stop - start)
        a, b = max(start, 1), min(stop, x.size - 1)  # the interior nodes
        inner = np.subtract(v[a + 1 : b + 1], v[a - 1 : b - 1], out=du[a - start : b - start])
        inner /= x[a + 1 : b + 1] - x[a - 1 : b - 1]
        if start == 0:
            du[0] = (v[1] - v[0]) / (x[1] - x[0])
        if stop == x.size:
            du[-1] = (v[-1] - v[-2]) / (x[-1] - x[-2])
        return du


def _blocks(columns):
    """The CSV rows of four columns, each sliceable into float arrays, one
    block of bytes at a time."""
    n = len(columns[0])
    step = min(ROWS_PER_BLOCK, n)
    block = np.empty((step, 4))
    buf = bytearray(step * 4 * _SLOT * 8)
    slots = np.frombuffer(buf, dtype=_WORD).reshape(-1, _SLOT)
    work = _Work(4 * step)
    for s in range(0, n, step):
        m = min(step, n - s)
        for j, col in enumerate(columns):
            block[:m, j] = col[s : s + m]
        _slots(block[:m].reshape(-1), slots[: 4 * m], work)
        slots[4 * m :] = 0  # the rows a short last block leaves
        yield buf.translate(None, b"\0")


def _csv_blocks(u: GridFunction):
    """The field CSV of ``u`` in blocks of bytes, the header first."""
    x, v = u.grid.nodes, u.values
    yield _HEADER
    yield from _blocks((x, u.grid.delta_nodes, v, _Du(x, v)))


def field_csv_text(u: GridFunction) -> str:
    """CSV dump of a grid function: x, delta, u, du (17 significant digits).

    du is the centered difference quotient at interior nodes and the one-sided
    quotient at the endpoints. Every value is written as ``"%.17g" % value``.
    """
    return "".join([block.decode("ascii") for block in _csv_blocks(u)])


def write_field_csv(path: Path, u: GridFunction) -> None:
    """Write the bytes of ``field_csv_text(u)`` to ``path``, block by block.

    Each block of rows is written as soon as it is formatted, so the writer
    holds one block's text whatever the field's length.
    """
    # The blocks as they are: in-process `nonlinear` passes (2 CPUs) that
    # joined them first took 2.7-3.4k minor page faults a pass against
    # 0.3-0.7k, and 6-9 % more time.
    with open(path, "wb") as f:
        f.writelines(_csv_blocks(u))
