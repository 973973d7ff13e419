"""Field CSV output: ``x,delta,u,du`` rows, every value written as ``%.17g``.

Written one value at a time, the text of a field at n ≈ 16k nodes costs more
than its solve: CPython's ``%.17g`` takes its slow bignum path for every
value. This module writes the same bytes with numpy, a block of rows at a
time.

Digits. For a finite normal x with decimal exponent X = ⌊log10 |x|⌋, the 17
significant digits are the integer D nearest to y = |x|·10^(16−X). With
10^(16−X) = (hi + lo)·2^s from a table, a = |x|·2^s is exact, and y is formed
as the double-double a·hi + a·lo, the first product exact by Dekker's
algorithm. The absolute error of y is below 2^-45, so D is exact unless y lies
within that of a half-integer or of the ends of [10^16, 10^17), where log10
may also have misjudged X. Values within a wide margin of those cases (2^-36
of a tie, 64 of either end) are written by ``"%.17g" % x`` itself, as are ±0,
subnormals, infinities and nan.

Layout. ``%g`` at precision 17 writes fixed notation for −4 ≤ X < 17 and
``d.ddd…e±XX`` otherwise, without trailing zeros or a bare decimal point.
Each value gets a 48-byte slot of six 8-byte words, filled from tables:

- word 0: sign, the "0.000" prefix of 10^-4 ≤ |x| < 1, and in its last byte
  the leading digit;
- words 1-4: the other 16 digits, each after a byte that holds the decimal
  point if it falls there;
- word 5: the exponent, and in its last byte the separator.

Every byte the value does not use is NUL, and the NULs are dropped at the
end. The tables are byte strings viewed as native words, so the layout does
not depend on byte order.
"""

from __future__ import annotations

import functools
from pathlib import Path

import numpy as np

from .core import GridFunction

__all__ = ["field_csv_text", "write_field_csv"]

_HEADER = "x,delta,u,du\n"
ROWS_PER_BLOCK = 2048

_TIE_MARGIN = 2.0**-36
_END_MARGIN = 64.0
_X_MAX = 308  # |decimal exponent| of the normal doubles
_SPLIT = 134217729.0  # 2^27 + 1, Veltkamp's splitting constant
_WORD = np.uint64


def _split(a):
    """Veltkamp split: a = hi + lo, each half with at most 26 significant bits."""
    c = _SPLIT * a
    hi = c - (c - a)
    return hi, a - hi


def _words(chunks) -> np.ndarray:
    """8-byte strings, NUL-padded at the end, as native words."""
    return np.frombuffer(b"".join(c.ljust(8, b"\0") for c in chunks), dtype=_WORD)


@functools.cache
def _tables() -> dict[str, np.ndarray]:
    """Powers of ten and layout words, built on first use.

    The powers use exact integer arithmetic: int / int is correctly rounded,
    so hi is 10^k/2^s rounded and lo is the rounded remainder. Entry i is
    k = 16 − X for X = i − _X_MAX.
    """
    ks = range(16 + _X_MAX, 16 - _X_MAX - 1, -1)
    hi = np.empty(len(ks))
    lo = np.empty(len(ks))
    s = np.empty(len(ks), dtype=np.int32)  # ldexp's native exponent type
    for i, k in enumerate(ks):
        num, den = 10 ** max(k, 0), 10 ** max(-k, 0)
        e = num.bit_length() - den.bit_length()
        if (num << max(-e, 0)) < (den << max(e, 0)):
            e -= 1
        num <<= max(-e, 0)
        den <<= max(e, 0)
        h = num / den
        a, b = h.as_integer_ratio()
        hi[i], lo[i], s[i] = h, (num * b - a * den) / (den * b), e
    hh, hl = _split(hi)
    # the ASCII digits of 0..9999 at the odd bytes of a word
    digits = (np.arange(10000)[:, None] // np.array([1000, 100, 10, 1]) % 10).astype(np.uint8)
    quad = np.zeros((10000, 8), dtype=np.uint8)
    quad[:, 1::2] = digits + ord("0")
    zeros = np.argmax(digits[:, ::-1] != 0, axis=1).astype(np.int8)
    zeros[0] = 4
    xs = range(-_X_MAX, _X_MAX + 1)
    fixed = [-4 <= x < 17 for x in xs]
    # digits before the decimal point: none below 1, where the "0.000"
    # prefix carries the point
    whole = np.array([x + 1 if f else 1 for x, f in zip(xs, fixed)])
    prefix = np.array([1 - x if f and x < 0 else 0 for x, f in zip(xs, fixed)])
    tables = {
        "hh": hh,
        "hl": hl,
        "lo": lo,
        "s": s,
        "whole": whole,
        # word 0 at 60·negative + 10·prefix length + leading digit
        "head_at": 10 * prefix,
        "head": _words(
            (b"-" * neg + b"0.000"[:n]).ljust(7, b"\0") + b"%d" % d
            for neg in (0, 1)
            for n in range(6)
            for d in range(10)
        ),
        # words 1-4 by 4-digit group, and the group's trailing zero digits
        "quad": quad.view(_WORD).ravel(),
        "zeros": zeros,
        # word j keeps the first c − 4j − 1 of c digits (lead excluded)
        "keep": _words(
            b"\xff" * 2 * min(max(c - 4 * j - 1, 0), 4) for j in range(4) for c in range(18)
        ).reshape(4, 18),
        # the decimal point before digit c + 1 of a word
        "point": _words(b"\0" * 2 * c + b"." for c in range(4)),
        "exponent": _words(b"" if f else b"e%+03d" % x for x, f in zip(xs, fixed)),
        "comma": _words([b"\0" * 7 + b","]),
        "newline": _words([b"\0" * 7 + b"\n"]),
    }
    for arr in tables.values():
        arr.setflags(write=False)
    return tables


def _format_block(vals: np.ndarray) -> bytes:
    """The ``%.17g`` text of a (rows, 4) float block as CSV rows."""
    t = _tables()
    v = vals.ravel()
    n = v.size
    a = np.abs(v)
    normal = (a >= np.finfo(np.float64).smallest_normal) & (a <= np.finfo(np.float64).max)
    a[~normal] = 1.0
    i10 = np.floor(np.log10(a)).astype(np.int64) + _X_MAX

    # y = a·hi + a·lo = p + r, with hi = hh + hl and p + e = a·hi exactly
    hh, hl = t["hh"][i10], t["hl"][i10]
    a = np.ldexp(a, t["s"][i10])
    p = a * (hh + hl)
    ah, al = _split(a)
    r = ((ah * hh - p) + ah * hl + al * hh) + al * hl + a * t["lo"][i10]
    fast = (
        normal
        & (p >= 1e16 + _END_MARGIN)
        & (p < 1e17 - _END_MARGIN)
        & (np.abs(r - np.floor(r) - 0.5) > _TIE_MARGIN)
    )
    # p is an integer above 2^53, so the sum is taken in int64
    d = np.where(fast, p, 1e16).astype(np.int64)
    d += np.where(fast, np.rint(r), 0).astype(np.int64)

    # the digits: D = lead·10^16 + groups, and how many are significant
    top, low = np.divmod(d, 10**8)
    lead, top = np.divmod(top, 10**8)
    groups = np.divmod(top, 10**4) + np.divmod(low, 10**4)
    zeros = t["zeros"]
    tz = zeros[groups[3]]
    run = groups[3] == 0
    for g in groups[2::-1]:
        tz += run * zeros[g]
        run &= g == 0
    nd = 17 - tz

    whole = t["whole"][i10]
    keep = np.maximum(nd, whole)
    out = np.empty((n, 6), dtype=_WORD)
    out[:, 0] = t["head"][60 * (v < 0) + t["head_at"][i10] + lead]
    for j, g in enumerate(groups):
        out[:, j + 1] = t["quad"][g] & t["keep"][j, keep]
    rows = np.flatnonzero((nd > whole) & (whole > 0))
    at = whole[rows] - 1
    out[rows, 1 + at // 4] |= t["point"][at % 4]
    out[:, 5] = t["exponent"][i10]
    rows4 = out.reshape(-1, 4, 6)
    rows4[:, :3, 5] |= t["comma"]
    rows4[:, 3, 5] |= t["newline"]

    text = out.view(np.uint8)
    for i in np.flatnonzero(~fast):
        s = ("%.17g" % v[i]).encode("ascii")
        text[i, :47] = 0  # all but the separator
        text[i, : len(s)] = np.frombuffer(s, dtype=np.uint8)
    return text.tobytes().translate(None, b"\0")


def _table(u: GridFunction) -> np.ndarray:
    """The (n, 4) columns x, delta, u, du; du is the centered difference
    quotient at interior nodes and the one-sided quotient at the endpoints."""
    x, v = u.grid.nodes, u.values
    du = np.empty_like(v)
    du[1:-1] = (v[2:] - v[:-2]) / (x[2:] - x[:-2])
    du[0] = (v[1] - v[0]) / (x[1] - x[0])
    du[-1] = (v[-1] - v[-2]) / (x[-1] - x[-2])
    return np.column_stack((x, u.grid.delta_nodes, v, du))


def _rows(table: np.ndarray):
    """The CSV rows of a (rows, 4) float table, one block of text at a time."""
    for start in range(0, table.shape[0], ROWS_PER_BLOCK):
        yield _format_block(table[start : start + ROWS_PER_BLOCK]).decode("ascii")


def field_csv_text(u: GridFunction) -> str:
    """CSV dump of a grid function: x, delta, u, du (17 significant digits).

    du is the centered difference quotient at interior nodes and the one-sided
    quotient at the endpoints. Every value is written as ``"%.17g" % value``.
    """
    return _HEADER + "".join(_rows(_table(u)))


def write_field_csv(path: Path, u: GridFunction) -> None:
    # One string rather than a stream of blocks: freed one by one, the blocks
    # let glibc trim its heap, and the solves that follow fault it back in.
    # A `nonlinear` benchmark pass took 33-39k minor page faults that way,
    # against 3.8k.
    path.write_text(field_csv_text(u), encoding="utf-8")
