"""Shared file plumbing: :func:`read_text` reads every input file (LF, CRLF and CR the only
line ends, a byte that is not UTF-8 named by ``path:line``), one CSV writer every output.

Cells are formatted as arrays into the bytes of Python's ``%`` on each value.
The kernel's domain: ``%.17g`` of zero or of a finite x with 1e-4 <= |x| <
1e17 (no exponent; correctly rounded by an exact two-product, Dekker 1971),
and ``%d`` of an integer in [0, 10**8) or a float truncated into it. Every
other cell (nan, inf, tiny or huge floats, negative or large integers,
objects) goes through ``%`` one cell at a time, so ``%d`` of a NaN still
raises; ``%s`` text goes through ``%`` once per distinct text in a block.
Each cell is laid out in a fixed-width byte canvas that ends in its
separator, and a mask row picks its bytes: the digits come from a table of
four-digit groups, a float's decimal exponent from its bits (Adams 2018),
its significant digits and a ``%d`` cell's width from per-group tables.
"""

from __future__ import annotations

import functools
import sys
from contextlib import ExitStack
from itertools import chain, islice
from pathlib import Path
from types import SimpleNamespace
from typing import Iterable, Sequence

import numpy as np

# rows formatted as one block: the per-block cost vanishes, the canvases stay small
BLOCK_ROWS = 1024

_COMMA, _NEWLINE = ord(","), ord("\n")
# 1e-4 .. 1e20, each 10**k exactly or just above it: no double lies in between
_POW10 = np.array([float(f"1e{k}") for k in range(-4, 21)])
_FLOAT_WIDTH, _INT_WIDTH = 41, 9


@functools.cache
def _tables() -> SimpleNamespace:
    """Lookup tables, built on first use so that importing stays cheap.

    ``groups[g]`` is ``"%04d" % g`` as one uint32. A 17-digit significand is
    one digit and four groups; ``sig[i][g]`` is its number of digits up to
    the last non-zero digit of group i+1 when that group is g (0 for g = 0).
    An 8-digit ``%d`` canvas is two groups; ``int_start[1][hi]`` and
    ``int_start[0][lo]`` are where its digits start if they start in that
    group (8 and 7 for a zero group: a zero keeps its last digit), and
    ``int_masks[start]`` is the canvas's mask row.
    ``float_canvas`` is a float cell's bytes before its digits are written:
    sign, ``0.000``, 17 digits, ``.``, digits 2..17 again, separator; its
    mask row for exponent X and s significant digits is
    ``float_masks[((X+4)*17+s-1)*2+sign]``. ``scale[0][X+4]`` is 10**(16-X)
    and ``scale[1:]`` its Veltkamp split.
    """
    digits = np.indices((10,) * 4, np.uint8).reshape(4, -1).T
    groups = np.ascontiguousarray(digits + ord("0")).view(np.uint32).ravel()
    nonzero = (digits > 0)[:, ::-1]
    upto = np.where(nonzero.any(axis=1), 4 - np.argmax(nonzero, axis=1), 0)
    sig = np.array([np.where(upto > 0, 4 * i + 1 + upto, 0) for i in range(4)], np.uint8)
    length = np.where(digits.any(axis=1), 4 - np.argmax(digits > 0, axis=1), 0)
    int_start = np.array(
        [np.where(length > 0, 8 - length, 7), np.where(length > 0, 4 - length, 8)], np.uint8
    )
    x, s, neg, j = np.ix_(np.arange(-4, 17), np.arange(1, 18), (0, 1), np.arange(_FLOAT_WIDTH))
    small = (x < 0) & (((j >= 1) & (j < 2 - x)) | ((j >= 6) & (j < 6 + s)))
    whole = (j >= 6) & (j <= 6 + x) | (j == 23) & (s > x + 1) | (j >= 24 + x) & (j < 23 + s)
    float_masks = small | (x >= 0) & whole | (j == 0) & (neg == 1) | (j == _FLOAT_WIDTH - 1)
    int_masks = np.arange(_INT_WIDTH) >= np.arange(_INT_WIDTH)[:, None]
    float_canvas = np.frombuffer(b"-0.000" + b"0" * 17 + b"." + b"0" * 16 + b",", np.uint8)
    scale = _POW10[::-1].copy()
    float_masks = float_masks.reshape(-1, _FLOAT_WIDTH)
    return SimpleNamespace(
        groups=groups, sig=sig, int_start=int_start, int_masks=int_masks,
        float_canvas=float_canvas, float_masks=float_masks, scale=(scale, *_split(scale)),
    )


def _quot_rem(a: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """``divmod(a, k)`` for a >= 0; numpy's ``//`` by a scalar is the fast one."""
    q = a // k
    return q, a - q * k


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Veltkamp's split: a == hi + lo exactly, each of at most 26 significant bits."""
    t = a * 134217729.0  # 2**27 + 1
    hi = t - (t - a)
    return hi, a - hi


def _exponent(a: np.ndarray) -> np.ndarray:
    """floor(log10(a)) of doubles 1e-4 <= a < 1e17, from their bits and one comparison.

    floor(e*log10(2)) of the binary exponent e is (e*78913) >> 18 (Adams 2018),
    which is floor(log10(a)) or one less; the next power of ten decides, and
    each _POW10 entry is the least double at or above its power, so exactly.
    """
    x = a.view(np.int64) >> 52
    x *= 78913
    x -= 1023 * 78913
    x >>= 18
    x += a >= _POW10.take(x + 5)
    return x


def _items(a: np.ndarray) -> np.ndarray:
    """The cells of a (..., width) canvas or mask as one void item each, so a copy moves cells."""
    return a.view(f"V{a.shape[-1]}")[..., 0]


def _floats(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``%.17g`` canvases and masks of a (n, m) block."""
    tables = _tables()
    v = np.asarray(v, dtype=np.float64)
    a = np.abs(v)
    ok, zero = (a >= 1e-4) & (a < 1e17), v == 0
    a = np.where(ok, a, 1.0)  # only sanitised values reach the arithmetic and the casts
    k = _exponent(a) + 4
    # a * 10**(16 - x) in [1e16, 1e17), exactly hi + lo (Dekker's two-product)
    p, ph, pl = (t.take(k) for t in tables.scale)
    hi = a * p
    ah, al = _split(a)
    lo = ((ah * ph - hi) + ah * pl + al * ph) + al * pl
    # hi >= 1e16 is an even integer, so rint's ties-to-even on lo is dtoa's rule;
    # no double below 10**(x + 1) scales to within 0.5 of 1e17, so d < 10**17
    d = hi.astype(np.int64) + np.rint(lo).astype(np.int64)
    d[zero] = 0
    top, bottom = (part.astype(np.int32) for part in _quot_rem(d, 10**8))
    first, mid = _quot_rem(top, 10**8)
    g = (*_quot_rem(mid, 10**4), *_quot_rem(bottom, 10**4))  # the groups after digit 1
    # significant digits: up to the last non-zero one, and one for a zero
    s = tables.sig[3].take(g[3])
    for i in (2, 1, 0):
        np.maximum(s, tables.sig[i].take(g[i]), out=s)
    np.maximum(s, 1, out=s)
    row = (k * 17 + s - 1) * 2 + np.signbit(v)
    lead = (first + ord("0")).astype(np.uint8)
    tail = _items(np.stack([tables.groups.take(x) for x in g], axis=-1).view(np.uint8))
    cells = np.empty(v.shape + (_FLOAT_WIDTH,), np.uint8)
    _items(cells)[...] = _items(tables.float_canvas)  # one copy per cell, not per constant
    cells[..., 6] = lead
    _items(cells[..., 7:23])[...] = _items(cells[..., 24:40])[...] = tail
    return _splice(cells, tables.float_masks.take(row, axis=0), v, ~(ok | zero), "%.17g")


def _ints(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``%d`` canvases and masks of a (n, m) block."""
    tables = _tables()
    t = np.trunc(np.where(np.isfinite(v), v, -1.0)) if v.dtype.kind == "f" else v
    ok = (t >= 0) & (t < 10**8) if v.dtype.kind in "biuf" else np.zeros(v.shape, bool)
    hi, lo = _quot_rem(np.where(ok, t, 0).astype(np.intp, copy=False), 10**4)
    start = np.minimum(tables.int_start[1].take(hi), tables.int_start[0].take(lo))
    digits = _items(np.stack((tables.groups.take(hi), tables.groups.take(lo)), axis=-1).view(np.uint8))
    cells = np.empty(v.shape + (_INT_WIDTH,), np.uint8)
    _items(cells[..., :8])[...] = digits
    cells[..., 8] = _COMMA
    return _splice(cells, tables.int_masks.take(start, axis=0), v, ~ok, "%d")


def _texts(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``%s`` canvases and masks of a (n, m) block: each distinct text is spliced once."""
    texts, at = np.unique(v.ravel(), return_inverse=True)
    sep = np.full(texts.shape + (1,), _COMMA, np.uint8)
    cells, mask = _splice(sep, np.ones(sep.shape, bool), texts, np.ones(texts.shape, bool), "%s")
    return cells[at.reshape(v.shape)], mask[at.reshape(v.shape)]


def _splice(cells, mask, v: np.ndarray, where: np.ndarray, spec: str):
    """Put ``spec % value`` into the canvas of each cell at ``where``, left-aligned."""
    if not where.any():
        return cells, mask
    at = np.nonzero(where)
    texts = [(spec % x).encode("utf-8") for x in v[at].tolist()]
    extra = max(map(len, texts)) + 1 - cells.shape[-1]
    if extra > 0:  # widen on the left: only %d and %s text outgrow a canvas
        pad = [(0, 0)] * (cells.ndim - 1) + [(extra, 0)]
        cells, mask = np.pad(cells, pad), np.pad(mask, pad)
    body, width = at + (slice(0, -1),), cells.shape[-1]
    cells[body] = np.array(texts, dtype=f"S{width}").view(np.uint8).reshape(-1, width)[:, :-1]
    mask[body] = np.arange(width - 1) < np.array([len(t) for t in texts])[:, None]
    return cells, mask


_FORMATS = {"%.17g": _floats, "%d": _ints, "%s": _texts}


def _rows(cols: list[np.ndarray], formats: Sequence[str]) -> bytes:
    """One block's lines: its columns' canvases side by side, compressed by their masks."""
    canvases, masks = [], []
    for c, spec in zip(cols, formats, strict=True):
        base = spec.rstrip("?")  # "%.17g?" and "%d?" write a NaN as an empty cell
        blank = np.isnan(c) if base != spec else np.zeros(c.shape, bool)
        canvas, mask = _FORMATS[base](np.where(blank, 0.0, c) if blank.any() else c)
        mask[blank, :-1] = False  # a NaN cell keeps only its separator
        canvases.append(canvas.reshape(len(c), -1))
        masks.append(mask.reshape(len(c), -1))
    canvas = np.concatenate(canvases, axis=1)
    canvas[:, -1] = _NEWLINE  # the last cell's separator ends the line
    return canvas[np.concatenate(masks, axis=1)].tobytes()


def write_csv(dest, header: Sequence[str], formats: Sequence[str], blocks: Iterable[Sequence]) -> None:
    """Write CSV to a path, an open text stream, or stdout (``dest`` None).

    The output contract of every CSV the program writes. A block is a tuple
    of columns, 1-D (one CSV column) or 2-D (one per entry of a row), and
    ``formats`` holds one cell format per column, for all of its cells:
    ``%.17g`` for floats, so each double reads back exactly; ``%d`` for run,
    time and flag columns (3.0 prints as ``3``); ``%s`` for text. A block
    with another number of columns raises ``ValueError``.
    A float format followed by ``?`` (``%.17g?``, ``%d?``) writes a NaN as
    an empty cell and every other value as the format alone.
    The bytes are those of ``%`` on each value. Every line ends in ``\\n``;
    rows keep block order, then row order. At most :data:`BLOCK_ROWS` rows
    at a time are formatted and written by one ``write``. Nothing is written,
    nor ``dest`` opened, before the first block is made.
    """
    blocks = iter(blocks)
    blocks = chain(list(islice(blocks, 1)), blocks)
    with ExitStack() as stack:
        if dest is None or hasattr(dest, "write"):
            fh = sys.stdout if dest is None else dest
            emit = lambda data: fh.write(data.decode("utf-8"))  # noqa: E731
        else:
            emit = stack.enter_context(open(dest, "wb")).write
        emit((",".join(header) + "\n").encode("utf-8"))
        for columns in blocks:
            cols = [c[:, None] if c.ndim == 1 else c for c in map(np.asarray, columns)]
            for a in range(0, len(cols[0]), BLOCK_ROWS):
                emit(_rows([c[a : a + BLOCK_ROWS] for c in cols], formats))


class DecodeError(ValueError):
    """A byte that is not UTF-8, at 1-based ``line`` and ``col`` of its file."""

    def __init__(self, path: str, line: int, col: int, reason: str):
        super().__init__(f"{path}:{line}: {reason}")
        self.line, self.col, self.reason = line, col, reason


def line_col(text: str, offset: int) -> tuple[int, int]:
    """1-based line and column of ``text[offset]``; LF is the only line end."""
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)


def _lf(text: str) -> str:
    return text.replace("\r\n", "\n").replace("\r", "\n")


def read_text(path: str) -> str:
    """A UTF-8 file's text, a leading BOM skipped, CRLF and CR read as LF."""
    try:
        return _lf(Path(path).read_bytes().decode("utf-8-sig"))
    except UnicodeDecodeError as exc:
        head = _lf(exc.object[: exc.start].decode("utf-8"))
        raise DecodeError(path, *line_col(head, len(head)), str(exc)) from None
