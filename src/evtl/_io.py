"""Shared file plumbing: :func:`read_text` reads every input file (LF, CRLF and CR the only
line ends, a byte that is not UTF-8 named by ``path:line``), one CSV writer every output.

Cells are formatted as arrays into the bytes of Python's ``%`` on each value.
The kernel's domain: ``%.17g`` of zero or of a finite x with 1e-4 <= |x| <
1e17 (no exponent; correctly rounded by an exact two-product, Dekker 1971),
and ``%d`` of an integer in [0, 10**8) or a float truncated into it. Every
other cell (nan, inf, tiny or huge floats, negative or large integers,
objects) goes through ``%`` one cell at a time, so ``%d`` of a NaN still
raises; ``%s`` text goes through ``%`` once per distinct text in a block.
"""

from __future__ import annotations

import functools
import sys
from contextlib import ExitStack
from itertools import chain, islice
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

# rows formatted as one block: the per-block cost vanishes, the canvases stay small
BLOCK_ROWS = 1024

_COMMA, _NEWLINE = ord(","), ord("\n")
# 1e-4 .. 1e20, each 10**k exactly or just above it: no double lies in between
_POW10 = np.array([float(f"1e{k}") for k in range(-4, 21)])
_FLOAT_CANVAS = np.frombuffer(b"-0.000" + b"0" * 17 + b"." + b"0" * 17 + b",", np.uint8)


@functools.cache
def _tables() -> tuple[np.ndarray, np.ndarray]:
    """Lookup tables, built on first use so that importing stays cheap.

    ``groups[g]`` is ``"%04d" % g`` as one uint32. A float canvas is sign,
    ``0.000``, 17 digits, ``.``, the digits again, separator; its mask row for
    exponent X and s significant digits is ``float_masks[((X+4)*17+s-1)*2+sign]``.
    """
    digits = np.indices((10,) * 4, np.uint8).reshape(4, -1).T + ord("0")
    groups = np.ascontiguousarray(digits).view(np.uint32).ravel()
    x, s, neg, j = np.ix_(np.arange(-4, 17), np.arange(1, 18), (0, 1), np.arange(42))
    small = (x < 0) & (((j >= 1) & (j < 2 - x)) | ((j >= 6) & (j < 6 + s)))
    whole = (j >= 6) & (j <= 6 + x) | (j == 23) & (s > x + 1) | (j > 24 + x) & (j < 24 + s)
    float_masks = (small | (x >= 0) & whole | (j == 0) & (neg == 1) | (j == 41)).reshape(-1, 42)
    return groups, float_masks


def _quot_rem(a: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """``divmod(a, k)`` for a >= 0; numpy's ``//`` by a scalar is the fast one."""
    q = a // k
    return q, a - q * k


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Veltkamp's split: a == hi + lo exactly, each of at most 26 significant bits."""
    t = a * 134217729.0  # 2**27 + 1
    hi = t - (t - a)
    return hi, a - hi


def _floats(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``%.17g`` canvases and masks of a (n, m) block."""
    groups, float_masks = _tables()
    v = np.asarray(v, dtype=np.float64)
    a = np.where(np.isfinite(v), np.abs(v), 0.0)
    ok, zero = (a >= 1e-4) & (a < 1e17), v == 0
    a[~ok] = 1.0  # only sanitised values reach the arithmetic and the casts
    x = np.searchsorted(_POW10, a, side="right") - 5  # exactly floor(log10(a))
    # a * 10**(16 - x) in [1e16, 1e17), exactly hi + lo (Dekker's two-product)
    hi = a * (p := _POW10.take(20 - x))
    (ah, al), (ph, pl) = _split(a), _split(p)
    lo = ((ah * ph - hi) + ah * pl + al * ph) + al * pl
    # hi >= 1e16 is an even integer, so rint's ties-to-even on lo is dtoa's rule;
    # no double below 10**(x + 1) scales to within 0.5 of 1e17, so d < 10**17
    d = np.where(zero, 0, hi.astype(np.int64) + np.rint(lo).astype(np.int64))
    top, bottom = (part.astype(np.int32) for part in _quot_rem(d, 10**8))
    first, mid = _quot_rem(top, 10**8)
    g = (first, *_quot_rem(mid, 10**4), *_quot_rem(bottom, 10**4))
    digits = groups.take(np.stack(g, axis=-1)).view(np.uint8)[..., 3:]
    # significant digits: up to the last non-zero one, and one for a zero
    s = np.where(zero, 1, 17 - np.argmax(digits[..., ::-1] != ord("0"), axis=-1))
    cells = np.broadcast_to(_FLOAT_CANVAS, v.shape + (42,)).copy()
    cells[..., 6:23] = cells[..., 24:41] = digits
    mask = float_masks.take(((x + 4) * 17 + s - 1) * 2 + np.signbit(v), axis=0)
    return _splice(cells, mask, v, ~(ok | zero), "%.17g")


def _ints(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``%d`` canvases and masks of a (n, m) block."""
    t = np.trunc(np.where(np.isfinite(v), v, -1.0)) if v.dtype.kind == "f" else v
    ok = (t >= 0) & (t < 10**8) if v.dtype.kind in "biuf" else np.zeros(v.shape, bool)
    t = np.where(ok, t, 0).astype(np.int32)
    cells = np.full(v.shape + (9,), _COMMA, np.uint8)
    cells[..., :8] = _tables()[0].take(np.stack(np.divmod(t, 10**4), axis=-1)).view(np.uint8)
    # the canvas is eight digits and the separator; _POW10[5:12] is 10 .. 1e7
    mask = np.arange(9) >= 7 - np.searchsorted(_POW10[5:12], t, side="right")[..., None]
    return _splice(cells, mask, v, ~ok, "%d")


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
