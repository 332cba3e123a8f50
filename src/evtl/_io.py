"""Shared output plumbing: one batched CSV writer for every output file."""

from __future__ import annotations

import sys
from contextlib import ExitStack
from typing import Iterable, Sequence

import numpy as np

# most rows formatted by one %: the per-block cost vanishes, and a block's
# tuple and text stay a few hundred kB whatever the file size
BLOCK_ROWS = 1024


def write_csv(dest, header: Sequence[str], row_fmt: str, blocks: Iterable[Sequence]) -> None:
    """Write CSV to a path, an open text stream, or stdout (``dest`` None).

    The output contract of every CSV the program writes. Each block is a
    tuple of columns, 1-D (one CSV column) or 2-D (one per entry of a row).
    ``row_fmt`` is one row's %-format: ``%.17g`` for floats, so each double
    reads back exactly; ``%d`` for run, time and flag columns (the float 3.0
    prints as ``3``); ``%s`` for preformatted text. Every line ends in
    ``\\n``; rows keep block order, then row order. At most
    :data:`BLOCK_ROWS` rows at a time are formatted by one ``%`` over their
    flattened values and written by one ``write``.
    """
    line = row_fmt + "\n"
    with ExitStack() as stack:
        if dest is None:
            fh = sys.stdout
        elif hasattr(dest, "write"):
            fh = dest
        else:
            fh = stack.enter_context(open(dest, "w", encoding="utf-8", newline="\n"))
        fh.write(",".join(header) + "\n")
        for columns in blocks:
            cols = [c[:, None] if c.ndim == 1 else c for c in map(np.asarray, columns)]
            for a in range(0, len(cols[0]), BLOCK_ROWS):
                # object rows keep ints as ints, for a fast %d, and text as text
                rows = np.concatenate([c[a : a + BLOCK_ROWS] for c in cols], axis=1, dtype=object)
                fh.write(line * len(rows) % tuple(rows.ravel().tolist()))
