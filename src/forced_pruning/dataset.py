"""Binary datasets: loading, validation, and the row grouping behind the
deduplicated rows and the Markov-blanket tables.

Datasets are plain text, one instance per line, 0/1 tokens separated by
commas (the distribution format of the standard density-estimation
benchmarks, e.g. nltcs, plants, msnbc) or by whitespace. All variables are
strictly binary; anything else is a load-time error.

A file in the canonical layout is read in blocks of whole lines of about
``_BLOCK_BYTES`` into one reused buffer. Each block is checked against a
fixed tile of expected lines, so numpy's inner loops run over whole tiles,
and its digits are written straight into the final uint8 array, which the
:class:`DataSet` then keeps without a copy. Its unique rows are packed 8
columns at a time from row blocks of that array and, when the rows are
narrow enough, counted through a table of all row codes without a sort or
a row-to-group map. So a load and its compression hold about one copy of
the instances plus one block, and a process forked after them inherits no
other copy. :func:`group_rows` counts the blanket tables' groups in such a
table too, weighted by the positive row counts.

A :class:`DataSet` knows only its instances, unique rows and weights. A
module keeps what it derives from them (the Chow-Liu tree, the blanket
tables' arrays) through :meth:`DataSet.cached`, and its own state itself.
"""

from __future__ import annotations

import io
import os
from dataclasses import dataclass, field
from typing import BinaryIO, Sequence

import numpy as np

_BLOCK_BYTES = 1 << 19  # the file bytes read, and the instance bytes packed, per block
_TILE_ROWS = 64  # lines of expected (digit, separator) pairs the loader subtracts at once
_SPREAD = np.uint64(0x8040201008040201)  # gathers bit 0 of 8 bytes into the top byte


class DatasetFormatError(ValueError):
    """A dataset file violates the expected text format."""


@dataclass(frozen=True, eq=False)
class DataSet:
    """Immutable table of binary instances.

    Attributes:
        X: (n_instances, n_vars) C-contiguous uint8 array of 0/1 entries in
           the given row order; the dataset's own read-only copy of the input.
        name: a label for the caller; no report reads it (the CLI names
           reports by ``--name`` or the train file's stem).
    """

    X: np.ndarray
    name: str = "dataset"
    # derived from X alone, never observable: compression, Chow-Liu tree, tables' arrays
    _cache: dict = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        # a copy: the caller's writes never reach it
        self._keep(np.array(_checked(self.X), dtype=np.uint8, order="C"))

    @classmethod
    def _over(cls, X: np.ndarray, name: str) -> DataSet:
        """A DataSet over the loader's own C-contiguous uint8 array itself:
        the constructor's checks without its copy, since no one else holds X."""
        ds = cls.__new__(cls)
        object.__setattr__(ds, "name", name)
        ds._keep(_checked(X))
        return ds

    def _keep(self, X: np.ndarray) -> None:
        X.setflags(write=False)
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "_cache", {})

    def __setstate__(self, state):
        # unpickled arrays come back writable; keep the cache, restore the flags
        self.__dict__.update(state)
        for value in (self.X, *self._cache.values()):
            _read_only(value)

    @property
    def n_vars(self) -> int:
        return self.X.shape[1]

    @property
    def n_instances(self) -> int:
        return self.X.shape[0]

    def cached(self, key: str, compute):
        """``compute(self)``, computed on the first call for ``key`` and kept,
        its arrays read-only."""
        if key not in self._cache:
            self._cache[key] = _read_only(compute(self))
        return self._cache[key]

    def compressed(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only unique rows, C-contiguous uint8 like ``X``, and float64 weights.

        The weights are the multiplicities: weighted sums equal plain sums over
        instances exactly, and the rows' lexicographic order keeps means on the
        compressed form independent of instance order. uint8 arithmetic wraps
        (``2 * rows - 1`` is 255 at a 0): compute through a float operand, as
        ``2.0 * rows - 1.0`` and ``weights @ rows`` do. See :func:`_compress`.
        """
        return self.cached("compressed", _compress)


def _read_only(value):
    """``value`` with its arrays, alone or in a tuple, marked read-only."""
    for a in value if isinstance(value, tuple) else (value,):
        if isinstance(a, np.ndarray):
            a.setflags(write=False)
    return value


def _checked(X) -> np.ndarray:
    """``X`` as an array, once it is known to be a 2-D table of 0/1 entries
    with at least 2 variables and 1 instance."""
    X = np.asarray(X)
    if X.ndim != 2:
        raise ValueError(f"instances must form a 2-D array, got ndim={X.ndim}")
    n, v = X.shape
    if v < 2:
        raise ValueError(f"need at least 2 variables, got {v}")
    if n < 1:
        raise ValueError("need at least 1 instance")
    # checked before the cast, which would wrap 256 to 0 and truncate 1.5 to 1;
    # an unsigned or bool array holds no value below 0, so its maximum decides
    if not (X.max() <= 1 if X.dtype.kind in "ub" else ((X == 0) | (X == 1)).all()):
        raise ValueError("instance entries must be 0 or 1")
    return X


def _compress(ds: DataSet) -> tuple[np.ndarray, np.ndarray]:
    """The unique rows, C-contiguous uint8 like ``X``, and their float64 counts.

    Rows of at most log2(8 * rows) columns are one code each: the codes that
    occur are marked and numbered in the table of all codes, counted by a
    blocked ``np.bincount`` of their rows' table entries and decoded into
    the unique rows, so no row-to-group map is made. Wider rows are grouped
    by the stable lexsort of :func:`group_rows`.
    """
    X = ds.X
    n, v = X.shape
    words = _row_words(X)
    if 2 ** v <= 8 * n:
        code = words[0]
        step = _BLOCK_BYTES // 32  # rows per block: about 20 bytes of index temporaries each
        blocks = [slice(start, start + step) for start in range(0, n, step)]
        ids = np.zeros(2 ** v, dtype=np.int32)
        for b in blocks:
            ids[code[b]] = 1
        present = np.flatnonzero(ids)  # the codes of the groups, in code order
        ids[present] = np.arange(present.size, dtype=np.int32)
        counts = sum(np.bincount(ids[code[b]], minlength=present.size) for b in blocks)
        unique = ((present[:, None] >> np.arange(v - 1, -1, -1)) & 1).astype(np.uint8)
    else:
        order, new = _sorted_groups(words)
        starts = np.arange(n)[new]
        counts = np.diff(starts, append=n)
        unique = X[order[starts]]
    return unique, counts.astype(np.float64)


def _row_words(X: np.ndarray) -> np.ndarray:
    """The rows of the C-contiguous 0/1 uint8 array ``X`` packed, a block of
    rows at a time, into the words that :func:`group_rows` packs from a key
    of every column, equal to them bit for bit.

    A row of 8 or more columns is packed 8 bytes at a time: the
    little-endian uint64 read over 8 bytes of a row, times ``_SPREAD`` and
    shifted right by 56, is those 8 columns as one byte, the first column in
    the high bit. A word's last ``v % 8`` columns are the low bits of the
    read that ends at its last column. A row of fewer than 8 columns is
    packed by shift-or.
    """
    n, v = X.shape
    if v < 8:
        return _shift_or_words(X.T, range(v))
    bits = 32 if v <= 32 else 64
    words = np.empty((-(-v // bits), n), dtype=f"u{bits // 8}")
    step = max(1, _BLOCK_BYTES // v)  # rows whose bytes make a block
    acc = np.empty(min(step, n), dtype=np.uint64)
    tmp = np.empty_like(acc)
    for start in range(0, n, step):
        a, t = acc[:n - start], tmp[:n - start]
        for i, lo in enumerate(range(0, v, bits)):
            hi = min(v, lo + bits)
            tail = (hi - lo) % 8
            if tail:  # the low bits of the read that ends at the word's last column
                np.bitwise_and(_eight_columns(X, start, hi - 8, a), (1 << tail) - 1, out=a)
            else:
                a[:] = 0
            for j in range(lo, hi - 7, 8):
                a |= np.left_shift(_eight_columns(X, start, j, t), hi - j - 8, out=t)
            words[i, start:start + step] = a
    return words


def _eight_columns(X: np.ndarray, start: int, j: int, out: np.ndarray) -> np.ndarray:
    """Columns ``j`` to ``j + 7`` of ``len(out)`` rows of ``X`` from row
    ``start`` on, as one byte per row in ``out``, column ``j`` in the high bit."""
    v = X.shape[1]
    window = np.ndarray(out.shape, "<u8", X, offset=start * v + j, strides=(v,))
    np.multiply(window, _SPREAD, out=out)
    out >>= 56
    return out


def _shift_or_words(columns: np.ndarray, key: Sequence[int]) -> np.ndarray:
    """The ``key`` columns of a column-major copy or view of the rows,
    packed a block of rows at a time by shift-or, the first column most
    significant: a key of at most 32 columns into one uint32 word per row, a
    wider one into a uint64 word per 64 columns."""
    n = columns.shape[1]
    bits = 32 if len(key) <= 32 else 64
    words = np.zeros((-(-len(key) // bits), n), dtype=f"u{bits // 8}")
    step = max(1, _BLOCK_BYTES // len(key))  # rows whose key bytes make a block
    for start in range(0, n, step):
        for i, c in enumerate(key):
            word = words[i // bits, start:start + step]
            word <<= 1
            word |= columns[c, start:start + step]
    return words


def group_rows(columns: np.ndarray, key: Sequence[int], weights: np.ndarray
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Group the rows by their ``key`` columns: a row of each group, the
    int32 group of every row and each group's total of the positive
    ``weights``, groups in lexicographic row order.

    ``columns`` is a column-major uint8 0/1 copy or view of the rows. The
    key columns are packed into words by :func:`_shift_or_words`, so key
    order is the lexicographic row order. A key of at most log2(8 * rows)
    columns is grouped without a sort, by one weighted count of its codes
    in a table of all 2**len(key) codes; a wider one by a stable lexsort of
    its words. Up to 8 codes per row, counting the table is still faster
    than sorting.
    """
    n = columns.shape[1]
    words = _shift_or_words(columns, key)
    if 2 ** len(key) <= 8 * n:
        total = np.bincount(words[0], weights=weights, minlength=2 ** len(key))
        present = np.flatnonzero(total > 0)  # the codes of the groups, in code order
        ids = np.zeros(total.size, dtype=np.int32)
        ids[present] = np.arange(present.size, dtype=np.int32)
        inv = ids[words[0]]
        rows = np.empty(present.size, dtype=np.intp)
        rows[inv] = np.arange(n)  # any member serves: its key columns are its group's
        return rows, inv, total[present]
    order, new = _sorted_groups(words)
    inv = np.empty(n, dtype=np.int32)
    inv[order] = np.cumsum(new, dtype=np.int32) - 1
    return order[new], inv, np.bincount(inv, weights=weights)


def _sorted_groups(words: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The stable lexsort order of the rows by their words (one row per
    column of ``words``, the first word most significant), and the mask of
    the positions in that order where a new group starts."""
    order = np.lexsort(words[::-1])  # the last key sorts first
    ordered = words[:, order]
    new = np.ones(order.size, dtype=bool)
    new[1:] = (ordered[:, 1:] != ordered[:, :-1]).any(axis=0)
    return order, new


_TOKEN = {"0": 0, "1": 1}


def load_dataset(path: str | os.PathLike, name: str | None = None) -> DataSet:
    """Load a comma- or whitespace-separated 0/1 text file into a :class:`DataSet`.

    The separator is chosen from the first line: comma if it has one,
    whitespace otherwise. A file in the canonical layout (every line
    ``[01](sep[01])*\\n`` with one separator byte) is read in blocks, each
    parsed and checked by one numpy subtraction and one maximum; any other
    file goes through the line-by-line parser.

    Raises:
        DatasetFormatError: empty file, ragged line lengths, a line whose
            separator differs from the first line's, or any token other
            than "0"/"1", a non-ASCII byte included; the message names the
            offending line.
        OSError: unreadable path.
    """
    path = os.fspath(path)
    if name is None:
        name = os.path.splitext(os.path.basename(path))[0]
    with open(path, "rb") as fh:
        X = _read_canonical(fh)
    if X is not None:
        return DataSet._over(X, name)
    buf = bytearray()
    width = None
    sep = None
    n_rows = 0
    # a non-ASCII byte decodes to a lone surrogate, which fails as a token
    with open(path, "rb") as raw, io.TextIOWrapper(
            raw, encoding="ascii", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                raise DatasetFormatError(f"{path}: line {lineno}: empty line")
            if width is None and "," in line:
                sep = ","
            tokens = line.split(sep)
            if width is None:
                width = len(tokens)
                if width < 2:
                    raise _line_error(
                        path, lineno, line, sep,
                        f"need at least 2 variables per instance, got {width}")
            elif len(tokens) != width:
                raise _line_error(
                    path, lineno, line, sep, f"expected {width} values, got {len(tokens)}")
            try:
                buf.extend(_TOKEN[t] for t in tokens)
            except KeyError:
                bad = next(t for t in tokens if t not in _TOKEN)
                raise _line_error(
                    path, lineno, line, sep, f"invalid token {bad!r} (expected 0 or 1)"
                ) from None
            n_rows += 1
    if n_rows == 0:
        raise DatasetFormatError(f"{path}: empty file")
    return DataSet._over(np.frombuffer(buf, dtype=np.uint8).reshape(n_rows, width), name)


def _read_canonical(fh: BinaryIO) -> np.ndarray | None:
    """0/1 matrix of a canonical-layout file read from the start of ``fh``,
    or None for any other input.

    Every line must have the first line's byte length, so the file is one
    row per line of (digit, separator) byte pairs, the newline taking the
    last separator's place; only the last line may lack its newline. Read
    as little-endian uint16, each pair less its expected value ("0" and the
    separator) is the digit's 0 or 1 exactly when both bytes are right: a
    digit byte below "0" wraps and borrows from the separator byte, and any
    other wrong byte leaves more than 1, so one maximum checks every byte.
    Blocks of whole lines are read into one reused buffer, checked so, and
    their digits written straight into the result.
    """
    first = fh.readline()
    stride = len(first) + (not first.endswith(b"\n"))  # bytes per line, newline included
    n, tail = divmod(fh.seek(0, io.SEEK_END), stride)
    if stride < 4 or stride % 2 or first[1] not in b", \t" or tail not in (0, stride - 1):
        return None
    n += tail > 0
    expected = np.full(stride // 2, ord("0") | first[1] << 8, dtype="<u2")
    expected[-1] = ord("0") | ord("\n") << 8
    X = np.empty((n, stride // 2), dtype=np.uint8)
    step = max(1, _BLOCK_BYTES // stride)  # lines per block
    tile_lines = min(_TILE_ROWS, step)  # so that a tile is never longer than a block
    tile = np.tile(expected, tile_lines)
    buf = np.empty((min(step, n), stride // 2), dtype="<u2")
    fh.seek(0)
    for start in range(0, n, step):
        block = buf[:n - start]
        got = fh.readinto(block)
        # a short read leaves newlines, which pass only as the last line's own
        block.view(np.uint8).reshape(-1)[got:] = ord("\n")
        # whole tiles of lines at once, so numpy's inner loop runs over a
        # tile, not over one line; the lines short of a tile line by line
        tiled = len(block) - len(block) % tile_lines
        body = block[:tiled].reshape(-1, tile.size)  # a view of the contiguous block
        body -= tile
        block[tiled:] -= expected
        if block.max() > 1:
            return None
        X[start:start + step] = block
    return X


def _line_error(path: str, lineno: int, line: str, sep: str | None, message: str) -> DatasetFormatError:
    """Format error for a bad line, naming mixed separators when that is the cause."""
    mixed = any(c.isspace() for c in line) if sep == "," else "," in line
    if mixed:
        message = "mixes comma and whitespace separators"
    return DatasetFormatError(f"{path}: line {lineno}: {message}")
