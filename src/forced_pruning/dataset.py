"""Binary datasets: loading, validation and the deduplicated rows.

Datasets are plain text, one instance per line, 0/1 tokens separated by
commas (the distribution format of the standard density-estimation
benchmarks, e.g. nltcs, plants, msnbc) or by whitespace. All variables are
strictly binary; anything else is a load-time error.
"""

from __future__ import annotations

import io
import os
import weakref
from dataclasses import dataclass, field

import numpy as np


class DatasetFormatError(ValueError):
    """A dataset file violates the expected text format."""


@dataclass(frozen=True, eq=False)
class DataSet:
    """Immutable table of binary instances.

    Attributes:
        X: (n_instances, n_vars) float64 array with entries 0.0/1.0,
           marked read-only after construction.
        name: label used in reports.
    """

    X: np.ndarray
    name: str = "dataset"
    # derived from X alone, never observable: compression, Chow-Liu tree, weakref to tables
    _cache: dict = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        X = np.ascontiguousarray(self.X, dtype=np.float64)
        if X.ndim != 2:
            raise ValueError(f"instances must form a 2-D array, got ndim={X.ndim}")
        n, v = X.shape
        if v < 2:
            raise ValueError(f"need at least 2 variables, got {v}")
        if n < 1:
            raise ValueError("need at least 1 instance")
        if not ((X == 0.0) | (X == 1.0)).all():
            raise ValueError("instance entries must be 0 or 1")
        X.setflags(write=False)
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "_cache", {})

    def __getstate__(self):
        # a weak reference cannot be pickled; the tables are rebuilt on demand
        cache = {k: v for k, v in self._cache.items() if not isinstance(v, weakref.ref)}
        return {**self.__dict__, "_cache": cache}

    def __setstate__(self, state):
        # unpickled arrays come back writable; keep the cache, restore the flags
        self.__dict__.update(state)
        for a in (self.X, *self._cache.get("compressed", ())):
            a.setflags(write=False)

    @property
    def n_vars(self) -> int:
        return self.X.shape[1]

    @property
    def n_instances(self) -> int:
        return self.X.shape[0]

    def cached(self, key: str, compute):
        """``compute(self)``, computed on the first call for ``key`` and kept."""
        if key not in self._cache:
            self._cache[key] = compute(self)
        return self._cache[key]

    def compressed(self) -> tuple[np.ndarray, np.ndarray]:
        """Unique rows and their multiplicities.

        Sums weighted by the multiplicities equal plain sums over instances
        exactly, so per-instance means computed on the compressed form are
        identical up to float summation order. Rows come out in lexicographic
        order, which also makes such means independent of instance order.
        """
        return self.cached("compressed", _compress)


def _compress(ds: DataSet) -> tuple[np.ndarray, np.ndarray]:
    _, first, counts = unique_rows(ds.X, return_index=True, return_counts=True)
    rows, weights = ds.X[first], counts.astype(np.float64)
    rows.setflags(write=False)
    weights.setflags(write=False)
    return rows, weights


def unique_rows(bits: np.ndarray, **kwargs):
    """``np.unique`` over the rows of a 0/1 matrix, in lexicographic row order.

    Each row is packed into big-endian 64-bit words, first column in the
    most significant bit, so key order is row order. Rows of at most 64
    columns are one integer each and take a flat integer unique.
    """
    packed = np.packbits(np.asarray(bits, dtype=np.uint8), axis=1)
    words = np.zeros((packed.shape[0], -(-packed.shape[1] // 8) * 8), dtype=np.uint8)
    words[:, :packed.shape[1]] = packed
    return unique_keys(words.view(">u8").astype(np.uint64), **kwargs)


def unique_keys(keys: np.ndarray, **kwargs):
    """``np.unique`` over the rows of an (n, words) uint64 key array: a flat
    integer unique for one word, a row-wise unique beyond."""
    axis = None if keys.shape[1] == 1 else 0
    return np.unique(keys, axis=axis, **kwargs)


_TOKEN = {"0": 0, "1": 1}


def load_dataset(path: str | os.PathLike, name: str | None = None) -> DataSet:
    """Load a comma- or whitespace-separated 0/1 text file into a :class:`DataSet`.

    The separator is chosen from the first line: comma if it has one,
    whitespace otherwise. A file in the canonical layout (every line
    ``[01](sep[01])*\\n`` with one separator byte) is parsed in one numpy
    pass; any other file goes through the line-by-line parser.

    Raises:
        DatasetFormatError: empty file, ragged line lengths, a line whose
            separator differs from the first line's, or any token other
            than "0"/"1"; the message names the offending line.
        OSError: unreadable path.
    """
    path = os.fspath(path)
    if name is None:
        name = os.path.splitext(os.path.basename(path))[0]
    with open(path, "rb") as fh:
        data = fh.read()
    X = _parse_canonical(data)
    if X is not None:
        return DataSet(X=X.astype(np.float64), name=name)
    buf = bytearray()
    width = None
    sep = None
    n_rows = 0
    with io.TextIOWrapper(io.BytesIO(data), encoding="ascii") as fh:
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
    X = np.frombuffer(bytes(buf), dtype=np.uint8).reshape(n_rows, width)
    return DataSet(X=X.astype(np.float64), name=name)


def _parse_canonical(data: bytes) -> np.ndarray | None:
    """0/1 matrix of a canonical-layout file, or None for any other input.

    Every line must have the first line's byte length, so the file reshapes
    to one row per line, and the column checks then cover every byte.
    """
    if not data.endswith(b"\n"):
        data += b"\n"
    stride = data.find(b"\n") + 1  # bytes per line, newline included
    if stride < 4 or stride % 2 or len(data) % stride or data[1] not in b", \t":
        return None
    cells = np.frombuffer(data, dtype=np.uint8).reshape(-1, stride)
    digits = cells[:, 0::2] - ord("0")
    if ((digits <= 1).all() and (cells[:, 1:-1:2] == data[1]).all()
            and (cells[:, -1] == ord("\n")).all()):
        return digits
    return None


def _line_error(path: str, lineno: int, line: str, sep: str | None, message: str) -> DatasetFormatError:
    """Format error for a bad line, naming mixed separators when that is the cause."""
    mixed = any(c.isspace() for c in line) if sep == "," else "," in line
    if mixed:
        message = "mixes comma and whitespace separators"
    return DatasetFormatError(f"{path}: line {lineno}: {message}")
