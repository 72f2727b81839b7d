"""Dataset loading, validation, compression, row grouping, and the counts behind the MI."""

import concurrent.futures
import gc
import io
import math
import multiprocessing
import os
import re
import tempfile
import tracemalloc
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from forced_pruning import (
    DataSet,
    DatasetFormatError,
    chow_liu_tree,
    load_dataset,
    mutual_information,
    mutual_information_matrix,
)
from forced_pruning import dataset as dataset_mod
from forced_pruning.blanket import BlanketTables
from forced_pruning.dataset import _read_canonical, _row_words, _shift_or_words, group_rows

from conftest import make_dataset, mi_from_counts, pair_table, random_dataset, write_data_file


def _state_in_worker(ds):
    """What a pool worker sees of a DataSet it was sent: the cached keys, the
    writable flags of X, of the compressed arrays, of the blanket tables'
    columns and of their nonzero pairs, those arrays, and the tree."""
    cached = sorted(ds._cache)
    arrays = (ds.X, *ds.compressed(), ds._cache["columns"], *ds._cache["nonzero"])
    return cached, [a.flags.writeable for a in arrays], arrays, chow_liu_tree(ds)


class TestLoadDataset:
    def test_basic_csv(self, tmp_path):
        path = write_data_file(tmp_path / "d.data", [[0, 1, 1], [1, 0, 1]])
        ds = load_dataset(path)
        assert ds.n_instances == 2
        assert ds.n_vars == 3
        np.testing.assert_array_equal(ds.X, [[0, 1, 1], [1, 0, 1]])

    def test_name_defaults_to_file_stem(self, tmp_path):
        path = write_data_file(tmp_path / "nltcs.train.data", [[0, 1]])
        assert load_dataset(path).name == "nltcs.train"
        assert load_dataset(path, name="other").name == "other"

    def test_whitespace_and_crlf_tolerated(self, tmp_path):
        p = tmp_path / "d.data"
        p.write_bytes(b"0,1\r\n1,0\r\n")
        ds = load_dataset(str(p))
        assert ds.n_instances == 2

    @pytest.mark.parametrize("text", [
        "0 1 1\n1 0 1\n",
        "0\t1\t1\n1\t0\t1\n",
        "0  1 \t1\n 1 0 1 \n",
        "0 1 1\n1\t0\t1\n",
    ], ids=["spaces", "tabs", "mixed-whitespace", "space-then-tab"])
    def test_whitespace_separated(self, tmp_path, text):
        p = tmp_path / "d.data"
        p.write_text(text)
        np.testing.assert_array_equal(load_dataset(str(p)).X, [[0, 1, 1], [1, 0, 1]])

    @pytest.mark.parametrize("text,line", [
        ("0,1,1\n1 0 1\n", 2),
        ("0 1 1\n1,0,1\n", 2),
        ("0 1 1\n1 0 1\n0 1,1\n", 3),
        ("0,1 1\n", 1),
    ])
    def test_mixed_separators_rejected(self, tmp_path, text, line):
        p = tmp_path / "d.data"
        p.write_text(text)
        with pytest.raises(DatasetFormatError, match=rf"line {line}: mixes comma and whitespace"):
            load_dataset(str(p))

    def test_invalid_token_reports_line(self, tmp_path):
        p = tmp_path / "d.data"
        p.write_text("0,1\n0,2\n")
        with pytest.raises(DatasetFormatError, match=r"line 2"):
            load_dataset(str(p))

    def test_ragged_rows_rejected(self, tmp_path):
        p = tmp_path / "d.data"
        p.write_text("0,1,0\n0,1\n")
        with pytest.raises(DatasetFormatError, match=r"line 2"):
            load_dataset(str(p))

    def test_empty_file_rejected(self, tmp_path):
        p = tmp_path / "d.data"
        p.write_text("")
        with pytest.raises(DatasetFormatError):
            load_dataset(str(p))

    def test_single_variable_rejected(self, tmp_path):
        p = tmp_path / "d.data"
        p.write_text("0\n1\n")
        with pytest.raises(DatasetFormatError, match="at least 2"):
            load_dataset(str(p))

    def test_missing_file_is_oserror(self, tmp_path):
        with pytest.raises(OSError):
            load_dataset(str(tmp_path / "absent.data"))


def parse_canonical(data):
    """The canonical reader on the bytes of a file."""
    return _read_canonical(io.BytesIO(data))


def load_by_lines(path):
    """load_dataset with the canonical fast path switched off."""
    with mock.patch.object(dataset_mod, "_read_canonical", lambda fh: None):
        return load_dataset(path)


def load_outcome(load, path):
    """What a load gives: the bits and their shape, or the error message."""
    try:
        X = load(path).X
    except DatasetFormatError as err:
        return str(err)
    return X.shape, X.tobytes()


def is_canonical(data):
    """The canonical layout by regular expression: every line [01](sep[01])+
    with the first line's separator byte, every line as long as the first."""
    lines = (data if data.endswith(b"\n") else data + b"\n").split(b"\n")[:-1]
    line = b"[01](?:" + re.escape(data[1:2]) + b"[01])+"
    return (data[1:2] in (b",", b" ", b"\t") and len({len(x) for x in lines}) == 1
            and all(re.fullmatch(line, x) for x in lines))


@st.composite
def canonical_files_with_one_byte_changed(draw):
    """A canonical file (1-30 rows of 2-70 columns, comma, space or tab, with
    or without a final newline), a byte offset in it and any new byte value,
    a layout byte often enough that some changed files stay canonical."""
    sep = draw(st.sampled_from([b",", b" ", b"\t"]))
    width = draw(st.integers(2, 70))
    row = st.lists(st.sampled_from([b"0", b"1"]), min_size=width, max_size=width)
    data = b"\n".join(sep.join(bits) for bits in draw(st.lists(row, min_size=1, max_size=30)))
    data += draw(st.sampled_from([b"", b"\n"]))
    byte = draw(st.sampled_from(b"01,\t \n") | st.integers(0, 255))
    return data, draw(st.integers(0, len(data) - 1)), byte


def one_changed_byte_cases(test):
    """``test(self, case)`` run on 300 cases of
    :func:`canonical_files_with_one_byte_changed` and on these examples."""
    # each pair (digit, separator) is read as one little-endian uint16 less
    # the expected pair: a digit below "0" wraps and borrows from the
    # separator byte, a digit above "1" or a separator off by one leaves more
    # than 1, and the newline slot is checked like a separator
    for case in [
        (b"0,1,1\n1,0,1\n", 2, ord("/")),
        (b"0,1,1\n1,0,1\n", 10, ord("2")),
        (b"0 1 1\n1 0 1", 10, ord("/")),
        (b"0,1\n1,0\n", 1, ord(",") - 1),
        (b"0,1\n1,0\n", 5, ord(",") + 1),
        (b"0 1\n1 0\n", 1, ord(" ") - 1),
        (b"0 1\n1 0\n", 1, ord(" ") + 1),
        (b"0\t1\n1\t0\n", 5, ord("\t") - 1),
        (b"0\t1\n1\t0\n", 5, ord("\t") + 1),
        (b"0 1\n1 0\n", 3, 0x0B),
        (b"0,1\n1,0\n", 7, 0x0B),
        (b"0 1 0\n", 5, 0x0B),
        (b"0,1\n1,0\n", 4, ord("0")),
    ]:
        test = example(case)(test)
    test = given(canonical_files_with_one_byte_changed())(test)
    return settings(max_examples=300, deadline=None)(test)


def assert_one_changed_byte_matches_line_parser(case):
    data, pos, byte = case
    data = data[:pos] + bytes([byte]) + data[pos + 1:]
    assert (parse_canonical(data) is not None) == is_canonical(data)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "d.data")
        with open(path, "wb") as fh:
            fh.write(data)
        assert load_outcome(load_dataset, path) == load_outcome(load_by_lines, path)


class TestCanonicalFastPath:
    """The canonical block reader against the line-by-line parser."""

    @pytest.mark.parametrize("sep", [",", " ", "\t"], ids=["comma", "space", "tab"])
    @pytest.mark.parametrize("final_newline", [True, False])
    @pytest.mark.parametrize("n_vars", [2, 3, 17, 69, 130])
    def test_matches_line_parser(self, tmp_path, rng, monkeypatch, sep, final_newline, n_vars):
        def line_parser_ran(*args, **kwargs):
            raise AssertionError("the line-by-line parser ran on a canonical file")

        for n_rows in (1, 25):
            X = (rng.random((n_rows, n_vars)) < 0.5).astype(int)
            text = "\n".join(sep.join(map(str, row)) for row in X)
            p = tmp_path / "canon.train.data"
            p.write_bytes(text.encode() + (b"\n" if final_newline else b""))
            assert parse_canonical(p.read_bytes()) is not None
            with monkeypatch.context() as m:
                m.setattr(dataset_mod.io, "TextIOWrapper", line_parser_ran)
                ds = load_dataset(str(p))
            ref = load_by_lines(str(p))
            np.testing.assert_array_equal(ds.X, ref.X)
            np.testing.assert_array_equal(ds.X, X)
            assert ds.X.dtype == np.uint8 and not ds.X.flags.writeable
            assert ds.name == ref.name == "canon.train"

    @pytest.mark.parametrize("text,message", [
        ("0,1,1\n1 0 1\n", "line 2: mixes comma and whitespace separators"),
        ("0 1 1\n1,0,1\n", "line 2: mixes comma and whitespace separators"),
        ("0 1 1\n1 0 1\n0 1,1\n", "line 3: mixes comma and whitespace separators"),
        ("0,1 1\n", "line 1: mixes comma and whitespace separators"),
        ("0,1\n0,2\n", "line 2: invalid token '2' (expected 0 or 1)"),
        ("0,1,0\n0,1\n", "line 2: expected 3 values, got 2"),
        ("", "empty file"),
        ("0\n1\n", "line 1: need at least 2 variables per instance, got 1"),
        ("0,1\n\n0,1\n", "line 2: empty line"),
        ("0,1\n0,\u00e9\n", "line 2: invalid token '\\udcc3\\udca9' (expected 0 or 1)"),
        ("\ufeff0,1\n1,0\n", "line 1: invalid token '\\udcef\\udcbb\\udcbf0' (expected 0 or 1)"),
    ], ids=["comma-then-space", "space-then-comma", "late-mix", "first-line-mix",
            "bad-token", "ragged", "empty", "one-variable", "blank-line", "non-ascii",
            "utf8-bom"])
    def test_malformed_files_name_their_line(self, tmp_path, text, message):
        p = tmp_path / "d.data"
        p.write_bytes(text.encode())
        with pytest.raises(DatasetFormatError) as err:
            load_dataset(str(p))
        assert str(err.value) == f"{p}: {message}"

    @pytest.mark.parametrize("text,message", [
        ("0,1,1\n10,1,1\n0,1,\n", "line 2: invalid token '10' (expected 0 or 1)"),
        ("0,1,1\n0,,1\n1,1,1,\n", "line 2: invalid token '' (expected 0 or 1)"),
        ("0,1,1\n0,1,1,\n0,1,\n", "line 2: expected 3 values, got 4"),
        ("0,1,0\n0,1\n0,1,0,1\n", "line 2: expected 3 values, got 2"),
        ("0,1,0\n0,1,0,1,0,1\n", "line 2: expected 3 values, got 6"),
    ], ids=["token-10", "empty-token", "trailing-comma", "ragged", "double-line"])
    def test_canonical_looking_files_rejected(self, tmp_path, text, message):
        # the byte length is a multiple of the first line's, so the file
        # reshapes; the column check must still reject it
        data = text.encode()
        assert len(data) % (data.index(b"\n") + 1) == 0
        assert parse_canonical(data) is None
        p = tmp_path / "d.data"
        p.write_bytes(data)
        with pytest.raises(DatasetFormatError) as err:
            load_dataset(str(p))
        assert str(err.value) == f"{p}: {message}"

    @one_changed_byte_cases
    def test_one_changed_byte_matches_line_parser(self, case):
        assert_one_changed_byte_matches_line_parser(case)


class TestCanonicalFastPathInSmallBlocks(TestCanonicalFastPath):
    """The same cases read in blocks of 40 bytes: a file spans several blocks
    of a few lines, a line of 17 or more values is longer than a block, a
    bad byte can sit in any block, and a missing final newline leaves the
    last block one byte short."""

    BLOCK = 40

    @pytest.fixture(autouse=True, scope="class")
    def small_blocks(self):
        with mock.patch.object(dataset_mod, "_BLOCK_BYTES", self.BLOCK):
            yield

    @one_changed_byte_cases  # its own test function: hypothesis runs each in one class
    def test_one_changed_byte_matches_line_parser(self, case):
        assert_one_changed_byte_matches_line_parser(case)

    @pytest.mark.parametrize("final_newline", [True, False])
    @pytest.mark.parametrize("n_vars", [2, 3, 17, 69])
    def test_reads_whole_lines_per_block(self, rng, n_vars, final_newline):
        class Reads(io.BytesIO):
            def readinto(self, b):
                sizes.append(memoryview(b).nbytes)
                return super().readinto(b)

        sizes = []
        X = (rng.random((25, n_vars)) < 0.5).astype(int)
        data = "\n".join(",".join(map(str, row)) for row in X).encode()
        data += b"\n" if final_newline else b""
        np.testing.assert_array_equal(_read_canonical(Reads(data)), X)
        stride = 2 * n_vars
        lines = max(1, self.BLOCK // stride)
        assert sizes == [stride * min(lines, 25 - start) for start in range(0, 25, lines)]

    @pytest.mark.parametrize("row", [0, 7, 13, 24])
    @pytest.mark.parametrize("byte", [ord("2"), ord("/"), ord(";"), 0x0B])
    def test_bad_byte_in_any_block_sends_the_file_to_the_line_parser(self, tmp_path, row, byte):
        # 25 lines of 3 values, 6 lines per block: rows 0, 7, 13 and 24 sit
        # in the first, second, third and (short) last block
        lines = [bytearray(b"0,1,1\n") for _ in range(25)]
        lines[row][2 * (row % 3) + (byte in (ord(";"), 0x0B))] = byte
        data = b"".join(lines)
        assert parse_canonical(data) is None
        p = tmp_path / "d.data"
        p.write_bytes(data)
        assert load_outcome(load_dataset, str(p)) == load_outcome(load_by_lines, str(p))
        assert f"line {row + 1}:" in load_outcome(load_dataset, str(p))


class TestCanonicalTiles:
    """Blocks whose line count is not a multiple of the loader's tile: the
    lines past the last whole tile are checked against the expected line
    one by one, and a bad byte there still rejects the file."""

    TILE = dataset_mod._TILE_ROWS
    LINES = 2 * TILE + 5  # lines per block: two whole tiles and five more

    def block(self, stride):
        return self.LINES * stride

    @pytest.mark.parametrize("n_vars", [3, 17])
    @pytest.mark.parametrize("final_newline", [True, False])
    def test_blocks_of_tiles_and_remainder_lines(self, rng, n_vars, final_newline):
        # a full block, then a short one with one whole tile and 7 lines more
        n = self.LINES + self.TILE + 7
        X = (rng.random((n, n_vars)) < 0.5).astype(int)
        data = "\n".join(",".join(map(str, row)) for row in X).encode()
        data += b"\n" if final_newline else b""
        with mock.patch.object(dataset_mod, "_BLOCK_BYTES", self.block(2 * n_vars)):
            np.testing.assert_array_equal(parse_canonical(data), X)

    @pytest.mark.parametrize("row", [3, 2 * TILE - 1, 2 * TILE, 2 * TILE + 4,
                                     LINES + TILE + 2, LINES + TILE + 5])
    @pytest.mark.parametrize("byte", [ord("2"), ord("/"), ord(";"), 0x0B])
    def test_bad_byte_in_tile_or_remainder_sends_the_file_to_the_line_parser(
            self, tmp_path, row, byte):
        # rows 3 and 127 sit in whole tiles of the first block, rows 128 and
        # 132 in its remainder lines, rows 199 and 202 in the remainder lines
        # of the short last block (a bad newline slot on the last line would
        # leave a file that the line parser accepts)
        lines = [bytearray(b"0,1,1\n") for _ in range(self.LINES + self.TILE + 7)]
        lines[row][2 * (row % 3) + (byte in (ord(";"), 0x0B))] = byte
        data = b"".join(lines)
        p = tmp_path / "d.data"
        p.write_bytes(data)
        with mock.patch.object(dataset_mod, "_BLOCK_BYTES", self.block(6)):
            assert parse_canonical(data) is None
            assert load_outcome(load_dataset, str(p)) == load_outcome(load_by_lines, str(p))
            assert f"line {row + 1}:" in load_outcome(load_dataset, str(p))


class TestLoadMemory:
    """A canonical load holds one copy of the instances plus one block, and
    its compression makes no second copy of them."""

    @pytest.fixture(scope="class")
    def path(self, tmp_path_factory):
        # 20,000 rows of 17 values drawn from 300 patterns, so that the
        # unique rows stay few, as in the msnbc split
        rng = np.random.default_rng(7)
        patterns = (rng.random((300, 17)) < 0.3).astype(int)
        X = patterns[rng.integers(0, 300, 20_000)]
        path = tmp_path_factory.mktemp("memory") / "wide.train.data"
        path.write_text("".join(",".join(map(str, row)) + "\n" for row in X))
        return str(path)

    @pytest.mark.parametrize("block", [dataset_mod._BLOCK_BYTES, 1 << 16])
    def test_peak_is_one_copy_plus_one_block(self, path, block):
        # a 64 KiB block is a fifth of X: a second copy of X would show
        with mock.patch.object(dataset_mod, "_BLOCK_BYTES", block):
            tracemalloc.start()  # numpy reports its buffers here
            try:
                ds = load_dataset(path)
                load_peak = tracemalloc.get_traced_memory()[1]
                ds.compressed()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        n, v = ds.X.shape
        one_copy_and_a_block = ds.X.nbytes + block + 64 * 1024
        assert load_peak <= one_copy_and_a_block
        # compression adds its row codes (4 bytes per row), its block
        # temporaries and its table of all 2**17 codes (4 bytes each), never
        # a copy of X
        assert peak <= one_copy_and_a_block + 8 * n + 4 * 2**v

    def test_wide_rows_keep_one_byte_per_unique_value(self, rng):
        # plants-like: 17,412 rows of 69 columns drawn from half as many
        # patterns, so that about 43% of the rows are distinct and are
        # grouped by the lexsort of their words
        n, v = 17_412, 69
        patterns = rng.random((n // 2, v)) < 0.3
        ds = DataSet(patterns[rng.integers(0, n // 2, n)])
        tracemalloc.start()  # above the instances, which are already held
        try:
            rows, weights = ds.compressed()
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        u = rows.shape[0]
        assert 0.35 * n < u < 0.6 * n
        # what compression keeps: one byte per unique value (u * 69, about
        # 0.52 MB here) plus the float64 weights (8 u); float64 rows would
        # keep eight bytes per value, 4.2 MB
        assert kept <= u * v + 8 * u + 64 * 1024
        # its peak: that, plus what lives until it returns: the rows' lexsort
        # words (two uint64 per row, 16 n), their int64 order (8 n), the
        # new-group mask (n), and the int64 group starts and counts (16 u)
        assert peak <= u * v + 8 * u + 16 * n + 8 * n + n + 16 * u + 64 * 1024

    def test_line_parser_peak_is_its_buffer(self, path, tmp_path):
        # CRLF line ends send the file to the line-by-line parser, whose byte
        # buffer becomes the dataset's array without a copy
        crlf = tmp_path / "wide.crlf.data"
        with open(path, "rb") as src:
            crlf.write_bytes(src.read().replace(b"\n", b"\r\n"))
        tracemalloc.start()
        try:
            ds = load_dataset(str(crlf))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        np.testing.assert_array_equal(ds.X, load_dataset(path).X)
        assert not ds.X.flags.writeable
        assert peak < 1.5 * ds.X.nbytes

    def test_loaded_instances_are_read_only_and_held_by_the_dataset_alone(self, path):
        read = []
        with mock.patch.object(dataset_mod, "_read_canonical",
                               lambda fh: read.append(_read_canonical(fh)) or read[0]):
            ds = load_dataset(path)
        X = ds.X
        assert X is read.pop()  # the reader's array itself, not a copy
        assert X.dtype == np.uint8 and X.flags.c_contiguous and X.flags.owndata
        assert not X.flags.writeable
        with pytest.raises(ValueError):
            X[0, 0] = 1
        # X owns its buffer, so a view of it would keep it alive: once the
        # dataset goes, nothing of the loader may hold it
        gone = weakref.ref(X)
        del ds, X
        gc.collect()
        assert gone() is None

    def test_loader_path_runs_the_constructor_checks(self):
        for X, message in [(np.zeros((2, 1), np.uint8), "at least 2 variables"),
                           (np.zeros((0, 2), np.uint8), "at least 1 instance"),
                           (np.array([[0, 2]], np.uint8), "must be 0 or 1")]:
            with pytest.raises(ValueError, match=message):
                DataSet._over(X, "d")


class TestDataSetValidation:
    def test_non_binary_rejected(self):
        # each of these would wrap or truncate to 0 or 1 in a uint8 cast
        for bad in (2.0, 256, 257, -255, 0.5, 1.5, np.nan):
            with pytest.raises(ValueError, match="must be 0 or 1"):
                DataSet(np.array([[0, 1], [1, bad]]))

    @pytest.mark.parametrize("dtype,bad", [
        (np.uint8, 2), (np.uint16, 256), (np.uint32, 256), (np.uint64, 2**63),
        (np.int8, -1), (np.float32, 0.5), (np.float64, np.nan),
    ])
    def test_non_binary_rejected_in_every_dtype(self, dtype, bad):
        # an unsigned array is checked by its maximum, before the cast that
        # would wrap 256 and 2**63 to 0; a signed or float one by its values
        with pytest.raises(ValueError, match="must be 0 or 1"):
            DataSet(np.array([[0, 1], [1, bad]], dtype=dtype))

    @pytest.mark.parametrize("dtype", [
        bool, np.int64, np.uint8, np.uint16, np.uint32, np.uint64, np.float64])
    def test_binary_inputs_become_read_only_uint8(self, dtype):
        bits = [[0, 1, 1], [1, 0, 1]]
        for order in ("C", "F"):
            ds = DataSet(np.array(bits, dtype=dtype, order=order))
            assert ds.X.dtype == np.uint8 and ds.X.flags.c_contiguous
            assert not ds.X.flags.writeable
            np.testing.assert_array_equal(ds.X, bits)

    def test_dataset_owns_its_bits(self):
        # a view of the caller's array would follow its writes, while the
        # cached compressed rows stayed as they were
        bits = [[0, 1], [1, 0], [1, 1], [0, 1]]
        for dtype in (np.uint8, np.float64):
            base = np.array(bits + [[0, 0]], dtype=dtype)
            DataSet(base)
            ds = DataSet(base[:4])
            ds.compressed()
            base[:] = 1 - base
            assert base.flags.writeable
            np.testing.assert_array_equal(ds.X, bits)
            rows, weights = ds.compressed()
            np.testing.assert_array_equal(rows, [[0, 1], [1, 0], [1, 1]])
            np.testing.assert_array_equal(weights, [2, 1, 1])

    def test_wrong_rank_rejected(self):
        with pytest.raises(ValueError):
            DataSet(np.zeros(4))

    def test_array_is_read_only(self, toy_dataset):
        with pytest.raises(ValueError):
            toy_dataset.X[0, 0] = 1.0

    def test_spawned_pool_worker_gets_read_only_arrays_and_the_cache(self, rng):
        # under spawn the pool's arguments reach the worker by pickling
        ds = random_dataset(rng, 5, 40)
        tree = chow_liu_tree(ds)
        BlanketTables(ds, tree).ones  # caches the columns and the nonzero pairs
        with concurrent.futures.ProcessPoolExecutor(
                1, mp_context=multiprocessing.get_context("spawn")) as pool:
            cached, flags, arrays, got_tree = pool.submit(_state_in_worker, ds).result()
        assert cached == ["chow_liu_tree", "columns", "compressed", "nonzero"]
        assert flags == [False] * 7 and got_tree == tree
        here = (ds.X, *ds.compressed(), ds._cache["columns"], *ds._cache["nonzero"])
        for a, b in zip(arrays, here, strict=True):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()

    def test_compressed_preserves_weighted_counts(self, toy_dataset):
        rows, weights = toy_dataset.compressed()
        assert weights.sum() == toy_dataset.n_instances
        np.testing.assert_allclose(
            weights @ rows, toy_dataset.X.sum(axis=0))
        # unique rows only
        assert len(np.unique(rows, axis=0)) == rows.shape[0]

    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 200), st.integers(1, 12), st.integers(0, 10**6))
    @example(16, 12, 0)
    @example(32, 12, 1)
    @example(64, 12, 2)
    def test_compressed_round_trip(self, n_rows, n_patterns, seed):
        # rows drawn from a few patterns, so most rows are duplicates; the
        # widths cross the 32-bit word of a narrow key and the 64-bit word
        # boundaries of a wide one, and 2**width for widths 7-10 falls below,
        # at and above 8 times the row count of the examples, where grouping
        # switches from code buckets to sorting
        rng = np.random.default_rng(seed)
        for n_vars in (2, 3, 5, 6, 7, 8, 9, 10, 31, 32, 33, 63, 64, 65, 130):
            patterns = rng.random((n_patterns, n_vars)) < rng.random()
            ds = DataSet(patterns[rng.integers(0, n_patterns, n_rows)].astype(float))
            with mock.patch.object(np, "lexsort", wraps=np.lexsort) as lexsort:
                rows, weights = ds.compressed()
            assert lexsort.call_count == (2**n_vars > 8 * n_rows)
            ref_rows, ref_counts = np.unique(ds.X, axis=0, return_counts=True)
            np.testing.assert_array_equal(rows, ref_rows)
            np.testing.assert_array_equal(weights, ref_counts)
            assert rows.dtype == ref_rows.dtype == np.uint8 and weights.dtype == np.float64
            assert rows.flags.c_contiguous
            assert not rows.flags.writeable and not weights.flags.writeable
            rebuilt = np.repeat(rows, weights.astype(int), axis=0)
            orig = ds.X[np.lexsort(ds.X.T[::-1])]
            np.testing.assert_array_equal(rebuilt, orig)


# widths with no full 8-column read (2-7), no partial one (8, 16, 24) and
# both, across the 32-bit word of a narrow row and the 64-bit words beyond
KERNEL_WIDTHS = [*range(2, 10), 15, 16, 17, 24, 25, 31, 32, 33, 63, 64, 65, 69]


def kernel_row_counts(n_vars):
    """Row counts on both sides of 2**n_vars <= 8 * rows, where compression
    switches from the code table to the lexsort, as far as they are small."""
    edge = 2 ** max(0, n_vars - 3)  # the fewest rows counted through the table
    counts = [max(edge, 64)] if edge <= 20_000 else []
    if edge > 1:
        counts.append(min(edge - 1, 2000))
    return counts


class TestRowCompression:
    """The 8-column row packing and the table count against plain references."""

    @pytest.mark.parametrize("n_vars", KERNEL_WIDTHS)
    def test_row_words_equal_shift_or_words(self, rng, n_vars):
        X = (rng.random((300, n_vars)) < 0.5).astype(np.uint8)
        X[:4] = [[0] * n_vars, [1] * n_vars, [1] + [0] * (n_vars - 1), [0] * (n_vars - 1) + [1]]
        words = _row_words(X)
        ref = _shift_or_words(X.T, range(n_vars))
        assert words.dtype == ref.dtype == (np.uint32 if n_vars <= 32 else np.uint64)
        np.testing.assert_array_equal(words, ref)

    @pytest.mark.parametrize("n_vars", KERNEL_WIDTHS)
    @pytest.mark.parametrize("block", [64, 256, "thirds"])
    def test_compressed_in_small_row_blocks(self, rng, n_vars, block):
        # blocks of 64 and 256 bytes: a few rows each, and fewer bytes than
        # one row of 65 or more columns, so that the row packing and
        # group_rows' key packing take one row per block; "thirds": blocks
        # that make the row packing and group_rows' key packing
        # (_BLOCK_BYTES // n_vars rows per block) and compression's code
        # table marking and counting (_BLOCK_BYTES // 32) span at least 3
        # blocks each, on both sides of the switch to the lexsort
        for n in [300] if block != "thirds" else kernel_row_counts(n_vars):
            # rows drawn from n // 4 patterns, so that most occur several times
            patterns = rng.random((max(1, n // 4), n_vars)) < rng.uniform(0.2, 0.8)
            ds = DataSet(patterns[rng.integers(0, len(patterns), n)])
            if block == "thirds":
                wide = 2**n_vars > 8 * n
                size = n_vars * max(1, n // 3) if wide else max(32, min(n_vars, 32) * (n // 3))
                assert -(-n // max(1, size // n_vars)) >= min(n, 3)
                assert wide or -(-n // (size // 32)) >= 3
            else:
                size = block
            ones = np.ones(n)
            whole = group_rows(ds.X.T.copy(), range(n_vars), ones)
            with mock.patch.object(dataset_mod, "_BLOCK_BYTES", size):
                rows, weights = ds.compressed()
                blocked = group_rows(ds.X.T, range(n_vars), ones)
            # the groups and totals alike; a group's row may be any member
            for a, b in zip(blocked[1:], whole[1:]):
                np.testing.assert_array_equal(a, b)
            np.testing.assert_array_equal(blocked[1][blocked[0]], np.arange(blocked[0].size))
            ref_rows, ref_counts = np.unique(ds.X, axis=0, return_counts=True)
            np.testing.assert_array_equal(rows, ref_rows)
            np.testing.assert_array_equal(weights, ref_counts)
            BlanketTables(ds, ())
            columns = ds._cache["columns"]  # the tables' copy of the rows
            assert columns.dtype == np.uint8 and columns.flags.c_contiguous
            assert not columns.flags.writeable
            np.testing.assert_array_equal(columns, ref_rows.T)


class TestGroupRows:
    """group_rows on both sides of the switch from the code table to the
    lexsort, with random keys and positive non-integer weights."""

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("width", [1, 2, 5, 10])
    def test_groups_and_totals(self, seed, width):
        rng = np.random.default_rng(seed)
        n, V = 200, 12
        patterns = rng.random((40, V)) < rng.uniform(0.2, 0.8)
        columns = np.ascontiguousarray(patterns[rng.integers(0, 40, n)].T, dtype=np.uint8)
        weights = rng.uniform(0.1, 3.0, n)
        key = [int(c) for c in rng.choice(V, width, replace=False)]
        # repeats of the first key column at the end change no group and no
        # group order, but make the key too wide for the code table
        wide = key + [key[0]] * 11
        assert 2 ** len(key) <= 8 * n < 2 ** len(wide)
        table, lexsort = group_rows(columns, key, weights), group_rows(columns, wide, weights)
        for rows, inv, totals in (table, lexsort):
            assert rows.dtype == np.intp and inv.dtype == np.int32
            # each returned row belongs to its own group
            np.testing.assert_array_equal(inv[rows], np.arange(rows.size))
            want = np.bincount(inv, weights=weights)
            assert totals.dtype == want.dtype and totals.tobytes() == want.tobytes()
        assert table[1].tobytes() == lexsort[1].tobytes()
        assert table[2].tobytes() == lexsort[2].tobytes()
        # groups in the lexicographic order of the key columns
        ref = np.unique(columns[key].T, axis=0, return_inverse=True)[1]
        np.testing.assert_array_equal(table[1], ref.ravel())


class TestCounts:
    """The 2x2 pair counts and the marginal counts of the data, seen through
    the mutual information that is computed from them."""

    def test_pair_counts_by_hand(self):
        ds = make_dataset(["00", "01", "10", "11", "11"])
        assert pair_table(ds.X, 0, 1) == (1, 1, 1, 2)
        assert mutual_information(ds, 0, 1) == pytest.approx(
            mi_from_counts(1, 1, 1, 2), rel=1e-12, abs=1e-14)

    def test_pair_counts_symmetric(self, toy_dataset):
        # swapping the variables transposes the table; the MI is unchanged
        n00, n01, n10, n11 = pair_table(toy_dataset.X, 0, 2)
        assert pair_table(toy_dataset.X, 2, 0) == (n00, n10, n01, n11)
        assert mutual_information(toy_dataset, 0, 2) == mutual_information(toy_dataset, 2, 0)
        M = mutual_information_matrix(toy_dataset)
        np.testing.assert_array_equal(M, M.T)

    def test_pair_counts_rejects_same_variable(self, toy_dataset):
        with pytest.raises(ValueError, match="distinct"):
            mutual_information(toy_dataset, 1, 1)

    def test_pair_counts_rejects_out_of_range(self, toy_dataset):
        # a plain lookup in the MI matrix would wrap the negative indices
        for i, j in ((0, 99), (99, 0), (-1, 0), (0, -1), (-4, 0)):
            with pytest.raises(IndexError, match="out of range"):
                mutual_information(toy_dataset, i, j)

    def test_marginal_count(self):
        # a column and its copy share all information: the entropy of the
        # column, which depends on the data only through its marginal count, 3 of 5
        ds = make_dataset(["110", "111", "000", "110", "001"])
        p = 3 / 5
        entropy = -(p * math.log(p) + (1 - p) * math.log(1 - p))
        assert mutual_information(ds, 0, 1) == pytest.approx(entropy, rel=1e-12)
        assert mutual_information(ds, 0, 2) < entropy

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10**6))
    def test_pair_counts_sum_to_total(self, seed):
        rng = np.random.default_rng(seed)
        ds = DataSet((rng.random((40, 4)) < 0.4).astype(float))
        table = pair_table(ds.X, 1, 3)
        assert sum(table) == 40
        assert mutual_information(ds, 1, 3) == pytest.approx(
            mi_from_counts(*table), rel=1e-12, abs=1e-14)
