"""Dataset loading, validation, and sufficient-statistics counts."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from forced_pruning import DataSet, DatasetFormatError, load_dataset, marginal_count, pair_counts

from conftest import make_dataset, write_data_file


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
    ], ids=["spaces", "tabs", "mixed-whitespace"])
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


class TestDataSetValidation:
    def test_non_binary_rejected(self):
        with pytest.raises(ValueError):
            DataSet(np.array([[0.0, 2.0]]))

    def test_wrong_rank_rejected(self):
        with pytest.raises(ValueError):
            DataSet(np.zeros(4))

    def test_array_is_read_only(self, toy_dataset):
        with pytest.raises(ValueError):
            toy_dataset.X[0, 0] = 1.0

    def test_compressed_preserves_weighted_counts(self, toy_dataset):
        rows, weights = toy_dataset.compressed()
        assert weights.sum() == toy_dataset.n_instances
        np.testing.assert_allclose(
            weights @ rows, toy_dataset.X.sum(axis=0))
        # unique rows only
        assert len(np.unique(rows, axis=0)) == rows.shape[0]

    @settings(max_examples=25, deadline=None)
    @given(st.integers(2, 5), st.integers(1, 30), st.integers(0, 10**6))
    def test_compressed_round_trip(self, n_vars, n_rows, seed):
        rng = np.random.default_rng(seed)
        ds = DataSet((rng.random((n_rows, n_vars)) < 0.5).astype(float))
        rows, weights = ds.compressed()
        rebuilt = np.repeat(rows, weights.astype(int), axis=0)
        orig = ds.X[np.lexsort(ds.X.T[::-1])]
        np.testing.assert_array_equal(rebuilt, orig)


class TestCounts:
    def test_pair_counts_by_hand(self):
        ds = make_dataset(["00", "01", "10", "11", "11"])
        c = pair_counts(ds, 0, 1)
        assert (c.n00, c.n01, c.n10, c.n11) == (1, 1, 1, 2)
        assert c.total == 5

    def test_pair_counts_symmetric(self, toy_dataset):
        a = pair_counts(toy_dataset, 0, 2)
        b = pair_counts(toy_dataset, 2, 0)
        assert a.n11 == b.n11 and a.n00 == b.n00
        assert a.n01 == b.n10 and a.n10 == b.n01

    def test_pair_counts_rejects_same_variable(self, toy_dataset):
        with pytest.raises(ValueError):
            pair_counts(toy_dataset, 1, 1)

    def test_pair_counts_rejects_out_of_range(self, toy_dataset):
        with pytest.raises(IndexError):
            pair_counts(toy_dataset, 0, 99)

    def test_marginal_count(self, toy_dataset):
        assert marginal_count(toy_dataset, 0) == int(toy_dataset.X[:, 0].sum())

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10**6))
    def test_pair_counts_sum_to_total(self, seed):
        rng = np.random.default_rng(seed)
        ds = DataSet((rng.random((40, 4)) < 0.4).astype(float))
        c = pair_counts(ds, 1, 3)
        assert c.n00 + c.n01 + c.n10 + c.n11 == c.total == 40
