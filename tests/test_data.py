"""Dataset container, design matrix, seeding, split protocol, and CSV reader."""

import csv
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sslogit.data import (
    SplitDataset,
    build_design,
    derive_seed,
    make_rng,
    read_csv,
    split_labeled_unlabeled,
)
from sslogit.errors import DataError, ParameterError


def small_data(n1=4, n0=3, p=2, seed=0):
    rng = make_rng(seed)
    return SplitDataset(
        labeled_x=rng.normal(size=(n1, p)),
        labeled_y=(rng.random(n1) < 0.5).astype(np.uint8),
        unlabeled_x=rng.normal(size=(n0, p)),
    )


class TestBuildDesign:
    def test_prepends_ones_column(self):
        x = np.array([[1.0, 2.0], [3.0, 4.0]])
        d = build_design(x)
        assert d.shape == (2, 3)
        np.testing.assert_array_equal(d[:, 0], [1.0, 1.0])
        np.testing.assert_array_equal(d[:, 1:], x)

    def test_empty_matrix_rejected(self):
        with pytest.raises(DataError, match="empty design"):
            build_design(np.empty((0, 2)))


class TestSplitDataset:
    def test_counts(self):
        data = small_data()
        assert data.n_labeled == 4
        assert data.n_unlabeled == 3
        assert data.n_features == 2

    def test_cached_designs_match_build_design(self):
        data = small_data()
        np.testing.assert_array_equal(data.labeled_design, build_design(data.labeled_x))
        np.testing.assert_array_equal(
            data.unlabeled_design, build_design(data.unlabeled_x)
        )
        np.testing.assert_array_equal(
            data.stacked_design,
            np.vstack([data.labeled_design, data.unlabeled_design]),
        )
        assert data.stacked_design is data.stacked_design
        with pytest.raises(ValueError):
            data.labeled_design[0, 0] = 2.0

    def test_empty_unlabeled_design_keeps_its_columns(self):
        data = SplitDataset(
            labeled_x=np.ones((3, 2)),
            labeled_y=np.array([0, 1, 0], dtype=np.uint8),
            unlabeled_x=np.empty((0, 2)),
        )
        assert data.unlabeled_design.shape == (0, 3)

    def test_no_unlabeled_allowed(self):
        rng = make_rng(1)
        data = SplitDataset(
            labeled_x=rng.normal(size=(5, 2)),
            labeled_y=np.zeros(5, dtype=np.uint8),
            unlabeled_x=np.empty((0, 2)),
        )
        assert data.n_unlabeled == 0

    def test_zero_labeled_rejected(self):
        with pytest.raises(DataError):
            SplitDataset(
                labeled_x=np.empty((0, 2)),
                labeled_y=np.empty(0, dtype=np.uint8),
                unlabeled_x=np.zeros((3, 2)),
            )

    def test_feature_count_mismatch_rejected(self):
        rng = make_rng(2)
        with pytest.raises(DataError):
            SplitDataset(
                labeled_x=rng.normal(size=(4, 2)),
                labeled_y=np.zeros(4, dtype=np.uint8),
                unlabeled_x=rng.normal(size=(3, 5)),
            )

    def test_non_binary_labels_rejected(self):
        rng = make_rng(3)
        with pytest.raises(DataError):
            SplitDataset(
                labeled_x=rng.normal(size=(3, 2)),
                labeled_y=np.array([0, 1, 2]),
                unlabeled_x=rng.normal(size=(2, 2)),
            )

    def test_non_finite_rejected(self):
        x = np.array([[0.0, np.nan], [1.0, 2.0]])
        with pytest.raises(DataError):
            SplitDataset(
                labeled_x=x,
                labeled_y=np.array([0, 1]),
                unlabeled_x=np.zeros((1, 2)),
            )

    def test_test_block_requires_both_parts(self):
        rng = make_rng(4)
        with pytest.raises(DataError):
            SplitDataset(
                labeled_x=rng.normal(size=(3, 2)),
                labeled_y=np.zeros(3, dtype=np.uint8),
                unlabeled_x=rng.normal(size=(2, 2)),
                test_x=rng.normal(size=(2, 2)),
            )


class TestSeeding:
    def test_same_seed_same_stream(self):
        a = make_rng(17).normal(size=5)
        b = make_rng(17).normal(size=5)
        np.testing.assert_array_equal(a, b)

    def test_derive_seed_deterministic(self):
        assert derive_seed(5, 1) == derive_seed(5, 1)

    def test_derive_seed_salts_differ(self):
        assert derive_seed(5, 1) != derive_seed(5, 2)
        assert derive_seed(5, 1) != derive_seed(6, 1)

    @pytest.mark.parametrize("seed", [-1, np.int64(-5)])
    def test_negative_seed_is_a_parameter_error(self, seed):
        # numpy's own seeding raises a bare ValueError for these.
        message = f"seed must be a non-negative integer, got {seed}"
        with pytest.raises(ParameterError, match=message):
            make_rng(seed)
        with pytest.raises(ParameterError, match=message):
            derive_seed(seed, 1)


class TestSplitLabeledUnlabeled:
    # Labeled count is round-half-up of fraction*n, floored at 1.
    @pytest.mark.parametrize(
        "n, fraction, expected",
        [(300, 0.05, 15), (7, 0.5, 4), (10, 0.25, 3), (100, 0.005, 1), (6, 0.25, 2)],
    )
    def test_labeled_count(self, n, fraction, expected):
        x = np.arange(2 * n, dtype=float).reshape(n, 2)
        y = (np.arange(n) % 2).astype(np.uint8)
        data = split_labeled_unlabeled(x, y, fraction, seed=0)
        assert data.n_labeled == expected
        assert data.n_unlabeled == n - expected

    def test_partition_preserves_rows(self):
        rng = make_rng(9)
        x = rng.normal(size=(20, 3))
        y = (rng.random(20) < 0.5).astype(np.uint8)
        data = split_labeled_unlabeled(x, y, 0.3, seed=4)
        combined = np.vstack([data.labeled_x, data.unlabeled_x])
        assert sorted(map(tuple, combined)) == sorted(map(tuple, x))

    def test_deterministic_in_seed(self):
        rng = make_rng(10)
        x = rng.normal(size=(12, 2))
        y = (rng.random(12) < 0.5).astype(np.uint8)
        a = split_labeled_unlabeled(x, y, 0.4, seed=7)
        b = split_labeled_unlabeled(x, y, 0.4, seed=7)
        np.testing.assert_array_equal(a.labeled_x, b.labeled_x)
        np.testing.assert_array_equal(a.labeled_y, b.labeled_y)

    @given(
        n=st.integers(min_value=2, max_value=60),
        fraction=st.floats(min_value=0.05, max_value=0.95),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_sizes_match_rounding_rule(self, n, fraction, seed):
        x = np.arange(2 * n, dtype=float).reshape(n, 2)
        y = (np.arange(n) % 2).astype(np.uint8)
        data = split_labeled_unlabeled(x, y, fraction, seed=seed)
        expected = min(n, max(1, int(np.floor(fraction * n + 0.5))))
        assert data.n_labeled == expected
        assert data.n_labeled + data.n_unlabeled == n


def read_features_by_loop(path):
    """read_csv(path, has_label=False) by the checked csv row loop alone."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh, strict=True)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file") from None
        feats = []
        lineno = 1
        try:
            for lineno, row in enumerate(reader, start=2):
                if not row:
                    continue
                if len(row) != len(header):
                    raise DataError(
                        f"{path}: row {lineno} has {len(row)} fields, expected {len(header)}"
                    )
                try:
                    feats.append([float(v) for v in row])
                except ValueError:
                    raise DataError(f"{path}: row {lineno} has a non-numeric feature") from None
        except csv.Error as exc:
            raise DataError(f"{path}: row {lineno + 1}: {exc}") from None
    if not feats:
        raise DataError(f"{path}: no data rows")
    return np.asarray(feats, dtype=np.float64)


def outcome(reader, path):
    """The array's dtype, shape and bytes, or the DataError message."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            x = reader(path)
        except DataError as exc:
            return "error", str(exc)
    return "ok", x.dtype, x.shape, x.tobytes(), x.flags.c_contiguous


def read_features(path):
    x, y = read_csv(path, has_label=False)
    assert y is None
    return x


class TestReadCsvFeatures:
    """A features-only body goes through one C parse first; the result
    must be the row loop's, array or error, for every body."""

    @given(
        rows=st.lists(
            st.lists(st.floats(width=64), min_size=3, max_size=3), min_size=1, max_size=25
        ),
        style=st.sampled_from(["%.17g", "repr"]),
        newline=st.sampled_from(["\n", "\r\n"]),
        blank_after=st.integers(min_value=-1, max_value=25),
    )
    @settings(max_examples=80, deadline=None)
    def test_tables_equal_the_row_loop(self, tmp_path_factory, rows, style, newline, blank_after):
        fmt = repr if style == "repr" else (lambda v: "%.17g" % v)
        lines = ["x0,x1,x2"] + [",".join(fmt(v) for v in row) for row in rows]
        if blank_after >= 0:
            lines.insert(min(blank_after, len(lines) - 1) + 1, "")
        path = tmp_path_factory.mktemp("csv") / "features.csv"
        path.write_bytes(newline.join(lines).encode() + newline.encode())
        assert outcome(read_features, path) == outcome(read_features_by_loop, path)

    @pytest.mark.parametrize(
        "body",
        [
            '"1.0",2.0\n',
            '"1.0,2.0",3.0\n',
            "#1.0,2.0\n",
            "1.0,2.0\n#3.0,4.0\n",
            "1.0,2.0,3.0\n4.0,5.0,6.0\n",
            "1.0,2.0\n \n3.0,4.0\n",
            "1.0,2.0\n\t\n",
            "1.0,2.0\n3.0\n",
            "1.0,2.0,\n3.0,4.0,\n",
            "1.0,,2.0\n",
            "1_0,2.0\n",
            "1.0,2.0\r\n3.0,4.0\r\n",
            "1.0,2.0\r3.0,4.0\r",
            " 1.0 , 2.0 \n",
            "nan,-inf\nInfinity,-0\n",
            "0x10,2.0\n",
            "1.0,2.0\n\n\n",
            "\n\n",
            "",
            '1.0,2.0\n3.0,"4.0\n',
            '1.0,"2.0\n3.0",4.0\n',
            '"1.0"x,2.0\n',
        ],
        ids=[
            "quoted", "quoted-comma", "hash-row", "hash-row-after-data", "wide-rows", "whitespace-line", "tab-line",
            "ragged", "trailing-comma", "empty-field", "underscore", "crlf", "cr",
            "padded", "nonfinite", "hex", "trailing-blank-lines", "blank-body", "empty-body",
            "unterminated-quote", "quoted-newline", "text-after-quote",
        ],
    )
    def test_bodies_give_the_row_loop_result(self, tmp_path, body):
        path = tmp_path / "features.csv"
        path.write_bytes(b"x0,x1\n" + body.encode())
        assert outcome(read_features, path) == outcome(read_features_by_loop, path)

    @pytest.mark.parametrize(
        "body, message",
        [("1.0\n \n", "row 3 has a non-numeric feature"), ("", "no data rows")],
        ids=["whitespace-line", "empty-body"],
    )
    def test_single_column_errors(self, tmp_path, body, message):
        path = tmp_path / "features.csv"
        path.write_text("x0\n" + body)
        assert outcome(read_features, path) == ("error", f"{path}: {message}")
