import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sklpdm import dataset
from sklpdm import (
    DataError,
    LabeledDataset,
    gen_gaussian_classes,
    gen_ring_classes,
    leave_one_group_out,
    load_csv,
    save_csv,
    with_groups,
)

from oracles import csv_rows_oracle, knn_oracle


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestLoadCsv:
    def test_two_rows(self, tmp_path):
        path = write(tmp_path, "label,f0,f1\na,1,2\nb,3,4\n")
        data = load_csv(path)
        assert data.class_count == 2
        assert data.features.shape == (2, 2)
        np.testing.assert_array_equal(data.features, [[1.0, 3.0], [2.0, 4.0]])
        np.testing.assert_array_equal(data.labels, [0, 1])
        assert data.label_names == ("a", "b")

    def test_single_sample(self, tmp_path):
        data = load_csv(write(tmp_path, "label,f0\nonly,5\n"))
        assert data.sample_count == 1
        assert data.class_count == 1

    def test_non_numeric_cell_names_location(self, tmp_path):
        path = write(tmp_path, "label,f0,f1\na,1,x\n")
        with pytest.raises(DataError, match=r"row 1.*column f1"):
            load_csv(path)

    def test_missing_label_column(self, tmp_path):
        with pytest.raises(DataError, match="label"):
            load_csv(write(tmp_path, "f0,f1\n1,2\n"))

    def test_empty_file(self, tmp_path):
        with pytest.raises(DataError, match="empty"):
            load_csv(write(tmp_path, ""))

    def test_ragged_row(self, tmp_path):
        with pytest.raises(DataError, match="row 2"):
            load_csv(write(tmp_path, "label,f0,f1\na,1,2\nb,3\n"))

    def test_group_column(self, tmp_path):
        data = load_csv(write(tmp_path, "label,f0,group\na,1,p0\na,2,p1\nb,3,p0\n"))
        np.testing.assert_array_equal(data.groups, [0, 1, 0])
        assert data.group_names == ("p0", "p1")

    def test_non_finite_cell(self, tmp_path):
        with pytest.raises(DataError, match=r"row 1.*column f0"):
            load_csv(write(tmp_path, "label,f0\na,nan\n"))

    def test_cells_parse_as_python_float(self, tmp_path):
        cells = [" 1.5", "1_000", "+2", "-0", "1e3 ", ".5", "5e-324", "0x1p3"]
        valid = []
        for cell in cells:
            try:
                valid.append((cell, float(cell)))
            except ValueError:
                with pytest.raises(DataError, match=r"row 1, column f0: non-numeric"):
                    load_csv(write(tmp_path, f"label,f0\na,{cell}\n"))
        text = "label,f0,group\n" + "".join(f"a,{cell},g\n" for cell, _ in valid)
        data = load_csv(write(tmp_path, text))
        assert data.features[0].tolist() == [value for _, value in valid]
        assert np.signbit(data.features[0, [c for c, _ in valid].index("-0")])

    def test_first_bad_row_reported(self, tmp_path):
        # a bad cell in row 2 comes before the ragged row 3 and the inf in row 4
        text = "f0,label,f1\n1,a,2\n3,b,x\n5,c\n1,a,inf\n"
        with pytest.raises(DataError, match=r"row 2, column f1: non-numeric value 'x'"):
            load_csv(write(tmp_path, text))
        text = "f0,label,f1\n1,a,2\n3,b\n1,a,inf\n"
        with pytest.raises(DataError, match=r"row 2: expected 3 fields, got 2"):
            load_csv(write(tmp_path, text))
        text = "f0,label,f1\n1,a,2\n3,b,-inf\n1,a,x\n"
        with pytest.raises(DataError, match=r"row 2, column f1: non-finite value '-inf'"):
            load_csv(write(tmp_path, text))

    def test_feature_columns_around_label_and_group(self, tmp_path):
        data = load_csv(write(tmp_path, "f0,group,f1,label,f2\n1,g,2,a,3\n4,h,5,b,6\n"))
        np.testing.assert_array_equal(data.features, [[1, 4], [2, 5], [3, 6]])
        assert data.label_names == ("a", "b") and data.group_names == ("g", "h")


_numbers = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308]
)
_number_forms = st.sampled_from([repr, "{:e}".format, "{:.17E}".format, "{:+.4g}".format])
_padding = st.sampled_from(["", " ", "  ", "\t", "\u00a0"])
_number_cells = st.builds(
    lambda left, form, value, right: left + form(value) + right,
    _padding, _number_forms, _numbers, _padding,
).filter(lambda cell: math.isfinite(float(cell)))  # "{:+.4g}" rounds the largest floats to inf
_names = st.text(
    st.characters(blacklist_categories=("Cs",), blacklist_characters=',"\r\n\x1c\x1d\x1e\x1f'),
    max_size=4,
)


@st.composite
def _plain_csv(draw):
    """Text of a plain CSV file, with the label and an optional group column anywhere."""
    n = draw(st.integers(1, 5))
    dim = draw(st.integers(1, 4))
    header = [f"f{j}" for j in range(dim)]
    rows = draw(st.lists(st.lists(_number_cells, min_size=dim, max_size=dim), min_size=n, max_size=n))
    names = ["label"] + (["group"] if draw(st.booleans()) else [])
    for name in names:
        at = draw(st.integers(0, len(header)))
        header.insert(at, name)
        for row in rows:
            row.insert(at, draw(_names))
    ending = draw(st.sampled_from(["\n", ""]))
    return "\n".join(",".join(row) for row in [header] + rows) + ending


def _both_paths(path):
    """(C-reader table, csv-module table) of one file."""
    with open(path, "r", encoding="utf-8", newline="") as handle:
        plain = dataset._read_plain(handle)
        handle.seek(0)
        rows = dataset._read_rows(path, handle)
    return plain, rows


class TestLoadCsvRouting:
    @settings(
        max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    @given(text=_plain_csv())
    def test_c_reader_matches_csv_module(self, tmp_path, text):
        path = write(tmp_path, text)
        plain, rows = _both_paths(path)
        assert plain is not None
        assert plain[0].shape == rows[0].shape
        assert plain[0].tobytes() == rows[0].tobytes()  # bit-identical, signs of zero included
        assert plain[1:] == rows[1:]

    @pytest.mark.parametrize(
        "text, expected",
        [
            ('label,f0\n"a,b",1\nc,2\n', ([[1.0, 2.0]], ("a,b", "c"))),
            ("label,f0,f1\r\na,1,2\r\nb,3,4\r\n", ([[1.0, 3.0], [2.0, 4.0]], ("a", "b"))),
            ("label,f0\na,1\n\nb,2\n", r"row 2: expected 2 fields, got 0"),
            ("label,f0\na,1\nb,2,3\n", r"row 2: expected 2 fields, got 3"),
            ("label,f0,f1\na,1,2\nb,3\n", r"row 2: expected 3 fields, got 2"),
            ("label,f0\na,1_000\n", ([[1000.0]], ("a",))),
            ("label,f0\na,1\nb,nan\n", r"row 2, column f0: non-finite value 'nan'"),
            ("label,f0\na,2\x1c\n", r"row 1, column f0: non-numeric value '2\\x1c'"),
        ],
        ids=["quoted-label", "crlf", "blank-line", "extra-field", "short-row", "underscore", "nan", "x1c"],
    )
    def test_unplain_files_take_the_csv_path(self, tmp_path, text, expected):
        path = write(tmp_path, text)
        with open(path, "r", encoding="utf-8", newline="") as handle:
            assert dataset._read_plain(handle) is None
        if isinstance(expected, str):
            with pytest.raises(DataError, match=expected):
                load_csv(path)
        else:
            data = load_csv(path)
            np.testing.assert_array_equal(data.features, expected[0])
            assert data.label_names == expected[1]

    def test_plain_file_takes_the_c_path(self, tmp_path, monkeypatch):
        def no_csv_path(*args):
            raise AssertionError("plain file fell back to the csv module")

        monkeypatch.setattr(dataset, "_read_rows", no_csv_path)
        data = load_csv(write(tmp_path, "f0,label,f1,group\n 1.5,a,-0.0,g\n2e3 ,b,5e-324,h\n"))
        assert data.features.tolist() == [[1.5, 2000.0], [-0.0, 5e-324]]
        assert np.signbit(data.features[1, 0])
        assert data.label_names == ("a", "b") and data.group_names == ("g", "h")

    @pytest.mark.parametrize(
        "text", ["label,f0,f1\na,1,2\nb,3,4\nc,5,6\n", 'label,f0,f1\n"a",1,2\nb,3,4\nc,5,6\n'],
        ids=["c-reader", "csv-module"],
    )
    def test_features_are_c_contiguous(self, tmp_path, text):
        """Each feature row is contiguous in memory, as the distance kernel reads it."""
        data = load_csv(write(tmp_path, text))
        assert data.features.flags.c_contiguous
        np.testing.assert_array_equal(data.features, [[1.0, 3.0, 5.0], [2.0, 4.0, 6.0]])

    def test_load_peak_memory_bound(self, tmp_path, traced_peak):
        rng = np.random.default_rng(12)
        n, dim = 2000, 180
        path = tmp_path / "wide.csv"
        save_csv(LabeledDataset(rng.standard_normal((dim, n)), np.arange(n) % 5, 5), path)
        peak = traced_peak(lambda: load_csv(path))
        # 6.1 MiB measured: the parsed matrix and the dataset's own copy. Parsing
        # every cell into a Python float first peaked at 32.5 MiB.
        assert peak <= 3 * n * dim * 8


class TestSaveCsv:
    def test_round_trip(self, tmp_path):
        original = load_csv(write(tmp_path, "label,f0,f1\na,1,2\nb,3,4\n"))
        out = tmp_path / "out.csv"
        save_csv(original, out)
        again = load_csv(out)
        np.testing.assert_array_equal(again.features, original.features)
        np.testing.assert_array_equal(again.labels, original.labels)

    def test_group_column_emitted(self, tmp_path):
        data = LabeledDataset(
            features=np.array([[1.0, 2.0]]),
            labels=np.array([0, 1]),
            class_count=2,
            label_names=("a", "b"),
            groups=np.array([0, 1]),
            group_names=("v0", "v1"),
        )
        out = tmp_path / "g.csv"
        save_csv(data, out)
        header = out.read_text().splitlines()[0]
        assert header == "label,f0,group"
        again = load_csv(out)
        np.testing.assert_array_equal(again.groups, data.groups)

    def test_zero_feature_dataset_rejected(self):
        with pytest.raises(DataError):
            LabeledDataset(
                features=np.zeros((0, 2)), labels=np.array([0, 1]), class_count=2
            )

    def test_round_trip_precision(self, tmp_path):
        rng = np.random.default_rng(3)
        data = LabeledDataset(
            features=rng.standard_normal((4, 12)) * 1e3,
            labels=rng.integers(0, 3, 12),
            class_count=3,
        )
        out = tmp_path / "p.csv"
        save_csv(data, out)
        again = load_csv(out)
        assert np.max(np.abs(again.features - data.features)) <= 1e-12

    def test_bytes_match_field_by_field_writer(self, tmp_path):
        rng = np.random.default_rng(5)
        features = rng.standard_normal((5, 9)) * 10.0 ** rng.integers(-300, 300, (5, 9))
        features[0, :3] = [-0.0, 5e-324, 0.1]
        names = ('a,b', 'say "hi"', "")
        group_names = ("v,1", 'q"', "line\nbreak")
        ids = np.arange(9) % 3
        header = ["label"] + [f"f{j}" for j in range(5)]
        labels = [names[i] for i in ids]
        out = tmp_path / "q.csv"
        plain = LabeledDataset(features=features, labels=ids, class_count=3, label_names=names)
        save_csv(plain, out)
        assert out.read_bytes().decode() == csv_rows_oracle(header, features.T, labels)
        grouped = LabeledDataset(
            features=features, labels=ids, class_count=3, label_names=names,
            groups=ids, group_names=group_names,
        )
        save_csv(grouped, out)
        groups = [group_names[i] for i in ids]
        assert out.read_bytes().decode() == csv_rows_oracle(header + ["group"], features.T, labels, groups)
        again = load_csv(out)
        np.testing.assert_array_equal(again.features, features)
        assert again.label_names == names and again.group_names == group_names

    @pytest.mark.parametrize("groups, group_names, message", [
        ([-1, 0, 0], None, r"group ids must be >= 0"),
        ([0, 1, 2], ("a", "b"), r"group ids must lie in \[0, 2\), one per group name"),
        (None, ("a",), r"group_names given without groups"),
    ])
    def test_group_ids_must_name_their_groups(self, groups, group_names, message):
        """Ids that save_csv could not write back as distinct names are rejected up front."""
        with pytest.raises(DataError, match=message):
            LabeledDataset(np.ones((1, 3)), [0, 1, 1], 2, groups=groups, group_names=group_names)

    def test_unwritable_path(self, tmp_path):
        data = LabeledDataset(features=np.ones((1, 1)), labels=[0], class_count=1)
        with pytest.raises(DataError):
            save_csv(data, tmp_path / "missing-dir" / "x.csv")


class TestGaussianGenerator:
    def test_zero_spread_zero_separation_collapses(self):
        data = gen_gaussian_classes(3, 4, 5, spread=0.0, separation=0.0, seed=1)
        assert np.max(np.abs(data.features - data.features[:, [0]])) == 0.0

    def test_seed_determinism(self):
        a = gen_gaussian_classes(4, 10, 6, 1.0, 5.0, seed=42)
        b = gen_gaussian_classes(4, 10, 6, 1.0, 5.0, seed=42)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)

    def test_mean_separation_honored(self):
        data = gen_gaussian_classes(4, 30, 8, spread=0.0, separation=7.0, seed=5)
        means = [data.features[:, data.labels == k].mean(axis=1) for k in range(4)]
        for a in range(4):
            for b in range(a + 1, 4):
                assert np.linalg.norm(means[a] - means[b]) >= 7.0 - 1e-9

    def test_wide_separation_knn_accuracy(self):
        data = gen_gaussian_classes(3, 50, 10, spread=1.0, separation=10.0, seed=9)
        train = np.arange(data.sample_count) % 2 == 0
        predicted = knn_oracle(
            data.features[:, train], data.labels[train], data.features[:, ~train], k=1
        )
        assert (predicted == data.labels[~train]).mean() >= 0.99


class TestRingGenerator:
    def test_zero_noise_radii_exact(self):
        data = gen_ring_classes(2, 25, noise=0.0, ambient_dim=4, seed=2)
        radii = np.linalg.norm(data.features, axis=0)
        expected = data.labels + 1.0
        assert np.max(np.abs(radii - expected)) < 1e-9

    def test_seed_determinism(self):
        a = gen_ring_classes(3, 15, 0.1, 5, seed=11)
        b = gen_ring_classes(3, 15, 0.1, 5, seed=11)
        assert np.array_equal(a.features, b.features)

    def test_small_noise_knn_accuracy(self):
        data = gen_ring_classes(2, 60, noise=0.05, ambient_dim=6, seed=3)
        train = np.arange(data.sample_count) % 2 == 0
        predicted = knn_oracle(
            data.features[:, train], data.labels[train], data.features[:, ~train], k=1
        )
        assert (predicted == data.labels[~train]).mean() >= 0.95

    def test_requires_three_ambient_dims(self):
        with pytest.raises(DataError):
            gen_ring_classes(2, 10, 0.1, 2, seed=0)


@pytest.mark.parametrize("generate, setting, value", [
    (lambda v: gen_gaussian_classes(2, 5, 3, v, 4.0, seed=0), "spread", v) for v in (math.nan, math.inf, -1.0)
] + [
    (lambda v: gen_gaussian_classes(2, 5, 3, 1.0, v, seed=0), "separation", v) for v in (math.nan, -math.inf)
] + [
    (lambda v: gen_ring_classes(2, 5, v, 3, seed=0), "noise", v) for v in (math.nan, math.inf, -0.1)
] + [
    (lambda v: gen_gaussian_classes(2, 5, 3, 1.0, 4.0, seed=v), "seed", -1),
    (lambda v: gen_ring_classes(2, 5, 0.1, 3, seed=v), "seed", -1),
])
def test_generator_setting_named(generate, setting, value):
    """A non-finite or negative spread, separation or noise, or a negative seed, is a DataError naming it."""
    with pytest.raises(DataError, match=f"^{setting} must be "):
        generate(value)


class TestLeaveOneGroupOut:
    def make(self, groups):
        groups = np.asarray(groups)
        n = len(groups)
        return LabeledDataset(
            features=np.arange(n, dtype=float)[None, :],
            labels=np.arange(n) % 2,
            class_count=2,
            groups=groups,
        )

    def test_one_fold_per_group(self):
        data = self.make(np.arange(10))
        assert len(leave_one_group_out(data)) == 10

    def test_two_groups_explicit(self):
        plan = leave_one_group_out(self.make([0, 0, 1]))
        (train0, test0), (train1, test1) = plan
        assert sorted(test0.tolist()) == [0, 1] and sorted(train0.tolist()) == [2]
        assert sorted(test1.tolist()) == [2] and sorted(train1.tolist()) == [0, 1]

    def test_single_group_rejected(self):
        with pytest.raises(DataError):
            leave_one_group_out(self.make([7, 7, 7, 7]))

    def test_missing_groups_rejected(self):
        data = LabeledDataset(features=np.ones((1, 2)), labels=[0, 1], class_count=2)
        with pytest.raises(DataError):
            leave_one_group_out(data)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=5), min_size=2, max_size=30))
    def test_fold_invariants(self, groups):
        if len(set(groups)) < 2:
            return
        plan = leave_one_group_out(self.make(groups))
        everything = set(range(len(groups)))
        groups = np.asarray(groups)
        for train, test in plan:
            assert set(train) | set(test) == everything
            assert set(train) & set(test) == set()
            assert set(groups[train]) & set(groups[test]) == set()


def test_with_groups_covers_all_classes_per_fold():
    data = gen_gaussian_classes(3, 12, 4, 1.0, 5.0, seed=0)
    grouped = with_groups(data, 4)
    for train, _test in leave_one_group_out(grouped):
        assert len(np.unique(grouped.labels[train])) == 3
