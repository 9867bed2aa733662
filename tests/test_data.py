import gzip
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfspn import data


TOY_CSV = """A,B,c1,c2,y
a0,b1,0.25,0.5,0
a1,b0,0.75,0.1,1
a2,b2,0.5,0.9,0
a0,b2,0.0,0.0,1
a1,b1,1.0,1.0,0
"""

TOY_SCHEMA = data.Schema(label="y", columns=[
    data.ColumnSchema("A", "categorical"),
    data.ColumnSchema("B", "categorical"),
    data.ColumnSchema("c1", "continuous", "minmax"),
    data.ColumnSchema("c2", "continuous", "standard"),
])


def write_toy(tmp_path, text=TOY_CSV):
    path = tmp_path / "toy.csv"
    path.write_text(text)
    return path


def test_schema_rejects_unknown_kind():
    with pytest.raises(data.DataError):
        data.ColumnSchema("x", "integer")
    with pytest.raises(data.DataError):
        data.ColumnSchema("x", "continuous", "unit")


def test_schema_from_dict_requires_fields():
    with pytest.raises(data.DataError):
        data.Schema.from_dict({"columns": []})


def test_load_csv_builds_one_hot_layout(tmp_path):
    ds = data.load_csv(write_toy(tmp_path), TOY_SCHEMA)
    assert len(ds) == 5
    assert ds.dimension == 3 + 3 + 1 + 1
    assert ds.num_classes == 2
    assert ds.meta.group_slices() == {0: slice(0, 3), 1: slice(3, 6)}
    assert np.allclose(ds.features[:, :3].sum(axis=1), 1.0)
    assert np.allclose(ds.features[:, 3:6].sum(axis=1), 1.0)


def test_load_csv_scales_continuous_columns(tmp_path):
    ds = data.load_csv(write_toy(tmp_path), TOY_SCHEMA)
    c1 = ds.features[:, 6]
    assert c1.min() == 0.0 and c1.max() == 1.0
    c2 = ds.features[:, 7]
    assert abs(c2.mean()) < 1e-9


def test_load_csv_round_trips_rows(tmp_path):
    ds = data.load_csv(write_toy(tmp_path), TOY_SCHEMA)
    raw = ds.meta.inverse_transform(ds.features[1])
    assert raw[0] == "a1" and raw[1] == "b0"
    assert raw[2] == pytest.approx(0.75)
    assert raw[3] == pytest.approx(0.1)
    again = ds.meta.transform(raw)
    assert np.allclose(again, ds.features[1])


def test_load_csv_reports_unknown_category(tmp_path):
    ds = data.load_csv(write_toy(tmp_path), TOY_SCHEMA)
    with pytest.raises(data.DataError, match="unknown category"):
        ds.meta.transform(["a9", "b0", "0.5", "0.5"])


def test_load_csv_reports_bad_cell_with_row(tmp_path):
    bad = TOY_CSV.replace("0.75", "oops")
    with pytest.raises(data.DataError, match="row 2"):
        data.load_csv(write_toy(tmp_path, bad), TOY_SCHEMA)


def test_load_csv_requires_schema_columns(tmp_path):
    path = tmp_path / "toy.csv"
    path.write_text("A,y\na0,0\n")
    with pytest.raises(data.DataError):
        data.load_csv(path, TOY_SCHEMA)


def test_labels_are_sorted_class_names(tmp_path):
    ds = data.load_csv(write_toy(tmp_path), TOY_SCHEMA)
    assert ds.meta.classes == ["0", "1"]
    assert set(np.unique(ds.labels)) == {0, 1}


def test_split_sizes_follow_fraction():
    ds = data.make_moons(101, 0.05, seed=0)
    train, test = data.split(ds, 0.7, seed=0)
    assert len(train) == int(np.floor(0.7 * 101 + 0.5))
    assert len(train) + len(test) == 101


def test_split_is_stratified():
    ds = data.make_moons(1000, 0.05, seed=0)
    train, test = data.split(ds, 0.6, seed=1)
    for part in (train, test):
        frac = (part.labels == 0).mean()
        assert abs(frac - 0.5) < 0.01


def test_split_is_deterministic_and_disjoint():
    ds = data.make_moons(200, 0.05, seed=0)
    a_train, a_test = data.split(ds, 0.7, seed=5)
    b_train, b_test = data.split(ds, 0.7, seed=5)
    assert np.array_equal(a_train.features, b_train.features)
    assert np.array_equal(a_test.features, b_test.features)
    joined = np.vstack([a_train.features, a_test.features])
    assert joined.shape[0] == len(ds)
    seen = {tuple(row) for row in joined}
    assert len(seen) == len(ds)


def test_split_rejects_degenerate_fractions():
    ds = data.make_moons(50, 0.05, seed=0)
    with pytest.raises(data.DataError):
        data.split(ds, 0.0, seed=0)
    with pytest.raises(data.DataError):
        data.split(ds, 1.0, seed=0)


def test_moons_lie_on_half_circle_loci():
    ds = data.make_moons(400, 0.0, seed=0)
    for row, label in zip(ds.features, ds.labels):
        x1, x2 = ds.meta.inverse_transform(row)
        if label == 0:
            assert x1 ** 2 + x2 ** 2 == pytest.approx(1.0, abs=1e-9)
            assert x2 >= -1e-9
        else:
            assert (x1 - 1.0) ** 2 + (0.5 - x2) ** 2 == pytest.approx(1.0, abs=1e-9)
            assert x2 <= 0.5 + 1e-9


def test_moons_are_scaled_to_unit_square():
    ds = data.make_moons(500, 0.08, seed=2)
    assert ds.features.min() >= 0.0 and ds.features.max() <= 1.0
    assert (ds.labels == 0).sum() == 250


def test_rings_lie_on_circle_loci():
    ds = data.make_rings(300, 0.0, seed=0)
    for row, label in zip(ds.features, ds.labels):
        x1, x2 = ds.meta.inverse_transform(row)
        radius = np.hypot(x1, x2)
        assert radius == pytest.approx(1.0 if label == 0 else 0.5, abs=1e-9)


@pytest.mark.parametrize("noise", [-0.1, float("nan")])
def test_two_curves_refuse_a_negative_or_nan_noise(noise):
    # a NaN noise would fail both noise < 0 and noise > 0, and add no noise
    for maker in (data.make_moons, data.make_rings):
        with pytest.raises(data.DataError, match="noise must be >= 0"):
            maker(10, noise, 0)


def test_onehot_tabular_rows_follow_their_rule():
    ds = data.make_onehot_tabular(500, seed=4)
    X = ds.features
    assert X.shape == (500, 8)
    assert ds.meta.group_slices() == {0: slice(0, 3), 1: slice(3, 6)}
    for group in (X[:, 0:3], X[:, 3:6]):
        assert set(np.unique(group)) <= {0.0, 1.0}
        assert np.all(group.sum(axis=1) == 1.0)
    assert X[:, 6:].min() >= 0.0 and X[:, 6:].max() <= 1.0
    a, b = X[:, 0:3].argmax(axis=1), X[:, 3:6].argmax(axis=1)
    score = (2.0 * (a == 1) - 1.5 * (b == 2)
             + 3.0 * (X[:, 6] - 0.5) - 2.0 * (X[:, 7] - 0.5))
    assert np.array_equal(ds.labels, (score > 0.0).astype(np.int64))
    assert 0 < ds.labels.sum() < 500


def idx_images_bytes(array):
    n, rows, cols = array.shape
    head = struct.pack(">IIII", data.IDX_IMAGES_MAGIC, n, rows, cols)
    return head + array.astype(np.uint8).tobytes()


def idx_labels_bytes(labels):
    head = struct.pack(">II", data.IDX_LABELS_MAGIC, len(labels))
    return head + np.asarray(labels, dtype=np.uint8).tobytes()


def test_read_idx_round_trip(tmp_path, rng):
    imgs = rng.integers(0, 256, size=(10, 4, 5)).astype(np.uint8)
    path = tmp_path / "imgs-idx3-ubyte"
    path.write_bytes(idx_images_bytes(imgs))
    assert np.array_equal(data.read_idx(path), imgs)

    labels = rng.integers(0, 10, size=10).astype(np.uint8)
    lpath = tmp_path / "labels-idx1-ubyte"
    lpath.write_bytes(idx_labels_bytes(labels))
    assert np.array_equal(data.read_idx(lpath), labels)


def test_read_idx_transparently_ungzips(tmp_path, rng):
    imgs = rng.integers(0, 256, size=(3, 2, 2)).astype(np.uint8)
    path = tmp_path / "imgs-idx3-ubyte.gz"
    path.write_bytes(gzip.compress(idx_images_bytes(imgs)))
    assert np.array_equal(data.read_idx(path), imgs)


def test_read_idx_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad"
    path.write_bytes(struct.pack(">II", 0x12345678, 1) + b"\x00")
    with pytest.raises(data.DataError):
        data.read_idx(path)


def test_read_idx_rejects_truncated_payload(tmp_path):
    head = struct.pack(">IIII", data.IDX_IMAGES_MAGIC, 2, 3, 3)
    path = tmp_path / "short-idx3-ubyte"
    path.write_bytes(head + b"\x00" * 5)
    with pytest.raises(data.DataError):
        data.read_idx(path)


def make_fake_mnist(tmp_path, rng):
    imgs = rng.integers(0, 256, size=(60, 3, 3)).astype(np.uint8)
    labels = np.repeat(np.arange(10), 6).astype(np.uint8)
    (tmp_path / "train-images-idx3-ubyte").write_bytes(idx_images_bytes(imgs))
    (tmp_path / "train-labels-idx1-ubyte").write_bytes(idx_labels_bytes(labels))
    (tmp_path / "t10k-images-idx3-ubyte.gz").write_bytes(
        gzip.compress(idx_images_bytes(imgs[:20])))
    (tmp_path / "t10k-labels-idx1-ubyte.gz").write_bytes(
        gzip.compress(idx_labels_bytes(labels[:20])))
    return imgs, labels


def test_load_mnist_filters_and_remaps_digits(tmp_path, rng):
    imgs, labels = make_fake_mnist(tmp_path, rng)
    ds = data.load_mnist(tmp_path, digits=(3, 7), part="train")
    keep = np.isin(labels, (3, 7))
    assert len(ds) == keep.sum()
    assert ds.num_classes == 2
    assert set(np.unique(ds.labels)) == {0, 1}
    expected = imgs[keep].reshape(keep.sum(), -1) / 255.0
    assert np.allclose(ds.features, expected)
    assert ds.meta.classes == ["3", "7"]


def test_load_mnist_test_part_uses_t10k(tmp_path, rng):
    imgs, labels = make_fake_mnist(tmp_path, rng)
    ds = data.load_mnist(tmp_path, digits=(1, 4, 8), part="t10k")
    assert len(ds) == np.isin(labels[:20], (1, 4, 8)).sum()


def test_load_mnist_missing_files(tmp_path):
    with pytest.raises(data.DataError):
        data.load_mnist(tmp_path, digits=(1, 7), part="train")


@st.composite
def raw_rows(draw):
    a = draw(st.sampled_from(["a0", "a1", "a2"]))
    b = draw(st.sampled_from(["b0", "b1", "b2"]))
    c1 = draw(st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
    c2 = draw(st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
    return [a, b, c1, c2]


@settings(max_examples=50, deadline=None)
@given(raw_rows())
def test_transform_inverse_round_trip_property(row):
    ds = getattr(test_transform_inverse_round_trip_property, "_ds", None)
    if ds is None:
        import tempfile
        with tempfile.TemporaryDirectory() as tmp:
            from pathlib import Path
            path = Path(tmp) / "toy.csv"
            path.write_text(TOY_CSV)
            ds = data.load_csv(path, TOY_SCHEMA)
        test_transform_inverse_round_trip_property._ds = ds
    vec = ds.meta.transform(row)
    back = ds.meta.inverse_transform(vec)
    assert back[0] == row[0] and back[1] == row[1]
    assert back[2] == pytest.approx(row[2], abs=1e-12)
    assert back[3] == pytest.approx(row[3], abs=1e-9)


@pytest.mark.parametrize("labels", [[0.5, 1.7, 1.0], [0.0, 1.0, 1.0], [True, False, True],
                                    [0, True, 1]])
def test_dataset_refuses_labels_that_are_not_integers(labels):
    # a float label is refused, not truncated; a bool is not a class index
    with pytest.raises(data.DataError, match="label values must be integers"):
        data.Dataset(np.zeros((3, 2)), labels, 2)


def test_dataset_keeps_integer_labels_of_any_integer_type():
    for labels in ([0, 1, 1], np.array([0, 1, 1], dtype=np.uint8)):
        ds = data.Dataset(np.zeros((3, 2)), labels, 2)
        assert ds.labels.dtype == np.int64 and ds.labels.tolist() == [0, 1, 1]
    with pytest.raises(data.DataError, match=r"label 2 out of range \[0, 2\)"):
        data.Dataset(np.zeros((3, 2)), [0, 2, 1], 2)


@pytest.mark.parametrize("indices, message", [
    ([0.7, 1.9, True], "row index values must be integers"),
    ([0.0, 1.0], "row index values must be integers"),
    ([0, 10], r"row index 10 out of range \[0, 10\)"),
    ([3, -1], r"row index -1 out of range \[0, 10\)"),
], ids=["fractions-and-bool", "integral-floats", "past-the-end", "negative"])
def test_subset_refuses_indices_that_are_not_rows(indices, message):
    # a float index is refused, not truncated; a negative one does not wrap
    ds = data.make_moons(10, 0.1, 0)
    with pytest.raises(data.DataError, match=message):
        ds.subset(indices)
    kept = ds.subset(np.array([3, 0, 3], dtype=np.uint8))
    assert np.array_equal(kept.features, ds.features[[3, 0, 3]])
