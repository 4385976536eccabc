import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biphoton.histograms import (BinSpec, Histogram1D, Histogram2D, read_matrix_csv,
                                 write_histogram2d_csv, write_matrix_csv)

specs = st.builds(BinSpec, start=st.integers(-50, 50), width=st.integers(1, 7),
                  count=st.integers(1, 9))


@pytest.mark.parametrize("width, count, message", [
    (0, 1, "bin width must be at least 1 tick"),
    (1, 0, "bin count must be at least 1")], ids=["width", "count"])
def test_invalid_bin_spec_rejected(width, count, message):
    with pytest.raises(ValueError, match=message):
        BinSpec(0, width, count)


def values_for(spec):
    """Values at and beside every bin edge, plus any within +-2**62."""
    edges = spec.edges().tolist()
    near = st.sampled_from(sorted({e + d for e in edges for d in (-1, 0, 1)}))
    return st.one_of(near, st.integers(-2**62, 2**62))


def oracle_bin(spec, value):
    """The bin of one value by Python arithmetic: -1 below, count above."""
    return min(max((value - spec.start) // spec.width, -1), spec.count)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), spec=specs)
def test_histogram1d_add_matches_per_value_oracle(data, spec):
    # one histogram fed every batch, and the sum of one histogram per batch
    hist, summed = Histogram1D(spec), Histogram1D(spec)
    want = [0] * (spec.count + 2)
    for _ in range(data.draw(st.integers(1, 4))):
        values = np.array(data.draw(st.lists(values_for(spec), max_size=30)), dtype=np.int64)
        hist.add(values)
        part = Histogram1D(spec)
        part.add(values)
        summed += part
        for value in values.tolist():
            want[oracle_bin(spec, value) + 1] += 1
    for got in (hist, summed):
        assert got.counts.dtype == np.uint64
        assert got.counts.tolist() == want[1:-1]
        assert (got.underflow, got.overflow) == (want[0], want[-1])


@settings(max_examples=200, deadline=None)
@given(data=st.data(), x_spec=specs, y_spec=specs)
def test_histogram2d_add_matches_per_value_oracle(data, x_spec, y_spec):
    # one histogram fed every batch, and the sum of one histogram per batch
    hist, summed = Histogram2D(x_spec, y_spec), Histogram2D(x_spec, y_spec)
    want = np.zeros((x_spec.count, y_spec.count), dtype=np.int64)
    out_of_range = 0
    for _ in range(data.draw(st.integers(1, 4))):
        pairs = data.draw(st.lists(st.tuples(values_for(x_spec), values_for(y_spec)),
                                   max_size=30))
        xs = np.array([x for x, _ in pairs], dtype=np.int64)
        ys = np.array([y for _, y in pairs], dtype=np.int64)
        hist.add(xs, ys)
        part = Histogram2D(x_spec, y_spec)
        part.add(xs, ys)
        summed += part
        for x, y in pairs:
            ix, iy = oracle_bin(x_spec, x), oracle_bin(y_spec, y)
            if 0 <= ix < x_spec.count and 0 <= iy < y_spec.count:
                want[ix, iy] += 1
            else:
                out_of_range += 1
    for got in (hist, summed):
        assert got.counts.dtype == np.uint64
        assert got.counts.tolist() == want.tolist()
        assert got.out_of_range == out_of_range


def test_matrix_round_trips_bitwise(tmp_path):
    rng = np.random.default_rng(14)
    magnitude = 10.0 ** rng.uniform(-300, 300, size=(40, 25))
    sign = rng.choice([-1.0, 1.0], size=magnitude.shape)
    matrix = sign * magnitude
    matrix[::7, ::3] = rng.integers(-10**6, 10**6, size=matrix[::7, ::3].shape)
    matrix[0, :3] = (0.0, -0.0, 5e-324)
    meta = {"format": "biphoton jsi v1", "x_count": 40, "ratio": 0.1, "none": None,
            "axis": [515.0, 1.0000000000000002, -3], "nested": {"k": "v"}}
    write_matrix_csv(tmp_path / "m.csv", matrix, meta)
    back, back_meta = read_matrix_csv(tmp_path / "m.csv")
    assert back.dtype == np.float64
    assert back.tobytes() == matrix.tobytes()
    assert back_meta == meta


def test_histogram2d_counts_round_trip(tmp_path):
    rng = np.random.default_rng(3)
    hist = Histogram2D(BinSpec(-10, 3, 17), BinSpec(100, 6, 9))
    hist.add(rng.integers(-20, 50, 5000), rng.integers(90, 170, 5000))
    x_edges, y_edges = np.linspace(500.0, 530.0, 18), np.linspace(1500.0, 1600.0, 10)
    write_histogram2d_csv(tmp_path / "h.csv", hist, 25, x_edges, y_edges, meta={"frame": 2})
    counts, meta = read_matrix_csv(tmp_path / "h.csv")
    assert np.array_equal(counts.astype(np.uint64), hist.counts)
    assert counts.shape == hist.counts.shape
    assert (meta["out_of_range"], meta["frame"]) == (hist.out_of_range, 2)
    assert meta["x_wavelength_edges_nm"] == x_edges.tolist()
    assert meta["y_wavelength_edges_nm"] == y_edges.tolist()


@pytest.mark.parametrize("body, message", [
    ("# format: \"biphoton jsi v1\"\n# x_count: 2\n\n", "no matrix rows"),
    ("# x_count: 2\n1,2,3\n4,5\n", None),
])
def test_malformed_matrix_raises_without_warning(tmp_path, body, message):
    path = tmp_path / "bad.csv"
    path.write_text(body)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=message):
            read_matrix_csv(path)
