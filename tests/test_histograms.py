import warnings

import numpy as np
import pytest

from biphoton.histograms import (BinSpec, Histogram2D, read_matrix_csv, write_histogram2d_csv,
                                 write_matrix_csv)


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
    write_histogram2d_csv(tmp_path / "h.csv", hist, 25, meta={"frame": 2})
    counts, meta = read_matrix_csv(tmp_path / "h.csv")
    assert np.array_equal(counts.astype(np.uint64), hist.counts)
    assert counts.shape == hist.counts.shape
    assert (meta["out_of_range"], meta["frame"]) == (hist.out_of_range, 2)


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
