"""Integer-count histogram accumulators, plus the CSV export/import used by
the command-line tools.

All bin arithmetic is in integer TDC ticks; uniform bins with a width that is
a whole number of ticks. Counts are integers, so adding a stream's chunks
into one histogram in any partition reproduces a single pass exactly.
"""

import json
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class BinSpec:
    """Uniform binning: count bins of width ticks starting at start."""

    start: int
    width: int
    count: int

    def __post_init__(self):
        if self.width < 1:
            raise ValueError("bin width must be at least 1 tick")
        if self.count < 1:
            raise ValueError("bin count must be at least 1")

    def edges(self):
        return self.start + self.width * np.arange(self.count + 1, dtype=np.int64)

    def centers(self):
        return self.start + self.width * (np.arange(self.count, dtype=np.float64) + 0.5)

    def index(self, values):
        """Bin index per value; may be out of [0, count) for out-of-range."""
        return np.floor_divide(np.asarray(values, dtype=np.int64) - self.start, self.width)


@dataclass
class Histogram1D:
    spec: BinSpec
    counts: np.ndarray = None
    underflow: int = 0
    overflow: int = 0

    def __post_init__(self):
        if self.counts is None:
            self.counts = np.zeros(self.spec.count, dtype=np.uint64)

    def add(self, values):
        values = np.asarray(values, dtype=np.int64)
        idx = self.spec.index(values)
        low = idx < 0
        high = idx >= self.spec.count
        self.underflow += int(low.sum())
        self.overflow += int(high.sum())
        ok = idx[~(low | high)]
        if ok.size:
            self.counts += np.bincount(ok, minlength=self.spec.count).astype(np.uint64)

    @property
    def total_accumulated(self):
        return int(self.counts.sum()) + self.underflow + self.overflow


@dataclass
class Histogram2D:
    """2-D counts over (x, y) tick values; the joint spectrum accumulator."""

    x_spec: BinSpec
    y_spec: BinSpec
    counts: np.ndarray = None
    out_of_range: int = 0

    def __post_init__(self):
        if self.counts is None:
            self.counts = np.zeros((self.x_spec.count, self.y_spec.count), dtype=np.uint64)

    def add(self, x_values, y_values):
        ix = self.x_spec.index(x_values)
        iy = self.y_spec.index(y_values)
        ok = (ix >= 0) & (ix < self.x_spec.count) & (iy >= 0) & (iy < self.y_spec.count)
        self.out_of_range += int((~ok).sum())
        if ok.any():
            flat = ix[ok] * self.y_spec.count + iy[ok]
            binned = np.bincount(flat, minlength=self.x_spec.count * self.y_spec.count)
            self.counts += binned.reshape(self.counts.shape).astype(np.uint64)

    @property
    def total_in_range(self):
        return int(self.counts.sum())


# ---------------------------------------------------------------------------
# CSV export / import
#
# Files carry a '#'-prefixed header with the bin metadata (JSON values) and
# then plain rows. The 2-D matrix is written row-major, one x bin per row.
# ---------------------------------------------------------------------------

def _write_header(fh, meta):
    for key, value in meta.items():
        fh.write(f"# {key}: {json.dumps(value)}\n")


def write_histogram1d_csv(path, hist: Histogram1D, axis_name, tick_ps, meta=None):
    """One row per bin: tick center, count."""
    header = {
        "format": "biphoton histogram1d v1",
        "axis": axis_name,
        "tick_ps": tick_ps,
        "bin_start_ticks": hist.spec.start,
        "bin_width_ticks": hist.spec.width,
        "bin_count": hist.spec.count,
        "underflow": hist.underflow,
        "overflow": hist.overflow,
    }
    header.update(meta or {})
    with open(path, "w", newline="") as fh:
        _write_header(fh, header)
        fh.write(f"{axis_name}_ticks,count\n")
        fh.writelines(f"{c!r},{n}\n"
                      for c, n in zip(hist.spec.centers().tolist(), hist.counts.tolist()))


def write_histogram2d_csv(path, hist: Histogram2D, tick_ps, meta=None,
                          x_wavelength_edges=None, y_wavelength_edges=None):
    header = {
        "format": "biphoton jsi v1",
        "tick_ps": tick_ps,
        "x_axis": "signal dt ticks (rows)",
        "y_axis": "idler tau ticks (columns)",
        "x_start_ticks": hist.x_spec.start,
        "x_width_ticks": hist.x_spec.width,
        "x_count": hist.x_spec.count,
        "y_start_ticks": hist.y_spec.start,
        "y_width_ticks": hist.y_spec.width,
        "y_count": hist.y_spec.count,
        "out_of_range": hist.out_of_range,
    }
    if x_wavelength_edges is not None:
        header["x_wavelength_edges_nm"] = [float(v) for v in x_wavelength_edges]
    if y_wavelength_edges is not None:
        header["y_wavelength_edges_nm"] = [float(v) for v in y_wavelength_edges]
    header.update(meta or {})
    with open(path, "w", newline="") as fh:
        _write_header(fh, header)
        fh.writelines(",".join(map(str, row)) + "\n" for row in hist.counts.tolist())


def read_matrix_csv(path):
    """Read a 2-D CSV written by write_histogram2d_csv (or any float matrix
    with the same '#' header convention). Returns (matrix, meta dict)."""
    meta = {}
    rows = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                body = line[1:].strip()
                if ":" in body:
                    key, _, value = body.partition(":")
                    try:
                        meta[key.strip()] = json.loads(value.strip())
                    except json.JSONDecodeError:
                        meta[key.strip()] = value.strip()
                continue
            rows.append([float(v) for v in line.split(",")])
    if not rows:
        raise ValueError(f"no matrix rows found in {path}")
    return np.array(rows, dtype=float), meta


def write_matrix_csv(path, matrix, meta):
    """Float matrix with the same header convention (model intensities)."""
    with open(path, "w", newline="") as fh:
        _write_header(fh, meta)
        fh.writelines(",".join(map(repr, row)) + "\n"
                      for row in np.asarray(matrix, dtype=np.float64).tolist())
