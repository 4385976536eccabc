"""Integer-count histogram accumulators, plus the CSV export/import used by
the command-line tools.

All bin arithmetic is in integer TDC ticks; uniform bins with a width that is
a whole number of ticks. Counts are integers, so adding a stream's chunks
into one histogram in any partition reproduces a single pass exactly. One
`np.bincount` over slots makes every count, out-of-range values included.
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
        """Bin index per value, a fresh array; may be out of [0, count) for
        out-of-range."""
        index = np.array(values, dtype=np.int64)
        index -= self.start
        index //= self.width
        return index


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
        # slot 0 is the underflow, 1 .. count the bins, count + 1 the overflow
        slots = self.spec.index(values)
        np.clip(slots, -1, self.spec.count, out=slots)
        slots += 1
        n = np.bincount(slots, minlength=self.spec.count + 2).view(np.uint64)
        self.underflow += int(n[0])
        self.overflow += int(n[-1])
        self.counts += n[1:-1]

    def __iadd__(self, other):
        self.counts += other.counts
        self.underflow += other.underflow
        self.overflow += other.overflow
        return self


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

    def cells(self, x_values, y_values):
        """Row-major flat bin index of each (x, y) pair, or `counts.size`
        (the out-of-range slot) for a pair outside the bins."""
        nx, ny = self.counts.shape
        ix = self.x_spec.index(x_values)
        iy = self.y_spec.index(y_values)
        # a negative index is a huge unsigned one, so one test finds both ends
        outside = ix.view(np.uint64) >= nx
        outside |= iy.view(np.uint64) >= ny
        ix *= ny
        ix += iy
        ix[outside] = nx * ny
        return ix

    def add_cell_counts(self, n):
        """Add `n`, a `bincount` of `cells` over all `counts.size + 1` slots."""
        self.counts += n[:-1].view(np.uint64).reshape(self.counts.shape)
        self.out_of_range += int(n[-1])

    def add(self, x_values, y_values):
        self.add_cell_counts(np.bincount(self.cells(x_values, y_values),
                                         minlength=self.counts.size + 1))

    def __iadd__(self, other):
        self.counts += other.counts
        self.out_of_range += other.out_of_range
        return self

    @property
    def total_in_range(self):
        return int(self.counts.sum())


# ---------------------------------------------------------------------------
# CSV export / import
#
# Files carry a '#'-prefixed header with the bin metadata (JSON values) and
# then plain rows. The 2-D matrix is written row-major, one x bin per row.
# ---------------------------------------------------------------------------

def write_table_csv(path, meta, rows, columns=None):
    """The '#' header of `meta`, an optional column-name line, then one
    line per row of Python numbers: `repr` keeps every float's shortest
    round-trip digits and prints ints as `str` does."""
    with open(path, "w", newline="") as fh:
        fh.writelines(f"# {key}: {json.dumps(value)}\n" for key, value in meta.items())
        if columns is not None:
            fh.write(columns + "\n")
        fh.writelines(",".join(map(repr, row)) + "\n" for row in rows)


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
    write_table_csv(path, header, zip(hist.spec.centers().tolist(), hist.counts.tolist()),
                    columns=f"{axis_name}_ticks,count")


def write_histogram2d_csv(path, hist: Histogram2D, tick_ps, x_wavelength_edges,
                          y_wavelength_edges, meta=None):
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
        "x_wavelength_edges_nm": [float(v) for v in x_wavelength_edges],
        "y_wavelength_edges_nm": [float(v) for v in y_wavelength_edges],
        **(meta or {}),
    }
    write_table_csv(path, header, hist.counts.tolist())


def read_matrix_csv(path):
    """Read a 2-D CSV written by write_histogram2d_csv (or any float matrix
    with the same '#' header convention, every header value JSON). Returns
    (matrix, meta dict)."""
    meta = {}
    rows = []
    with open(path) as fh:
        for number, line in enumerate(fh, 1):
            line = line.strip()
            if line.startswith("#"):
                key, colon, value = line[1:].partition(":")
                if colon:
                    try:
                        meta[key.strip()] = json.loads(value)
                    except json.JSONDecodeError:
                        raise ValueError(f"{path} line {number}: the value of header key "
                                         f"{key.strip()!r} is not JSON") from None
            elif line:
                rows.append(line)
    if not rows:
        raise ValueError(f"no matrix rows found in {path}")
    return np.loadtxt(rows, delimiter=",", comments=None, ndmin=2), meta


def write_matrix_csv(path, matrix, meta):
    """Float matrix with the same header convention (model intensities)."""
    write_table_csv(path, meta, np.asarray(matrix, dtype=np.float64).tolist())
