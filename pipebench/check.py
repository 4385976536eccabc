"""Output checks of the pipeline benchmark, run as their own child process
so the driver never holds an output in memory (a child's peak RSS from
os.wait4 includes its parent's at exec).

    python pipebench/check.py reconstruct OUT_DIR RECORDS
    python pipebench/check.py stream-dense OUT_DIR RECORDS
    python pipebench/check.py synthesize OUT_DIR
    python pipebench/check.py fold-vs-build FOLD_DIR WHOLE_DIR

Prints a JSON list of problems as the last line; empty means every check
passed. Outputs are parsed from their documented formats, not with biphoton.
"""

import hashlib
import json
import math
import struct
import sys
from pathlib import Path

import numpy as np

SLICE_FRAMES = 5  # the --frames run.py gives slice
# .ttag layout, as documented in the README: 34-byte header, 12-byte records
TTAG_HEADER = struct.Struct("<4sHIH7HQ")
TTAG_RECORD = np.dtype([("channel", "<u2"), ("reserved", "<u2"), ("timestamp", "<u8")])
# header channel-id slots of the roles that ground truth indexes
TRUTH_ROLES = {"mcp": 0, "x1": 1, "x2": 2, "snspd": 5}
# diagnostics a block fold must reproduce exactly (as in tests/test_engine.py)
FOLD_EQUAL_KEYS = ("events", "coincidences", "mcp_triggers", "displaced_gate_hits",
                   "tag_counts")


def load_matrix(path):
    return np.loadtxt(path, delimiter=",", comments="#", dtype=np.int64, ndmin=2)


def tag_counts(diagnostics_path, records):
    counts = json.loads(Path(diagnostics_path).read_text())["tag_counts"]
    if sum(counts.values()) != records:
        return [f"{Path(diagnostics_path).name} tag_counts sum {sum(counts.values())} "
                f"!= {records} stream records"]
    return []


def reconstruct(out, records):
    """Slice frames plus out_of_window equal the static JSI cell by cell, the
    build accounts for every record, and analyze gives finite K and P."""
    out = Path(out)
    problems = []
    frames = sorted((out / "sliced").glob("frame_*.csv"))
    if len(frames) != SLICE_FRAMES:
        problems.append(f"slice wrote {len(frames)} frames, expected {SLICE_FRAMES}")
    total = load_matrix(out / "sliced" / "out_of_window.csv")
    for frame in frames:
        total = total + load_matrix(frame)
    for ref in ("built/jsi.csv", "sliced/jsi.csv"):
        if not np.array_equal(total, load_matrix(out / ref)):
            problems.append(f"slice frames + out_of_window differ from {ref}")
    problems += tag_counts(out / "built" / "diagnostics.json", int(records))
    report = json.loads((out / "analyze.out").read_text())
    for key in ("schmidt_number", "purity"):
        if not math.isfinite(report[key]):
            problems.append(f"analyze {key} is {report[key]}")
    return problems


def stream_dense(out, records):
    return tag_counts(Path(out) / "fold" / "diagnostics.json", int(records))


def fold_vs_build(fold_dir, whole_dir):
    """The block fold's histograms and counts equal a whole-array build's."""
    fold_dir, whole_dir = Path(fold_dir), Path(whole_dir)
    problems = []
    with np.load(fold_dir / "histograms.npz") as fold, \
            np.load(whole_dir / "histograms.npz") as whole:
        if sorted(fold.files) != sorted(whole.files):
            problems.append(f"fold histograms {sorted(fold.files)} != {sorted(whole.files)}")
        for name in sorted(set(fold.files) & set(whole.files)):
            if not np.array_equal(fold[name], whole[name]):
                problems.append(f"fold histogram {name} differs from the whole-array build")
    fold_diag = json.loads((fold_dir / "diagnostics.json").read_text())
    whole_diag = json.loads((whole_dir / "diagnostics.json").read_text())
    for key in FOLD_EQUAL_KEYS:
        if fold_diag.get(key) != whole_diag.get(key):
            problems.append(f"fold diagnostics {key} {fold_diag.get(key)} "
                            f"!= whole-array {whole_diag.get(key)}")
    return problems


def synthesize(out):
    """The stream matches its manifest digest and tag count, and every
    non-negative truth index points at a tag on that role's channel."""
    out = Path(out)
    problems = []
    raw = (out / "run.ttag").read_bytes()
    manifest = json.loads((out / "run.ttag.manifest.json").read_text())
    if hashlib.sha256(raw).hexdigest() != manifest["sha256"]:
        problems.append("run.ttag sha256 differs from its manifest")
    _, _, _, _, *ids, declared = TTAG_HEADER.unpack_from(raw)
    body = len(raw) - TTAG_HEADER.size
    if body % TTAG_RECORD.itemsize:
        return problems + [f"run.ttag holds {body} record bytes, not whole records"]
    channel = np.frombuffer(raw, dtype=TTAG_RECORD, offset=TTAG_HEADER.size)["channel"]
    if not len(channel) == declared == manifest["tags"]:
        problems.append(f"read back {len(channel)} tags, header says {declared}, "
                        f"manifest says {manifest['tags']}")
    with open(out / "truth.jsonl") as fh:
        rows = [json.loads(line) for line in fh]
    for role, slot in TRUTH_ROLES.items():
        index = np.array([row[role] for row in rows], dtype=np.int64)
        index = index[index >= 0]
        if index.size and index.max() >= len(channel):
            problems.append(f"truth {role} index {index.max()} beyond {len(channel)} tags")
        elif np.any(channel[index] != ids[slot]):
            problems.append(f"truth {role} indices point at tags on other channels")
    return problems


CHECKS = {"reconstruct": reconstruct, "stream-dense": stream_dense,
          "synthesize": synthesize, "fold-vs-build": fold_vs_build}

if __name__ == "__main__":
    if len(sys.argv) < 3 or sys.argv[1] not in CHECKS:
        sys.exit(__doc__)
    try:
        found = CHECKS[sys.argv[1]](*sys.argv[2:])
    except (OSError, ValueError, KeyError, TypeError, struct.error) as exc:
        found = [f"{sys.argv[1]} output check raised {exc!r}"]
    print(json.dumps(found))
