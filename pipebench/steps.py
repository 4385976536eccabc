"""Benchmark steps that are not CLI commands.

    python pipebench/steps.py fold STREAM CONFIG OUT_DIR
        iter_stream_blocks (1M-record blocks) into engine.fold_stream_blocks
    python pipebench/steps.py build STREAM CONFIG OUT_DIR
        whole-array read_stream_arrays + engine.build, the reference for fold

Both write OUT_DIR/histograms.npz (counts per histogram name) and
OUT_DIR/diagnostics.json. The package is found through PYTHONPATH.
"""

import json
import sys
from pathlib import Path

import numpy as np

from biphoton import config, engine, tagstream

BLOCK_RECORDS = 1 << 20


def fold(stream, config_path, out_dir):
    event_cfg = config.load_run_config(config_path).event_config()
    with open(stream, "rb") as fh:
        header, blocks = tagstream.iter_stream_blocks(fh, block_records=BLOCK_RECORDS)
        result = engine.fold_stream_blocks(blocks, header.channel_map, event_cfg)
    _save(result, out_dir)


def build(stream, config_path, out_dir):
    event_cfg = config.load_run_config(config_path).event_config()
    with open(stream, "rb") as fh:
        header, tags = tagstream.read_stream_arrays(fh)
    result = engine.build(tags, header.channel_map, event_cfg)
    _save(result, out_dir)


def _save(result, out_dir):
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    np.savez(out / "histograms.npz",
             **{name: hist.counts for name, hist in result.histograms.items()})
    with open(out / "diagnostics.json", "w") as fh:
        json.dump(result.diagnostics, fh, indent=2, sort_keys=True, default=int)
        fh.write("\n")


STEPS = {"fold": fold, "build": build}

if __name__ == "__main__":
    if len(sys.argv) != 5 or sys.argv[1] not in STEPS:
        sys.exit(__doc__)
    STEPS[sys.argv[1]](*sys.argv[2:])
