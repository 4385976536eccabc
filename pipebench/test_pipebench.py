"""Tests of the pipeline benchmark itself: the BENCHMARK.json schema, a smoke
run of every workload in both modes, span arithmetic, and refusal to run
without the sources.

    python -m pytest pipebench -q
"""

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path.insert(0, str(HERE))
import run  # noqa: E402

# per-layer metrics each workload must reach; 0 there means a wrap stopped working
REACHED = {
    "reconstruct": ["tagstream.read_stream_arrays.s", "tagstream.iter_stream_blocks.s",
                    "engine.split_channels.s", "engine.build.s", "engine.build.mtags_s",
                    "engine.build.peak_alloc_mb", "engine.accumulate_histograms.s",
                    "engine.slice_time_resolved.s", "engine.events", "engine.event_yield",
                    "histograms.write_csv.s", "histograms.read_matrix_csv.s",
                    "schmidt.schmidt_decompose.s", "schmidt.jsa_from_jsi.s",
                    "calibration.fit_peak.s", "config.load_run_config.s",
                    "cli.build.self_s", "cli.build.wall_s", "cli.slice.rss_mb",
                    "cli.analyze.wall_s"],
    "stream-dense": ["tagstream.iter_stream_blocks.s", "engine.split_channels.s",
                     "engine.fold_stream_blocks.s", "engine.fold_stream_blocks.peak_alloc_mb",
                     "engine.accumulate_histograms.s", "engine.coincidences",
                     "config.load_run_config.s", "steps.fold.wall_s", "steps.fold.rss_mb"],
    "synthesize": ["tagstream.write_stream.s", "histograms.write_csv.s",
                   "schmidt.schmidt_decompose.s", "spdc.compute_jsa.s", "spdc.read_jsa_file.s",
                   "simgen.generate.s", "simgen.generate.peak_alloc_mb", "simgen.pairs",
                   "simgen.GroundTruth.write_jsonl.s", "cli.simulate-jsa.wall_s",
                   "cli.gen-tags.rss_mb"],
}

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_spec_schema():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}
    assert 2 <= len(SPEC["workloads"]) <= 8
    names = WORKLOADS + [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names)
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"} and 0 < len(w["why"]) <= 200
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert UNIT.fullmatch(m["unit"]) and m["better"] in ("lower", "higher")
        assert 0 < m["bound"] <= 0.25
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"} and UNIT.fullmatch(m["unit"])
    assert sorted(WORKLOADS) == sorted(run.WORKLOADS)


def smoke(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(cwd / "pipebench" / "run.py"), "--workload", workload,
         "--seed", "5", "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_reports_every_metric(workload, trace):
    done = smoke(workload, trace)
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and math.isfinite(got["value"])
    if trace:
        zero = [n for n in REACHED[workload] if result["metrics"][n]["value"] <= 0]
        assert not zero, f"{workload} traced run did not reach {zero}"
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_span_self_time_excludes_children():
    spans = [{"name": "engine.build", "start": 0.0, "end": 10.0, "parent": None,
              "peak_alloc_mb": 5.0,
              "facts": {"mcp_triggers": 4, "events": 3, "coincidences": 1,
                        "multi_hit_gates": 0, "tags": 20_000_000}},
             {"name": "engine.split_channels", "start": 1.0, "end": 4.0, "parent": 0},
             {"name": "engine.split_channels", "start": 5.0, "end": 6.0, "parent": 0}]
    got = run.span_metrics([spans])
    assert got["engine.build.s"] == 6.0
    assert got["engine.split_channels.s"] == 4.0
    assert got["engine.split_channels.calls"] == 2
    assert got["engine.build.mtags_s"] == 2.0
    assert got["engine.build.peak_alloc_mb"] == 5.0
    assert got["engine.event_yield"] == 0.75


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "pipebench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = smoke(WORKLOADS[0], 0, cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
