#!/usr/bin/env python3
"""Pipeline benchmark: three workloads through biphoton's own entry points.

    python3 pipebench/run.py --workload reconstruct --seed 1 --seconds 20 --trace 0
    python3 pipebench/run.py --workload synthesize --seed 1 --seconds 1 --trace 1 --smoke

Workloads (BENCHMARK.json says why each was chosen):

    reconstruct   build (1 thread), slice (5 x 150 ps) and analyze on a
                  default-config stream of about 1e7 tags (6.9 s acquisition)
    stream-dense  iter_stream_blocks (1M-record blocks) into fold_stream_blocks
                  on about 1e7 tags at 10x the pair probability (2.6 s)
    synthesize    simulate-jsa (256 x 256), then gen-tags --truth for 2 s

One driver process starts the steps one at a time, each as its own child
process the way a user runs it; wall time and peak RSS come from os.wait4.
The config is the commit's own `init-config` template with the workload's
acquisition and the --seed; the input stream is made from it once per
invocation by the commit's own simulate-jsa and gen-tags, untimed. Output
checks run after each iteration, outside the timed region; a non-zero exit
or a failed check fails the iteration.

--trace 0 prints the end-to-end metrics. --trace 1 alternates untraced
iterations with the same steps run under pipebench/trace.py, and prints the
per-layer metrics from the spans and trace_overhead, the traced over the
untraced median wall time minus one. Metric names and units come from
BENCHMARK.json; a per-layer metric the workload does not reach reads 0.
--smoke shrinks every input to a 0.02 s acquisition on a 128 x 128 grid and
runs the fewest iterations.

The last line of stdout is {"correct", "attempted", "failed", "metrics"}.
The full record (environment, fixtures, every iteration with its child
times and output digests, span summary) goes to .pipebench/results/.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import struct
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path
from statistics import median
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
HERE = ROOT / "pipebench"
WORK = ROOT / ".pipebench"
CLI = "from biphoton.cli import main; main()"

SETUP_SAMPLES = 5
MIN_ITERATIONS = 3
GRID = 256
SMOKE_GRID = 128
SMOKE_DURATION_S = 0.02
SLICE_FRAMES = 5

# .ttag layout, as documented in the README: 34-byte header, 12-byte records
TTAG_HEADER = struct.Struct("<4sHIH7HQ")
TTAG_RECORD_SIZE = 12


class BenchError(Exception):
    """The benchmark could not set up or run; no result is printed."""


@dataclass
class Child:
    wall_s: float
    cpu_s: float
    rss_mb: float
    code: int


class Runner:
    """Starts children one at a time from the checkout root, with src on the
    path, and reaps each with os.wait4 for its wall time and peak RSS."""

    def __init__(self):
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
        self.proc = None

    def run(self, argv, log_stem):
        with open(f"{log_stem}.out", "wb") as out, open(f"{log_stem}.err", "wb") as err:
            start = time.perf_counter()
            self.proc = subprocess.Popen([str(a) for a in argv], cwd=ROOT, env=self.env,
                                         stdout=out, stderr=err)
            _, status, usage = os.wait4(self.proc.pid, 0)
            wall = time.perf_counter() - start
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        child = Child(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024,
                      self.proc.returncode)
        self.proc = None
        return child

    def stop(self):
        if self.proc is not None and self.proc.returncode is None:
            self.proc.kill()
            self.proc.wait()


def step_argv(kind, args, spans=None):
    if spans is not None:
        return [sys.executable, HERE / "trace.py", spans, kind, *args]
    if kind == "cli":
        return [sys.executable, "-c", CLI, *args]
    return [sys.executable, HERE / "steps.py", kind, *args]


def step_label(name, kind):
    return f"cli.{name}" if kind == "cli" else f"steps.{name}"


def sha256(path):
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def stream_records(path):
    """Records a .ttag file holds, checked against its header."""
    with open(path, "rb") as fh:
        declared = TTAG_HEADER.unpack(fh.read(TTAG_HEADER.size))[-1]
    body = os.path.getsize(path) - TTAG_HEADER.size
    if body % TTAG_RECORD_SIZE or body // TTAG_RECORD_SIZE != declared:
        raise BenchError(f"{path}: header declares {declared} records, "
                         f"file holds {body} record bytes")
    return declared


@dataclass
class Fixture:
    config: Path
    stream: Path | None = None
    records: int = 0
    sha256: str | None = None


# ---------------------------------------------------------------------------
# Workloads: the steps of one iteration and the checks on their outputs
# ---------------------------------------------------------------------------

def reconstruct_steps(fx, out):
    return [("build", "cli", ["build", fx.stream, fx.config, out / "built", "--threads", "1"]),
            ("slice", "cli", ["slice", fx.stream, fx.config, out / "sliced",
                              "--window", "150", "--frames", str(SLICE_FRAMES)]),
            ("analyze", "cli", ["analyze", out / "built" / "jsi.csv"])]


def dense_steps(fx, out):
    return [("fold", "fold", [fx.stream, fx.config, out / "fold"])]


def check_fold_once(bench, fx, out):
    """The block fold equals a whole-array engine.build of the same file."""
    whole = bench.work / "whole"
    child = bench.runner.run(step_argv("build", [fx.stream, fx.config, whole]),
                             bench.work / "whole-build")
    if child.code:
        return [f"whole-array build exited with {child.code}"]
    problems = bench.check(["fold-vs-build", out / "fold", whole], "check-fold")
    shutil.rmtree(whole)
    return problems


def synthesize_steps(fx, out):
    return [("simulate-jsa", "cli", ["simulate-jsa", fx.config, out / "jsa"]),
            ("gen-tags", "cli", ["gen-tags", out / "jsa" / "jsa.jsag", fx.config,
                                 out / "run.ttag", "--truth", out / "truth.jsonl"])]


def synthesize_tags(fx, out):
    return (os.path.getsize(out / "run.ttag") - TTAG_HEADER.size) // TTAG_RECORD_SIZE


@dataclass(frozen=True)
class Workload:
    acquisition: dict                 # overrides of the template's acquisition block
    stream_fixture: bool              # make an input stream before timing
    steps: Callable
    check_once: Callable | None = None
    tags: Callable = lambda fx, out: fx.records


# pipebench/check.py holds each workload's per-iteration check under its name
WORKLOADS = {
    "reconstruct": Workload({"duration_s": 6.9}, True, reconstruct_steps),
    "stream-dense": Workload({"duration_s": 2.6, "pair_prob_per_pulse": 2.23e-2}, True,
                             dense_steps, check_fold_once),
    "synthesize": Workload({"duration_s": 2.0}, False, synthesize_steps,
                           tags=synthesize_tags),
}


# ---------------------------------------------------------------------------
# Span aggregation
# ---------------------------------------------------------------------------

def span_metrics(span_lists):
    """Per-layer numbers of one traced iteration, from its children's spans."""
    stats = defaultdict(lambda: {"self_s": 0.0, "dur_s": 0.0, "calls": 0, "peak": 0.0})
    engine_facts, build_tags, pairs, converged = {}, 0, 0, 0
    for spans in span_lists:
        covered = [0.0] * len(spans)
        for span in spans:
            if span["parent"] is not None:
                covered[span["parent"]] += span["end"] - span["start"]
        for span, child_s in zip(spans, covered):
            name, dur, facts = span["name"], span["end"] - span["start"], span.get("facts", {})
            st = stats[name]
            st["self_s"] += dur - child_s
            st["dur_s"] += dur
            st["calls"] += 1
            st["peak"] = max(st["peak"], span.get("peak_alloc_mb", 0.0))
            if name in ("engine.build", "engine.fold_stream_blocks") and facts:
                engine_facts = facts
                if name == "engine.build":
                    build_tags += facts["tags"]
            pairs += facts.get("pairs", 0)
            converged += facts.get("converged", False)

    metrics = {}
    for name, st in stats.items():
        if name.startswith(("cli.", "steps.")):
            metrics[f"{name}.self_s"] = st["self_s"]
        else:
            metrics[f"{name}.s"] = st["self_s"]
        metrics[f"{name}.calls"] = st["calls"]
        if st["peak"]:
            metrics[f"{name}.peak_alloc_mb"] = st["peak"]
    if build_tags:
        metrics["engine.build.mtags_s"] = build_tags / stats["engine.build"]["dur_s"] / 1e6
    for key in ("mcp_triggers", "events", "coincidences", "multi_hit_gates"):
        if key in engine_facts:
            metrics[f"engine.{key}"] = engine_facts[key]
    if engine_facts.get("mcp_triggers"):
        metrics["engine.event_yield"] = engine_facts["events"] / engine_facts["mcp_triggers"]
    if "simgen.generate" in stats:
        metrics["simgen.pairs"] = pairs
    if "calibration.fit_peak" in stats:
        metrics["calibration.fit_peak.converged"] = converged
    return metrics


# ---------------------------------------------------------------------------
# One benchmark invocation
# ---------------------------------------------------------------------------

class Bench:
    def __init__(self, name, seed, seconds, trace, smoke, runner, work):
        self.name = name
        self.workload = WORKLOADS[name]
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.smoke = smoke
        self.runner = runner
        self.work = work
        self.iterations = []

    def cli(self, args, log_stem):
        child = self.runner.run(step_argv("cli", args), self.work / log_stem)
        if child.code:
            err = (self.work / f"{log_stem}.err").read_text().strip()
            raise BenchError(f"{args[0]} exited with {child.code}: {err}")
        return child

    def check(self, args, log_stem):
        """Problems that pipebench/check.py finds; it runs untimed."""
        child = self.runner.run([sys.executable, HERE / "check.py", *args],
                                self.work / log_stem)
        if child.code:
            err = (self.work / f"{log_stem}.err").read_text().strip()
            return [f"check {args[0]} exited with {child.code}: {err}"]
        return json.loads((self.work / f"{log_stem}.out").read_text().splitlines()[-1])

    def setup_time(self):
        """Wall times of fresh children that only import biphoton.cli; the
        median drops the first one's bytecode compile in a new checkout."""
        argv = [sys.executable, "-c", "import biphoton.cli"]
        samples = []
        for k in range(1 if self.smoke else SETUP_SAMPLES):
            child = self.runner.run(argv, self.work / f"setup{k}")
            if child.code:
                raise BenchError((self.work / f"setup{k}.err").read_text().strip())
            samples.append(child.wall_s)
        return samples

    def fixture(self):
        config = self.work / "config.json"
        self.cli(["init-config", config], "init-config")
        doc = json.loads(config.read_text())
        doc["seed"] = self.seed
        doc["grid"]["n_signal"] = doc["grid"]["n_idler"] = SMOKE_GRID if self.smoke else GRID
        doc["acquisition"].update(self.workload.acquisition)
        if self.smoke:
            doc["acquisition"]["duration_s"] = SMOKE_DURATION_S
        config.write_text(json.dumps(doc, indent=2) + "\n")
        fx = Fixture(config)
        if self.workload.stream_fixture:
            self.cli(["simulate-jsa", config, self.work / "jsa"], "fixture-jsa")
            fx.stream = self.work / "stream.ttag"
            self.cli(["gen-tags", self.work / "jsa" / "jsa.jsag", config, fx.stream],
                     "fixture-tags")
            fx.records = stream_records(fx.stream)
            fx.sha256 = sha256(fx.stream)
        return fx

    def iterate(self, fx, traced):
        k = len(self.iterations)
        out = self.work / f"iter{k:02d}"
        out.mkdir()
        children, problems = {}, []
        start = time.perf_counter()
        for name, kind, args in self.workload.steps(fx, out):
            label = step_label(name, kind)
            spans = self.spans_path(k, label) if traced else None
            child = self.runner.run(step_argv(kind, args, spans), out / name)
            children[label] = child
            if child.code:
                problems.append(f"{name} exited with {child.code}")
                break
        wall = time.perf_counter() - start
        if not problems:
            records = [fx.records] if fx.stream else []
            problems += self.check([self.name, out, *records], "check")
            if k == 0 and self.workload.check_once:
                problems += self.workload.check_once(self, fx, out)
        record = {
            "traced": traced, "wall_s": wall,
            "tags": int(self.workload.tags(fx, out)) if not problems else 0,
            "children": {label: vars(c) for label, c in children.items()},
            "problems": problems,
            "digests": {str(p.relative_to(out)): sha256(p) for p in sorted(out.rglob("*"))
                        if p.is_file() and p.suffix != ".err"},
        }
        if traced:
            record["spans"] = {label: json.loads(self.spans_path(k, label).read_text())
                               for label in children if self.spans_path(k, label).exists()}
        shutil.rmtree(out)
        self.iterations.append(record)

    def spans_path(self, k, label):
        return self.work / f"spans-{k:02d}-{label}.json"

    def loop(self, fx, min_iterations):
        """Iterations for --seconds; with --trace 1 they alternate untraced
        and traced, so a drift in machine speed biases neither side."""
        start = time.perf_counter()
        while (len(self.iterations) < min_iterations
               or time.perf_counter() - start < self.seconds):
            self.iterate(fx, traced=bool(self.trace and len(self.iterations) % 2))

    def layer_metrics(self, good, traced, wall):
        """Medians over traced iterations of the span numbers, plus per-step
        wall time and RSS from the untraced iterations."""
        per_iteration = [span_metrics([d["spans"] for d in it["spans"].values()])
                         for it in traced]
        layers = {n: median(m.get(n, 0) for m in per_iteration)
                  for n in set().union(*per_iteration)}
        for label in set().union(*(it["children"] for it in good)):
            ran = [it["children"][label] for it in good if label in it["children"]]
            layers[f"{label}.wall_s"] = median(c["wall_s"] for c in ran)
            layers[f"{label}.rss_mb"] = median(c["rss_mb"] for c in ran)
        good_traced = [it for it in traced if not it["problems"]] or traced
        layers["trace_overhead"] = median(it["wall_s"] for it in good_traced) / wall - 1
        return layers

    def run(self):
        env = environment()
        if not (ROOT / "src" / "biphoton").is_dir():
            raise BenchError(f"no biphoton package under {ROOT / 'src'}")
        setup = [] if self.trace else self.setup_time()
        fx = self.fixture()
        self.loop(fx, 2 if self.trace else 1 if self.smoke else MIN_ITERATIONS)
        untraced = [it for it in self.iterations if not it["traced"]]
        traced = [it for it in self.iterations if it["traced"]]
        env["loadavg_end"] = os.getloadavg()
        env["absent_names"] = sorted({name for it in traced for data in it["spans"].values()
                                      for name in data.get("absent", [])})

        good = [it for it in untraced if not it["problems"]] or untraced
        wall = median(it["wall_s"] for it in good)
        end_to_end = {
            "wall_s": wall,
            "tags_per_s": median(it["tags"] for it in good) / wall,
            "peak_rss_mb": median(max(c["rss_mb"] for c in it["children"].values())
                                  for it in good),
        }
        if setup:
            end_to_end["setup_s"] = median(setup)

        layers = self.layer_metrics(good, traced, wall) if traced else {}
        everything = self.iterations
        failed = sum(1 for it in everything if it["problems"])
        layers["error_rate"] = failed / len(everything)
        seen = defaultdict(set)
        for it in everything:
            for artifact, digest in it["digests"].items():
                seen[artifact].add(digest)
        return {
            "workload": self.name, "seed": self.seed, "seconds": self.seconds,
            "trace": self.trace, "smoke": self.smoke, "environment": env,
            "fixture": {"config": json.loads(fx.config.read_text()),
                        "stream_sha256": fx.sha256, "stream_records": fx.records},
            "setup_samples_s": setup, "samples": len(good),
            "artifact_digests": good[0]["digests"],
            "digests_vary_across_iterations": sorted(a for a, d in seen.items() if len(d) > 1),
            "end_to_end": end_to_end, "per_layer": layers,
            "iterations": everything, "attempted": len(everything), "failed": failed,
        }


def environment():
    def version(package):
        try:
            return metadata.version(package)
        except metadata.PackageNotFoundError:
            return None

    commit = None
    if (ROOT / ".git").exists():
        got = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True)
        commit = got.stdout.strip() or None
    return {
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "loadavg_start": os.getloadavg(), "python": platform.python_version(),
        "numpy": version("numpy"), "scipy": version("scipy"), "click": version("click"),
        "platform": platform.platform(), "git_commit": commit,
        "page_cache": "warm; caches are never dropped",
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs and one iteration, for checking the benchmark")
    args = parser.parse_args()

    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        sys.exit(f"pipebench: cannot read BENCHMARK.json: {exc}")
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    work = WORK / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    work.mkdir(parents=True)
    runner = Runner()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        record = Bench(args.workload, args.seed, args.seconds, args.trace, args.smoke,
                       runner, work).run()
    except BenchError as exc:
        sys.exit(f"pipebench: {exc}")
    finally:
        runner.stop()
        shutil.rmtree(work, ignore_errors=True)

    measured = record["per_layer"] if args.trace else record["end_to_end"]
    metrics = {m["name"]: {"value": float(measured.get(m["name"], 0.0)), "unit": m["unit"]}
               for m in wanted}
    results = WORK / "results"
    results.mkdir(exist_ok=True)
    out_path = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record, indent=2, sort_keys=True, default=str) + "\n")

    correct = record["failed"] == 0
    for it in record["iterations"]:
        for problem in it["problems"]:
            print(f"FAILED CHECK: {problem}")
    print(f"workload {args.workload}, seed {args.seed}: {record['attempted']} iterations, "
          f"{record['failed']} failed, {record['samples']} timed samples")
    if record["fixture"]["stream_sha256"]:
        print(f"input stream: {record['fixture']['stream_records']} records, "
              f"sha256 {record['fixture']['stream_sha256']}")
    for name, m in metrics.items():
        print(f"  {name:<40} {m['value']:>16.6g} {m['unit']}")
    print(f"full record: {out_path.relative_to(ROOT)}")
    print(json.dumps({"correct": correct, "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
