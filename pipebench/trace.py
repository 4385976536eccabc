"""Run one benchmark step in-process with spans around biphoton's public
functions, and write the spans as JSON when the step ends.

    python pipebench/trace.py SPANS_JSON cli ARGS...    # biphoton CLI command
    python pipebench/trace.py SPANS_JSON fold ARGS...   # pipebench/steps.py fold

Functions are wrapped at their module attributes, and every biphoton module
attribute bound to the same function object is replaced too (the CLI holds
`load_run_config` by name). The CLI and the engine look these names up at
call time, so spans nest with no source edits. A name missing at this commit
is listed under "absent" and not wrapped.

Each span records its name, start, end, parent index and facts taken from
the return value (event counts, pairs, fit convergence). Spans listed in
MEMORY_SPANS also record the peak of memory allocated inside them, measured
with tracemalloc started at span entry and stopped at exit.
"""

import functools
import importlib
import json
import sys
import time
import tracemalloc
from contextlib import contextmanager

# (span label, module under biphoton, attribute path); several functions may
# share one label (the CSV writers).
TARGETS = (
    ("config.load_run_config", "config", "load_run_config"),
    ("tagstream.read_stream_arrays", "tagstream", "read_stream_arrays"),
    ("tagstream.iter_stream_blocks", "tagstream", "iter_stream_blocks"),
    ("tagstream.write_stream", "tagstream", "write_stream"),
    ("engine.split_channels", "engine", "split_channels"),
    ("engine.build", "engine", "build"),
    ("engine.fold_stream_blocks", "engine", "fold_stream_blocks"),
    ("engine.accumulate_histograms", "engine", "accumulate_histograms"),
    ("engine.slice_time_resolved", "engine", "slice_time_resolved"),
    ("histograms.write_csv", "histograms", "write_histogram1d_csv"),
    ("histograms.write_csv", "histograms", "write_histogram2d_csv"),
    ("histograms.write_csv", "histograms", "write_matrix_csv"),
    ("histograms.read_matrix_csv", "histograms", "read_matrix_csv"),
    ("schmidt.schmidt_decompose", "schmidt", "schmidt_decompose"),
    ("schmidt.jsa_from_jsi", "schmidt", "jsa_from_jsi"),
    ("calibration.fit_peak", "calibration", "fit_peak"),
    ("spdc.compute_jsa", "spdc", "compute_jsa"),
    ("spdc.read_jsa_file", "spdc", "read_jsa_file"),
    ("simgen.generate", "simgen", "generate"),
    ("simgen.GroundTruth.write_jsonl", "simgen", "GroundTruth.write_jsonl"),
)

MEMORY_SPANS = frozenset({"engine.build", "engine.fold_stream_blocks", "simgen.generate"})

ENGINE_COUNTS = ("mcp_triggers", "events", "coincidences", "multi_hit_gates")


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self):
        self.spans = []
        self._open = []

    @contextmanager
    def span(self, name):
        record = {"name": name, "start": time.perf_counter(), "end": None,
                  "parent": self._open[-1] if self._open else None}
        self.spans.append(record)
        self._open.append(len(self.spans) - 1)
        measure = name in MEMORY_SPANS and not tracemalloc.is_tracing()
        if measure:
            tracemalloc.start()
        try:
            yield record
        finally:
            if measure:
                record["peak_alloc_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
                tracemalloc.stop()
            record["end"] = time.perf_counter()
            self._open.pop()

    def timed_blocks(self, name, blocks):
        """Re-yield a block iterator, with one span per next()."""
        while True:
            with self.span(name):
                try:
                    block = next(blocks)
                except StopIteration:
                    return
            yield block

    def wrap(self, label, func):
        @functools.wraps(func)
        def traced(*args, **kwargs):
            with self.span(label) as record:
                result = func(*args, **kwargs)
                record["facts"] = _facts(label, result)
            if (label == "tagstream.iter_stream_blocks" and isinstance(result, tuple)
                    and len(result) == 2 and hasattr(result[1], "__next__")):
                return result[0], self.timed_blocks(label, result[1])
            return result
        return traced


def _facts(label, result):
    """Counts read off a wrapped function's return value; empty when the
    value does not have the expected shape."""
    try:
        if label in ("engine.build", "engine.fold_stream_blocks"):
            diag = result.diagnostics
            facts = {key: int(diag[key]) for key in ENGINE_COUNTS if key in diag}
            facts["tags"] = int(sum(diag["tag_counts"].values()))
            return facts
        if label == "simgen.generate":
            return {"pairs": len(result.truth)}
        if label == "calibration.fit_peak":
            return {"converged": bool(result.converged)}
    except (AttributeError, KeyError, TypeError):
        pass
    return {}


def _resolve(module, path):
    owner = importlib.import_module(f"biphoton.{module}")
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr, getattr(owner, attr)


def install(tracer):
    """Wrap every TARGETS function and every CLI command callback; returns
    the names that do not exist at this commit."""
    import biphoton.cli

    absent = []
    for label, module, path in TARGETS:
        try:
            owner, attr, func = _resolve(module, path)
        except (ImportError, AttributeError):
            absent.append(f"{module}.{path}")
            continue
        traced = tracer.wrap(label, func)
        if "." in path:
            setattr(owner, attr, traced)
            continue
        for name, mod in list(sys.modules.items()):
            if name == "biphoton" or name.startswith("biphoton."):
                for key, value in list(vars(mod).items()):
                    if value is func:
                        setattr(mod, key, traced)
    for name, command in biphoton.cli.cli.commands.items():
        command.callback = tracer.wrap(f"cli.{name}", command.callback)
    return absent


def main(argv):
    if len(argv) < 2 or argv[1] not in ("cli", "fold"):
        sys.exit(__doc__)
    spans_path, kind, *args = argv
    tracer = Tracer()
    with tracer.span("import"):
        import biphoton.cli
    absent = install(tracer)
    code = 0
    try:
        if kind == "cli":
            sys.argv = ["biphoton", *args]
            biphoton.cli.main()
        else:
            import steps
            with tracer.span("steps.fold"):
                steps.fold(*args)
    except SystemExit as exc:
        code = exc.code
    finally:
        with open(spans_path, "w") as fh:
            json.dump({"spans": tracer.spans, "absent": absent}, fh)
    sys.exit(code)


if __name__ == "__main__":
    main(sys.argv[1:])
