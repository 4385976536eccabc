"""Command-line front end: simulate the source, synthesize tag streams,
build spectra and joint spectra, slice them in time, and analyze results.

Exit codes: 0 success, 1 runtime or data error, 2 configuration error.
"""

import contextlib
import functools
import json
import math
import os
import sys
import tempfile
from dataclasses import asdict
from importlib import resources
from pathlib import Path

# before numpy loads (a caller's own value wins): OpenBLAS's second thread
# stalls the small SVDs of simulate-jsa and analyze on a busy core
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
import click
import numpy as np

from . import __version__, calibration, engine, histograms, schmidt, simgen, spdc, tagstream
from .config import ConfigError, default_config_dict, file_sha256, load_run_config


def _fail(message, code):
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _write_json(path, doc):
    """Write an artifact as indented JSON with sorted keys."""
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_manifest(path, command, cfg_path, seed, extra=None):
    _write_json(path, {
        "command": command,
        "config_sha256": file_sha256(cfg_path),
        "seed": seed,
        "biphoton_version": __version__,
        "numpy_version": np.__version__,
        **(extra or {}),
    })


@click.group(invoke_without_command=True)
@click.option("--golden", "golden_", is_flag=True,
              help="Re-run the bundled default pipeline and compare output "
                   "hashes against the checked-in golden set.")
@click.option("--update-golden", is_flag=True, hidden=True)
@click.pass_context
def cli(ctx, golden_, update_golden):
    if ctx.invoked_subcommand is not None:
        return
    if golden_ or update_golden:
        sys.exit(_run_golden(update=update_golden))
    click.echo(ctx.get_help())


@cli.command("init-config")
@click.argument("out_path", type=click.Path(dir_okay=False))
def cmd_init_config(out_path):
    """Write a configuration template with the built-in defaults."""
    with open(out_path, "w") as fh:
        json.dump(default_config_dict(), fh, indent=2)
        fh.write("\n")
    click.echo(f"wrote {out_path}")


@cli.command("simulate-jsa")
@click.argument("config_path", type=click.Path(exists=True, dir_okay=False))
@click.argument("out_dir", type=click.Path(file_okay=False))
def cmd_simulate_jsa(config_path, out_dir):
    """Compute the source joint amplitude; write the amplitude container,
    a model joint-spectrum CSV, and the mode-decomposition report."""
    cfg = load_run_config(config_path)
    jsa = spdc.compute_jsa(cfg.pump, cfg.crystal, cfg.grid)
    report = schmidt.schmidt_decompose(jsa)

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    spdc.write_jsa_file(out / "jsa.jsag", jsa)
    _write_json(out / "jsa.jsag.json", {"pump": asdict(cfg.pump), "crystal": asdict(cfg.crystal),
                                        "grid": asdict(cfg.grid), "seed": cfg.seed})
    histograms.write_matrix_csv(out / "jsi_model.csv", jsa.jsi(), meta={
        "format": "biphoton jsi v1",
        "x_axis": "signal (rows)",
        "y_axis": "idler (columns)",
        "x_wavelength_centers_nm": [float(v) for v in jsa.signal_wavelength_nm],
        "y_wavelength_centers_nm": [float(v) for v in jsa.idler_wavelength_nm],
        "config_sha256": file_sha256(config_path),
    })
    summary = report.to_dict()
    summary["signal_marginal_fwhm_nm"] = jsa.marginal_fwhm_nm("signal")
    summary["idler_marginal_fwhm_nm"] = jsa.marginal_fwhm_nm("idler")
    _write_json(out / "schmidt.json", summary)
    _write_manifest(out / "manifest.json", "simulate-jsa", config_path, cfg.seed)
    click.echo(f"K = {report.schmidt_number:.3f}  P = {report.purity:.4f}  "
               f"signal {summary['signal_marginal_fwhm_nm']:.3f} nm  "
               f"idler {summary['idler_marginal_fwhm_nm']:.2f} nm")


@cli.command("gen-tags")
@click.argument("jsa_path", type=click.Path(exists=True, dir_okay=False))
@click.argument("config_path", type=click.Path(exists=True, dir_okay=False))
@click.argument("out_path", type=click.Path(dir_okay=False))
@click.option("--truth", "truth_path", type=click.Path(dir_okay=False), default=None,
              help="Also write ground-truth labels (JSON lines keyed by tag index).")
def cmd_gen_tags(jsa_path, config_path, out_path, truth_path):
    """Synthesize a time-tag stream from an amplitude container."""
    manifest_path = out_path + ".manifest.json"
    # the stream (written chunk by chunk) and the truth go to sibling
    # paths, which take the outputs' names only once both are complete, so
    # a failed run leaves neither a truncated output nor a manifest
    partials = {path: path + ".partial" for path in (out_path, truth_path) if path}
    # every file written must be a file of its own: no input, no other output
    taken = {}
    for name, path in (("JSA_PATH", jsa_path), ("CONFIG_PATH", config_path),
                       ("OUT_PATH", out_path), ("OUT_PATH.partial", partials[out_path]),
                       ("OUT_PATH.manifest.json", manifest_path), ("--truth", truth_path),
                       ("--truth.partial", partials.get(truth_path))):
        if path is not None and (other := taken.setdefault(Path(path).resolve(), name)) != name:
            raise click.BadParameter(f"{path} is also {other}", param_hint=name.split(".")[0])
    cfg = load_run_config(config_path)
    jsa = spdc.read_jsa_file(jsa_path)
    try:
        with contextlib.ExitStack() as stack:
            on_truth = None
            if truth_path:
                # the truth's rows go to an anonymous file beside it as they
                # become final, and become JSON lines once the stream is done
                spill = stack.enter_context(
                    tempfile.TemporaryFile(dir=Path(truth_path).resolve().parent))
                on_truth = functools.partial(simgen.spill_truth, spill)
            with open(partials[out_path], "wb") as fh:
                result = simgen.generate(jsa, cfg.acquisition, cfg.seed, on_truth)
                n_bytes = tagstream.write_stream(result.header, result.chunks, fh)
            digest = file_sha256(partials[out_path])
            if truth_path:
                simgen.write_spilled_jsonl(spill, partials[truth_path])
        for final, partial in partials.items():
            os.replace(partial, final)
    except BaseException:
        for partial in partials.values():
            Path(partial).unlink(missing_ok=True)
        raise
    n_tags = (n_bytes - tagstream.HEADER_SIZE) // tagstream.RECORD_SIZE
    _write_manifest(manifest_path, "gen-tags", config_path, cfg.seed, extra={
        "sha256": digest, "bytes": n_bytes, "tags": n_tags, "pairs": len(result.truth)})
    click.echo(f"wrote {n_tags} tags ({n_bytes} bytes), sha256 {digest[:16]}...")


@contextlib.contextmanager
def _open_stream(ttag_path, cfg):
    """Open a stream at its start once its header shows the config's tick,
    so that a mismatch fails before any record is decoded: the event-build
    gates and bins are derived in config ticks."""
    with open(ttag_path, "rb") as fh:
        header = tagstream.StreamHeader.from_bytes(fh.read(tagstream.HEADER_SIZE))
        if header.tick_ps != cfg.acquisition.tick_ps:
            raise ValueError(f"{ttag_path} has {header.tick_ps} ps ticks but the config's "
                             f"acquisition.tick_ps is {cfg.acquisition.tick_ps} ps")
        fh.seek(0)
        yield fh


def _jsi_writer(out, cfg, event_cfg):
    """Write the companion axis files of the joint-spectrum binning into
    `out` (one row per bin: tick center, calibrated wavelength center) and
    return `write(name, hist, meta)`, which writes a joint-spectrum matrix
    there with the wavelength axes in its header, as `analyze` needs. The
    axes are computed once."""
    acq = cfg.acquisition
    guard = event_cfg.dt_guard_ticks
    x_spec, y_spec = event_cfg.jsi_x_spec, event_cfg.jsi_y_spec

    def x_nm(ticks):    # anode delay difference -> signal wavelength
        return calibration.signal_wavelength(calibration.dld_position(
            ticks.astype(float), acq.dld_cal, guard_ticks=guard), acq.dld_cal)

    def y_nm(ticks):    # idler delay -> idler wavelength
        return calibration.idler_wavelength(ticks.astype(float), acq.fibre_cal, acq.tick_ps)

    x_lam, x_centers = x_nm(x_spec.edges()), x_nm(x_spec.centers())
    y_lam, y_centers = y_nm(y_spec.edges()), y_nm(y_spec.centers())
    for name, spec, centers, lam_edges in (("signal_axis.csv", x_spec, x_centers, x_lam),
                                           ("idler_axis.csv", y_spec, y_centers, y_lam)):
        histograms.write_table_csv(
            out / name, {"format": "biphoton jsi axis v1", "tick_ps": acq.tick_ps,
                         "wavelength_edges_nm": [float(v) for v in lam_edges]},
            zip(range(spec.count), spec.centers().tolist(), centers.tolist()),
            columns="bin,center_ticks,wavelength_nm")
    axes = {"x_wavelength_centers_nm": [float(v) for v in x_centers],
            "y_wavelength_centers_nm": [float(v) for v in y_centers]}

    def write(name, hist, meta):
        histograms.write_histogram2d_csv(out / name, hist, acq.tick_ps, meta={**meta, **axes},
                                         x_wavelength_edges=x_lam, y_wavelength_edges=y_lam)
    return write


@cli.command("build")
@click.argument("ttag_path", type=click.Path(exists=True, dir_okay=False))
@click.argument("config_path", type=click.Path(exists=True, dir_okay=False))
@click.argument("out_dir", type=click.Path(file_okay=False))
@click.option("--threads", default=1, show_default=True, type=click.IntRange(min=1),
              help="Worker threads; output is identical for any value.")
def cmd_build(ttag_path, config_path, out_dir, threads):
    """Build events, coincidences, spectra and the static joint spectrum."""
    cfg = load_run_config(config_path)
    event_cfg = cfg.event_config()
    with _open_stream(ttag_path, cfg) as fh:
        header, blocks = tagstream.iter_stream_blocks(fh)
        result = engine.fold_stream_blocks(blocks, header.channel_map, event_cfg,
                                           threads=threads)

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    meta = {"config_sha256": file_sha256(config_path)}
    for name, value_name in (("irf", "sync_offset"), ("signal_spectrum", "dt_x"),
                             ("idler_spectrum", "tau")):
        histograms.write_histogram1d_csv(out / f"{name}.csv", result.histograms[name],
                                         value_name, cfg.acquisition.tick_ps, meta=meta)
    _jsi_writer(out, cfg, event_cfg)("jsi.csv", result.histograms["jsi"], meta)

    # the time resolution reached: a gaussian fit of the response, in ps
    irf = result.histograms["irf"]
    fit = calibration.fit_peak((irf.spec.centers() * cfg.acquisition.tick_ps,
                                irf.counts.astype(float)))
    irf_fit = {"center_ps": fit.center, "fwhm_ps": fit.fwhm} if fit.converged else {}
    _write_json(out / "diagnostics.json",
                {**result.diagnostics, "irf_fit": {"converged": fit.converged, **irf_fit}})
    _write_manifest(out / "manifest.json", "build", config_path, cfg.seed,
                    extra={"threads": threads})
    click.echo(f"{result.diagnostics['events']} events, "
               f"{result.diagnostics['coincidences']} coincidences, "
               f"jsi total {result.histograms['jsi'].total_in_range}")


def _finite(ctx, param, value):
    if value is not None and not math.isfinite(value):
        raise click.BadParameter(f"must be finite, got {value}")
    return value


def _ticks(value_ps, tick, option):
    """`value_ps` rounded to whole ticks, which must fit in int64."""
    ticks = round(value_ps / tick)
    if not -2**63 <= ticks < 2**63:
        raise click.BadParameter(f"{value_ps} ps is beyond the int64 tick range",
                                 param_hint=option)
    return ticks


@cli.command("slice")
@click.argument("ttag_path", type=click.Path(exists=True, dir_okay=False))
@click.argument("config_path", type=click.Path(exists=True, dir_okay=False))
@click.argument("out_dir", type=click.Path(file_okay=False))
@click.option("--window", "window_ps", default=150.0, show_default=True, callback=_finite,
              help="Window width in ps (>= one tick).")
@click.option("--origin", "origin_ps", default=None, type=float, callback=_finite,
              help="First window edge as a sync offset in ps "
                   "(default: centered on the response-function peak).")
@click.option("--frames", default=5, show_default=True, type=click.IntRange(min=1))
def cmd_slice(ttag_path, config_path, out_dir, window_ps, origin_ps, frames):
    """Time-resolved joint spectra: one frame per sync-offset window."""
    cfg = load_run_config(config_path)
    event_cfg = cfg.event_config()
    # _open_stream requires the stream's tick to be the config's
    tick = cfg.acquisition.tick_ps
    width_ticks = _ticks(window_ps, tick, "--window")
    if width_ticks < 1:
        raise ValueError(f"window must be at least one tick ({tick} ps)")
    if origin_ps is not None:
        origin_ticks = _ticks(origin_ps, tick, "--origin")
        origins, option = (origin_ticks, origin_ticks), "--origin"
    else:   # centered on the response peak, which may be any IRF bin
        first = event_cfg.irf_spec.start - (frames * width_ticks) // 2
        origins, option = (first, first + event_cfg.irf_spec.count - 1), "--window"
    # every window edge origin + k * width, k = 0 .. frames, must be an int64
    if not -2**63 <= origins[0] <= origins[1] + frames * width_ticks < 2**63:
        raise click.BadParameter(f"{frames} windows of {width_ticks} ticks put a window edge "
                                 "beyond the int64 tick range", param_hint=option)
    if frames > (most := event_cfg.irf_spec.count // width_ticks + 1):
        raise click.BadParameter(f"at most {most} windows of {width_ticks} ticks cover the "
                                 f"{event_cfg.irf_spec.count}-tick response range",
                                 param_hint="--frames")
    with _open_stream(ttag_path, cfg) as fh:
        header, tags = tagstream.read_stream_arrays(fh)
    result = engine.build(tags, header.channel_map, event_cfg)
    del tags    # not held under the frame count
    if origin_ps is None:
        irf = result.histograms["irf"]
        peak_tick = int(np.argmax(irf.counts)) + irf.spec.start
        origin_ticks = peak_tick - (frames * width_ticks) // 2

    frame_hists, out_of_window = engine.slice_time_resolved(
        result.coincidences, event_cfg, width_ticks, origin_ticks, frames)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    meta = {"config_sha256": file_sha256(config_path),
            "window_width_ticks": width_ticks,
            "window_origin_ticks": origin_ticks,
            "folded": event_cfg.fold_period_ps is not None}
    write_jsi = _jsi_writer(out, cfg, event_cfg)
    totals = []
    for k, frame in enumerate(frame_hists):
        write_jsi(f"frame_{k:02d}.csv", frame, {**meta, "frame": k})
        totals.append(frame.total_in_range)
    write_jsi("out_of_window.csv", out_of_window, meta)
    write_jsi("jsi.csv", result.histograms["jsi"], meta)
    _write_json(out / "slices.json", {
        "frame_totals": totals,
        "out_of_window_total": out_of_window.total_in_range,
        "static_total": result.histograms["jsi"].total_in_range,
        **meta})
    _write_manifest(out / "manifest.json", "slice", config_path, cfg.seed)
    click.echo(f"frame totals: {totals}")


@cli.command("analyze")
@click.argument("jsi_csv", type=click.Path(exists=True, dir_okay=False))
@click.option("--background", default=0.0, show_default=True, type=click.FloatRange(min=0),
              callback=_finite,
              help="Flat count level (finite, >= 0) subtracted before taking the "
                   "amplitude root.")
def cmd_analyze(jsi_csv, background):
    """Mode decomposition and marginal widths of a measured joint spectrum."""
    counts, meta = histograms.read_matrix_csv(jsi_csv)
    try:
        lam_s = np.asarray(meta["x_wavelength_centers_nm"], dtype=float)
        lam_i = np.asarray(meta["y_wavelength_centers_nm"], dtype=float)
    except KeyError as exc:
        raise ValueError(f"{jsi_csv} lacks wavelength axis metadata ({exc})") from exc

    try:
        jsa = schmidt.jsa_from_jsi(counts, lam_s, lam_i, background=background)
    except ValueError as exc:
        raise ValueError(f"{jsi_csv}: {exc}") from exc
    report = schmidt.schmidt_decompose(jsa)
    out = {
        "schmidt_number": report.schmidt_number,
        "purity": report.purity,
        "signal_marginal_fwhm_nm": jsa.marginal_fwhm_nm("signal"),
        "idler_marginal_fwhm_nm": jsa.marginal_fwhm_nm("idler"),
        "background_subtracted": background,
    }
    for axis, model in (("signal", "gaussian"), ("idler", "sinc_squared")):
        out[f"{axis}_fit"] = calibration.fit_peak(jsa.marginal(axis), model=model).to_dict()
    if background:
        plain = schmidt.schmidt_decompose(
            schmidt.jsa_from_jsi(counts, lam_s, lam_i, background=0.0))
        out["no_subtraction"] = {"schmidt_number": plain.schmidt_number,
                                 "purity": plain.purity}
    click.echo(json.dumps(out, indent=2, sort_keys=True))


# ---------------------------------------------------------------------------
# Golden pipeline
# ---------------------------------------------------------------------------

_GOLDEN_FILES = ("jsa/jsa.jsag", "tags.ttag", "built/jsi.csv", "built/irf.csv",
                 "built/signal_spectrum.csv", "built/idler_spectrum.csv",
                 *(f"sliced/frame_{k:02d}.csv" for k in range(5)),
                 "sliced/out_of_window.csv", "sliced/slices.json")


def _golden_config(tmp: Path):
    doc = default_config_dict()
    doc["seed"] = 20260809
    doc["grid"]["n_signal"] = 128
    doc["grid"]["n_idler"] = 128
    doc["acquisition"]["duration_s"] = 0.02
    path = tmp / "golden_config.json"
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
    return path


def _run_golden(update=False):
    """Run the four commands on their own defaults, as a command line
    would, then hash their outputs."""
    golden_path = resources.files("biphoton").joinpath("data/golden_hashes.json")
    with tempfile.TemporaryDirectory() as tmp_str:
        tmp = Path(tmp_str)
        cfg = str(_golden_config(tmp))
        for args in (["simulate-jsa", cfg, f"{tmp}/jsa"],
                     ["gen-tags", f"{tmp}/jsa/jsa.jsag", cfg, f"{tmp}/tags.ttag"],
                     ["build", f"{tmp}/tags.ttag", cfg, f"{tmp}/built"],
                     ["slice", f"{tmp}/tags.ttag", cfg, f"{tmp}/sliced"]):
            cli.main(args, standalone_mode=False)
        hashes = {rel: file_sha256(tmp / rel) for rel in _GOLDEN_FILES}

        if update:
            _write_json(str(golden_path), hashes)
            click.echo(f"updated {golden_path}")
            return 0

        expected = json.loads(golden_path.read_text())
        status = 0
        for rel in _GOLDEN_FILES:
            ok = expected.get(rel) == hashes[rel]
            click.echo(f"golden {'PASS' if ok else 'FAIL'}: {rel}")
            if not ok:
                status = 1
        return status


def main():
    try:
        cli(standalone_mode=False)
    except click.exceptions.Abort:
        sys.exit(1)
    except click.exceptions.ClickException as exc:
        exc.show()
        sys.exit(2 if isinstance(exc, click.exceptions.UsageError) else 1)
    except ConfigError as exc:
        _fail(str(exc), 2)
    except (ValueError, OSError) as exc:
        _fail(str(exc), 1)
    sys.exit(0)


if __name__ == "__main__":
    main()
