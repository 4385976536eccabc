"""Command-line front end: simulate the source, synthesize tag streams,
build spectra and joint spectra, slice them in time, and analyze results.

Exit codes: 0 success, 1 runtime or data error, 2 configuration error.
"""

import hashlib
import json
import math
import os
import sys
from importlib import resources
from pathlib import Path

import click
import numpy as np

from . import __version__, calibration, engine, histograms, schmidt, simgen, spdc, tagstream
from .config import ConfigError, config_sha256, default_config_dict, load_run_config


def _fail(message, code):
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _write_manifest(out_dir, command, cfg_path, seed, extra=None):
    manifest = {
        "command": command,
        "config_sha256": config_sha256(cfg_path),
        "seed": seed,
        "biphoton_version": __version__,
        "numpy_version": np.__version__,
    }
    manifest.update(extra or {})
    with open(Path(out_dir) / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


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
    report, _, _ = schmidt.schmidt_decompose(jsa)

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    spdc.write_jsa_file(out / "jsa.jsag", jsa, params={
        "pump": {"center_wavelength_nm": cfg.pump.center_wavelength_nm,
                 "fwhm_bandwidth_nm": cfg.pump.fwhm_bandwidth_nm},
        "crystal": {"length_mm": cfg.crystal.length_mm,
                    "phase_matching_angle_deg": cfg.crystal.phase_matching_angle_deg,
                    "pm_model": cfg.crystal.pm_model},
        "grid": {"n_signal": cfg.grid.n_signal, "n_idler": cfg.grid.n_idler,
                 "signal_span_nm": cfg.grid.signal_span_nm,
                 "idler_span_nm": cfg.grid.idler_span_nm},
        "seed": cfg.seed,
    })
    histograms.write_matrix_csv(out / "jsi_model.csv", jsa.jsi(), meta={
        "format": "biphoton jsi v1",
        "x_axis": "signal (rows)",
        "y_axis": "idler (columns)",
        "x_wavelength_centers_nm": [float(v) for v in jsa.signal_wavelength_nm],
        "y_wavelength_centers_nm": [float(v) for v in jsa.idler_wavelength_nm],
        "config_sha256": config_sha256(config_path),
    })
    summary = report.to_dict()
    summary["signal_marginal_fwhm_nm"] = jsa.marginal_fwhm_nm("signal")
    summary["idler_marginal_fwhm_nm"] = jsa.marginal_fwhm_nm("idler")
    with open(out / "schmidt.json", "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    _write_manifest(out, "simulate-jsa", config_path, cfg.seed)
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
    cfg = load_run_config(config_path)
    jsa = spdc.read_jsa_file(jsa_path)
    # the stream is written chunk by chunk to a sibling path, which takes
    # the output's name only once it is complete, so a failed run leaves
    # no truncated stream
    partial = out_path + ".partial"
    try:
        with open(partial, "w+b") as fh:
            result = simgen.generate(jsa, cfg.acquisition)
            n_bytes = tagstream.write_stream(result.header, result.chunks, fh)
            fh.seek(0)
            sha256 = hashlib.sha256()
            while chunk := fh.read(1 << 20):
                sha256.update(chunk)
        os.replace(partial, out_path)
    except BaseException:
        Path(partial).unlink(missing_ok=True)
        raise
    digest = sha256.hexdigest()
    n_tags = (n_bytes - tagstream.HEADER_SIZE) // tagstream.RECORD_SIZE
    if truth_path:
        result.truth.write_jsonl(truth_path)
    with open(out_path + ".manifest.json", "w") as fh:
        json.dump({"command": "gen-tags", "config_sha256": config_sha256(config_path),
                   "seed": cfg.seed, "sha256": digest, "bytes": n_bytes,
                   "tags": n_tags, "pairs": len(result.truth),
                   "biphoton_version": __version__}, fh, indent=2, sort_keys=True)
        fh.write("\n")
    click.echo(f"wrote {n_tags} tags ({n_bytes} bytes), sha256 {digest[:16]}...")


def _load_tags(ttag_path, cfg):
    """Read a whole stream. Its tick must be the config's, because the
    event-build gates and bins are derived in config ticks."""
    with open(ttag_path, "rb") as fh:
        header, tags = tagstream.read_stream_arrays(fh)
    if header.tick_ps != cfg.acquisition.tick_ps:
        raise ValueError(f"{ttag_path} has {header.tick_ps} ps ticks but the config's "
                         f"acquisition.tick_ps is {cfg.acquisition.tick_ps} ps")
    return header, tags


def _jsi_writer(out, cfg, event_cfg, tick):
    """Write the companion axis files of the joint-spectrum binning into
    `out` (one row per bin: tick center, calibrated wavelength center) and
    return `write(name, hist, meta)`, which writes a joint-spectrum matrix
    there with the wavelength axes in its header, as `analyze` needs. The
    axes are computed once."""
    acq = cfg.acquisition
    guard = event_cfg.dt_guard_ticks
    x_spec, y_spec = event_cfg.jsi_x_spec, event_cfg.jsi_y_spec
    x_lam = calibration.signal_wavelength(
        calibration.dld_position(x_spec.edges().astype(float), acq.dld_cal,
                                 guard_ticks=guard), acq.dld_cal)
    y_lam = calibration.idler_wavelength(y_spec.edges().astype(float), acq.fibre_cal,
                                         acq.tick_ps)
    x_centers = calibration.signal_wavelength(
        calibration.dld_position(x_spec.centers(), acq.dld_cal, guard_ticks=guard),
        acq.dld_cal)
    y_centers = calibration.idler_wavelength(y_spec.centers(), acq.fibre_cal, acq.tick_ps)
    for name, spec, centers, lam_edges in (("signal_axis.csv", x_spec, x_centers, x_lam),
                                           ("idler_axis.csv", y_spec, y_centers, y_lam)):
        with open(out / name, "w", newline="") as fh:
            fh.write("# format: biphoton jsi axis v1\n")
            fh.write(f"# tick_ps: {tick}\n")
            fh.write(f"# wavelength_edges_nm: {json.dumps([float(v) for v in lam_edges])}\n")
            fh.write("bin,center_ticks,wavelength_nm\n")
            for k, (t, lam) in enumerate(zip(spec.centers(), centers)):
                fh.write(f"{k},{float(t)!r},{float(lam)!r}\n")
    axes = {"x_wavelength_centers_nm": [float(v) for v in x_centers],
            "y_wavelength_centers_nm": [float(v) for v in y_centers]}

    def write(name, hist, meta):
        histograms.write_histogram2d_csv(out / name, hist, tick, meta={**meta, **axes},
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
    header, tags = _load_tags(ttag_path, cfg)
    result = engine.build(tags, header.channel_map, event_cfg, threads=threads)

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    tick = header.tick_ps
    meta = {"config_sha256": config_sha256(config_path)}

    histograms.write_histogram1d_csv(out / "irf.csv", result.histograms["irf"],
                                     "sync_offset", tick, meta=meta)
    histograms.write_histogram1d_csv(
        out / "signal_spectrum.csv", result.histograms["signal_spectrum"], "dt_x",
        tick, meta=meta)
    histograms.write_histogram1d_csv(
        out / "dld_y_spectrum.csv", result.histograms["dld_y_spectrum"], "dt_y",
        tick, meta=meta)
    histograms.write_histogram1d_csv(
        out / "idler_spectrum.csv", result.histograms["idler_spectrum"], "tau",
        tick, meta=meta)
    _jsi_writer(out, cfg, event_cfg, tick)("jsi.csv", result.histograms["jsi"], meta)

    t = tags.timestamp
    duration_s = float((int(t[-1]) - int(t[0]) + 1) * tick * 1e-12) if len(t) else 0.0
    diagnostics = dict(result.diagnostics)
    if duration_s > 0:
        diagnostics["rates"] = engine.rates_report(result.diagnostics, duration_s)
    with open(out / "diagnostics.json", "w") as fh:
        json.dump(diagnostics, fh, indent=2, sort_keys=True)
        fh.write("\n")
    _write_manifest(out, "build", config_path, cfg.seed, extra={"threads": threads})
    click.echo(f"{diagnostics['events']} events, {diagnostics['coincidences']} coincidences, "
               f"jsi total {result.histograms['jsi'].total_in_range}")


def _finite(ctx, param, value):
    if value is not None and not math.isfinite(value):
        raise click.BadParameter(f"must be finite, got {value}")
    return value


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
    # _load_tags requires the stream's tick to be the config's
    tick = cfg.acquisition.tick_ps
    width_ticks = int(round(window_ps / tick))
    if width_ticks < 1:
        raise ValueError(f"window must be at least one tick ({tick} ps)")
    header, tags = _load_tags(ttag_path, cfg)

    result = engine.build(tags, header.channel_map, event_cfg)
    if origin_ps is None:
        irf = result.histograms["irf"]
        peak_tick = int(np.argmax(irf.counts)) + irf.spec.start
        origin_ticks = peak_tick - (frames * width_ticks) // 2
    else:
        origin_ticks = int(round(origin_ps / tick))

    slices = engine.slice_time_resolved(result.coincidences, event_cfg,
                                        width_ticks, origin_ticks, frames)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    meta = {"config_sha256": config_sha256(config_path),
            "window_width_ticks": width_ticks,
            "window_origin_ticks": origin_ticks,
            "folded": slices.folded}
    write_jsi = _jsi_writer(out, cfg, event_cfg, tick)
    totals = []
    for k, frame in enumerate(slices.frames):
        write_jsi(f"frame_{k:02d}.csv", frame, {**meta, "frame": k})
        totals.append(frame.total_in_range)
    write_jsi("out_of_window.csv", slices.out_of_window, meta)
    write_jsi("jsi.csv", result.histograms["jsi"], meta)
    with open(out / "slices.json", "w") as fh:
        json.dump({"frame_totals": totals,
                   "out_of_window_total": slices.out_of_window.total_in_range,
                   "static_total": result.histograms["jsi"].total_in_range,
                   **meta}, fh, indent=2, sort_keys=True)
        fh.write("\n")
    _write_manifest(out, "slice", config_path, cfg.seed)
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

    jsa = schmidt.jsa_from_jsi(counts, lam_s, lam_i, background=background)
    report, _, _ = schmidt.schmidt_decompose(jsa)
    out = {
        "schmidt_number": report.schmidt_number,
        "purity": report.purity,
        "signal_marginal_fwhm_nm": jsa.marginal_fwhm_nm("signal"),
        "idler_marginal_fwhm_nm": jsa.marginal_fwhm_nm("idler"),
        "background_subtracted": background,
    }
    for axis, model in (("signal", "gaussian"), ("idler", "sinc_squared")):
        lam = jsa.signal_wavelength_nm if axis == "signal" else jsa.idler_wavelength_nm
        profile = jsa.signal_marginal() if axis == "signal" else jsa.idler_marginal()
        order = np.argsort(lam)
        fit = calibration.fit_peak((lam[order], profile[order]), model=model)
        out[f"{axis}_fit"] = fit.to_dict()
    if background:
        plain = schmidt.schmidt_decompose(
            schmidt.jsa_from_jsi(counts, lam_s, lam_i, background=0.0))[0]
        out["no_subtraction"] = {"schmidt_number": plain.schmidt_number,
                                 "purity": plain.purity}
    click.echo(json.dumps(out, indent=2, sort_keys=True))


# ---------------------------------------------------------------------------
# Golden pipeline
# ---------------------------------------------------------------------------

_GOLDEN_FILES = ("jsa/jsa.jsag", "tags.ttag", "built/jsi.csv", "built/irf.csv",
                 "built/signal_spectrum.csv", "built/idler_spectrum.csv")


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
    import tempfile

    golden_path = resources.files("biphoton").joinpath("data/golden_hashes.json")
    with tempfile.TemporaryDirectory() as tmp_str:
        tmp = Path(tmp_str)
        cfg_path = _golden_config(tmp)
        cmd_simulate_jsa.callback(str(cfg_path), str(tmp / "jsa"))
        cmd_gen_tags.callback(str(tmp / "jsa/jsa.jsag"), str(cfg_path),
                              str(tmp / "tags.ttag"), truth_path=None)
        cmd_build.callback(str(tmp / "tags.ttag"), str(cfg_path),
                           str(tmp / "built"), threads=1)

        hashes = {}
        for rel in _GOLDEN_FILES:
            digest = hashlib.sha256((tmp / rel).read_bytes()).hexdigest()
            hashes[rel] = digest

        if update:
            with open(str(golden_path), "w") as fh:
                json.dump(hashes, fh, indent=2, sort_keys=True)
                fh.write("\n")
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
    except (tagstream.StreamFormatError, ValueError, OSError) as exc:
        _fail(str(exc), 1)
    sys.exit(0)


if __name__ == "__main__":
    main()
