"""Toolkit for a hybrid time-tagging two-photon spectrometer: source
simulation, seven-channel tag-stream synthesis, coincidence reconstruction
of static and time-resolved joint spectra, and mode analysis."""

__version__ = "0.1.0"

from .calibration import (DldCalibration, FibreCalibration, PeakFitResult, dld_dt,
                          dld_position, fit_peak, idler_wavelength, signal_wavelength)
from .engine import (BuildResult, Coincidences, DldEvents, EventBuildConfig, SliceSet,
                     build, fold_stream_blocks, rates_report, slice_time_resolved)
from .histograms import BinSpec, Histogram1D, Histogram2D
from .schmidt import SchmidtReport, jsa_from_jsi, schmidt_decompose
from .simgen import AcquisitionConfig, GroundTruth, SimResult, generate, irf_reference
from .spdc import (CrystalSpec, FrequencyGrid, JsaGrid, PumpSpec, compute_jsa,
                   phase_mismatch, pump_envelope, read_jsa_file, solve_phase_matching_angle,
                   write_jsa_file)
from .tagstream import ChannelMap, StreamHeader, TagColumns, read_stream_arrays, write_stream

__all__ = [name for name in dir() if not name.startswith("_")]
