"""Toolkit for a hybrid time-tagging two-photon spectrometer: source
simulation, seven-channel tag-stream synthesis, coincidence reconstruction
of static and time-resolved joint spectra, and mode analysis."""

__version__ = "0.1.0"
