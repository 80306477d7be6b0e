"""Batch detection and acoustic feature extraction for seismic airgun surveys.

The package root holds only the exception classes; the entry points live in
their modules (``signal_io.open_manifest``, ``runner.RunConfig`` and
``runner.run``, ``synth.generate``), which a bare ``import airgunkit`` loads.
"""

from . import errors, measures, pipeline, pulse_detect, runner, signal_io, synth, weighting  # noqa: F401
from .errors import (
    AirgunkitError,
    AudioFormatError,
    DetectionError,
    FilterDesignError,
    GapError,
    ManifestError,
    MeasureError,
    RunError,
)

__version__ = "0.1.0"

__all__ = [
    "AirgunkitError",
    "AudioFormatError",
    "DetectionError",
    "FilterDesignError",
    "GapError",
    "ManifestError",
    "MeasureError",
    "RunError",
]
