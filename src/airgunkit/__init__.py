"""Batch detection and acoustic feature extraction for seismic airgun surveys.

The package root holds only the exception classes; the entry points live in
their modules (``signal_io.open_manifest``, ``runner.RunConfig`` and
``runner.run``, ``synth.generate``).  A bare ``import airgunkit`` loads none
of them, so it loads no numpy: each module is imported on first attribute
access (``airgunkit.runner``).  This lets ``airgunkit.cli`` set the BLAS
thread count of its own process before numpy loads; the package root itself
changes no environment variable.
"""

import importlib

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

_SUBMODULES = frozenset({"measures", "pipeline", "pulse_detect", "runner", "signal_io", "synth", "weighting"})


def __getattr__(name: str):
    # an imported submodule is bound on the package, so this runs once per name
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
