"""Batch detection and acoustic feature extraction for seismic airgun surveys."""

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
from .measures import (
    Levels,
    PeakMeasures,
    leq,
    measure_peaks,
    sel,
    spl,
    window_energy,
    window_levels,
)
from .pipeline import (
    FEATURE_COLUMNS,
    FeatureRecord,
    extract_record,
    ledger_total,
    read_catalog,
    sort_records,
    write_catalog,
)
from .pulse_detect import DetectorConfig, PulseEvent, detect_pulses
from .runner import RunConfig, RuntimeReport, bench, extract_stream, run
from .signal_io import (
    CalibrationSpec,
    ChannelManifest,
    SampleBuffer,
    iter_chunks,
    open_manifest,
    read_span,
    write_wav,
)
from .synth import GroundTruthRecord, SurveySpec, generate, pulse_energy_upa2s, read_ground_truth
from .weighting import (
    CANONICAL_ORDER,
    FilterState,
    WeightingKind,
    WeightingSpec,
    apply_filter,
    design_filter,
)
from .windows import EnergyBounds, energy_bounds, layout_windows

__version__ = "0.1.0"

__all__ = [
    "AirgunkitError",
    "AudioFormatError",
    "CANONICAL_ORDER",
    "CalibrationSpec",
    "ChannelManifest",
    "DetectionError",
    "DetectorConfig",
    "EnergyBounds",
    "FEATURE_COLUMNS",
    "FeatureRecord",
    "FilterDesignError",
    "FilterState",
    "GapError",
    "GroundTruthRecord",
    "Levels",
    "ManifestError",
    "MeasureError",
    "PeakMeasures",
    "PulseEvent",
    "RunConfig",
    "RunError",
    "RuntimeReport",
    "SampleBuffer",
    "SurveySpec",
    "WeightingKind",
    "WeightingSpec",
    "apply_filter",
    "bench",
    "design_filter",
    "detect_pulses",
    "energy_bounds",
    "extract_record",
    "extract_stream",
    "generate",
    "iter_chunks",
    "layout_windows",
    "ledger_total",
    "leq",
    "measure_peaks",
    "open_manifest",
    "pulse_energy_upa2s",
    "read_catalog",
    "read_ground_truth",
    "read_span",
    "run",
    "sel",
    "sort_records",
    "spl",
    "window_energy",
    "window_levels",
    "write_catalog",
    "write_wav",
]
