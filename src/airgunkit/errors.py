"""Exception types shared across the toolkit."""


class AirgunkitError(Exception):
    """Base class for all toolkit errors."""


class ManifestError(AirgunkitError):
    """Manifest is malformed, inconsistent, or references bad audio."""


class AudioFormatError(AirgunkitError):
    """Audio container is not 16-bit mono PCM or exceeds supported rates."""


class FilterDesignError(AirgunkitError):
    """Weighting filter cannot be realized at the given sample rate."""


class MeasureError(AirgunkitError):
    """Energy bounds asked of an all-zero window."""


class RunError(AirgunkitError):
    """A batch run aborted; message carries per-task failure context."""
