"""Exception types shared across the package, and the seed check that
raises one."""


class HqcgError(Exception):
    """Base class for all package-specific errors."""


class CapacityError(HqcgError):
    """Qubit count or register size exceeds what the engine supports."""


class ShapeError(HqcgError):
    """Mismatched widths, lengths, or parameter-vector sizes."""


class StateError(HqcgError):
    """Invalid quantum data: non-unit state norm or non-unitary matrix."""


class ConfigError(HqcgError):
    """Invalid configuration value (layer layout, hyperparameter, CLI flag)."""


def check_seed(seed: int | None) -> None:
    """Reject a negative seed, which numpy's generators refuse with a bare
    ValueError; ``None`` draws fresh entropy where a caller allows it."""
    if seed is not None and seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")


class EncodingError(HqcgError):
    """Signal cannot be amplitude-encoded (empty, non-finite, or all-zero)."""


class DataFormatError(HqcgError):
    """Dataset or checkpoint file violates its schema."""


class EmptyDatasetError(DataFormatError):
    """Dataset file contains no samples."""


class NumericError(HqcgError):
    """NaN or Inf encountered during loss, gradient, or optimizer work.

    ``sample_index`` identifies the offending batch row when known.
    """

    def __init__(self, message: str, sample_index: int | None = None):
        super().__init__(message)
        self.sample_index = sample_index


class UndefinedMetricError(HqcgError):
    """Metric is undefined for the given labels (e.g. single-class AUC)."""
