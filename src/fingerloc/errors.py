"""Exception hierarchy shared across the toolkit."""


class FingerlocError(Exception):
    """Base class for all toolkit errors."""


class ConfigError(FingerlocError):
    """Bad configuration file or flag combination (exit code 2)."""


class DataError(FingerlocError):
    """Bad input data (exit code 3)."""


class MalformedLabelError(DataError):
    """Location label outside the letter/row codec."""


class SchemaError(DataError):
    """CSV header or column count does not match the expected schema."""


class RowError(DataError):
    """A data row failed validation; carries the 1-based line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


class LayoutError(DataError):
    """Invalid beacon layout."""


class NumericalError(FingerlocError):
    """Numerical failure (exit code 4)."""


class ShapeError(NumericalError):
    """Array shape incompatible with a layer."""


class DivergedError(NumericalError):
    """Training loss became non-finite or exceeded the divergence bound."""

    def __init__(self, epoch: int, batch: int, loss: float):
        super().__init__(f"training diverged at epoch {epoch}, batch {batch} (loss={loss!r})")


class LoadError(DataError):
    """Serialized network failed to load (version/checksum/truncation)."""


class GridExhausted(ConfigError):
    """Grid search lattice has no more points."""


class ExperimentFailedError(NumericalError):
    """Every trial of a tuning experiment diverged."""
