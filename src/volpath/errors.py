"""Exception hierarchy shared across the package, and the helpers that name a bad key."""

from contextlib import contextmanager


class VolpathError(Exception):
    """Base class for all package-specific errors."""


class ConfigurationError(VolpathError):
    """Invalid configuration, parameters, or spec wiring."""


class NumericalFailureError(VolpathError):
    """Non-finite values encountered during model stepping."""

    def __init__(self, message: str, step_index: int | None = None):
        super().__init__(message)
        self.step_index = step_index


class DegenerateBaselineError(ConfigurationError):
    """A z-score baseline with sigma <= 0 after step 0; bad input, so the CLI exits 2."""


class DataError(VolpathError):
    """Non-finite or malformed data fed into an accumulator."""


def checked(where: str, check, *args, **kwargs):
    """check(*args, **kwargs); a ConfigurationError it raises is raised again naming where."""
    try:
        return check(*args, **kwargs)
    except ConfigurationError as exc:
        raise ConfigurationError(f"{where}: {exc}") from None


def distinct_names(where: str, values: tuple[float, ...]) -> None:
    """Raise naming where unless values differ in the {:g} form that names output files."""
    if len({f"{value:g}" for value in values}) < len(values):
        raise ConfigurationError(
            f"{where} must differ in the {{:g}} form that names output files, got {list(values)}"
        )


@contextmanager
def allocating(message: str):
    """Raise ConfigurationError(message) where the block asks numpy for too large an array."""
    try:
        yield
    except (MemoryError, ValueError):
        raise ConfigurationError(message) from None
