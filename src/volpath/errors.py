"""Exception hierarchy, the helpers that name a bad key, and read_input, the one file reader."""

from contextlib import contextmanager
from pathlib import Path


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


def cut(text: str) -> str:
    """text for a message, cut to at most 80 characters ending in '...' if longer."""
    return text if len(text) <= 80 else f"{text[:77]}..."


def shown(value) -> str:
    """value's repr, cut for a message."""
    return cut(repr(value))


def distinct_names(where: str, values: tuple[float, ...]) -> None:
    """Raise naming where unless values differ in the {:g} form that names output files."""
    if len({f"{value:g}" for value in values}) < len(values):
        raise ConfigurationError(
            f"{where} must differ in the {{:g}} form that names output files, "
            f"got {shown(list(values))}"
        )


@contextmanager
def allocating(message: str):
    """Raise ConfigurationError(message) where the block asks numpy for too large an array."""
    try:
        yield
    except (MemoryError, ValueError, OverflowError):
        raise ConfigurationError(message) from None


def read_input(path: str | Path, what: str, parse, malformed):
    """parse(the file's text).  A file missing, unreadable (a directory, no permission),
    undecodable, nested too deep or malformed raises naming what kind of file and its path."""
    try:
        return parse(Path(path).read_text())
    except FileNotFoundError:
        raise ConfigurationError(f"{what} file not found: {path}") from None
    except (OSError, ValueError, RecursionError, malformed) as exc:
        raise ConfigurationError(f"cannot read {what} file {path}: {exc}") from None
