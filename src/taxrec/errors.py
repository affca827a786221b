"""Exception hierarchy shared across the pipeline."""
from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator


class TaxRecError(Exception):
    """Base class for all package errors."""


class ProviderError(TaxRecError):
    """A chat-completion provider failed."""


class NetworkError(ProviderError):
    """Transient transport failure (connection, timeout, 5xx)."""


class AuthError(ProviderError):
    """Authentication or authorization failure; never retried."""


class ContentError(ProviderError):
    """The provider reported a problem with the request content."""


class ParseError(TaxRecError):
    """Structured data could not be extracted from provider output.

    ``raw_text`` carries the offending output verbatim for diagnosis.
    """

    def __init__(self, message: str, raw_text: str = "") -> None:
        super().__init__(message)
        self.raw_text = raw_text


class StageError(TaxRecError):
    """A pipeline stage failed; the message is prefixed with the stage name."""

    def __init__(self, stage: str, cause: Exception) -> None:
        super().__init__(f"{stage}: {cause}")
        self.stage = stage
        self.cause = cause


@contextmanager
def stage(name: str) -> Iterator[None]:
    """Raise any failure inside the block as ``StageError(name, cause)``.

    A ``StageError`` raised by an inner stage passes through unwrapped, so
    the innermost stage names the failure.
    """
    try:
        yield
    except StageError:
        raise
    except Exception as exc:
        raise StageError(name, exc) from exc
