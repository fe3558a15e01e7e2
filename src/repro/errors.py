"""The one user-facing error type for declarative inputs.

This module imports nothing from :mod:`repro`, so every layer can
subclass :class:`SpecError` without an import cycle.
"""

from __future__ import annotations

__all__ = ["SpecError"]


class SpecError(ValueError):
    """An invalid scenario spec or a document it embeds.

    The CLI maps it to ``error: ...`` and exit code 2, the scenario
    service to HTTP 400.

    Attributes:
        path: JSON path of the offending value (for example
            ``$.topology.clusters[0].machines``), or ``None`` when the
            error was raised outside a decode.
    """

    def __init__(self, message: str, path: str | None = None) -> None:
        super().__init__(message)
        self.path = path

    def __str__(self) -> str:
        message = super().__str__()
        return f"{self.path}: {message}" if self.path else message
