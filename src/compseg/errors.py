"""Exception taxonomy shared across the package.

Every error raised by library code derives from CompsegError and carries a
short machine-parsable code. The CLI turns these into single-line
``compseg: error code=... msg=...`` diagnostics with a nonzero exit status.
"""
from __future__ import annotations


class CompsegError(Exception):
    """Base class for all package errors."""

    code = "ERROR"


class FormatError(CompsegError):
    """Malformed or truncated file content (bad magic, dims, payload size or values)."""

    code = "FORMAT"


class ValidationError(CompsegError):
    """Invalid in-memory value (non-unit vector, bad simplex, bad box)."""

    code = "INVALID"


class TrainingError(CompsegError):
    """Failure inside the learning pipeline, tagged with the failing stage."""

    code = "TRAIN"

    def __init__(self, stage: str, message: str):
        super().__init__(f"stage={stage}: {message}")
        self.stage = stage
