"""The solver guards: errors raised when a configured size or budget cap trips.

A guard trip is not a wrong answer: the CLI maps every guard to exit code 4,
and the property suite's witness check counts it as skipped, neither passed
nor failed.
"""

from __future__ import annotations

from .base import PowerIterationError, WordListSizeError
from .covercomb import SetCoverSizeError, UncoveredUniverseError
from .covers import JoinSizeError
from .entropy import EnumerationGuardError
from .variational import HorizonGuardError

__all__ = ["GenerationError", "GUARDS"]


class GenerationError(RuntimeError):
    """The rejection sampler ran out of budget (pathological parameters)."""


GUARDS = (
    SetCoverSizeError,
    JoinSizeError,
    EnumerationGuardError,
    HorizonGuardError,
    PowerIterationError,
    GenerationError,
    UncoveredUniverseError,
    WordListSizeError,
)
