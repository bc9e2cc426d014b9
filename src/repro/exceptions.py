"""Exception hierarchy for the :mod:`repro` package.

Every error raised by the library derives from :class:`ReproError` so callers can
catch library failures with a single ``except`` clause while still distinguishing
the individual failure modes.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the library."""


class SchemaError(ReproError):
    """A dataset schema is malformed or inconsistent with the supplied rows."""


class UnknownAttributeError(SchemaError):
    """An operation referenced an attribute that is not part of the schema."""

    def __init__(self, name: str, available: tuple[str, ...] = ()) -> None:
        self.name = name
        self.available = tuple(available)
        message = f"unknown attribute {name!r}"
        if self.available:
            message += f"; available attributes: {', '.join(self.available)}"
        super().__init__(message)


class UnknownValueError(SchemaError):
    """A pattern or query referenced a value outside an attribute's active domain."""

    def __init__(self, attribute: str, value: object) -> None:
        self.attribute = attribute
        self.value = value
        super().__init__(f"value {value!r} is not in the active domain of attribute {attribute!r}")


class DatasetError(ReproError):
    """Generic dataset construction or access failure."""


class RankingError(ReproError):
    """A ranking algorithm received invalid input or produced an invalid order."""


class BoundSpecError(ReproError):
    """A bound specification (global or proportional) is invalid."""


class DetectionError(ReproError):
    """A detection algorithm was invoked with inconsistent parameters."""


class ConfigurationError(DetectionError):
    """An :class:`~repro.core.engine.parallel.ExecutionConfig` field is invalid.

    Raised by the dataclass's ``__post_init__`` for every field — a negative
    worker count or cache capacity, an unknown ``backend`` or start method, an
    inconsistent timeout — so a bad configuration fails fast with a typed error
    instead of surfacing deep inside the executor.
    """


class ExecutorBrokenError(DetectionError):
    """A parallel search executor exhausted its worker-restart budget.

    Raised by :class:`repro.core.engine.parallel.ParallelSearchExecutor` when a
    worker it is waiting on dies (or stops heartbeating) and respawning it more
    than ``ExecutionConfig.max_worker_restarts`` times within one search did not
    restore service.  The executor is unusable afterwards; session-level callers
    catch this to close the pool, re-run the interrupted query on the serial
    in-process path, and enter a degraded-mode cooldown before probing for a
    fresh executor.
    """


class ConcurrentSessionUseError(DetectionError):
    """Two callers entered the same :class:`~repro.core.session.AuditSession` at once.

    Sessions are single-caller: their warm engine attributes per-query stats
    through snapshot deltas, which interleaved queries would silently corrupt.
    Callers that need concurrency put a serialization layer in front of the
    session — the multi-tenant :class:`~repro.service.AuditService` dispatcher
    is exactly that — instead of sharing one session between threads.
    """


class QueryTimeoutError(DetectionError):
    """A query exceeded its configured deadline (``ExecutionConfig.query_deadline``).

    The partially accumulated :class:`repro.core.stats.SearchStats` for the
    timed-out query are attached as :attr:`stats` so callers can inspect how far
    the search progressed (counters, restarts, cache activity) before the
    deadline fired.  When the timeout interrupted a
    :meth:`~repro.core.session.AuditSession.run_many` batch,
    :attr:`partial_reports` carries the reports completed before the deadline
    fired, in input order with ``None`` for the unserved queries — exactly the
    prefix of plan steps that finished (and whose sweeps the session's result
    store retained).
    """

    def __init__(
        self,
        message: str,
        stats: object | None = None,
        partial_reports: tuple | None = None,
    ) -> None:
        super().__init__(message)
        self.stats = stats
        self.partial_reports = partial_reports


class ModelError(ReproError):
    """A regression model in :mod:`repro.mlcore` was misused (e.g. predict before fit)."""


class NotFittedError(ModelError):
    """Prediction was requested from a model that has not been fitted."""


class ExplanationError(ReproError):
    """The Shapley-based result analysis received invalid input."""


class ExperimentError(ReproError):
    """An experiment/benchmark harness configuration is invalid."""
