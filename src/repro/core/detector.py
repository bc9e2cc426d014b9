"""Detector interface, detection reports and the high-level convenience API.

Every algorithm (the IterTD baseline, GlobalBounds and PropBounds) implements
:class:`Detector`: given a dataset and either a ranking or a black-box ranker, it
returns a :class:`DetectionReport` bundling the per-k result sets, the search
statistics and enough context (sizes, counts, bounds) to present the results the way
Section III suggests — ordered by k and ranked by group size or bias gap.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Callable

from repro.core.bounds import BoundSpec
from repro.core.engine.parallel import ExecutionConfig
from repro.core.pattern import Pattern
from repro.core.pattern_graph import PatternCounter
from repro.core.result_set import DetectedGroup, DetectionResult
from repro.core.stats import SearchStats
from repro.core.top_down import SearchState, SweepFrontier, SweepOutcome
from repro.data.dataset import Dataset
from repro.exceptions import DetectionError
from repro.ranking.base import Ranker, Ranking

#: Signature of the search strategy handed to :meth:`Detector._sweep`: one full
#: Algorithm-1 search — ``search(bound, k, tau_s, stats, classification=True)`` —
#: executed either in-process (:func:`~repro.core.top_down.top_down_search`) or by
#: the sharded parallel executor, transparently to the algorithms.  Callers that
#: only consume ``most_general()`` of the returned state (not the resumable
#: classification) pass ``classification=False`` so the parallel path can skip
#: shipping full shard states between processes.
SearchFn = Callable[..., SearchState]


@dataclass(frozen=True)
class DetectionParameters:
    """The problem parameters shared by every detection algorithm.

    ``execution`` carries the engine tunables and the parallelism knobs
    (:class:`~repro.core.engine.parallel.ExecutionConfig`); the default runs the
    classic single-process path with the documented engine defaults.  ``None``
    is accepted and normalised to the default, so detector constructors can
    simply pass their optional ``execution`` argument through.
    """

    bound: BoundSpec
    tau_s: int
    k_min: int
    k_max: int
    execution: ExecutionConfig = field(default_factory=ExecutionConfig)

    def __post_init__(self) -> None:
        if self.execution is None:
            object.__setattr__(self, "execution", ExecutionConfig())
        if self.tau_s < 1:
            raise DetectionError("the size threshold tau_s must be at least 1")
        if self.k_min < 1:
            raise DetectionError("k_min must be at least 1")
        if self.k_max < self.k_min:
            raise DetectionError("k_max must be at least k_min")

    def k_range(self) -> range:
        return range(self.k_min, self.k_max + 1)

    def validate_for(self, dataset: Dataset) -> None:
        if self.k_max > dataset.n_rows:
            raise DetectionError(
                f"k_max={self.k_max} exceeds the dataset size of {dataset.n_rows} rows"
            )


class DetectionReport:
    """The outcome of one detection run."""

    def __init__(
        self,
        algorithm: str,
        parameters: DetectionParameters,
        result: DetectionResult,
        stats: SearchStats,
        counter: PatternCounter,
    ) -> None:
        self.algorithm = algorithm
        self.parameters = parameters
        self.result = result
        self.stats = stats
        self._counter = counter
        #: The :class:`~repro.core.session.DetectionQuery` that produced this
        #: report, when it came out of a session's query path; ``None`` for
        #: direct detector runs.
        self.query = None

    def __repr__(self) -> str:
        return (
            f"DetectionReport(algorithm={self.algorithm!r}, "
            f"k=[{self.parameters.k_min}, {self.parameters.k_max}], "
            f"total_reported={self.result.total_reported()})"
        )

    def groups_at(self, k: int) -> frozenset[Pattern]:
        """The most general biased patterns detected for prefix length ``k``."""
        return self.result.groups_at(k)

    def detailed_groups(self, k: int, order_by: str = "size") -> list[DetectedGroup]:
        """Detected groups at ``k`` with their sizes, counts and bounds.

        ``order_by`` is ``"size"`` (overall group size, descending) or ``"bias"``
        (gap between required and actual representation, descending), the two
        orderings Section III proposes for presenting results.
        """
        if order_by not in {"size", "bias"}:
            raise DetectionError("order_by must be 'size' or 'bias'")
        dataset_size = self._counter.dataset_size
        groups = []
        for pattern in self.result.groups_at(k):
            size = self._counter.size(pattern)
            count = self._counter.top_k_count(pattern, k)
            bound = self.parameters.bound.lower(k, size, dataset_size)
            groups.append(
                DetectedGroup(pattern=pattern, k=k, size_in_data=size, count_in_top_k=count, bound=bound)
            )
        if order_by == "size":
            groups.sort(key=lambda group: (-group.size_in_data, group.pattern.describe()))
        else:
            groups.sort(key=lambda group: (-group.bias_gap, group.pattern.describe()))
        return groups

    def describe(self, max_rows: int = 50) -> str:
        """Plain-text summary of the detection run (one line per detected group)."""
        lines = [
            f"algorithm: {self.algorithm}",
            f"k range: [{self.parameters.k_min}, {self.parameters.k_max}]  "
            f"size threshold: {self.parameters.tau_s}",
            f"groups reported (k, group) pairs: {self.result.total_reported()}",
        ]
        emitted = 0
        for k in self.result.k_values:
            for group in self.detailed_groups(k):
                if emitted >= max_rows:
                    lines.append(f"... ({self.result.total_reported() - emitted} more rows)")
                    return "\n".join(lines)
                lines.append("  " + group.describe())
                emitted += 1
        return "\n".join(lines)


class Detector(abc.ABC):
    """Base class of the detection algorithms."""

    #: Human-readable algorithm name, set by subclasses.
    name: str = "detector"

    #: Whether :meth:`_sweep` routes work through the ``search`` strategy.  Set to
    #: ``False`` by subclasses that never run full top-down searches (e.g. the
    #: upper-bound detector), so :meth:`detect` does not pay for spawning a
    #: parallel executor that would receive zero tasks.
    uses_search: bool = True

    #: Whether finished sweeps capture a :class:`~repro.core.top_down.SweepFrontier`
    #: and :meth:`_resume` can extend them to a larger ``k_max``.  The built-in
    #: detectors are resumable; third-party subclasses default to one-shot.
    resumable: bool = False

    def __init__(self, parameters: DetectionParameters) -> None:
        self.parameters = parameters

    @abc.abstractmethod
    def _sweep(
        self, counter: PatternCounter, stats: SearchStats, search: SearchFn
    ) -> SweepOutcome:
        """Compute the per-k most general biased patterns for the full k range.

        ``search`` runs one full top-down search for a given (bound, k, tau_s) —
        in-process or fanned out over the parallel executor, depending on the
        :class:`~repro.core.engine.parallel.ExecutionConfig` in force.  Algorithms
        must route every full search through it (their *incremental* per-k steps
        operate on the returned state in the calling process), and must assemble
        their output through :class:`~repro.core.top_down.SweepAssembler` so the
        returned :class:`DetectionResult` is range-sliceable: the session's query
        planner runs detectors over *covering* k ranges and serves the individual
        queries via :meth:`DetectionResult.restrict_k`.  Resumable detectors
        additionally capture a :class:`~repro.core.top_down.SweepFrontier` on the
        assembler so the session's result store can later extend the sweep.
        """

    def _resume(
        self,
        counter: PatternCounter,
        stats: SearchStats,
        search: SearchFn,
        frontier: SweepFrontier,
    ) -> SweepOutcome:
        """Extend a finished sweep from ``frontier`` over this detector's k range.

        The detector must have been constructed for the *suffix*: its ``k_min``
        equals ``frontier.k + 1`` and its ``k_max`` is the new sweep end.  The
        returned outcome covers only the suffix k values (the caller stitches it
        onto the cached covering result) and carries the new frontier at the
        extended ``k_max``.  Implementations must be bit-identical to the suffix
        of a cold run over the combined range — the contract behind the result
        store's partial hits.
        """
        raise DetectionError(f"{type(self).__name__} does not support resuming sweeps")

    def _check_resume_frontier(self, frontier: SweepFrontier, algorithm: str) -> None:
        """Shared validation of a frontier handed to :meth:`_resume`."""
        if frontier.algorithm != algorithm:
            raise DetectionError(
                f"cannot resume a {frontier.algorithm!r} frontier with {algorithm!r}"
            )
        if self.parameters.k_min != frontier.k + 1:
            raise DetectionError(
                f"resume expects k_min == frontier.k + 1 "
                f"(got k_min={self.parameters.k_min}, frontier.k={frontier.k})"
            )

    def detect(
        self,
        dataset: Dataset,
        ranking: Ranking | Ranker,
        counter: PatternCounter | None = None,
    ) -> DetectionReport:
        """Run the detector over ``dataset`` ranked by ``ranking`` (or a ranker).

        ``counter`` may be supplied to reuse a warm counting engine or to route the
        run through an alternative counter implementation (e.g. the naive
        per-pattern reference path in :mod:`repro.core.engine.naive`); by default a
        fresh engine-backed :class:`PatternCounter` is built with the cache
        capacities and sparse threshold of the execution config.  When the config
        asks for more than one worker, full searches are sharded over a process
        pool attached to the dataset through shared memory; the per-k result sets
        are bit-identical either way.

        This is a one-shot compatibility wrapper: it opens a single-query
        :class:`~repro.core.session.AuditSession`, runs this detector through it
        and closes the session (tearing the worker pool down) before returning.
        Callers issuing several queries over the same ranked dataset should hold
        an explicit session instead.
        """
        # Imported here: session.py builds the query registry from the detector
        # subclasses, which import this module.
        from repro.core.session import AuditSession

        self.parameters.validate_for(dataset)
        with AuditSession(
            dataset, ranking, execution=self.parameters.execution, counter=counter
        ) as session:
            return session.run_detector(self)
