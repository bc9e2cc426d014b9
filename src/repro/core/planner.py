"""Query planning and cross-query result reuse for batched detection.

The paper's workloads are inherently multi-query: IterTD re-runs Algorithm 1 per
``k``, and the evaluation figures sweep ``tau_s``, k ranges and bounds over one
fixed ranking.  When such a batch reaches the session as individual
:class:`DetectionQuery` values, executing each one as an isolated search wastes
work in four distinct ways, each addressed by one layer of this module:

* **Canonicalization + dedupe** — the same question asked twice (possibly through
  ``algorithm="auto"`` vs its resolved name, or through structurally equal bound
  objects) is recognised by :func:`canonical_query_key` and executed once.
* **k-range merging** — queries that agree on ``(bound, tau_s, algorithm)`` and
  whose k ranges overlap, nest or touch are folded into one *covering* k-sweep
  (:func:`plan_queries`).  Every detector assembles its output through
  :class:`~repro.core.top_down.SweepAssembler`, whose per-k sets are independent
  of where the sweep started, so the covering run answers each constituent query
  via :meth:`~repro.core.result_set.DetectionResult.restrict_k` bit-identically
  to running it alone.
* **Cross-query result reuse** — the session's
  :class:`~repro.core.result_store.ResultStore` keeps finished covering sweeps
  (with their resume frontiers) keyed by canonical query + dataset fingerprint
  and serves any later query whose range is *contained* in a cached one, again
  by restriction.
* **Partial-hit planning** — when the caller supplies a *coverage* view of its
  store, a query whose range only partially overlaps a cached sweep plans an
  :class:`ExtendStep`: the session resumes the cached sweep's
  :class:`~repro.core.top_down.SweepFrontier` over the uncovered k suffix, and
  runs a bounded cold sub-sweep over an uncovered k prefix, instead of
  re-running the whole covering range.

Queries that differ only in their threshold (a tuning sweep over ``alpha`` or a
constant ``L``) are separate steps: each distinct threshold runs its own sweep
on the session's warm engine.  GlobalBounds and PropBounds get their speed from
reusing work from one k to the next, and a per-threshold sweep keeps that reuse
intact.

Plan steps are ordered by ``tau_s`` (ties by first appearance in the batch) so
that the executor's per-``tau_s`` shard assignments and the engine's sibling
block caches are reused back-to-back instead of being interleaved.

The planner never touches the dataset or executes anything; its only impurity
is the optional read-only ``coverage`` callback, without which planning is a
pure function of the query batch.  The session owns store lookups at execution
time (and re-validates extension bases then, so a stale plan degrades to a full
run, never to a wrong answer).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field, replace
from typing import Callable, Iterable, Mapping, Sequence

from repro.core.bounds import BoundSpec, GlobalBoundSpec, ProportionalBoundSpec
from repro.core.detector import DetectionParameters, Detector
from repro.core.engine.parallel import ExecutionConfig
from repro.core.global_bounds import GlobalBoundsDetector
from repro.core.iter_td import IterTDDetector
from repro.core.prop_bounds import PropBoundsDetector
from repro.core.result_store import (  # noqa: F401  (re-exported)
    DEFAULT_RESULT_CACHE_CAPACITY,
    DiskResultStore,
    InMemoryResultStore,
    ResultStore,
    StoreEntry,
    extension_gain,
    shared_result_store,
)
from repro.core.upper_bounds import UpperBoundsDetector

#: Algorithm names accepted by :class:`DetectionQuery`, mapped to detector classes.
DETECTOR_CLASSES = {
    "iter_td": IterTDDetector,
    "global_bounds": GlobalBoundsDetector,
    "prop_bounds": PropBoundsDetector,
    "upper_bounds": UpperBoundsDetector,
}

#: Signature of the optional coverage view handed to :func:`plan_queries`:
#: group key -> the cached (k_min, k_max) ranges that may seed an extension.
CoverageFn = Callable[[tuple], Iterable[tuple[int, int]]]


@dataclass(frozen=True)
class DetectionQuery:
    """One detection question, as a frozen value.

    ``algorithm`` is ``"auto"`` (GlobalBounds for pattern-independent bounds,
    PropBounds otherwise), ``"iter_td"``, ``"global_bounds"``, ``"prop_bounds"``
    or ``"upper_bounds"`` — the lower-bound names are the same ones the one-shot
    :func:`~repro.core.session.detect_biased_groups` facade accepts.  Instances
    carry no dataset or execution state, so the same query can be run against
    many sessions (or stored alongside a saved report).

    ``beta`` is the canonical form of an upper-bound level: a query with
    ``beta`` set audits against :meth:`effective_bound`, which augments
    ``bound`` with that upper level (the ``beta`` of a
    :class:`~repro.core.bounds.ProportionalBoundSpec`, the constant
    ``upper_bounds`` of a :class:`~repro.core.bounds.GlobalBoundSpec`).  Because
    the level is part of the query value — not baked into ad-hoc bound objects —
    ``upper_bounds`` sweeps route through :func:`plan_queries` like everything
    else: equal-``beta`` repeats dedupe, overlapping k ranges merge, and
    distinct ``beta`` levels never falsely share a plan step.
    """

    bound: BoundSpec
    tau_s: int
    k_min: int
    k_max: int
    algorithm: str = "auto"
    beta: float | None = None

    def __post_init__(self) -> None:
        if self.algorithm != "auto" and self.algorithm not in DETECTOR_CLASSES:
            raise ValueError(
                f"unknown algorithm {self.algorithm!r}; expected one of "
                f"{sorted(DETECTOR_CLASSES)} or 'auto'"
            )
        # Reuse the parameter validation (tau_s >= 1, k_min >= 1, k_max >= k_min)
        # and fail fast on a beta level the bound cannot carry.
        DetectionParameters(
            bound=self.effective_bound(),
            tau_s=self.tau_s,
            k_min=self.k_min,
            k_max=self.k_max,
        )
        if self.algorithm == "upper_bounds" and self.effective_bound().upper(
            self.k_min, 1, 1
        ) is None:
            raise ValueError(
                "an upper_bounds query needs an upper level: set beta, or use a "
                "bound specification with upper bounds"
            )

    def effective_bound(self) -> BoundSpec:
        """The bound actually audited: ``bound`` augmented with ``beta`` (if set)."""
        if self.beta is None:
            return self.bound
        if isinstance(self.bound, ProportionalBoundSpec):
            return replace(self.bound, beta=float(self.beta))
        if isinstance(self.bound, GlobalBoundSpec):
            return replace(self.bound, upper_bounds=float(self.beta))
        raise ValueError(
            f"beta levels require a GlobalBoundSpec or ProportionalBoundSpec "
            f"(got {type(self.bound).__qualname__})"
        )

    def resolved_algorithm(self) -> str:
        """The concrete algorithm name (``"auto"`` resolved against the bound)."""
        if self.algorithm != "auto":
            return self.algorithm
        return "prop_bounds" if self.bound.pattern_dependent else "global_bounds"

    def build_detector(self, execution: ExecutionConfig | None = None) -> Detector:
        """Instantiate the detector this query asks for."""
        detector_class = DETECTOR_CLASSES[self.resolved_algorithm()]
        return detector_class(
            bound=self.effective_bound(),
            tau_s=self.tau_s,
            k_min=self.k_min,
            k_max=self.k_max,
            execution=execution,
        )


# -- canonicalization ---------------------------------------------------------------
def _bound_values_key(values) -> tuple | None:
    """A hashable identity for one lower/upper bound field of a global bound."""
    if values is None:
        return None
    if isinstance(values, Mapping):
        return ("schedule", tuple(sorted((int(k), float(v)) for k, v in values.items())))
    if callable(values):
        # Callables have no structural identity; fall back to object identity
        # (never a false merge — distinct objects never compare equal).
        return ("callable", id(values))
    return ("constant", float(values))


def bound_key(bound: BoundSpec) -> tuple:
    """A hashable canonical identity of a bound specification.

    Structurally equal :class:`GlobalBoundSpec` / :class:`ProportionalBoundSpec`
    instances map to equal keys, so distinct-but-equal bound objects merge.
    Callable schedules and third-party :class:`BoundSpec` subclasses fall back to
    object identity: only reusing the *same* bound object merges, which can miss
    a merge but can never produce a false one.  Identity keys are only safe
    while the keyed object is alive — holders of such keys (the plan, the
    result cache) must keep a reference to the query whose bound produced them.
    """
    if isinstance(bound, GlobalBoundSpec):
        return (
            "global",
            _bound_values_key(bound.lower_bounds),
            _bound_values_key(bound.upper_bounds),
        )
    if isinstance(bound, ProportionalBoundSpec):
        return (
            "proportional",
            float(bound.alpha),
            None if bound.beta is None else float(bound.beta),
        )
    return ("opaque", type(bound).__qualname__, id(bound))


def query_group_key(query: DetectionQuery) -> tuple:
    """The canonical identity of a query *modulo its k range*.

    Two queries with equal group keys ask the same question about different (or
    equal) prefixes of the same ranking, so their sweeps may legally be merged
    and their results may answer each other by k-range containment.  The key is
    computed over :meth:`DetectionQuery.effective_bound`, so upper-bound queries
    at distinct ``beta`` levels never share a group while equal levels dedupe —
    whether the level came through ``beta`` or was baked into the bound.
    """
    return (bound_key(query.effective_bound()), query.tau_s, query.resolved_algorithm())


def canonical_query_key(query: DetectionQuery) -> tuple:
    """The full canonical identity of a query (group key + k range).

    Queries with equal canonical keys are exact repeats — ``algorithm="auto"``
    is resolved first, so an auto query and its explicitly named twin dedupe.
    """
    return (query_group_key(query), query.k_min, query.k_max)


# -- plans --------------------------------------------------------------------------
@dataclass(frozen=True)
class PlanStep:
    """One covering k-sweep of a query plan.

    ``query`` is the (possibly widened) query actually executed; ``serves`` holds
    the indices of the input batch answered by this step, in input order.
    ``merged_ranges`` counts the distinct k ranges folded into the covering range
    beyond the first; ``deduped_queries`` counts the exact-repeat inputs absorbed.
    """

    query: DetectionQuery
    group_key: tuple = field(repr=False)
    serves: tuple[int, ...]
    merged_ranges: int = 0
    deduped_queries: int = 0

    @property
    def primary_index(self) -> int:
        """The first input-batch index served — the query that pays for the run."""
        return self.serves[0]


@dataclass(frozen=True)
class ExtendStep(PlanStep):
    """A plan step served by *extending* a cached sweep instead of re-running it.

    Planned when the store's coverage shows a cached sweep of the same group
    over ``[base_k_min, base_k_max]`` that overlaps (or suffix-adjoins) the
    step's range without containing it.  The extension is two-sided: a k
    *suffix* beyond ``base_k_max`` is computed by resuming the cached frontier,
    a k *prefix* below ``base_k_min`` by a bounded cold re-run that stops at
    ``base_k_min - 1`` — per-k independence of every detector's sweep assembly
    makes both splices bit-identical to a full covering run.  The base is
    re-validated at execution time — if it was evicted (or turns out to carry
    no frontier while a suffix is needed) the step degrades to a plain covering
    run, so a stale plan can cost time but never correctness.
    """

    base_k_min: int = 0
    base_k_max: int = 0

    @property
    def suffix_k_values(self) -> int:
        """How many k values the frontier resume computes beyond the base."""
        return max(0, self.query.k_max - self.base_k_max)

    @property
    def prefix_k_values(self) -> int:
        """How many k values the bounded prefix re-run computes below the base."""
        return max(0, self.base_k_min - self.query.k_min)


@dataclass(frozen=True)
class QueryPlan:
    """The execution plan of one query batch.

    ``steps`` are in execution order (ascending ``tau_s``, ties by first
    appearance in the batch), so same-``tau_s`` sweeps run back-to-back against
    warm per-``tau_s`` shard assignments and block caches.  ``step_of`` maps each
    input index to the position of the step that serves it.
    """

    queries: tuple[DetectionQuery, ...]
    steps: tuple[PlanStep, ...]

    @property
    def step_of(self) -> dict[int, int]:
        return {
            index: position
            for position, step in enumerate(self.steps)
            for index in step.serves
        }

    @property
    def n_queries(self) -> int:
        return len(self.queries)

    @property
    def n_steps(self) -> int:
        return len(self.steps)

    @property
    def deduped_queries(self) -> int:
        """Input queries absorbed as exact repeats of another input."""
        return sum(step.deduped_queries for step in self.steps)

    @property
    def merged_ranges(self) -> int:
        """Distinct canonical queries absorbed by k-range merging."""
        return sum(step.merged_ranges for step in self.steps)

    @property
    def extension_steps(self) -> int:
        """Steps planned as frontier extensions of cached sweeps."""
        return sum(1 for step in self.steps if isinstance(step, ExtendStep))

    @property
    def refine_steps(self) -> int:
        # Always 0; kept only because perfbench/tracing.py reads this name.
        return 0

    def describe(self) -> str:
        lines = [
            f"plan: {self.n_queries} queries -> {self.n_steps} steps "
            f"({self.deduped_queries} deduped, {self.merged_ranges} ranges merged, "
            f"{self.extension_steps} extensions)"
        ]
        for position, step in enumerate(self.steps):
            query = step.query
            suffix = ""
            if isinstance(step, ExtendStep):
                sides = []
                if step.prefix_k_values:
                    sides.append(f"prefix +{step.prefix_k_values}")
                if step.suffix_k_values:
                    sides.append(f"suffix +{step.suffix_k_values}")
                suffix = (
                    f" extends cached [{step.base_k_min}, {step.base_k_max}]"
                    f" ({', '.join(sides) or 'adjacent'} k values)"
                )
            lines.append(
                f"  step {position}: {query.resolved_algorithm()} tau_s={query.tau_s} "
                f"k=[{query.k_min}, {query.k_max}] serves {list(step.serves)}{suffix}"
            )
        return "\n".join(lines)


def _extension_base(
    ranges: Iterable[tuple[int, int]], k_min: int, k_max: int
) -> tuple[int, int] | None:
    """The best cached range for extending towards ``[k_min, k_max]``, or ``None``.

    Qualification is :func:`~repro.core.result_store.extension_gain` — the
    same two-sided predicate the stores' ``extendable`` lookups apply at
    execution time; among qualifying ranges the one serving the most cached k
    values wins (ties: the latest-ending one, for the smallest suffix).  A
    range that already *contains* the asked range disqualifies extension
    entirely — the step will be a plain containment hit at execution time.
    """
    best: tuple[int, int] | None = None
    best_score: tuple[int, int] | None = None
    for base_min, base_max in ranges:
        if base_min <= k_min and k_max <= base_max:
            return None
        gain = extension_gain(base_min, base_max, k_min, k_max)
        if gain is None:
            continue
        score = (gain, base_max)
        if best_score is None or score > best_score:
            best = (base_min, base_max)
            best_score = score
    return best


def plan_queries(
    queries: Sequence[DetectionQuery],
    coverage: CoverageFn | None = None,
) -> QueryPlan:
    """Plan a batch of queries into deduplicated, merged, ``tau_s``-ordered steps.

    ``coverage`` is an optional read-only view of the caller's result store
    (group key -> cached ``(k_min, k_max)`` ranges).  When given, a step whose
    range partially overlaps a cached sweep — the cached range covers the
    step's ``k_min`` but ends short of its ``k_max`` — is planned as an
    :class:`ExtendStep` over the uncovered suffix instead of a full covering
    run.  Without it planning is a pure function of the queries.  Guarantees:

    * every input index is served by exactly one step;
    * a step's covering range is the union of the (overlapping, nested or
      adjacent) ranges it absorbed — gaps are never bridged, so a step never
      computes a ``k`` no input asked for;
    * steps are sorted by ``tau_s`` first, then by the first appearance of any
      served query, so planning is deterministic and batch-order independent for
      the work performed.
    """
    queries = tuple(queries)
    # 1. Dedupe exact repeats (canonical key: resolved algorithm + bound identity).
    by_canonical: "OrderedDict[tuple, list[int]]" = OrderedDict()
    for index, query in enumerate(queries):
        by_canonical.setdefault(canonical_query_key(query), []).append(index)

    # 2. Group the distinct queries by (bound, tau_s, algorithm) and merge ranges.
    by_group: "OrderedDict[tuple, list[tuple[int, int, list[int]]]]" = OrderedDict()
    for (group_key, k_min, k_max), indices in by_canonical.items():
        by_group.setdefault(group_key, []).append((k_min, k_max, indices))

    steps: list[PlanStep] = []
    for group_key, ranges in by_group.items():
        ranges = sorted(ranges, key=lambda entry: (entry[0], entry[1]))
        position = 0
        while position < len(ranges):
            k_min, k_max, indices = ranges[position]
            served = list(indices)
            deduped = len(indices) - 1
            merged = 0
            position += 1
            # Extend the covering range while the next range overlaps, nests or
            # touches it (k_min' <= k_max + 1): the union stays gap-free.
            while position < len(ranges) and ranges[position][0] <= k_max + 1:
                next_min, next_max, next_indices = ranges[position]
                k_max = max(k_max, next_max)
                served.extend(next_indices)
                deduped += len(next_indices) - 1
                merged += 1
                position += 1
            representative = queries[served[0]]
            covering = DetectionQuery(
                bound=representative.bound,
                tau_s=representative.tau_s,
                k_min=k_min,
                k_max=k_max,
                algorithm=representative.resolved_algorithm(),
                beta=representative.beta,
            )
            base = (
                _extension_base(coverage(group_key), k_min, k_max)
                if coverage is not None
                else None
            )
            step_fields = dict(
                query=covering,
                group_key=group_key,
                serves=tuple(sorted(served)),
                merged_ranges=merged,
                deduped_queries=deduped,
            )
            if base is not None:
                steps.append(
                    ExtendStep(**step_fields, base_k_min=base[0], base_k_max=base[1])
                )
            else:
                steps.append(PlanStep(**step_fields))

    # 3. Execution order: ascending tau_s, ties by first appearance in the batch,
    # so the executor's per-tau_s shard assignments are reused back-to-back.
    steps.sort(key=lambda step: (step.query.tau_s, step.primary_index))
    return QueryPlan(queries=queries, steps=tuple(steps))


# -- cross-query result reuse -------------------------------------------------------
# The covering-sweep stores (the in-memory LRU, the process-wide shared registry
# and the on-disk backend) live in :mod:`repro.core.result_store`; the names are
# re-exported above for one-stop imports alongside the planner.
