"""Seeded inputs for the four workloads: raw data columns and request scripts.

Everything here is workload *input*: it is generated outside every timed request
and the program under test only ever sees its results.  The same ``seed``
always gives the same columns and the same request script.

Each closed-loop script repeats a fixed cycle of request cells (dataset,
attribute count, algorithm, bound family) and lets the seed draw the
parameters inside each cell (``tau_s``, the k range, the data itself).  A
run's mix therefore does not depend on the seed, which keeps throughput and
latency percentiles comparable across seeds.
"""

from __future__ import annotations

import hashlib
import itertools
from collections import Counter
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.core import (
    DetectionQuery,
    GlobalBoundSpec,
    ProportionalBoundSpec,
    paper_default_global_bounds,
    paper_default_proportional_bounds,
)
from repro.data.generators.compas import compas_dataset
from repro.data.generators.german_credit import german_credit_dataset
from repro.data.generators.student import student_dataset
from repro.ranking.workloads import compas_ranker, german_credit_ranker, student_ranker

#: Share of ``service_closed_loop`` requests that bring a query not asked before.
SERVICE_NEW_SHARE = 0.75
#: Share of ``service_closed_loop`` requests that carry a second, repeated query.
SERVICE_SECOND_QUERY_SHARE = 0.05
#: Zipf exponent of query popularity in ``service_closed_loop``.
SERVICE_ZIPF = 1.2
#: ``tau_s`` and k-width ranges of the service catalogue: narrow, so that new
#: queries cost alike and p90 does not swing with which ones a seed draws.
SERVICE_TAU_BAND = (45, 60)
SERVICE_K_WIDTH = (28, 32)
#: Tenants of ``service_closed_loop``.
SERVICE_TENANTS = ("tenant-a", "tenant-b", "tenant-c", "tenant-d")

#: Lattices with at most this many patterns are checked against brute force.
BRUTE_FORCE_LIMIT = 2_000

_GENERATORS = {
    "compas": (compas_dataset, compas_ranker),
    "german_credit": (german_credit_dataset, german_credit_ranker),
    "student": (student_dataset, student_ranker),
}


def derive_seed(seed: int, *labels: object) -> int:
    """A sub-seed for ``labels``, stable across processes and hash seeds."""
    text = ":".join(str(part) for part in (seed, *labels))
    return int.from_bytes(hashlib.blake2b(text.encode(), digest_size=8).digest(), "big")


# -- raw data --------------------------------------------------------------------
@dataclass
class RawTable:
    """Generated, not yet encoded, columns of one dataset plus its ranker."""

    name: str
    columns: dict[str, list]
    numeric: dict[str, np.ndarray]
    ranker: object
    n_rows: int


def _decode(name: str, dataset, ranker) -> RawTable:
    columns = {attr: dataset.column(attr).tolist() for attr in dataset.attribute_names}
    numeric = {col: np.array(dataset.numeric_column(col)) for col in dataset.numeric_names}
    return RawTable(name, columns, numeric, ranker, dataset.n_rows)


def paper_table(name: str, rows: int | None = None) -> RawTable:
    """One of the paper's three datasets, as its generator draws it by default.

    The data is the same for every seed: seeds vary the requests, so that a
    run's cost does not depend on which synthetic relation the seed drew.
    """
    generate, ranker = _GENERATORS[name]
    dataset = generate() if rows is None else generate(n_rows=rows)
    return _decode(name, dataset, ranker())


def scaling_table(rows: int, attributes: int):
    """The synthetic scaling instance of ``benchmarks/bench_scaling_rows.py``.

    Returns ``(table, bound)``; the bound is the instance's step schedule.
    """
    from benchmarks.bench_scaling_rows import build_instance
    from repro.ranking.base import PrecomputedRanker

    dataset, _, bound, _ = build_instance(rows, attributes, "global")
    return _decode("scaling", dataset, PrecomputedRanker(score_column="score")), bound


class Strata:
    """Seeded stratified draws from ``[low, high)``.

    Every block of ``n`` consecutive draws takes exactly one value from each of
    ``n`` equal slices of the range, in a seeded order.  A run that makes a few
    blocks of draws therefore sees nearly the same spread of values whatever
    the seed, which keeps its cost comparable across seeds.
    """

    def __init__(self, rng: np.random.Generator, low: float, high: float, n: int = 6) -> None:
        self._rng = rng
        self._low = low
        self._step = (high - low) / n
        self._n = n
        self._pending: list[int] = []

    def draw(self) -> float:
        if not self._pending:
            self._pending = self._rng.permutation(self._n).tolist()
        stratum = self._pending.pop()
        return self._low + (stratum + float(self._rng.random())) * self._step

    def integer(self) -> int:
        return int(self.draw())


# -- requests --------------------------------------------------------------------
@dataclass(frozen=True)
class Request:
    """One request of a workload script.

    ``problem`` names the first query's detection problem independently of
    the algorithm (table, attribute count, bound label, ``tau_s``, k range),
    so answers of different algorithms to the same problem can be compared.
    """

    rid: int
    kind: str
    table: str
    n_attributes: int
    queries: tuple[DetectionQuery, ...]
    bound_labels: tuple[str, ...]
    tenant: str = ""

    def problem(self) -> tuple:
        query = self.queries[0]
        return (
            self.table, self.n_attributes, self.bound_labels[0],
            query.tau_s, query.k_min, query.k_max,
        )

    def algorithms(self) -> tuple[str, ...]:
        return tuple(query.resolved_algorithm() for query in self.queries)


def _query(bound, tau_s, k_min, k_max, algorithm) -> DetectionQuery:
    return DetectionQuery(
        bound=bound, tau_s=int(tau_s), k_min=int(k_min), k_max=int(k_max),
        algorithm=algorithm,
    )


def bound_for(label: str):
    """The bound a request's label names (``global``, ``proportional``, ``zero``,
    ``alpha=<a>`` or ``lower=<L>``)."""
    if label == "global":
        return paper_default_global_bounds()
    if label == "zero":
        return GlobalBoundSpec(lower_bounds=0.0)
    if label.startswith("alpha="):
        return ProportionalBoundSpec(alpha=float(label.split("=", 1)[1]))
    if label.startswith("lower="):
        return GlobalBoundSpec(lower_bounds=float(label.split("=", 1)[1]))
    if label == "proportional":
        return paper_default_proportional_bounds()
    raise ValueError(f"unknown bound label {label!r}")


@dataclass
class Sizes:
    """Everything that ``--tiny`` shrinks."""

    rows: dict[str, int | None]
    cold_attributes: dict[str, tuple[int, ...]]
    tuning_attributes: dict[str, int]
    service_attributes: dict[str, int]
    scaling_rows: int
    scaling_attributes: int
    sharded_tau: tuple[int, int]
    tau_band: tuple[int, int] = (35, 75)
    k_width: tuple[int, int] = (24, 36)


FULL = Sizes(
    rows={"compas": None, "german_credit": None, "student": None},
    cold_attributes={"compas": (4, 6, 7), "german_credit": (6, 8, 11), "student": (6, 9, 11)},
    tuning_attributes={"compas": 7, "german_credit": 10, "student": 10},
    service_attributes={"compas": 4, "german_credit": 5, "student": 8},
    scaling_rows=10_000,
    scaling_attributes=12,
    sharded_tau=(180, 400),
)

TINY = Sizes(
    rows={"compas": 400, "german_credit": 300, "student": 200},
    cold_attributes={"compas": (3, 4), "german_credit": (3, 4), "student": (3, 4)},
    tuning_attributes={"compas": 4, "german_credit": 4, "student": 4},
    service_attributes={"compas": 4, "german_credit": 4, "student": 4},
    scaling_rows=1_500,
    scaling_attributes=5,
    sharded_tau=(15, 60),
    tau_band=(10, 30),
    k_width=(10, 20),
)


def sizes(tiny: bool) -> Sizes:
    return TINY if tiny else FULL


def _k_range(rng: np.random.Generator, widths: Strata, n_rows: int) -> tuple[int, int]:
    """A k range inside the paper's sweeps; ``k_min >= 10`` (step schedules start there)."""
    k_min = int(rng.integers(10, 21))
    return k_min, min(n_rows, k_min + widths.integer())


# cold_audit ----------------------------------------------------------------------
COLD_FAMILIES = (("global", ("iter_td", "global_bounds")), ("proportional", ("iter_td", "prop_bounds")))


def cold_audit_requests(seed: int, size: Sizes, n_rows: dict[str, int]) -> Iterator[Request]:
    """One-shot audits, cycling over every (dataset, attributes, family, algorithm) cell.

    Both algorithms of a family answer the same drawn problem, back to back, so
    every answer has a second, independent answer to be compared with.  Each
    cell draws its ``tau_s`` and k width from its own :class:`Strata`.  Each
    cycle also carries three degenerate requests (ROADMAP item 5): a zero lower
    bound, ``tau_s > n`` and ``k_max = n``.
    """
    rng = np.random.default_rng(derive_seed(seed, "cold"))
    rid = itertools.count()
    cells = [
        (name, level, label, algorithms)
        for position in range(max(len(levels) for levels in size.cold_attributes.values()))
        for name, levels in size.cold_attributes.items() if position < len(levels)
        for level in (levels[position],)
        for label, algorithms in COLD_FAMILIES
    ]
    taus = {cell[:3]: Strata(rng, *size.tau_band) for cell in cells}
    widths = {cell[:3]: Strata(rng, *size.k_width) for cell in cells}
    degenerate = _degenerate(rid, rng, size, n_rows)
    while True:
        for name, level, label, algorithms in cells:
            tau_s = taus[name, level, label].integer()
            k_min, k_max = _k_range(rng, widths[name, level, label], n_rows[name])
            for algorithm in algorithms:
                yield Request(
                    next(rid), "audit", name, level,
                    (_query(bound_for(label), tau_s, k_min, k_max, algorithm),), (label,),
                )
        yield from next(degenerate)


def _degenerate(rid, rng, size: Sizes, n_rows: dict[str, int]) -> Iterator[list[Request]]:
    """Per cycle, the three degenerate requests, sized like ordinary ones."""
    names = list(size.cold_attributes)
    student_levels = size.cold_attributes["student"]
    n_students = n_rows["student"]
    zero_taus = Strata(rng, size.tau_band[0] + 20, size.tau_band[1] + 20)
    deep_taus = Strata(rng, size.tau_band[0] + 30, size.tau_band[1] + 30)
    widths = Strata(rng, *size.k_width)
    for cycle in itertools.count():
        batch = []
        # Zero lower bound: nothing can be below it, so the whole lattice
        # above tau_s is expanded to prove an empty answer.
        k_min, k_max = _k_range(rng, widths, n_students)
        batch.append(Request(
            next(rid), "degenerate:zero_bound", "student", student_levels[len(student_levels) // 2],
            (_query(bound_for("zero"), zero_taus.integer(), k_min, k_max,
                    ("iter_td", "global_bounds")[cycle % 2]),),
            ("zero",),
        ))
        # tau_s > n: every root is pruned.
        name = names[cycle % len(names)]
        label, algorithms = COLD_FAMILIES[cycle % 2]
        k_min, k_max = _k_range(rng, widths, n_rows[name])
        batch.append(Request(
            next(rid), "degenerate:tau_above_n", name, size.cold_attributes[name][-1],
            (_query(bound_for(label), n_rows[name] + 1 + int(rng.integers(0, 50)), k_min, k_max,
                    algorithms[(cycle // 2) % 2]),),
            (label,),
        ))
        # k_max = n: the top-k is the whole relation, so no count falls below
        # the bound and every k expands everything above tau_s.
        label, algorithms = COLD_FAMILIES[(cycle + 1) % 2]
        batch.append(Request(
            next(rid), "degenerate:k_max_n", "student", student_levels[0],
            (_query(bound_for(label), deep_taus.integer(), n_students - 2, n_students,
                    algorithms[(cycle // 2) % 2]),),
            (label,),
        ))
        yield batch


# tuning_session ------------------------------------------------------------------
def tuning_requests(seed: int, size: Sizes, n_rows: dict[str, int]) -> Iterator[Request]:
    """A Section-III tuning script per dataset, interleaved round-robin.

    The analyst works in episodes of ten requests on one ``tau_s`` and k range:
    a threshold sweep per bound family (anchor plus refinements, as
    ``tuning.threshold_sweep`` issues it), one bisection probe between two
    swept thresholds, one k-range widening past an end of the swept range,
    and six narrowed or exact repeats of swept queries (contained hits).  A
    new episode moves ``tau_s`` (misses); every third one returns to the
    ``tau_s`` of two episodes before with a new k range, whose sweeps may
    since have been evicted: the working set outgrows the store's 64 entries.

    The fixed shares (sweeps 2 in 10, hits 6 in 10) keep the median on
    contained hits and p90 among the sweeps, whatever the seed.
    """
    rid = itertools.count()
    names = list(size.tuning_attributes)
    scripts = [
        _tuning_script(np.random.default_rng(derive_seed(seed, "tuning", name)), size, n_rows[name])
        for name in names
    ]
    while True:
        for name, script in zip(names, scripts):
            for kind, labels, queries in next(script):
                yield Request(next(rid), kind, name, size.tuning_attributes[name], queries, labels)


def _tuning_script(rng: np.random.Generator, size: Sizes, n_rows: int):
    taus = Strata(rng, *size.tau_band)
    widths = Strata(rng, *size.k_width)
    tops = {"alpha": Strata(rng, 0.85, 0.95), "lower": Strata(rng, 14.0, 20.0)}
    history: list[int] = []
    for episode in itertools.count():
        tau_s = history[-2] if episode % 3 == 2 else taus.integer()
        history.append(tau_s)
        k_min, k_max = _k_range(rng, widths, n_rows)
        swept = {}
        actions = []
        for family in ("lower", "alpha"):
            top = tops[family].draw()
            if family == "alpha":
                values = [round(top - 0.05 * step, 3) for step in range(6)]
            else:
                values = [float(round(top)) - 2 * step for step in range(6)]
            swept[family] = values
            labels = tuple(f"{family}={value}" for value in values)
            actions.append(("threshold_sweep", labels, tuple(
                _tuning_query(label, tau_s, k_min, k_max) for label in labels
            )))
        probe_family, widen_family = ("lower", "alpha") if episode % 2 else ("alpha", "lower")
        values = swept[probe_family]
        step = int(rng.integers(0, len(values) - 1))
        label = f"{probe_family}={round((values[step] + values[step + 1]) / 2, 4)}"
        actions.append(("bisection_probe", (label,), (_tuning_query(label, tau_s, k_min, k_max),)))
        label = f"{widen_family}={swept[widen_family][int(rng.integers(6))]}"
        if rng.random() < 0.5:
            wide = (max(10, k_min - int(rng.integers(2, 6))), k_max)
        else:
            wide = (k_min, min(n_rows, k_max + int(rng.integers(2, 8))))
        actions.append(("widen_k", (label,), (_tuning_query(label, tau_s, *wide),)))
        for index in range(6):
            family = ("lower", "alpha")[index % 2]
            label = f"{family}={swept[family][int(rng.integers(6))]}"
            if index % 3:
                low = int(rng.integers(k_min, k_max))
                narrow = (low, int(rng.integers(low, k_max + 1)))
            else:
                narrow = (k_min, k_max)
            actions.append(("narrow_repeat", (label,), (_tuning_query(label, tau_s, *narrow),)))
        yield actions


def _tuning_query(label: str, tau_s: int, k_min: int, k_max: int) -> DetectionQuery:
    algorithm = "prop_bounds" if label.startswith("alpha=") else "global_bounds"
    return _query(bound_for(label), tau_s, k_min, k_max, algorithm)


# service_closed_loop ---------------------------------------------------------------
def _service_catalogue(rng: np.random.Generator, n_rows: int) -> Iterator[tuple[str, DetectionQuery]]:
    """One ranking's distinct queries, endlessly, in the order they first appear.

    Queries come in groups of four on one ``tau_s`` and k range: the paper's
    step bound and three constant lower bounds (one containment family), all
    served by GlobalBounds.  ``tau_s`` and the k width come from narrow
    strata, so new queries cost alike whatever the seed.
    """
    taus, widths, lowers = (
        Strata(rng, *SERVICE_TAU_BAND, n=3), Strata(rng, *SERVICE_K_WIDTH, n=3),
        Strata(rng, 8.0, 20.0, n=3),
    )
    while True:
        tau_s = taus.integer()
        k_min, k_max = _k_range(rng, widths, n_rows)
        kinds = [("global", "global_bounds")] + [
            (f"lower={round(lowers.draw())}.0", "global_bounds") for _ in range(3)
        ]
        for index in rng.permutation(len(kinds)):
            label, algorithm = kinds[index]
            yield label, _query(bound_for(label), tau_s, k_min, k_max, algorithm)


def service_requests(seed: int, size: Sizes, n_rows: dict[str, int]) -> Iterator[Request]:
    """Tenant requests against the registered rankings; 1-2 queries each.

    A fixed share of requests (``SERVICE_NEW_SHARE``, positions drawn per
    block of twenty) brings the ranking's next new query; the others, and
    every second query, repeat one already asked, chosen by Zipf popularity
    over the order the queries appeared in, so tenants repeat each other's
    queries.  Rankings take turns in seeded order and tenants are drawn per
    request.  With three requests in four bringing new queries, the median
    and p90 both land among the new queries, whose cost is CPU work; the
    sub-millisecond store hits are dominated by thread hand-offs and swung by
    a fifth between seeds when the median sat on them.
    """
    rng = np.random.default_rng(derive_seed(seed, "service"))
    names = list(size.service_attributes)
    catalogues = {
        name: _service_catalogue(np.random.default_rng(derive_seed(seed, "catalogue", name)),
                                 n_rows[name])
        for name in names
    }
    asked: dict[str, list] = {name: [] for name in names}

    def repeat(name: str):
        while True:
            rank = int(rng.zipf(SERVICE_ZIPF))
            if rank <= len(asked[name]):
                return asked[name][rank - 1]

    order: list[str] = []
    fresh: list[bool] = []
    for rid in itertools.count():
        if not fresh:
            fresh = [False] * 20
            for position in rng.choice(20, size=round(SERVICE_NEW_SHARE * 20), replace=False):
                fresh[position] = True
        if not order:
            order = [names[index] for index in rng.permutation(len(names))]
        name, new = order.pop(), fresh.pop()
        if new or not asked[name]:
            asked[name].append(next(catalogues[name]))
            chosen = [asked[name][-1]]
        else:
            chosen = [repeat(name)]
        if rng.random() < SERVICE_SECOND_QUERY_SHARE:
            chosen.append(repeat(name))
        yield Request(
            rid, "new_query" if new else "repeat", name, size.service_attributes[name],
            tuple(query for _, query in chosen), tuple(label for label, _ in chosen),
            tenant=SERVICE_TENANTS[int(rng.integers(len(SERVICE_TENANTS)))],
        )


#: Algorithm of each request in one block of ``sharded_sweep``.
SHARDED_PATTERN = ("iter_td", "global_bounds", "iter_td", "global_bounds", "prop_bounds",
                   "iter_td", "global_bounds", "iter_td", "global_bounds", "prop_bounds")
#: k-sweep width range per algorithm in ``sharded_sweep``.
SHARDED_WIDTHS = {"iter_td": (1, 4), "global_bounds": (3, 7), "prop_bounds": (2, 5)}


def sharded_requests(seed: int, size: Sizes, bound, n_rows: int) -> Iterator[Request]:
    """k-sweeps on the scaling instance, every one with a ``tau_s`` not used before.

    Four IterTD and four GlobalBounds step-bound sweeps for every two
    PropBounds ones; each algorithm draws its ``tau_s`` and width from its own
    :class:`Strata`, and a distinct ``tau_s`` makes every request a plan and
    store miss.  Once every ``tau_s`` of the range has been used (only a run
    several times faster than today's gets there), the one used longest ago
    is reused; the session's 64-entry result store has evicted it by then.
    """
    rng = np.random.default_rng(derive_seed(seed, "sharded"))
    taus = {algorithm: Strata(rng, *size.sharded_tau) for algorithm in SHARDED_WIDTHS}
    widths = {algorithm: Strata(rng, *band, n=band[1] - band[0])
              for algorithm, band in SHARDED_WIDTHS.items()}
    values = range(*size.sharded_tau)
    last_use: dict[int, int] = {}
    for index in itertools.count():
        algorithm = SHARDED_PATTERN[index % len(SHARDED_PATTERN)]
        tau_s = taus[algorithm].integer()
        for _ in range(1000 if len(last_use) < len(values) else 0):
            if tau_s not in last_use:
                break
            tau_s = taus[algorithm].integer()
        else:
            tau_s = min(values, key=last_use.__getitem__)
        last_use[tau_s] = index
        k_min = int(rng.integers(10, 26))
        k_max = min(n_rows, k_min + widths[algorithm].integer() - 1)
        label = "proportional" if algorithm == "prop_bounds" else "step"
        query_bound = bound_for(label) if algorithm == "prop_bounds" else bound
        yield Request(
            index, "sweep", "scaling", size.scaling_attributes,
            (_query(query_bound, tau_s, k_min, k_max, algorithm),), (label,),
        )


# dry run -------------------------------------------------------------------------
def describe_mix(requests: list[Request]) -> dict[str, dict[str, int]]:
    """Counts per request kind, dataset, algorithm and attribute count."""
    mix = {"kind": Counter(), "dataset": Counter(), "algorithm": Counter(),
           "attributes": Counter(), "queries": Counter()}
    for request in requests:
        mix["kind"][request.kind] += 1
        mix["dataset"][request.table] += 1
        mix["attributes"][str(request.n_attributes)] += 1
        mix["queries"][str(len(request.queries))] += 1
        for algorithm in request.algorithms():
            mix["algorithm"][algorithm] += 1
    return {key: dict(sorted(counter.items())) for key, counter in mix.items()}
