"""JSON serialisation of patterns, bounds, detection results, reports and sweeps.

A detection run over a large dataset can take a while; persisting its output lets an
analyst re-load the detected groups later (e.g. to run the Shapley analysis of
Section V, or to render a dashboard) without re-running the search.  The format is
plain JSON so the results can also be consumed outside Python.

Three payload shapes share one file-format family (the version number names the
generation at which each shape was introduced):

* a *result* payload (``result_to_dict``) — just the per-k pattern sets, format
  version :data:`FORMAT_VERSION` (v1);
* a *report* payload (``report_to_dict``) — the result payload plus the algorithm
  name, the full parameters (with a structured, machine-readable bound
  specification), the search statistics and the per-group context.  Report
  payloads additionally record :data:`REPORT_FORMAT_VERSION` (v2, where the
  bound became structured; version-1 files stored ``repr(bound)``, which cannot
  be parsed back);
* a *sweep* payload (``sweep_to_dict``, :data:`SWEEP_FORMAT_VERSION` = v5) — one
  finished covering k-sweep as stored by the persistent result store
  (:mod:`repro.core.result_store`): the ranking fingerprint
  (:meth:`~repro.ranking.base.Ranking.fingerprint`, which covers the dataset's),
  the canonical query that produced the sweep, the per-k result sets and the
  :class:`~repro.core.top_down.SweepFrontier` from which the sweep can be
  extended to a larger ``k_max`` in another session or process.  Only the
  current version loads; the store turns an older file into a quarantined
  miss.

``load_result`` reads the per-k groups of the result/report shapes;
:func:`load_report` round-trips the full report payload into a
:class:`LoadedReport`; :func:`sweep_from_dict` round-trips a store entry.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping

from repro.core.bounds import BoundSpec, GlobalBoundSpec, ProportionalBoundSpec
from repro.core.detector import DetectionParameters, DetectionReport
from repro.core.pattern import Pattern
from repro.core.result_set import DetectedGroup, DetectionResult, ordered_groups
from repro.core.stats import COUNTER_TYPES, SearchStats
from repro.core.top_down import SweepFrontier
from repro.exceptions import DetectionError

#: Format identifier written into every file, bumped on incompatible changes.
FORMAT_VERSION = 1

#: Format identifier of the *report* payload (the superset written for full
#: :class:`DetectionReport` objects).  Version 2 introduced structured bound
#: serialisation; version-1 report files stored only ``repr(bound)`` and cannot
#: be loaded back into parameters.
REPORT_FORMAT_VERSION = 2

#: Format identifier of the *sweep* payload — one persistent result-store entry
#: (canonical query + per-k result sets + resume frontier).  Only this version
#: loads: a v4 file may hold a frontier with empty state tables that must never
#: seed a resume, so older files are unusable (the store degrades them to
#: quarantined cache misses).
SWEEP_FORMAT_VERSION = 5


def pattern_to_dict(pattern: Pattern) -> dict[str, object]:
    """A JSON-compatible representation of a pattern."""
    return dict(pattern.items_tuple)


def pattern_from_dict(data: Mapping[str, object]) -> Pattern:
    """Inverse of :func:`pattern_to_dict`."""
    return Pattern(dict(data))


# -- bound specifications ---------------------------------------------------------
def _bound_values_to_dict(values) -> dict[str, object]:
    """Serialise one constant / ``{k: bound}`` schedule / callable bound field."""
    if callable(values):
        # A callable schedule has no data representation; record its repr so the
        # file stays self-describing, and let bound_from_dict fail with a clear
        # message if someone tries to rebuild it.
        return {"kind": "opaque", "repr": repr(values)}
    if isinstance(values, Mapping):
        return {"kind": "schedule", "steps": {str(k): float(v) for k, v in values.items()}}
    return {"kind": "constant", "value": float(values)}


def _bound_values_from_dict(data: Mapping[str, object]):
    kind = data.get("kind")
    if kind == "constant":
        return float(data["value"])
    if kind == "schedule":
        steps = data.get("steps")
        if not isinstance(steps, Mapping):
            raise DetectionError("malformed bound payload: schedule without 'steps' mapping")
        try:
            return {int(k): float(v) for k, v in steps.items()}
        except (TypeError, ValueError):
            raise DetectionError("malformed bound payload: non-numeric schedule entry") from None
    if kind == "opaque":
        raise DetectionError(
            f"the saved bound used a callable schedule ({data.get('repr')!r}) and cannot "
            "be reconstructed; re-save it as a constant or a step mapping"
        )
    raise DetectionError(f"malformed bound payload: unknown value kind {kind!r}")


def bound_to_dict(bound: BoundSpec) -> dict[str, object]:
    """A JSON-compatible representation of a bound specification.

    :class:`GlobalBoundSpec` (constant or step-schedule bounds) and
    :class:`ProportionalBoundSpec` round-trip losslessly through
    :func:`bound_from_dict`.  Callable schedules and third-party
    :class:`BoundSpec` subclasses are recorded as opaque reprs: saving succeeds
    (the rest of the report is still valuable) but rebuilding them raises.
    """
    if isinstance(bound, GlobalBoundSpec):
        payload: dict[str, object] = {
            "type": "global",
            "lower_bounds": _bound_values_to_dict(bound.lower_bounds),
        }
        if bound.upper_bounds is not None:
            payload["upper_bounds"] = _bound_values_to_dict(bound.upper_bounds)
        return payload
    if isinstance(bound, ProportionalBoundSpec):
        payload = {"type": "proportional", "alpha": float(bound.alpha)}
        if bound.beta is not None:
            payload["beta"] = float(bound.beta)
        return payload
    return {"type": "opaque", "repr": repr(bound)}


def bound_from_dict(data: Mapping[str, object]) -> BoundSpec:
    """Inverse of :func:`bound_to_dict` (for the serialisable bound types)."""
    if not isinstance(data, Mapping):
        raise DetectionError("malformed bound payload: expected a mapping")
    bound_type = data.get("type")
    if bound_type == "global":
        lower = data.get("lower_bounds")
        if not isinstance(lower, Mapping):
            raise DetectionError("malformed bound payload: missing 'lower_bounds'")
        upper = data.get("upper_bounds")
        return GlobalBoundSpec(
            lower_bounds=_bound_values_from_dict(lower),
            upper_bounds=None if upper is None else _bound_values_from_dict(upper),
        )
    if bound_type == "proportional":
        try:
            alpha = float(data["alpha"])
        except (KeyError, TypeError, ValueError):
            raise DetectionError("malformed bound payload: missing numeric 'alpha'") from None
        beta = data.get("beta")
        return ProportionalBoundSpec(alpha=alpha, beta=None if beta is None else float(beta))
    if bound_type == "opaque":
        raise DetectionError(
            f"the saved bound ({data.get('repr')!r}) was recorded as opaque and cannot "
            "be reconstructed"
        )
    raise DetectionError(f"malformed bound payload: unknown bound type {bound_type!r}")


# -- search statistics ------------------------------------------------------------
def stats_from_dict(data: Mapping[str, object]) -> SearchStats:
    """Rebuild a :class:`SearchStats` from its :meth:`~SearchStats.as_dict` form."""
    stats = SearchStats()
    for name, value in data.items():
        kind = COUNTER_TYPES.get(name)
        if kind is None:
            stats.extra[name] = value
        else:
            setattr(stats, name, kind(value))
    return stats


# -- sweep frontiers ---------------------------------------------------------------
def _pattern_counts_to_list(counts: Mapping[Pattern, int]) -> list[list[object]]:
    """Serialise a ``{pattern: int}`` mapping deterministically (sorted by repr)."""
    return [
        [pattern_to_dict(pattern), int(value)]
        for pattern, value in sorted(
            counts.items(), key=lambda item: item[0].describe()
        )
    ]


def _pattern_counts_from_list(data) -> dict[Pattern, int]:
    if not isinstance(data, list):
        raise DetectionError("malformed frontier payload: expected a list of pairs")
    counts: dict[Pattern, int] = {}
    for entry in data:
        try:
            pattern_raw, value = entry
        except (TypeError, ValueError):
            raise DetectionError("malformed frontier payload: entry is not a pair") from None
        counts[pattern_from_dict(pattern_raw)] = int(value)
    return counts


def frontier_to_dict(frontier: SweepFrontier) -> dict[str, object]:
    """A JSON-compatible representation of a sweep's resume frontier."""
    return {
        "algorithm": frontier.algorithm,
        "k": int(frontier.k),
        "below": _pattern_counts_to_list(frontier.below),
        "expanded": _pattern_counts_to_list(frontier.expanded),
        "sizes": _pattern_counts_to_list(frontier.sizes),
    }


def frontier_from_dict(data: Mapping[str, object]) -> SweepFrontier:
    """Inverse of :func:`frontier_to_dict`."""
    if not isinstance(data, Mapping):
        raise DetectionError("malformed frontier payload: expected a mapping")
    try:
        algorithm = str(data["algorithm"])
        k = int(data["k"])
        below_raw = data["below"]
        expanded_raw = data["expanded"]
        sizes_raw = data["sizes"]
    except (KeyError, TypeError, ValueError):
        # A structurally incomplete frontier must fail loudly (the store turns
        # this into a cache miss) rather than resume from a partial state.
        raise DetectionError(
            "malformed frontier payload: missing 'algorithm', numeric 'k' or "
            "one of the below/expanded/sizes state tables"
        ) from None
    frontier = SweepFrontier(
        algorithm=algorithm,
        k=k,
        below=_pattern_counts_from_list(below_raw),
        expanded=_pattern_counts_from_list(expanded_raw),
        sizes=_pattern_counts_from_list(sizes_raw),
    )
    # The incremental detectors index sizes by their tracked patterns; a file
    # that lost entries would crash (or corrupt) a resume, so reject it here.
    tracked = frontier.below.keys() | frontier.expanded.keys()
    if not tracked <= frontier.sizes.keys():
        raise DetectionError(
            "malformed frontier payload: below/expanded patterns missing from 'sizes'"
        )
    return frontier


# -- sweeps (persistent result-store entries) --------------------------------------
def sweep_to_dict(
    fingerprint: str,
    query,
    result: DetectionResult,
    frontier: SweepFrontier | None,
) -> dict[str, object]:
    """One persistent result-store entry (current format, v5).

    ``query`` is the canonical :class:`~repro.core.planner.DetectionQuery` whose
    covering sweep is being stored; its bound must serialise structurally
    (callable schedules and third-party bounds raise, exactly as the store's
    storability check predicts).
    """
    bound_payload = bound_to_dict(query.bound)
    if bound_payload.get("type") == "opaque" or any(
        isinstance(value, Mapping) and value.get("kind") == "opaque"
        for value in bound_payload.values()
    ):
        raise DetectionError(
            "sweeps with callable or third-party bounds have no canonical "
            "serial form and cannot be persisted"
        )
    payload: dict[str, object] = {
        "sweep_format_version": SWEEP_FORMAT_VERSION,
        "fingerprint": str(fingerprint),
        "query": {
            "algorithm": query.resolved_algorithm(),
            "tau_s": int(query.tau_s),
            "k_min": int(query.k_min),
            "k_max": int(query.k_max),
            "bound": bound_payload,
        },
        "result": result_to_dict(result),
        "frontier": None if frontier is None else frontier_to_dict(frontier),
    }
    if getattr(query, "beta", None) is not None:
        payload["query"]["beta"] = float(query.beta)
    return payload


def sweep_from_dict(data: Mapping[str, object]):
    """Inverse of :func:`sweep_to_dict`.

    Returns ``(fingerprint, query, result, frontier)``.  Raises
    :class:`DetectionError` on any malformed, truncated or stale-format payload —
    the persistent store catches that and degrades the entry to a cache miss.
    """
    # Imported lazily: the planner imports the result store, which imports this
    # module, so a top-level import would be circular.  By the time a sweep is
    # deserialised the planner is always fully loaded.
    from repro.core.planner import DetectionQuery

    if not isinstance(data, Mapping):
        raise DetectionError("malformed sweep payload: expected a mapping")
    version = data.get("sweep_format_version")
    if version != SWEEP_FORMAT_VERSION:
        raise DetectionError(
            f"unsupported sweep format version {version!r}; expected "
            f"{SWEEP_FORMAT_VERSION}"
        )
    fingerprint = data.get("fingerprint")
    if not isinstance(fingerprint, str) or not fingerprint:
        raise DetectionError("malformed sweep payload: missing ranking fingerprint")
    query_raw = data.get("query")
    if not isinstance(query_raw, Mapping):
        raise DetectionError("malformed sweep payload: missing 'query' mapping")
    try:
        beta = query_raw.get("beta")
        query = DetectionQuery(
            bound=bound_from_dict(query_raw["bound"]),
            tau_s=int(query_raw["tau_s"]),
            k_min=int(query_raw["k_min"]),
            k_max=int(query_raw["k_max"]),
            algorithm=str(query_raw["algorithm"]),
            beta=None if beta is None else float(beta),
        )
    except KeyError as error:
        raise DetectionError(f"malformed sweep payload: missing query field {error}") from None
    except (TypeError, ValueError) as error:
        raise DetectionError(f"malformed sweep payload: {error}") from None
    result_raw = data.get("result")
    if not isinstance(result_raw, Mapping):
        raise DetectionError("malformed sweep payload: missing 'result' mapping")
    result = result_from_dict(result_raw)
    if not result.covers(query.k_min, query.k_max):
        raise DetectionError(
            "malformed sweep payload: the stored result does not cover the "
            "query's k range"
        )
    frontier_raw = data.get("frontier")
    frontier = None if frontier_raw is None else frontier_from_dict(frontier_raw)
    if frontier is not None and (
        frontier.k != query.k_max
        or frontier.algorithm != query.resolved_algorithm()
    ):
        # An edited/corrupted frontier that no longer matches its own query
        # would blow up (or corrupt) a resume; reject the whole entry so the
        # store degrades it to a miss.
        raise DetectionError(
            "malformed sweep payload: the frontier does not match the query "
            "(expected algorithm/k_max consistency)"
        )
    return fingerprint, query, result, frontier


# -- results ----------------------------------------------------------------------
def result_to_dict(result: DetectionResult) -> dict[str, object]:
    """A JSON-compatible representation of a per-k detection result."""
    return {
        "format_version": FORMAT_VERSION,
        "per_k": {
            str(k): [pattern_to_dict(pattern) for pattern in sorted(
                result.groups_at(k), key=lambda p: p.describe()
            )]
            for k in result.k_values
        },
    }


def result_from_dict(data: Mapping[str, object]) -> DetectionResult:
    """Inverse of :func:`result_to_dict`."""
    version = data.get("format_version")
    if version != FORMAT_VERSION:
        raise DetectionError(
            f"unsupported detection-result format version {version!r}; expected {FORMAT_VERSION}"
        )
    per_k_raw = data.get("per_k")
    if not isinstance(per_k_raw, Mapping):
        raise DetectionError("malformed detection-result payload: missing 'per_k' mapping")
    per_k: dict[int, list[Pattern]] = {}
    for k_text, patterns in per_k_raw.items():
        try:
            k = int(k_text)
        except (TypeError, ValueError):
            raise DetectionError(f"malformed detection-result payload: bad k value {k_text!r}") from None
        per_k[k] = [pattern_from_dict(pattern) for pattern in patterns]
    return DetectionResult(per_k)


# -- reports ----------------------------------------------------------------------
def report_to_dict(report) -> dict[str, object]:
    """A JSON-compatible representation of a full detection report.

    Accepts a live :class:`DetectionReport` or a re-loaded :class:`LoadedReport`
    (both expose the same read surface), so loaded reports re-save losslessly.
    Besides the per-k groups, the per-group context (size, top-k count, bound) and
    the search statistics are included so the file is self-describing, and the
    parameters carry a structured bound (:func:`bound_to_dict`) so
    :func:`load_report` can rebuild them.
    """
    payload = result_to_dict(report.result)
    payload["report_format_version"] = REPORT_FORMAT_VERSION
    payload["algorithm"] = report.algorithm
    payload["parameters"] = {
        "tau_s": report.parameters.tau_s,
        "k_min": report.parameters.k_min,
        "k_max": report.parameters.k_max,
        "bound": bound_to_dict(report.parameters.bound),
        "bound_repr": repr(report.parameters.bound),
    }
    payload["stats"] = report.stats.as_dict()
    payload["groups"] = {
        str(k): [
            {
                "pattern": pattern_to_dict(group.pattern),
                "size_in_data": group.size_in_data,
                "count_in_top_k": group.count_in_top_k,
                "bound": group.bound,
            }
            for group in report.detailed_groups(k)
        ]
        for k in report.result.k_values
    }
    return payload


@dataclass
class LoadedReport:
    """A detection report re-materialised from disk.

    Mirrors the read side of :class:`~repro.core.detector.DetectionReport`
    (``groups_at``, ``detailed_groups`` with both orderings) without needing a
    live counter: the per-group context was persisted, so the loaded report is
    self-sufficient for presentation, result-set comparison and the Section V
    analyses that start from the detected groups.
    """

    algorithm: str
    parameters: DetectionParameters
    result: DetectionResult
    stats: SearchStats
    groups: dict[int, list[DetectedGroup]]
    report_format_version: int = REPORT_FORMAT_VERSION

    def groups_at(self, k: int) -> frozenset[Pattern]:
        return self.result.groups_at(k)

    def detailed_groups(self, k: int, order_by: str = "size") -> list[DetectedGroup]:
        return ordered_groups(self.groups.get(k, ()), order_by)


def report_from_dict(data: Mapping[str, object]) -> LoadedReport:
    """Inverse of :func:`report_to_dict`."""
    version = data.get("report_format_version")
    if version is None:
        if "algorithm" in data:
            raise DetectionError(
                "this report was saved before structured bound serialisation "
                "(report format 1); its bound was stored as an unparseable repr — "
                "use load_result() for the per-k groups, or re-run and re-save"
            )
        raise DetectionError(
            "the payload is a plain detection result, not a report; use load_result()"
        )
    if version != REPORT_FORMAT_VERSION:
        raise DetectionError(
            f"unsupported report format version {version!r}; expected {REPORT_FORMAT_VERSION}"
        )
    result = result_from_dict(data)
    parameters_raw = data.get("parameters")
    if not isinstance(parameters_raw, Mapping):
        raise DetectionError("malformed report payload: missing 'parameters' mapping")
    try:
        parameters = DetectionParameters(
            bound=bound_from_dict(parameters_raw["bound"]),
            tau_s=int(parameters_raw["tau_s"]),
            k_min=int(parameters_raw["k_min"]),
            k_max=int(parameters_raw["k_max"]),
        )
    except KeyError as error:
        raise DetectionError(f"malformed report payload: missing parameter {error}") from None
    stats = stats_from_dict(data.get("stats") or {})
    groups: dict[int, list[DetectedGroup]] = {}
    for k_text, entries in (data.get("groups") or {}).items():
        try:
            k = int(k_text)
        except (TypeError, ValueError):
            raise DetectionError(f"malformed report payload: bad k value {k_text!r}") from None
        groups[k] = [
            DetectedGroup(
                pattern=pattern_from_dict(entry["pattern"]),
                k=k,
                size_in_data=int(entry["size_in_data"]),
                count_in_top_k=int(entry["count_in_top_k"]),
                bound=float(entry["bound"]),
            )
            for entry in entries
        ]
    return LoadedReport(
        algorithm=str(data.get("algorithm")),
        parameters=parameters,
        result=result,
        stats=stats,
        groups=groups,
        report_format_version=int(version),
    )


# -- files ------------------------------------------------------------------------
def save_result(
    result: DetectionResult | DetectionReport | LoadedReport, path: str | Path
) -> None:
    """Write a detection result or full report (live or re-loaded) to ``path`` as JSON."""
    path = Path(path)
    if isinstance(result, (DetectionReport, LoadedReport)):
        payload = report_to_dict(result)
    else:
        payload = result_to_dict(result)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True), encoding="utf-8")


def _load_json(path: Path) -> dict[str, object]:
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as error:
        raise DetectionError(f"{path} does not contain valid JSON: {error}") from None


def load_result(path: str | Path) -> DetectionResult:
    """Load the per-k detection result stored at ``path`` (works for both formats)."""
    return result_from_dict(_load_json(Path(path)))


def load_report(path: str | Path) -> LoadedReport:
    """Load a full report payload (algorithm, parameters, stats, groups) from ``path``."""
    return report_from_dict(_load_json(Path(path)))
