"""Pluggable persistence for finished covering k-sweeps: the :class:`ResultStore`.

The paper's production workload is repeated parameter sweeps over one *published*
ranking: the same bounds, size thresholds and k ranges are asked again and again —
by later batches, later sessions and other processes.  PR 4's session-private
``ResultCache`` already served exact and containment repeats inside one session;
this module promotes it to an interface with three backends so sweep results (and
their resume frontiers) outlive a query, a session and a process:

* :class:`InMemoryResultStore` — the session-private LRU cache (the default, and
  the building block of the other two).  Thread-safe, so one store instance can
  back several sessions.
* :func:`shared_result_store` — a process-wide registry of named
  :class:`InMemoryResultStore` singletons: every session handed
  ``shared_result_store()`` shares one cache, so repeated audits of the same
  ranking anywhere in the process reuse each other's sweeps.
* :class:`DiskResultStore` — an on-disk store built on the sweep serde
  (:func:`repro.core.serialization.sweep_to_dict`, format v5).  Entries are
  keyed by ``Ranking.fingerprint()`` (the dataset's fingerprint and the rank
  order) + the canonical query, so a fresh process auditing the same ranking
  starts warm.  Corrupted files, older format versions and fingerprint
  mismatches degrade to quarantined cache misses, never errors.

Every backend answers three questions about a ``(fingerprint, group)`` pair:

* :meth:`~ResultStore.lookup` — *containment*: a cached sweep whose k range
  contains the asked range, served by restriction;
* :meth:`~ResultStore.extendable` — *partial overlap*: the best cached sweep
  that can seed a two-sided k extension (:func:`extension_gain`) — a missing
  suffix by :class:`~repro.core.top_down.SweepFrontier` resume, a missing
  prefix by a bounded cold re-run — so the session computes only the
  uncovered k values;
* :meth:`~ResultStore.coverage` — the frontier-bearing ranges alone, which is
  what :func:`repro.core.planner.plan_queries` consults to plan
  :class:`~repro.core.planner.ExtendStep` instead of a full re-run.

Group keys are the planner's canonical :func:`~repro.core.planner.query_group_key`
tuples.  Identity-keyed bounds (callables, third-party specs) are storable in the
in-memory backends — the entry keeps the query alive, so ``id``-based keys can
never be recycled into false hits — but have no stable serial form, so the disk
backend skips them (insert becomes a no-op, lookups miss).
"""

from __future__ import annotations

import abc
import hashlib
import json
import os
import threading
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

try:  # pragma: no cover - present on every POSIX build
    import fcntl as _fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms skip locking
    _fcntl = None

from repro.core.result_set import DetectionResult
from repro.core.serialization import sweep_from_dict, sweep_to_dict
from repro.core.top_down import SweepFrontier
from repro.exceptions import DetectionError

if TYPE_CHECKING:  # pragma: no cover - import cycle broken at runtime
    from repro.core.planner import DetectionQuery

#: Default number of covering sweeps an in-memory store retains.
DEFAULT_RESULT_CACHE_CAPACITY = 64


@dataclass
class StoreEntry:
    """One cached covering sweep.  Holding ``query`` keeps identity-keyed bounds
    alive, so their ``id``-based keys can never be reused by a new object."""

    query: "DetectionQuery"
    result: DetectionResult
    frontier: SweepFrontier | None = None

    @property
    def k_min(self) -> int:
        return self.query.k_min

    @property
    def k_max(self) -> int:
        return self.query.k_max


class ResultStore(abc.ABC):
    """Interface of a covering-sweep store with containment and extension hits.

    Entries are keyed by the ranking fingerprint (which covers the dataset's)
    plus the canonical query (group key + covering k range), so a store can only
    ever answer queries about the exact dataset and rank order whose sweeps it
    holds.  Implementations maintain the shared provenance counters ``hits`` /
    ``misses`` / ``partial_hits`` / ``insertions`` / ``evictions``.
    """

    def __init__(self) -> None:
        #: Containment hits / misses, extension (partial) hits, insertions and
        #: capacity evictions, store-wide.
        self.hits = 0
        self.misses = 0
        self.partial_hits = 0
        self.insertions = 0
        self.evictions = 0

    @abc.abstractmethod
    def lookup(
        self, fingerprint: str, group_key: tuple, k_min: int, k_max: int
    ) -> DetectionResult | None:
        """The cached covering result containing ``[k_min, k_max]``, or ``None``.

        The returned result may cover a wider range than asked; restrict it.
        Counts one hit or one miss.
        """

    @abc.abstractmethod
    def extendable(
        self, fingerprint: str, group_key: tuple, k_min: int, k_max: int
    ) -> StoreEntry | None:
        """The best cached base for a two-sided extension towards ``[k_min, k_max]``.

        Qualification is :func:`extension_gain`; among qualifying entries the
        one serving the most cached k values wins (ties: latest-ending).  A
        base that leaves a k *suffix* to compute must carry a
        :class:`~repro.core.top_down.SweepFrontier`; a prefix-only base needs
        no frontier (the prefix is a bounded cold re-run).  Counts one partial
        hit on success and nothing on failure — the caller only reaches this
        after :meth:`lookup` already counted the miss.
        """

    @abc.abstractmethod
    def insert(
        self,
        fingerprint: str,
        group_key: tuple,
        query: "DetectionQuery",
        result: DetectionResult,
        frontier: SweepFrontier | None = None,
    ) -> None:
        """Store the finished covering sweep of ``query`` under its canonical key.

        Same-group entries whose range the new sweep contains are dropped (the
        wider sweep answers strictly more queries at the same storage cost).
        """

    @abc.abstractmethod
    def coverage(self, fingerprint: str, group_key: tuple) -> tuple[tuple[int, int], ...]:
        """The cached ``(k_min, k_max)`` ranges that may seed an extension.

        This is the planner's view of the store.  Backends that know frontier
        presence cheaply (in-memory) report only frontier-bearing ranges; the
        disk backend over-reports rather than deserialising every file — a
        planned :class:`~repro.core.planner.ExtendStep` whose base turns out to
        lack a frontier simply falls back to a full covering run at execution
        time.
        """

    @abc.abstractmethod
    def clear(self) -> None:
        """Drop every entry (the counters are preserved)."""


def extension_gain(entry_min: int, entry_max: int, k_min: int, k_max: int) -> int | None:
    """Cached k values a base ``[entry_min, entry_max]`` serves towards ``[k_min, k_max]``.

    ``None`` when the base does not qualify as a two-sided extension seed:

    * a base *containing* the asked range is a containment hit, not an
      extension;
    * a missing k *suffix* (``entry_max < k_max``) is computable by frontier
      resume whenever the base reaches at least ``k_min - 1`` (adjacency is
      allowed — the resume itself pays for the whole range, so a zero-overlap
      suffix base still saves the root search);
    * a missing k *prefix* (``k_min < entry_min``) is computable by a bounded
      cold re-run over ``[k_min, entry_min - 1]``, which only pays off when the
      base actually overlaps the asked range (``entry_min <= k_max``) — a
      prefix-adjacent base would leave the whole range to the re-run.

    The returned gain (the overlap size, >= 0) ranks competing bases; this
    single predicate is shared by every store backend's :meth:`~ResultStore.extendable`
    and by the planner's :class:`~repro.core.planner.ExtendStep` decision, so
    plan-time and execution-time judgements can never diverge.
    """
    if entry_min <= k_min and k_max <= entry_max:
        return None
    suffix_seed = entry_min <= k_min <= entry_max + 1 and entry_max < k_max
    prefix_seed = k_min < entry_min <= k_max
    if not (suffix_seed or prefix_seed):
        return None
    return max(0, min(k_max, entry_max) - max(k_min, entry_min) + 1)


class InMemoryResultStore(ResultStore):
    """LRU store of covering k-sweep results with containment-based hits.

    The default session backend (and the payload of the process-wide registry —
    see :func:`shared_result_store`).  ``capacity`` bounds the number of
    retained sweeps; zero disables storage entirely.  All operations take an
    internal lock, so one instance may safely back several sessions (or
    threads) at once.
    """

    def __init__(self, capacity: int = DEFAULT_RESULT_CACHE_CAPACITY) -> None:
        super().__init__()
        if capacity < 0:
            raise ValueError("the result-store capacity cannot be negative")
        self._capacity = capacity
        self._entries: "OrderedDict[tuple, StoreEntry]" = OrderedDict()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def capacity(self) -> int:
        return self._capacity

    def lookup(
        self, fingerprint: str, group_key: tuple, k_min: int, k_max: int
    ) -> DetectionResult | None:
        with self._lock:
            for key, entry in self._entries.items():
                entry_fingerprint, entry_group, entry_min, entry_max = key
                if (
                    entry_fingerprint == fingerprint
                    and entry_group == group_key
                    and entry_min <= k_min
                    and k_max <= entry_max
                ):
                    self._entries.move_to_end(key)
                    self.hits += 1
                    return entry.result
            self.misses += 1
            return None

    def extendable(
        self, fingerprint: str, group_key: tuple, k_min: int, k_max: int
    ) -> StoreEntry | None:
        with self._lock:
            best_key = None
            best_score: tuple[int, int] | None = None
            for key, entry in self._entries.items():
                entry_fingerprint, entry_group, entry_min, entry_max = key
                if entry_fingerprint != fingerprint or entry_group != group_key:
                    continue
                gain = extension_gain(entry_min, entry_max, k_min, k_max)
                if gain is None:
                    continue
                if entry_max < k_max and entry.frontier is None:
                    # A missing suffix needs a frontier resume; prefix-only
                    # bases get by without one.
                    continue
                score = (gain, entry_max)
                if best_score is None or score > best_score:
                    best_key = key
                    best_score = score
            if best_key is None:
                return None
            self._entries.move_to_end(best_key)
            self.partial_hits += 1
            return self._entries[best_key]

    # Never called; kept only because perfbench/tracing.py patches this name.
    def refinable(self, fingerprint: str, query: "DetectionQuery") -> None:
        return None

    def insert(
        self,
        fingerprint: str,
        group_key: tuple,
        query: "DetectionQuery",
        result: DetectionResult,
        frontier: SweepFrontier | None = None,
    ) -> None:
        if self._capacity == 0:
            return
        with self._lock:
            # Drop same-group entries the new sweep subsumes (contained ranges).
            subsumed = [
                key
                for key in self._entries
                if key[0] == fingerprint
                and key[1] == group_key
                and query.k_min <= key[2]
                and key[3] <= query.k_max
            ]
            for key in subsumed:
                del self._entries[key]
            key = (fingerprint, group_key, query.k_min, query.k_max)
            self._entries[key] = StoreEntry(query=query, result=result, frontier=frontier)
            self._entries.move_to_end(key)
            self.insertions += 1
            while len(self._entries) > self._capacity:
                self._entries.popitem(last=False)
                self.evictions += 1

    def coverage(self, fingerprint: str, group_key: tuple) -> tuple[tuple[int, int], ...]:
        with self._lock:
            return tuple(
                (key[2], key[3])
                for key, entry in self._entries.items()
                if key[0] == fingerprint
                and key[1] == group_key
                and entry.frontier is not None
            )

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()


# -- process-wide registry ----------------------------------------------------------
_SHARED_STORES: dict[str, InMemoryResultStore] = {}
_SHARED_STORES_LOCK = threading.Lock()


def shared_result_store(
    name: str = "default", capacity: int = DEFAULT_RESULT_CACHE_CAPACITY
) -> InMemoryResultStore:
    """The process-wide shared result store registered under ``name``.

    The first call for a name creates the store (with the given ``capacity``);
    every later call returns the same instance, whatever capacity it asks for —
    a registry of singletons, not a factory.  Handing the returned store to
    several :class:`~repro.core.session.AuditSession` instances makes their
    sweeps mutually reusable: the second session auditing the same published
    ranking starts warm, including partial (frontier-extension) hits.

    **Lifecycle.** Each store's *contents* are LRU-bounded by ``capacity``, but
    the registry itself grows by one entry per distinct ``name`` and never
    forgets a name on its own — a caller that mints names dynamically (one per
    ranking, one per tenant, ...) must pair every name with an eventual
    :func:`discard_shared_result_store`, or the registry leaks one store per
    retired name for the life of the process.  The multi-tenant service does
    exactly this: session-pool evictions *keep* the named store (so a
    re-created session starts warm — that is the point of sharing), and the
    store is discarded only when its ranking is unregistered or the service
    shuts down.
    """
    with _SHARED_STORES_LOCK:
        store = _SHARED_STORES.get(name)
        if store is None:
            store = InMemoryResultStore(capacity=capacity)
            _SHARED_STORES[name] = store
        return store


def discard_shared_result_store(name: str) -> bool:
    """Remove the shared store registered under ``name`` (see the lifecycle note).

    Returns whether a store was registered under the name.  Sessions already
    holding the instance keep working against it — discarding only unlinks the
    name, so the *next* ``shared_result_store(name)`` starts a fresh store and
    the old one becomes collectable once its last session closes.
    """
    with _SHARED_STORES_LOCK:
        return _SHARED_STORES.pop(name, None) is not None


def shared_result_store_names() -> tuple[str, ...]:
    """The currently registered shared-store names (lifecycle introspection)."""
    with _SHARED_STORES_LOCK:
        return tuple(_SHARED_STORES)


def clear_shared_result_stores() -> None:
    """Drop every registered shared store.

    The bulk form of :func:`discard_shared_result_store`: unlinks every name so
    the registry holds nothing, without touching store instances sessions still
    reference.
    """
    with _SHARED_STORES_LOCK:
        _SHARED_STORES.clear()


# -- on-disk store ------------------------------------------------------------------
def _storable_key(value) -> bool:
    """Whether a canonical group key is stable across processes.

    Identity-keyed components (callable schedules, third-party bound specs) embed
    ``id(...)`` values that do not survive the process, so sweeps keyed by them
    cannot be persisted.  The check walks the nested key tuples for the
    ``"callable"`` / ``"opaque"`` tags :func:`repro.core.planner.bound_key` emits.
    """
    if isinstance(value, tuple):
        if value and value[0] in ("callable", "opaque"):
            return False
        return all(_storable_key(component) for component in value)
    return isinstance(value, (str, int, float, bool)) or value is None


class DiskResultStore(ResultStore):
    """On-disk result store: one JSON sweep file (format v5) per covering sweep.

    ``directory`` is created on first use.  File names are
    ``<digest>_<k_min>_<k_max>.json`` where the digest hashes the ranking
    fingerprint plus the canonical group key, so lookups scan only the files of
    the asked group and never deserialise another ranking's entries.  Every
    loaded payload is *re-validated* — format version, ranking fingerprint and
    group key must all match — so a renamed, truncated, corrupted or
    stale-format file degrades to a cache miss (counted in
    ``unreadable_entries``), never an error, and a fingerprint mismatch can
    never serve another dataset's or ranking's results.

    A file that fails validation is additionally *quarantined*: renamed to
    ``<name>.json.corrupt`` (counted in ``quarantined_entries``) so later
    lookups neither re-parse nor re-miss on it, and the defective payload stays
    on disk for inspection instead of being silently shadowed forever.

    ``max_entries`` bounds the store: after each insert the least recently
    *used* files are evicted (LRU by mtime — served entries are touched on
    every hit, so hot sweeps survive).  ``None`` (the default) keeps the store
    unbounded, matching the pre-bound behaviour.

    Writes are atomic (temp file + ``os.replace``), so concurrent processes
    sharing a store directory see only complete entries; insert/evict/quarantine
    additionally serialise through an advisory ``flock`` on ``<directory>/.lock``
    (where the platform provides :mod:`fcntl`), so concurrent writers cannot
    interleave a subsumption unlink with an eviction scan.  Inserting a sweep
    that contains an existing entry of the same group replaces it.

    ``fault_plan`` threads the deterministic fault harness
    (:class:`~repro.core.engine.faults.FaultPlan`) into the store: the inserts
    whose 1-based ordinal appears in ``fault_plan.corrupt_store_inserts`` get
    their freshly written file truncated to garbage, which is how the
    quarantine path is exercised by reproducible tests.
    """

    def __init__(
        self,
        directory: str | Path,
        max_entries: int | None = None,
        fault_plan=None,
    ) -> None:
        super().__init__()
        if max_entries is not None and max_entries < 1:
            raise ValueError("max_entries must be >= 1 (or None for unbounded)")
        self._directory = Path(directory)
        self._directory.mkdir(parents=True, exist_ok=True)
        self._max_entries = max_entries
        self._fault_plan = fault_plan
        self._insert_ordinal = 0
        #: Entries skipped because their bound has no stable serial form.
        self.skipped_inserts = 0
        #: Files that failed validation (corrupt JSON, stale format, wrong
        #: fingerprint/group) and were treated as misses.
        self.unreadable_entries = 0
        #: Files renamed to ``*.corrupt`` after failing validation.
        self.quarantined_entries = 0

    @property
    def directory(self) -> Path:
        return self._directory

    @property
    def max_entries(self) -> int | None:
        return self._max_entries

    def __len__(self) -> int:
        return sum(1 for _ in self._directory.glob("*.json"))

    @contextmanager
    def _writer_lock(self):
        """Advisory cross-process lock for insert/evict/quarantine sequences.

        Readers stay lock-free (atomic replace keeps every visible file
        complete); only mutations serialise.  On platforms without ``fcntl``
        the context is a no-op and atomic writes remain the only guarantee.
        """
        if _fcntl is None:  # pragma: no cover - non-POSIX
            yield
            return
        with open(self._directory / ".lock", "w") as lock_file:
            _fcntl.flock(lock_file, _fcntl.LOCK_EX)
            try:
                yield
            finally:
                _fcntl.flock(lock_file, _fcntl.LOCK_UN)

    def _quarantine(self, path: Path) -> None:
        """Move a defective file out of the lookup namespace (``*.json.corrupt``)."""
        try:
            os.replace(path, path.with_name(path.name + ".corrupt"))
        except OSError:  # pragma: no cover - lost a race with another process
            return
        self.quarantined_entries += 1

    @staticmethod
    def _digest(fingerprint: str, group_key: tuple) -> str:
        payload = json.dumps([fingerprint, group_key], sort_keys=True, default=str)
        return hashlib.blake2b(payload.encode("utf-8"), digest_size=16).hexdigest()

    def _candidates(self, digest: str) -> list[tuple[int, int, Path]]:
        """The ``(k_min, k_max, path)`` entries filed under ``digest``."""
        candidates = []
        for path in self._directory.glob(f"{digest}_*.json"):
            parts = path.stem.split("_")
            if len(parts) != 3:
                continue
            try:
                candidates.append((int(parts[1]), int(parts[2]), path))
            except ValueError:
                continue
        return candidates

    def _load(
        self, path: Path, fingerprint: str, group_key: tuple,
        entry_min: int, entry_max: int,
    ) -> StoreEntry | None:
        """Load and re-validate one sweep file; ``None`` (a miss) on any defect.

        ``entry_min``/``entry_max`` are the k range parsed from the file name —
        the payload must claim exactly that range, so a renamed file can never
        be served as covering ks it does not hold.
        """
        # Imported lazily to avoid the planner <-> store import cycle.
        from repro.core.planner import query_group_key

        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
            entry_fingerprint, query, result, frontier = sweep_from_dict(payload)
        except (OSError, json.JSONDecodeError, DetectionError):
            self.unreadable_entries += 1
            self._quarantine(path)
            return None
        if (
            entry_fingerprint != fingerprint
            or query_group_key(query) != group_key
            or (query.k_min, query.k_max) != (entry_min, entry_max)
        ):
            # A renamed/copied file, a digest collision or a payload edited to
            # claim another dataset or range: never serve it.  The defect is
            # permanent (re-parsing cannot fix a wrong fingerprint), so the
            # file is quarantined like a corrupt one.
            self.unreadable_entries += 1
            self._quarantine(path)
            return None
        return StoreEntry(query=query, result=result, frontier=frontier)

    def lookup(
        self, fingerprint: str, group_key: tuple, k_min: int, k_max: int
    ) -> DetectionResult | None:
        digest = self._digest(fingerprint, group_key)
        for entry_min, entry_max, path in sorted(self._candidates(digest)):
            if entry_min <= k_min and k_max <= entry_max:
                entry = self._load(path, fingerprint, group_key, entry_min, entry_max)
                if entry is not None:
                    self.hits += 1
                    self._touch(path)
                    return entry.result
        self.misses += 1
        return None

    def extendable(
        self, fingerprint: str, group_key: tuple, k_min: int, k_max: int
    ) -> StoreEntry | None:
        digest = self._digest(fingerprint, group_key)
        qualifying = []
        for entry_min, entry_max, path in self._candidates(digest):
            gain = extension_gain(entry_min, entry_max, k_min, k_max)
            if gain is not None:
                qualifying.append((gain, entry_max, entry_min, path))
        # Best gain first (ties: latest-ending); fall through on bad files.
        for _, entry_max, entry_min, path in sorted(
            qualifying, key=lambda item: (item[0], item[1]), reverse=True
        ):
            entry = self._load(path, fingerprint, group_key, entry_min, entry_max)
            if entry is None:
                continue
            if entry_max < k_max and entry.frontier is None:
                # A missing suffix needs a frontier resume; prefix-only
                # bases get by without one.
                continue
            self.partial_hits += 1
            self._touch(path)
            return entry
        return None

    @staticmethod
    def _touch(path: Path) -> None:
        """Refresh a served file's mtime: the eviction policy's notion of 'used'."""
        try:
            os.utime(path)
        except OSError:  # pragma: no cover - entry evicted/quarantined meanwhile
            pass

    def insert(
        self,
        fingerprint: str,
        group_key: tuple,
        query: "DetectionQuery",
        result: DetectionResult,
        frontier: SweepFrontier | None = None,
    ) -> None:
        if not _storable_key(group_key):
            self.skipped_inserts += 1
            return
        digest = self._digest(fingerprint, group_key)
        try:
            payload = sweep_to_dict(fingerprint, query, result, frontier)
        except DetectionError:
            # The serde applies its own (stricter) storability judgement; if it
            # ever diverges from _storable_key, skip the entry rather than let
            # a store insert crash the serving session.
            self.skipped_inserts += 1
            return
        path = self._directory / f"{digest}_{query.k_min}_{query.k_max}.json"
        temporary = path.with_name(path.name + f".tmp{os.getpid()}")
        with self._writer_lock():
            temporary.write_text(
                json.dumps(payload, indent=2, sort_keys=True), encoding="utf-8"
            )
            os.replace(temporary, path)
            self.insertions += 1
            self._insert_ordinal += 1
            corrupt_inserts = getattr(self._fault_plan, "corrupt_store_inserts", ())
            if self._insert_ordinal in corrupt_inserts:
                # Fault injection: tear the freshly persisted entry so the
                # load-time quarantine path runs under test control.
                path.write_text("{ torn mid-write", encoding="utf-8")
            # Drop same-group entries the new sweep subsumes (contained ranges).
            for entry_min, entry_max, other in self._candidates(digest):
                if other != path and query.k_min <= entry_min and entry_max <= query.k_max:
                    try:
                        other.unlink()
                    except OSError:
                        pass
            self._evict_over_bound()

    def _evict_over_bound(self) -> None:
        """Unlink least-recently-used entries until within ``max_entries``."""
        if self._max_entries is None:
            return
        entries = []
        for path in self._directory.glob("*.json"):
            try:
                entries.append((path.stat().st_mtime_ns, path))
            except OSError:  # pragma: no cover - concurrent unlink
                continue
        excess = len(entries) - self._max_entries
        if excess <= 0:
            return
        entries.sort()
        for _, path in entries[:excess]:
            try:
                path.unlink()
            except OSError:  # pragma: no cover - concurrent unlink
                continue
            self.evictions += 1

    def coverage(self, fingerprint: str, group_key: tuple) -> tuple[tuple[int, int], ...]:
        # Frontier presence is only known after loading; report every range and
        # let execution fall back to a full run if the frontier turns out to be
        # missing — the plan stays valid either way.
        digest = self._digest(fingerprint, group_key)
        return tuple(
            (entry_min, entry_max)
            for entry_min, entry_max, _ in sorted(self._candidates(digest))
        )

    def clear(self) -> None:
        with self._writer_lock():
            for pattern in ("*.json", "*.json.corrupt"):
                for path in self._directory.glob(pattern):
                    try:
                        path.unlink()
                    except OSError:
                        pass
