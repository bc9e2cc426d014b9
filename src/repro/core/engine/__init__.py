"""Vectorized counting engine for the detection algorithms.

Every detector in the reproduction (IterTD, GlobalBounds, PropBounds) bottlenecks on
counting: for each visited lattice node it needs the node's size in the dataset
(``s_D(p)``) and its count among the top-k ranked tuples (``s_Rk(D)(p)``).  This
package replaces the per-pattern boolean-mask path with a batched, prefix-count
engine built on three pillars:

1. **Sibling-batch evaluation** (:mod:`~repro.core.engine.blocks`,
   :meth:`CountingEngine.child_block`) — all children of one attribute are evaluated
   with a single ``np.bincount`` over the parent's matched column slice.
2. **Prefix-count representation** (:mod:`~repro.core.engine.masks`) — cached
   matches store sorted rank positions (sparse) or a cumulative-count prefix
   (dense), so the top-k count for *any* ``k`` costs one binary search / lookup;
   repeated k-sweeps re-read cached sibling blocks (the k-sweep fast path).
3. **Adaptive dense → sparse storage with LRU eviction**
   (:mod:`~repro.core.engine.cache`) — deep lattice levels cost memory proportional
   to group size, and a full cache evicts cold entries instead of refusing new ones.

:class:`~repro.core.engine.naive.NaiveCounter` preserves the seed per-pattern path
as a reference oracle for parity tests and as the baseline the throughput benchmark
measures the engine against.

On top of the counting engine sits the **parallel search executor**
(:mod:`~repro.core.engine.parallel`): the dataset's rank-ordered codes matrix is
published once through shared memory (:mod:`~repro.core.engine.shared`), the
disjoint first-level subtrees of the search tree are balanced into work units
(:mod:`~repro.core.engine.sharding`), and dedicated worker processes — each with
its own warm engine attached zero-copy to the shared matrix — expand them with
the unchanged serial loop.
"""

from __future__ import annotations

from repro.core.engine.blocks import BlockEntry, EngineBlock, MaterializedBlock
from repro.core.engine.cache import LRUCache
from repro.core.engine.counting import DEFAULT_CACHE_CAPACITY, CountingEngine
from repro.core.engine.masks import (
    DEFAULT_SPARSE_THRESHOLD,
    DenseMatch,
    SparseMatch,
    make_match,
)
from repro.core.engine.naive import NaiveCounter
from repro.core.engine.parallel import (
    ExecutionConfig,
    ParallelSearchExecutor,
    create_search_executor,
)
from repro.core.engine.shared import (
    SharedDatasetHandle,
    SharedDatasetView,
    shared_memory_available,
)
from repro.core.engine.sharding import estimate_subtree_weight, partition_weighted
from repro.core.engine.tree import SearchTree

__all__ = [
    "CountingEngine",
    "NaiveCounter",
    "SearchTree",
    "LRUCache",
    "BlockEntry",
    "EngineBlock",
    "MaterializedBlock",
    "DenseMatch",
    "SparseMatch",
    "make_match",
    "SharedDatasetHandle",
    "SharedDatasetView",
    "shared_memory_available",
    "estimate_subtree_weight",
    "partition_weighted",
    "ExecutionConfig",
    "ParallelSearchExecutor",
    "create_search_executor",
    "DEFAULT_CACHE_CAPACITY",
    "DEFAULT_SPARSE_THRESHOLD",
]
