"""Pattern graph traversal utilities and cached pattern counting.

Two names live here:

* :class:`SearchTree` — child generation for the top-down traversal of the pattern
  graph (Definition 4.1); re-exported from :mod:`repro.core.engine.tree`, where it
  precomputes a name → index dictionary so per-expansion operations are dict
  lookups.
* :data:`PatternCounter` — memoised computation of ``s_D(p)`` and ``s_Rk(D)(p)``
  over a fixed dataset and ranking.  It is another name for
  :class:`repro.core.engine.CountingEngine`, the one counter class: sizes and top-k
  counts come from each match's cached sorted rank positions, whole sibling
  blocks are evaluated with one ``np.bincount``, and the caches evict
  least-recently-used entries.  The name is public API, and the benchmark tracer
  looks ``row_satisfies`` up through it.
"""

from __future__ import annotations

from repro.core.engine.counting import CountingEngine
from repro.core.engine.tree import SearchTree

__all__ = ["SearchTree", "PatternCounter"]

PatternCounter = CountingEngine
