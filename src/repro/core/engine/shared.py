"""Zero-copy publication of a dataset's ranked codes via shared memory.

The parallel search executor fans one search out over a pool of worker processes.
Pickling the dataset to every worker would copy the (potentially
million-row) ``int32`` codes matrix once per process and once more when NumPy
deserialises it; instead the coordinator *publishes* the engine's rank-ordered
codes matrix and the ranking's rank-order permutation through
:mod:`multiprocessing.shared_memory`, and every worker attaches to the same pages
read-only.  Attaching costs a couple of ``mmap`` calls regardless of dataset size,
and the matrix is stored column-major exactly as the counting engine wants it, so a
worker engine starts from the shared buffer without a single row being copied.

Two objects are involved:

* :class:`SharedDatasetView` — the *owner* side, created with
  :meth:`SharedDatasetView.publish`.  It allocates the segments, copies the arrays
  in once, and is responsible for ``close()``/``unlink()`` when the pool shuts
  down.
* :class:`SharedDatasetHandle` — a small picklable descriptor (segment names,
  shape, dtypes, schema) shipped to workers through the pool initializer.
  :meth:`SharedDatasetHandle.attach` maps the segments into the worker and wraps
  them as read-only NumPy arrays.

Platforms without working POSIX shared memory (some restricted sandboxes mount no
``/dev/shm``) raise ``OSError`` from ``publish``; callers are expected to catch it
and fall back to the serial in-process path — see
:func:`repro.core.engine.parallel.create_search_executor`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.data.schema import Schema

try:  # pragma: no cover - import succeeds on every supported CPython
    from multiprocessing import shared_memory as _shared_memory
except ImportError:  # pragma: no cover - exotic builds without _posixshmem
    _shared_memory = None


def shared_memory_available() -> bool:
    """Whether :mod:`multiprocessing.shared_memory` is importable on this platform."""
    return _shared_memory is not None


@dataclass(frozen=True)
class SharedDatasetHandle:
    """Picklable descriptor of a published dataset (shipped to worker processes)."""

    codes_segment: str
    order_segment: str
    n_rows: int
    n_attributes: int
    codes_dtype: str
    order_dtype: str
    schema: Schema

    def attach(self) -> "SharedDatasetView":
        """Map the published segments into this process (read-only, zero-copy).

        No resource-tracker handling is needed on attach: on POSIX every worker
        start method shares the owner's tracker (the tracker fd is inherited by
        fork and passed through the spawn launcher alike), so the attach-time
        re-registration CPython performs is idempotent and the owner's
        ``unlink`` remains the single point of cleanup.
        """
        if _shared_memory is None:  # pragma: no cover - guarded by publish()
            raise OSError("multiprocessing.shared_memory is unavailable on this platform")
        codes_shm = _shared_memory.SharedMemory(name=self.codes_segment)
        try:
            order_shm = _shared_memory.SharedMemory(name=self.order_segment)
        except BaseException:
            codes_shm.close()
            raise
        view = SharedDatasetView(self, codes_shm, order_shm, owner=False)
        return view


class SharedDatasetView:
    """Shared-memory view of a ranked codes matrix and its rank permutation.

    The owner side is built with :meth:`publish`; worker processes obtain attached
    (non-owning) views through :meth:`SharedDatasetHandle.attach`.  Both expose the
    same two read-only arrays:

    * :attr:`ranked_codes` — the dataset's ``int32`` codes matrix with rows already
      in rank order, column-major (the layout the counting engine gathers from);
    * :attr:`order` — the ranking's rank-order permutation (``order[i]`` is the
      original row index of the item at rank ``i + 1``).

    Together the two arrays are a complete shared representation of the
    (dataset, ranking) pair: search workers only gather from ``ranked_codes``
    (their counting is defined over rank positions), while ``order`` — at eight
    bytes per row a negligible add-on next to the codes matrix — is what lets
    any attaching consumer map rank positions back to original dataset rows
    (e.g. to join detected groups against source records).
    """

    def __init__(
        self,
        handle: SharedDatasetHandle,
        codes_shm,
        order_shm,
        owner: bool,
    ) -> None:
        self._handle = handle
        self._codes_shm = codes_shm
        self._order_shm = order_shm
        self._owner = owner
        self._closed = False
        shape = (handle.n_rows, handle.n_attributes)
        self.ranked_codes = np.ndarray(
            shape, dtype=np.dtype(handle.codes_dtype), buffer=codes_shm.buf, order="F"
        )
        self.ranked_codes.setflags(write=False)
        self.order = np.ndarray(
            (handle.n_rows,), dtype=np.dtype(handle.order_dtype), buffer=order_shm.buf
        )
        self.order.setflags(write=False)

    # -- construction -----------------------------------------------------------
    @classmethod
    def publish(
        cls,
        ranked_codes: np.ndarray,
        order: np.ndarray,
        schema: Schema,
    ) -> "SharedDatasetView":
        """Copy ``ranked_codes`` and ``order`` into fresh shared-memory segments.

        This is the only copy the parallel executor ever makes of the dataset: every
        worker attaches to the same pages.  Raises ``OSError`` when the platform
        cannot allocate shared memory (callers fall back to the serial path).
        """
        if _shared_memory is None:
            raise OSError("multiprocessing.shared_memory is unavailable on this platform")
        if ranked_codes.ndim != 2:
            raise ValueError("ranked_codes must be a 2-dimensional (rows, attributes) matrix")
        if order.shape != (ranked_codes.shape[0],):
            raise ValueError(
                f"order has shape {order.shape} but ranked_codes has "
                f"{ranked_codes.shape[0]} rows"
            )
        codes_shm = _shared_memory.SharedMemory(create=True, size=max(1, ranked_codes.nbytes))
        try:
            order_shm = _shared_memory.SharedMemory(create=True, size=max(1, order.nbytes))
        except BaseException:
            codes_shm.close()
            codes_shm.unlink()
            raise
        handle = SharedDatasetHandle(
            codes_segment=codes_shm.name,
            order_segment=order_shm.name,
            n_rows=int(ranked_codes.shape[0]),
            n_attributes=int(ranked_codes.shape[1]),
            codes_dtype=ranked_codes.dtype.str,
            order_dtype=order.dtype.str,
            schema=schema,
        )
        codes_target = np.ndarray(
            ranked_codes.shape, dtype=ranked_codes.dtype, buffer=codes_shm.buf, order="F"
        )
        np.copyto(codes_target, ranked_codes)
        order_target = np.ndarray(order.shape, dtype=order.dtype, buffer=order_shm.buf)
        np.copyto(order_target, order)
        return cls(handle, codes_shm, order_shm, owner=True)

    # -- accessors --------------------------------------------------------------
    @property
    def schema(self) -> Schema:
        return self._handle.schema

    @property
    def n_rows(self) -> int:
        return self._handle.n_rows

    @property
    def is_owner(self) -> bool:
        return self._owner

    @property
    def closed(self) -> bool:
        return self._closed

    def handle(self) -> SharedDatasetHandle:
        """The picklable descriptor workers use to attach.

        Refuses to hand out a handle once the view is closed: the owner's
        ``close()`` *unlinks* the segments, so a handle minted afterwards would
        name memory that no longer exists and every respawned worker built from
        it would die attaching.  The supervisor's respawn path depends on this
        guard failing loudly instead.
        """
        if self._closed:
            raise OSError("the shared dataset view is closed; its segments are unlinked")
        return self._handle

    # -- lifecycle --------------------------------------------------------------
    def close(self) -> None:
        """Drop this process's mapping (the owner also unlinks the segments)."""
        if self._closed:
            return
        self._closed = True
        # Release the exported array views before closing the mappings, otherwise
        # SharedMemory.close() warns about outstanding buffer references.
        self.ranked_codes = None
        self.order = None
        self._codes_shm.close()
        self._order_shm.close()
        if self._owner:
            self._codes_shm.unlink()
            self._order_shm.unlink()

    def __enter__(self) -> "SharedDatasetView":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - defensive cleanup
        try:
            self.close()
        except (OSError, BufferError, AttributeError):
            # close() can race interpreter teardown: the shm handles may be
            # half-deallocated (AttributeError), the mapping already unlinked
            # by the owner (OSError), or buffer views still exported
            # (BufferError).  All three mean "nothing left to release".
            pass
