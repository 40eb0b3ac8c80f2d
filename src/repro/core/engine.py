"""Array-native execution engine for the batched write/read paths.

The scalar backend repairs a batch key by key: each insert registers one
pair in the assistant and runs one §IV repair walk. That is the paper's
dynamic scheme verbatim, but at 100k-key batches the per-key Python
dispatch — not the walks themselves — dominates wall time.

The **vector backend** (``EmbedderConfig(backend="vector")``) keeps the
same interface and invariants while moving the common case onto numpy:

- **Bookkeeping** lives in :class:`ArrayAssistant`, a drop-in replacement
  for :class:`~repro.core.assistant_table.AssistantTable` that stores
  keys, values and cells columnar (one append per *batch*, not per key),
  resolves key → row through a sorted index + small overlay dict, and
  materialises bucket membership lazily from a CSR built in one
  ``lexsort`` — so the scalar walker and the GetCost DFS keep working
  against it unchanged.
- **Multi-walk repair** extends the IBLT-style round-synchronous peel of
  :mod:`repro.core.static_build` (arXiv 1101.2245 gives the formulation)
  to the *dynamic* delta path: every batch key whose candidate cell is
  free of pre-existing constraints and batch-internal collisions is an
  independent §IV walk of length one, so whole rounds of them are retired
  per numpy step — candidate cells for the entire frontier at once,
  conflicts detected by cell-id collision inside ``np.unique``, and the
  reverse-round assignment applying every write in bulk. Only the keys
  the peel cannot retire (cells pinned by live keys, or the batch's
  2-core) fall back to the real scalar walker, one by one, with the full
  retry/reconstruct/:class:`SpaceExhausted` failure policy.
- :class:`ReferenceVectorEngine` is the executable specification: the
  identical schedule run with per-key Python loops. The parity property
  test asserts the vector engine produces a bit-equal table (and equal
  walk counters) — walk for walk — against this scalar reference.

Batch semantics under the vector backend: the *set* of pairs inserted,
every table invariant, and all single-key operations are identical to the
scalar backend; only the order in which the batch's repair walks run
differs (peel schedule instead of batch order), so the concrete cell
contents after a batch may differ between backends while both satisfy
every key's equation. A :class:`SpaceExhausted` abort keeps the peeled
subset plus the walked remainder prefix (the scalar backend keeps the
batch-order prefix).
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

import numpy as np
import numpy.typing as npt

from repro.core.errors import ReconstructionFailed, SpaceExhausted, UpdateFailure
from repro.core.static_build import assign_in_reverse_flat, peel_rounds_masked

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (annotations only)
    from repro.core.embedder import VisionEmbedder

Cell = Tuple[int, int]

#: Overlay size beyond which the sorted key index is rebuilt eagerly.
_INDEX_REBUILD_THRESHOLD = 1 << 14


class ArrayAssistant:
    """Array-native slow-space bookkeeping (§III), bulk-add in O(1) passes.

    Drop-in for :class:`~repro.core.assistant_table.AssistantTable`: the
    same public surface, so every scalar code path (repair walks, GetCost,
    reconstruction, deletion) runs against it unchanged, while batch
    registration is a handful of numpy scatter passes instead of per-key
    dict/set mutation.

    Representation: columnar arrays (``uint64`` keys/values, an
    ``int64 (num_arrays, rows)`` flat-cell matrix, a liveness mask) with
    capacity-doubling appends; key → row resolves through a sorted index
    rebuilt per bulk add plus a dict overlay absorbing scalar churn;
    bucket membership comes from a lazily built CSR (one ``lexsort`` over
    the live flat cells, members sorted by key within each bucket) merged
    with per-bucket add/remove overlays, and is only ever built when a
    walk or consistency check actually asks for members — a batch that
    peels completely never pays for it. ``keys_at`` returns a *sorted*
    tuple so walk behaviour depends on key values only, matching the
    sorted re-queue in :func:`repro.core.update._run_repair_walk`.
    """

    def __init__(self, width: int, num_arrays: int = 3) -> None:
        if width <= 0:
            raise ValueError("width must be positive")
        self.width = width
        self.num_arrays = num_arrays
        m = num_arrays * width
        cap = 16
        self._capacity = cap
        self._n_rows = 0
        self._live = 0
        self._keys = np.zeros(cap, dtype=np.uint64)
        self._vals = np.zeros(cap, dtype=np.uint64)
        self._flats = np.zeros((num_arrays, cap), dtype=np.int64)
        self._alive = np.zeros(cap, dtype=bool)
        self._counts = np.zeros(m, dtype=np.int64)
        self._sorted_keys: npt.NDArray[np.uint64] = np.zeros(0, dtype=np.uint64)
        self._sorted_rows: npt.NDArray[np.int64] = np.zeros(0, dtype=np.int64)
        self._index_overlay: Dict[int, int] = {}
        self._csr_valid = False
        self._csr_flats: npt.NDArray[np.int64] = np.zeros(0, dtype=np.int64)
        self._csr_keys: npt.NDArray[np.uint64] = np.zeros(0, dtype=np.uint64)
        self._bucket_add: Dict[int, List[int]] = {}
        self._bucket_del: Dict[int, Set[int]] = {}

    # -- key index -------------------------------------------------------

    def _rebuild_index(self) -> None:
        rows = np.nonzero(self._alive[: self._n_rows])[0]
        keys = self._keys[rows]
        order = np.argsort(keys, kind="stable")
        self._sorted_keys = keys[order]
        self._sorted_rows = rows[order].astype(np.int64)
        self._index_overlay.clear()

    def _row_of(self, key: int) -> int:
        """The live row holding ``key``, or -1."""
        row = self._index_overlay.get(key)
        if row is not None:
            return row
        sorted_keys = self._sorted_keys
        if sorted_keys.size:
            pos = int(np.searchsorted(sorted_keys, np.uint64(key)))
            if pos < sorted_keys.size and int(sorted_keys[pos]) == key:
                return int(self._sorted_rows[pos])
        return -1

    def __len__(self) -> int:
        return self._live

    def __contains__(self, key: int) -> bool:
        return self._row_of(key) >= 0

    def contains_batch(
        self, handles: npt.NDArray[np.uint64]
    ) -> npt.NDArray[np.bool_]:
        """Vectorised membership over a ``uint64`` handle array."""
        out = np.zeros(handles.size, dtype=bool)
        sorted_keys = self._sorted_keys
        if sorted_keys.size:
            pos = np.searchsorted(sorted_keys, handles)
            safe = np.minimum(pos, sorted_keys.size - 1)
            out = (pos < sorted_keys.size) & (sorted_keys[safe] == handles)
        if self._index_overlay:
            overlay = self._index_overlay
            for i, key in enumerate(handles.tolist()):
                row = overlay.get(key)
                if row is not None:
                    out[i] = row >= 0
        return out

    # -- growth ----------------------------------------------------------

    def _ensure_capacity(self, extra: int) -> None:
        needed = self._n_rows + extra
        if needed <= self._capacity:
            return
        cap = self._capacity
        while cap < needed:
            cap *= 2
        self._keys = np.resize(self._keys, cap)
        self._vals = np.resize(self._vals, cap)
        flats = np.zeros((self.num_arrays, cap), dtype=np.int64)
        flats[:, : self._n_rows] = self._flats[:, : self._n_rows]
        self._flats = flats
        alive = np.zeros(cap, dtype=bool)
        alive[: self._n_rows] = self._alive[: self._n_rows]
        self._alive = alive
        self._capacity = cap

    # -- mutation --------------------------------------------------------

    def add(self, key: int, value: int, cells: Tuple[Cell, ...]) -> None:  # repro: hotpath
        """Record a new KV pair and register the key at each of its cells."""
        if self._row_of(key) >= 0:
            raise KeyError(f"key {key!r} already recorded")
        self._ensure_capacity(1)
        row = self._n_rows
        self._keys[row] = key
        self._vals[row] = value
        width = self.width
        csr_valid = self._csr_valid
        for j, t in cells:
            flat = j * width + t
            self._flats[j, row] = flat
            self._counts[flat] += 1
            if csr_valid:
                dropped = self._bucket_del.get(flat)
                if dropped is not None:
                    dropped.discard(key)
                self._bucket_add.setdefault(flat, []).append(key)
        self._alive[row] = True
        self._n_rows = row + 1
        self._live += 1
        self._index_overlay[key] = row
        if len(self._index_overlay) > _INDEX_REBUILD_THRESHOLD:
            self._rebuild_index()

    def add_batch(
        self,
        keys: Sequence[int],
        values: Sequence[int],
        cells_list: Sequence[Tuple[Cell, ...]],
    ) -> None:
        """Bulk :meth:`add` from ``(j, t)`` cells tuples (compat surface).

        Validates the whole batch before mutating anything, like
        :meth:`AssistantTable.add_batch`. Engine code paths that already
        hold flat arrays should call :meth:`add_batch_arrays` instead.
        """
        if not (len(keys) == len(values) == len(cells_list)):
            raise ValueError("keys, values and cells_list must align")
        if not keys:
            return
        cells_arr = np.asarray(cells_list, dtype=np.int64)
        if cells_arr.ndim != 3 or cells_arr.shape[1] != self.num_arrays:
            raise ValueError("need one cell per array for every key")
        flat_mat = np.ascontiguousarray(
            (cells_arr[:, :, 0] * self.width + cells_arr[:, :, 1]).T
        )
        self.add_batch_arrays(
            np.asarray(keys, dtype=np.uint64),
            np.asarray(values, dtype=np.uint64),
            flat_mat,
        )

    def add_batch_arrays(
        self,
        handles: npt.NDArray[np.uint64],
        values: npt.NDArray[np.uint64],
        flat_mat: npt.NDArray[np.int64],
        validate: bool = True,
    ) -> None:  # repro: hotpath
        """Bulk registration from columnar arrays — the vector-engine path.

        ``flat_mat`` is ``(num_arrays, n)`` of flat cell ids. With
        ``validate`` (the default) the batch is rejected atomically on a
        duplicate, matching :meth:`AssistantTable.add_batch`.
        """
        n = int(handles.size)
        if n == 0:
            return
        if validate:
            if np.unique(handles).size != n:
                raise KeyError("duplicate key within batch")
            hits = self.contains_batch(handles)
            if bool(hits.any()):
                offender = int(handles[int(np.argmax(hits))])
                raise KeyError(f"key {offender!r} already recorded")
        self._ensure_capacity(n)
        start = self._n_rows
        stop = start + n
        self._keys[start:stop] = handles
        self._vals[start:stop] = values
        self._flats[:, start:stop] = flat_mat
        self._alive[start:stop] = True
        self._n_rows = stop
        self._live += n
        flat_all = flat_mat.ravel()
        np.add.at(self._counts, flat_all, 1)
        self._rebuild_index()
        self._invalidate_csr()

    def remove(self, key: int) -> None:  # repro: hotpath
        """Forget a KV pair; its cells' counters drop by one (§IV-C)."""
        row = self._row_of(key)
        if row < 0:
            raise KeyError(key)
        self._alive[row] = False
        csr_valid = self._csr_valid
        for j in range(self.num_arrays):
            flat = int(self._flats[j, row])
            self._counts[flat] -= 1
            if csr_valid:
                self._note_removed(flat, key)
        self._live -= 1
        self._index_overlay[key] = -1
        if len(self._index_overlay) > _INDEX_REBUILD_THRESHOLD:
            self._rebuild_index()

    def _note_removed(self, flat: int, key: int) -> None:
        """Record a removal in the CSR bucket overlays."""
        added = self._bucket_add.get(flat)
        if added is not None and key in added:
            added.remove(key)
        else:
            self._bucket_del.setdefault(flat, set()).add(key)

    def set_value(self, key: int, value: int) -> None:
        """Record the new value for an existing key (cells unchanged)."""
        row = self._row_of(key)
        if row < 0:
            raise KeyError(f"key {key!r} not recorded")
        self._vals[row] = value

    # -- queries ---------------------------------------------------------

    def value(self, key: int) -> int:
        """The stored value for ``key``."""
        row = self._row_of(key)
        if row < 0:
            raise KeyError(key)
        return int(self._vals[row])

    def cells(self, key: int) -> Tuple[Cell, ...]:
        """The key's value-table cells, as registered at insert time."""
        row = self._row_of(key)
        if row < 0:
            raise KeyError(key)
        width = self.width
        flats = self._flats[:, row]
        return tuple(
            (j, int(flats[j]) - j * width) for j in range(self.num_arrays)
        )

    def keys_at(self, cell: Cell) -> Tuple[int, ...]:
        """S_j[t] as a sorted tuple (a fresh snapshot, safe to iterate)."""
        j, t = cell
        return self._bucket_members(j * self.width + t)

    def count_at(self, cell: Cell) -> int:  # repro: hotpath
        """C_j[t]: the number of live keys hashed to ``cell``."""
        j, t = cell
        return int(self._counts[j * self.width + t])

    def counts_snapshot(self) -> npt.NDArray[np.int64]:
        """An independent copy of the per-cell occupancy counters."""
        return self._counts.copy()

    def pairs(self) -> Iterator[Tuple[int, int]]:
        """All live (key, value) pairs, in registration (row) order."""
        rows = np.nonzero(self._alive[: self._n_rows])[0]
        return iter(
            zip(self._keys[rows].tolist(), self._vals[rows].tolist())
        )

    def clear(self) -> None:
        """Drop every pair (reconstruction resets and reinserts)."""
        self._n_rows = 0
        self._live = 0
        self._counts[:] = 0
        self._sorted_keys = np.zeros(0, dtype=np.uint64)
        self._sorted_rows = np.zeros(0, dtype=np.int64)
        self._index_overlay.clear()
        self._invalidate_csr()

    # -- bucket membership ----------------------------------------------

    def _invalidate_csr(self) -> None:
        self._csr_valid = False
        self._bucket_add.clear()
        self._bucket_del.clear()

    def _build_csr(self) -> None:
        rows = np.nonzero(self._alive[: self._n_rows])[0]
        flats = self._flats[:, rows].ravel()
        keys = np.tile(self._keys[rows], self.num_arrays)
        # lexsort: primary by flat cell, secondary by key — bucket slices
        # come out pre-sorted, so the overlay-free fast path returns them
        # without a per-query sort.
        order = np.lexsort((keys, flats))
        self._csr_flats = flats[order]
        self._csr_keys = keys[order]
        self._bucket_add.clear()
        self._bucket_del.clear()
        self._csr_valid = True

    def _bucket_members(self, flat: int) -> Tuple[int, ...]:  # repro: hotpath
        if not self._csr_valid:
            self._build_csr()
        csr_flats = self._csr_flats
        lo = int(np.searchsorted(csr_flats, flat, side="left"))
        hi = int(np.searchsorted(csr_flats, flat, side="right"))
        base = self._csr_keys[lo:hi]
        added = self._bucket_add.get(flat)
        dropped = self._bucket_del.get(flat)
        if not added and not dropped:
            return tuple(base.tolist())
        members = set(base.tolist())
        if dropped:
            members -= dropped
        if added:
            members.update(added)
        return tuple(sorted(members))

    # -- diagnostics -----------------------------------------------------

    def check_consistency(self) -> None:
        """Assert the structural invariants; AssertionError if broken."""
        rows = np.nonzero(self._alive[: self._n_rows])[0]
        assert rows.size == self._live, "live count out of sync"
        m = self.num_arrays * self.width
        expected = np.bincount(
            self._flats[:, rows].ravel(), minlength=m
        ).astype(np.int64)
        assert bool(np.array_equal(expected, self._counts)), (
            "per-cell counters disagree with live rows"
        )
        live_keys = self._keys[rows]
        assert np.unique(live_keys).size == rows.size, "duplicate live key"
        for key, row in zip(live_keys.tolist(), rows.tolist()):
            assert self._row_of(key) == row, (
                f"key index resolves {key!r} to the wrong row"
            )
        for key in live_keys.tolist():
            for cell in self.cells(key):
                assert key in self.keys_at(cell), (
                    f"key {key!r} absent from its bucket {cell}"
                )


# ---------------------------------------------------------------------------
# Engines
# ---------------------------------------------------------------------------


class ExecutionEngine:
    """Strategy object owning the batched write path of one embedder."""

    name = "abstract"

    def make_assistant(self, width: int, num_arrays: int) -> object:
        """Build the slow-space assistant this engine runs against."""
        raise NotImplementedError

    def insert_batch(
        self,
        emb: "VisionEmbedder",
        handles: npt.NDArray[np.uint64],
        value_list: List[int],
    ) -> None:
        """Insert a pre-validated batch (embedder checked dups/ranges)."""
        raise NotImplementedError


def _scalar_insert_loop(
    emb: "VisionEmbedder",
    handles: npt.NDArray[np.uint64],
    value_list: List[int],
) -> None:  # repro: hotpath
    """The per-key batch loop: walk-for-walk identical to sequential
    :meth:`VisionEmbedder.insert` calls (the scalar backend's contract)."""
    assistant = emb._assistant

    def hash_rows(
        key_arr: npt.NDArray[np.uint64],
    ) -> List[Tuple[Cell, ...]]:
        # One vectorised hashing pass, pre-assembled into per-key cells
        # tuples ((0, t0), (1, t1), ...).
        return list(zip(*(
            [(j, t) for t in arr.tolist()]
            for j, arr in enumerate(emb._hashes.indices_batch(key_arr))
        )))

    handle_list = handles.tolist()
    cells_rows = hash_rows(handles)
    base = 0
    hashed_seed = emb._seed
    for i, handle in enumerate(handle_list):
        if emb._seed != hashed_seed:
            # A mid-batch reconstruction reseeded every hash function:
            # recompute the remaining keys' cells in one batched pass.
            cells_rows = hash_rows(handles[i:])
            base = i
            hashed_seed = emb._seed
        assistant.add(handle, value_list[i], cells_rows[i - base])
        try:
            emb._run_update(handle)
        except SpaceExhausted:
            assistant.remove(handle)
            raise


class ScalarEngine(ExecutionEngine):
    """The historical per-key write path (``backend="scalar"``)."""

    name = "scalar"

    def make_assistant(self, width: int, num_arrays: int) -> object:
        from repro.core.assistant_table import AssistantTable

        return AssistantTable(width, num_arrays)

    def insert_batch(
        self,
        emb: "VisionEmbedder",
        handles: npt.NDArray[np.uint64],
        value_list: List[int],
    ) -> None:
        _scalar_insert_loop(emb, handles, value_list)


class VectorEngine(ExecutionEngine):
    """Round-synchronous multi-walk batch repair (``backend="vector"``)."""

    name = "vector"

    def make_assistant(self, width: int, num_arrays: int) -> object:
        return ArrayAssistant(width, num_arrays)

    # -- lazy obs instruments -------------------------------------------

    def _instruments(
        self, emb: "VisionEmbedder"
    ) -> Tuple[object, object, object]:
        cached = getattr(self, "_cached_instruments", None)
        if cached is not None:
            return cached  # type: ignore[no-any-return]
        registry = emb._stats.registry
        instruments = (
            registry.counter(
                "repro_engine_peeled_total",
                help="Batch keys retired by the vectorised multi-walk peel",
            ),
            registry.counter(
                "repro_engine_fallback_walks_total",
                help="Batch keys repaired by the scalar walker fallback",
            ),
            registry.gauge(
                "repro_engine_frontier_peak",
                help="Largest multi-walk frontier retired in one peel round",
                unit="keys",
            ),
        )
        self._cached_instruments = instruments
        return instruments

    # -- batched write path ---------------------------------------------

    def insert_batch(
        self,
        emb: "VisionEmbedder",
        handles: npt.NDArray[np.uint64],
        value_list: List[int],
    ) -> None:  # repro: hotpath
        assistant = emb._assistant
        if not isinstance(assistant, ArrayAssistant):
            # Someone swapped in a foreign assistant (tests do): the
            # scalar loop is always correct.
            _scalar_insert_loop(emb, handles, value_list)
            return
        table = emb._table
        width = table.width
        num_arrays = emb.num_arrays
        n = int(handles.size)
        values = np.asarray(value_list, dtype=np.uint64)

        index_arrays = emb._hashes.indices_batch(handles)
        flat_mat = np.stack([
            arr.astype(np.int64) + j * width
            for j, arr in enumerate(index_arrays)
        ])
        hashed_seed = emb._seed

        rounds, peeled_mask = peel_rounds_masked(
            flat_mat, table.num_cells, assistant.counts_snapshot(),
            emb._hooks,
        )
        peeled = int(peeled_mask.sum())
        peeled_counter, walk_counter, frontier_gauge = self._instruments(emb)
        if peeled:
            # Register and repair the whole peelable sub-batch in bulk:
            # every peeled key is an independent walk of exactly one cell
            # write, applied by the reverse-round assignment.
            assistant.add_batch_arrays(
                handles[peeled_mask],
                values[peeled_mask],
                np.ascontiguousarray(flat_mat[:, peeled_mask]),
                validate=False,
            )
            assign_in_reverse_flat(table, rounds, flat_mat, values)
            emb._updates_counter.value += peeled
            emb._repair_steps_counter.value += peeled
            peeled_counter.inc(peeled)  # type: ignore[attr-defined]
            frontier_gauge.set_max(  # type: ignore[attr-defined]
                max(int(keys.size) for keys, _ in rounds)
            )
        if peeled == n:
            return

        remainder = np.nonzero(~peeled_mask)[0]
        walk_counter.inc(int(remainder.size))  # type: ignore[attr-defined]
        for i in remainder.tolist():
            handle = int(handles[i])
            if emb._seed == hashed_seed:
                cells = tuple(
                    (j, int(flat_mat[j, i]) - j * width)
                    for j in range(num_arrays)
                )
            else:
                # A mid-remainder reconstruction reseeded the hashes.
                cells = emb._cells_for(handle)
            assistant.add(handle, int(values[i]), cells)
            try:
                emb._run_update(handle)
            except SpaceExhausted:
                assistant.remove(handle)
                raise

    # -- bulk (static) load ---------------------------------------------

    def bulk_load_arrays(
        self,
        emb: "VisionEmbedder",
        all_handles: npt.NDArray[np.uint64],
        all_values: npt.NDArray[np.uint64],
        new_keys: int,
    ) -> None:
        """Static peel rebuild without per-key cells-tuple materialisation.

        Mirrors :meth:`VisionEmbedder.bulk_load`'s reseed loop and stats
        accounting exactly, but feeds the flat-array peel and the
        assistant directly from columnar arrays.
        """
        assistant = emb._assistant
        if not isinstance(assistant, ArrayAssistant):
            raise TypeError("bulk_load_arrays requires an ArrayAssistant")
        table = emb._table
        width = table.width
        for _ in range(emb.config.max_reconstruct_attempts):
            table.clear()
            assistant.clear()
            index_arrays = emb._hashes.indices_batch(all_handles)
            flat_mat = np.stack([
                arr.astype(np.int64) + j * width
                for j, arr in enumerate(index_arrays)
            ])
            num_cells = table.num_cells
            rounds, peeled_mask = peel_rounds_masked(
                flat_mat, num_cells, np.zeros(num_cells, dtype=np.int64),
                emb._hooks,
            )
            if not peeled_mask.all():
                emb._stats.update_failures += 1
                emb._stats.reconstructions += 1
                emb._seed += 1
                emb._hashes = emb._hashes.reseeded(emb._seed)
                continue
            assign_in_reverse_flat(table, rounds, flat_mat, all_values)
            assistant.add_batch_arrays(
                all_handles, all_values, flat_mat, validate=False
            )
            emb._stats.updates += new_keys
            return
        raise ReconstructionFailed(
            f"static peel failed for {emb.config.max_reconstruct_attempts} "
            "seeds"
        )


class ReferenceVectorEngine(ExecutionEngine):
    """Executable specification of :class:`VectorEngine.insert_batch`.

    The identical schedule — base-occupancy-masked round-synchronous peel,
    reverse-round assignment, scalar-walker remainder in batch order —
    executed with per-key Python loops against the plain
    :class:`AssistantTable`. The parity property test drives this and the
    vector engine over the same operation sequences and asserts bit-equal
    value tables and equal walk counters, walk for walk.
    """

    name = "reference-vector"

    def make_assistant(self, width: int, num_arrays: int) -> object:
        from repro.core.assistant_table import AssistantTable

        return AssistantTable(width, num_arrays)

    def insert_batch(
        self,
        emb: "VisionEmbedder",
        handles: npt.NDArray[np.uint64],
        value_list: List[int],
    ) -> None:
        assistant = emb._assistant
        table = emb._table
        width = table.width
        num_arrays = emb.num_arrays
        handle_list = handles.tolist()
        n = len(handle_list)
        hashed_seed = emb._seed

        # Per-key cells from the same vectorised hashing pass the vector
        # engine uses (flat ids, scalar bookkeeping).
        index_arrays = emb._hashes.indices_batch(handles)
        flats_per_key: List[List[int]] = [
            [int(index_arrays[j][i]) + j * width for j in range(num_arrays)]
            for i in range(n)
        ]

        # Scalar round-synchronous peel: batch-internal degree per cell,
        # cells pinned by live keys never peelable.
        degree: Dict[int, int] = {}
        members: Dict[int, List[int]] = {}
        for i, flats in enumerate(flats_per_key):
            for flat in flats:
                degree[flat] = degree.get(flat, 0) + 1
                members.setdefault(flat, []).append(i)
        blocked = {
            flat
            for flat in degree
            if assistant.count_at((flat // width, flat % width)) > 0
        }
        remaining = set(range(n))
        own_cell: Dict[int, int] = {}
        reference_rounds: List[List[int]] = []
        while True:
            candidates = sorted(
                flat
                for flat, deg in degree.items()
                if deg == 1 and flat not in blocked
            )
            round_keys: List[int] = []
            seen: Set[int] = set()
            for flat in candidates:
                (key_index,) = (
                    i for i in members[flat] if i in remaining
                )
                if key_index in seen:
                    # The same walk surfaced through a second free cell —
                    # the np.unique collision case; first (lowest) cell
                    # wins, matching the vector engine.
                    continue
                seen.add(key_index)
                own_cell[key_index] = flat
                round_keys.append(key_index)
            if not round_keys:
                break
            reference_rounds.append(round_keys)
            if emb._hooks is not None:
                emb._hooks.on_peel_round(
                    len(reference_rounds) - 1, len(round_keys)
                )
            for key_index in round_keys:
                remaining.discard(key_index)
                for flat in flats_per_key[key_index]:
                    degree[flat] -= 1

        peeled = [i for rnd in reference_rounds for i in rnd]
        for i in sorted(peeled):
            cells = tuple(
                (j, flats_per_key[i][j] - j * width)
                for j in range(num_arrays)
            )
            assistant.add(int(handle_list[i]), value_list[i], cells)
        for round_keys in reversed(reference_rounds):
            for i in round_keys:
                own = own_cell[i]
                own_2d = (own // width, own % width)
                others = [
                    (j, flats_per_key[i][j] - j * width)
                    for j in range(num_arrays)
                    if flats_per_key[i][j] != own
                ]
                table.set(own_2d, value_list[i] ^ table.xor_sum(others))
        emb._updates_counter.value += len(peeled)
        emb._repair_steps_counter.value += len(peeled)

        for i in sorted(remaining):
            handle = int(handle_list[i])
            if emb._seed == hashed_seed:
                cells = tuple(
                    (j, flats_per_key[i][j] - j * width)
                    for j in range(num_arrays)
                )
            else:
                cells = emb._cells_for(handle)
            assistant.add(handle, value_list[i], cells)
            try:
                emb._run_update(handle)
            except SpaceExhausted:
                assistant.remove(handle)
                raise


_ENGINES = {
    "scalar": ScalarEngine,
    "vector": VectorEngine,
    "reference-vector": ReferenceVectorEngine,
}


def make_engine(name: str) -> ExecutionEngine:
    """Build an execution engine by config name."""
    try:
        engine_class = _ENGINES[name]
    except KeyError:
        raise ValueError(
            f"unknown backend {name!r}; known: {tuple(_ENGINES)}"
        ) from None
    return engine_class()
