"""The slow-space Assistant Table (§III).

For every value-table cell ``A_j[t]`` it records the set ``S_j[t]`` of keys
hashed there and the counter ``C_j[t] = |S_j[t]|``; it also keeps the full
key → value mapping and each key's three cells, so updates never rehash.
Lookups never touch this structure — it exists purely to support dynamic
updates, deletion, and reconstruction.

:meth:`AssistantTable.add_batch` bulk-registers many pairs in one call
(used by the static construction and by :meth:`VisionEmbedder.insert_batch`
after the hashes have been computed in one vectorised pass).
"""

from __future__ import annotations

from typing import Dict, Iterator, Sequence, Set, Tuple

import numpy as np
import numpy.typing as npt

Cell = Tuple[int, int]


class AssistantTable:
    """Slow-space bookkeeping: per-cell key sets, counters, and KV pairs."""

    def __init__(self, width: int, num_arrays: int = 3):
        if width <= 0:
            raise ValueError("width must be positive")
        self.width = width
        self.num_arrays = num_arrays
        # S_j[t]: one set of keys per cell.
        self._cell_keys = [
            [set() for _ in range(width)] for _ in range(num_arrays)
        ]
        self._values: Dict[int, int] = {}
        self._cells: Dict[int, Tuple[Cell, ...]] = {}

    def __len__(self) -> int:
        return len(self._values)

    def __contains__(self, key: int) -> bool:
        return key in self._values

    def contains_batch(
        self, handles: npt.NDArray[np.uint64]
    ) -> npt.NDArray[np.bool_]:
        """Vectorised membership over a ``uint64`` handle array.

        Mirrors :meth:`repro.core.engine.ArrayAssistant.contains_batch` so
        the batched validation path is backend-agnostic; here the store is
        a dict, so it is one O(1) probe per handle.
        """
        values = self._values
        return np.fromiter(
            (handle in values for handle in handles.tolist()),
            dtype=bool,
            count=len(handles),
        )

    def add(self, key: int, value: int, cells: Tuple[Cell, ...]) -> None:  # repro: hotpath
        """Record a new KV pair and register the key at each of its cells."""
        if key in self._values:
            raise KeyError(f"key {key!r} already recorded")
        self._values[key] = value
        self._cells[key] = cells
        cell_keys = self._cell_keys
        for j, t in cells:
            cell_keys[j][t].add(key)

    def add_batch(  # repro: hotpath
        self,
        keys: Sequence[int],
        values: Sequence[int],
        cells_list: Sequence[Tuple[Cell, ...]],
    ) -> None:
        """Bulk :meth:`add`: register many pairs in one pass.

        Validates the whole batch (duplicates against live keys and within
        the batch itself) before mutating anything, so a failed call leaves
        the table untouched.
        """
        if not (len(keys) == len(values) == len(cells_list)):
            raise ValueError("keys, values and cells_list must align")
        live = self._values
        seen: Set[int] = set()
        for key in keys:
            if key in live or key in seen:
                raise KeyError(f"key {key!r} already recorded")
            seen.add(key)
        cell_keys = self._cell_keys
        for key, value, cells in zip(keys, values, cells_list):
            live[key] = value
            self._cells[key] = cells
            for j, t in cells:
                cell_keys[j][t].add(key)

    def remove(self, key: int) -> None:  # repro: hotpath
        """Forget a KV pair; its cells' counters drop by one (§IV-C Delete)."""
        cells = self._cells.pop(key)
        del self._values[key]
        cell_keys = self._cell_keys
        for j, t in cells:
            cell_keys[j][t].discard(key)

    def set_value(self, key: int, value: int) -> None:
        """Record the new value for an existing key (cells are unchanged)."""
        if key not in self._values:
            raise KeyError(f"key {key!r} not recorded")
        self._values[key] = value

    def value(self, key: int) -> int:
        """The stored value for ``key``."""
        return self._values[key]

    def cells(self, key: int) -> Tuple[Cell, ...]:
        """The key's value-table cells, as computed at insert time."""
        return self._cells[key]

    def keys_at(self, cell: Cell) -> Set[int]:
        """S_j[t]: the live set of keys hashed to ``cell``.

        The returned set is the internal one; callers that mutate the table
        while iterating must take a snapshot first (the repair walk does —
        see :func:`repro.core.update._run_repair_walk`).
        """
        j, t = cell
        return self._cell_keys[j][t]

    def count_at(self, cell: Cell) -> int:
        """C_j[t]: the number of keys hashed to ``cell``."""
        j, t = cell
        return len(self._cell_keys[j][t])

    def pairs(self) -> Iterator[Tuple[int, int]]:
        """All live (key, value) pairs."""
        return iter(self._values.items())

    def clear(self) -> None:
        """Drop every pair (used by reconstruction before re-inserting)."""
        self._values.clear()
        self._cells.clear()
        for per_array in self._cell_keys:
            for bucket in per_array:
                bucket.clear()

    def check_consistency(self) -> None:
        """Assert the structural invariants; raises AssertionError if broken.

        Used by tests: every key appears in exactly the buckets its cells
        name, and bucket membership contains no ghosts.
        """
        seen = set()
        for j, per_array in enumerate(self._cell_keys):
            for t, bucket in enumerate(per_array):
                for key in bucket:
                    assert key in self._values, f"ghost key {key!r} at ({j},{t})"
                    assert (j, t) in self._cells[key], (
                        f"key {key!r} in bucket ({j},{t}) it does not hash to"
                    )
                    seen.add(key)
        assert seen == set(self._values), "some keys are missing from buckets"
        for key, cells in self._cells.items():
            for cell in cells:
                assert key in self.keys_at(cell), (
                    f"key {key!r} absent from its bucket {cell}"
                )
