"""Deterministic benchmark inputs, all derived from the workload seed.

Every process of a run (the load generator and the server entry script,
which also runs the embedded phase) calls these functions with the same
seed, so each side derives the same keys and values without shipping
them around; the program under test receives only the generated inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

#: Resident keys in every table at the start of a run.
RESIDENT = 1_000_000
#: Capacity handed to every table (default ``python -m repro.serve`` size).
CAPACITY = 1_100_000
#: L, the value width in bits.
VALUE_BITS = 16
#: Resident keys are drawn without replacement from ``[0, KEY_SPACE)``.
KEY_SPACE = 1 << 40
#: Fresh (inserted-during-the-run) keys live above this, so they can
#: never collide with a resident key.
FRESH_BASE = 1 << 41

#: Served lookup stream: requests per second and keys per request.
LOOKUP_RATE = 150.0
LOOKUP_KEYS = 64
#: Mixed streams add one write request after every this many lookups.
LOOKUPS_PER_WRITE = 10
#: Keys per update / insert / delete request.
UPDATE_KEYS = 8
CHURN_KEYS = 16
#: The write cycle: mostly cheap 8-key updates, plus one 16-key insert of
#: fresh keys and one 16-key delete of keys this run inserted, so
#: residency stays at about RESIDENT.
WRITE_CYCLE = ("update",) * 14 + ("insert", "delete")
#: Seconds of traffic sent before the measured window opens: two write
#: cycles, so the first inserts after start-up (whose stalls run up to
#: half as long again as later ones) and the first delete are not timed.
WARMUP_S = 2.5


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def resident(seed: int) -> Tuple[np.ndarray, np.ndarray]:
    """The run's resident keys and their values, as ``uint64`` arrays."""
    rng = _rng(seed, 0)
    keys = rng.choice(KEY_SPACE, size=RESIDENT, replace=False)
    values = rng.integers(0, 1 << VALUE_BITS, size=RESIDENT)
    return keys.astype(np.uint64), values.astype(np.uint64)


def fresh_keys(seed: int, count: int, phase: int = 0) -> np.ndarray:
    """``count`` distinct keys disjoint from every resident key.

    Each ``phase`` of a run (0: served writes, 1: embedded churn) draws
    from its own key range, so the phases never insert the same key.
    """
    rng = _rng(seed, 1 + 2 * phase)
    base = FRESH_BASE + phase * KEY_SPACE
    return (rng.choice(KEY_SPACE, size=count, replace=False)
            + base).astype(np.uint64)


@dataclass
class Request:
    """One scheduled request of a served workload.

    ``slots`` index the resident arrays (lookups and updates); inserts
    and deletes carry fresh keys in ``keys``. ``after`` names the insert
    a delete removes, so the sender never deletes a key before the
    insert that created it was answered.
    """

    due: float
    kind: str
    slots: Optional[np.ndarray] = None
    keys: List[int] = field(default_factory=list)
    values: List[int] = field(default_factory=list)
    after: int = -1
    measured: bool = True


def served_schedule(seed: int, seconds: float,
                    resident_keys: np.ndarray) -> List[Request]:
    """The open-loop request schedule: warm-up, then ``seconds`` measured.

    Lookups leave every ``1/LOOKUP_RATE`` seconds. A write leaves halfway
    between every 10th lookup and the next, cycling through
    :data:`WRITE_CYCLE`.
    """
    rng = _rng(seed, 2)
    interval = 1.0 / LOOKUP_RATE
    total = int(round((WARMUP_S + seconds) * LOOKUP_RATE))
    warm = int(round(WARMUP_S * LOOKUP_RATE))
    writes = total // LOOKUPS_PER_WRITE
    fresh = fresh_keys(seed, CHURN_KEYS * (writes // len(WRITE_CYCLE) + 1))
    schedule: List[Request] = []
    inserts: List[int] = []
    next_fresh = 0
    write_no = 0
    for i in range(total):
        due = i * interval
        schedule.append(Request(
            due=due, kind="lookup",
            slots=rng.integers(0, resident_keys.size, size=LOOKUP_KEYS),
            measured=i >= warm,
        ))
        if (i + 1) % LOOKUPS_PER_WRITE:
            continue
        kind = WRITE_CYCLE[write_no % len(WRITE_CYCLE)]
        write_no += 1
        if kind == "delete" and len(inserts) < 2:
            kind = "update"
        due += interval / 2
        if kind == "update":
            slots = rng.choice(resident_keys.size, size=UPDATE_KEYS,
                               replace=False)
            request = Request(
                due=due, kind=kind, slots=slots,
                values=rng.integers(0, 1 << VALUE_BITS,
                                    size=UPDATE_KEYS).tolist())
        elif kind == "insert":
            keys = fresh[next_fresh:next_fresh + CHURN_KEYS].tolist()
            next_fresh += CHURN_KEYS
            request = Request(
                due=due, kind=kind, keys=keys,
                values=rng.integers(0, 1 << VALUE_BITS,
                                    size=CHURN_KEYS).tolist())
            inserts.append(len(schedule))
        else:
            # Delete the keys of the insert before the latest one: that
            # insert left a whole write cycle earlier.
            victim = inserts.pop(-2)
            request = Request(due=due, kind=kind,
                              keys=list(schedule[victim].keys),
                              after=victim)
        request.measured = i >= warm
        schedule.append(request)
    return schedule
