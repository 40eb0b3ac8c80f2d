"""The embedded phase of every workload: direct table calls, no serving.

After the served window the server process stops its front end and
drives the very table it served (the default 8-shard
:class:`~repro.core.sharded.ShardedEmbedder`, 1M resident keys) through
its public in-process API over ``uint64`` key arrays, splitting the
phase's seconds between four timed phases by :data:`SHARES` and
interleaving them in :data:`ROUNDS` rounds (each phase reports the 90th
percentile of its round rates):

- ``lookup``: ``lookup_batch`` over 65,536-key arrays;
- ``update``: per-key ``update`` of resident keys;
- ``churn``: per-key ``delete`` of a resident key + ``insert`` of a fresh
  one (residency stays constant);
- ``batch``: ``insert_batch`` of 1,024 fresh keys, deleted again outside
  the clock.

Only the table calls are timed, in CPU seconds of the process: the phase
is single-threaded and never waits, so on an idle machine that equals
wall time, while on a shared one it leaves out the time other tenants
hold the CPU (wall-clock rates swung by a third between runs minutes
apart; :func:`fast_rate` handles the shorter bursts). Before the phase
every resident key is looked up and checked against its seeded value
(keys the served window wrote were checked by the load generator and
are taken as read); every lookup answer is then compared with the
expected values outside the clock, and at the end every live key is
looked up and checked against the values the run last wrote. With tracing each slice runs twice,
first untraced and then with span recording on.
"""

from __future__ import annotations

import statistics
from time import perf_counter_ns, process_time
from typing import Any, Callable, Dict, List

import numpy as np

import inputs

LOOKUP_BATCH = 65_536
INSERT_BATCH = 1_024
SHARES = {"lookup": 0.2, "update": 0.25, "churn": 0.25, "batch": 0.3}
ROUNDS = 24
#: Per-key phases read the clock once per this many operations.
CLOCK_EVERY = 64
#: TableStats counters the per-layer metrics difference across a phase.
STAT_FIELDS = ("updates", "update_failures", "reconstructions",
               "repair_steps", "cost_cache_hits", "cost_cache_misses")


def fast_rate(rates: List[float]) -> float:
    """The 90th percentile of a phase's slice rates."""
    return statistics.quantiles(rates, n=10)[-1]


class Churn:
    """The table plus the dict of every write the run made."""

    def __init__(self, table: Any, keys: np.ndarray, values: np.ndarray,
                 seed: int, seconds: float) -> None:
        self.table = table
        self.keys = keys
        self.values = values
        self.rng = np.random.default_rng([seed, 4])
        # Upper bound on fresh keys any phase can consume (~50k ops/s).
        budget = int(60_000 * seconds) + 64 * INSERT_BATCH
        self.fresh = inputs.fresh_keys(seed, budget, phase=1).tolist()
        self.next_fresh = 0
        self.written: Dict[int, int] = {}
        self.live_slots = np.ones(keys.size, dtype=bool)
        self.attempted = 0
        self.errors: Dict[str, int] = {}

    def fail(self, kind: str, count: int = 1) -> None:
        if count:
            self.errors[kind] = self.errors.get(kind, 0) + count

    def take_fresh(self, count: int) -> List[int]:
        out = self.fresh[self.next_fresh:self.next_fresh + count]
        self.next_fresh += count
        return out

    # Each phase runs until ``budget`` CPU seconds of table time are
    # spent and returns (operations, CPU seconds inside the table calls).

    def lookup(self, budget: float) -> tuple:
        spent, ops = 0.0, 0
        while spent < budget:
            slots = self.rng.integers(0, self.keys.size, size=LOOKUP_BATCH)
            batch = self.keys[slots]
            start = process_time()
            got = self.table.lookup_batch(batch)
            spent += process_time() - start
            ops += LOOKUP_BATCH
            self.attempted += 1
            live = self.live_slots[slots]
            expected = self.values[slots]
            if not np.array_equal(got[live], expected[live]):
                self.fail("lookup_value")
        return ops, spent

    def update(self, budget: float) -> tuple:
        spent, ops = 0.0, 0
        table = self.table
        while spent < budget:
            slots = self.rng.integers(0, self.keys.size, size=CLOCK_EVERY)
            slots = slots[self.live_slots[slots]]
            keys = self.keys[slots].tolist()
            new = self.rng.integers(0, 1 << inputs.VALUE_BITS,
                                    size=slots.size).tolist()
            start = process_time()
            for key, value in zip(keys, new):
                table.update(key, value)
            spent += process_time() - start
            ops += len(keys)
            self.attempted += len(keys)
            self.values[slots] = new
        return ops, spent

    def churn(self, budget: float) -> tuple:
        spent, ops = 0.0, 0
        table = self.table
        while spent < budget:
            slots = np.unique(
                self.rng.integers(0, self.keys.size, size=CLOCK_EVERY))
            slots = slots[self.live_slots[slots]]
            victims = self.keys[slots].tolist()
            fresh = self.take_fresh(len(victims))
            new = self.rng.integers(0, 1 << inputs.VALUE_BITS,
                                    size=len(victims)).tolist()
            start = process_time()
            for victim, key, value in zip(victims, fresh, new):
                table.delete(victim)
                table.insert(key, value)
            spent += process_time() - start
            ops += len(victims)
            self.attempted += 2 * len(victims)
            self.live_slots[slots] = False
            self.written.update(zip(fresh, new))
        return ops, spent

    def batch(self, budget: float) -> tuple:
        spent, ops = 0.0, 0
        table = self.table
        while spent < budget:
            fresh = self.take_fresh(INSERT_BATCH)
            batch = np.array(fresh, dtype=np.uint64)
            new = self.rng.integers(0, 1 << inputs.VALUE_BITS,
                                    size=INSERT_BATCH).tolist()
            start = process_time()
            table.insert_batch(batch, new)
            spent += process_time() - start
            ops += INSERT_BATCH
            self.attempted += 1
            if not np.array_equal(table.lookup_batch(batch),
                                  np.array(new, dtype=np.uint64)):
                self.fail("batch_value")
            for key in fresh:
                table.delete(key)
        return ops, spent

    def verify(self) -> int:
        """Look up every live key against the values the run wrote."""
        fresh = np.array(list(self.written), dtype=np.uint64)
        expected = np.array(list(self.written.values()), dtype=np.uint64)
        slots = np.flatnonzero(self.live_slots)
        got = self.table.lookup_batch(fresh)
        self.attempted += int(fresh.size)
        self.fail("final_value", int((got != expected).sum()))
        got = self.table.lookup_batch(self.keys[slots])
        self.attempted += int(slots.size)
        self.fail("final_value", int((got != self.values[slots]).sum()))
        return int(fresh.size + slots.size)


def run(table: Any, keys: np.ndarray, values: np.ndarray,
        served_slots: List[int], seed: int, seconds: float,
        rec: Any, traced: bool) -> Dict[str, Any]:
    """Run the phase on ``table`` and return its result line.

    ``values`` are the seeded values of ``keys``; ``served_slots`` are the
    resident slots the served window updated, whose values are read back.
    """
    current = table.lookup_batch(keys)
    seeded = np.ones(keys.size, dtype=bool)
    seeded[np.asarray(served_slots, dtype=np.int64)] = False
    state = Churn(table, keys, current.copy(), seed, seconds)
    state.attempted += int(seeded.sum())
    state.fail("seeded_value",
               int((current[seeded] != values[seeded]).sum()))

    rates: Dict[str, List[float]] = {name: [] for name in SHARES}
    traced_rates: Dict[str, List[float]] = {name: [] for name in SHARES}
    totals: Dict[str, List[float]] = {name: [0, 0.0] for name in SHARES}
    windows: List[List[int]] = []
    stats_delta = {name: 0.0 for name in STAT_FIELDS}

    def snapshot() -> Dict[str, float]:
        return {name: float(getattr(table.stats, name))
                for name in STAT_FIELDS}

    # Phases interleave in ROUNDS short slices and each reports the 90th
    # percentile of its slice rates: outside load on the host comes in bursts
    # shorter than a second that slow a few slices by up to a third, so
    # the fast slices show the table's own speed. Over six runs the 90th
    # percentile spread 0.02-0.07 (IQR / median) against 0.05-0.18 for
    # the median.
    for _ in range(ROUNDS):
        for name, share in SHARES.items():
            phase: Callable[[float], tuple] = getattr(state, name)
            budget = seconds * share / ROUNDS / (2 if traced else 1)
            ops, spent = phase(budget)
            rates[name].append(ops / spent)
            totals[name][0] += ops
            totals[name][1] += spent
            if traced:
                before, start = snapshot(), perf_counter_ns()
                rec.switch(True)
                ops, spent = phase(budget)
                rec.switch(False)
                windows.append([start, perf_counter_ns()])
                after = snapshot()
                for field in STAT_FIELDS:
                    stats_delta[field] += after[field] - before[field]
                traced_rates[name].append(ops / spent)
    phases = {
        name: {"ops": totals[name][0], "seconds": totals[name][1],
               "rate": fast_rate(rates[name]),
               "traced_rate": (fast_rate(traced_rates[name])
                               if traced else None)}
        for name in SHARES}

    verified = state.verify()
    failed = sum(state.errors.values())
    detail = ", ".join(f"{k}={v}" for k, v in sorted(state.errors.items())) \
        or f"{verified} keys verified"
    summary = ", ".join(
        f"{name} {phase['ops']} ops in {phase['seconds']:.2f}s"
        for name, phase in phases.items())
    return {"event": "embedded", "phases": phases, "stats": stats_delta,
            "windows": windows, "attempted": state.attempted,
            "failed": failed, "detail": detail, "summary": summary}
