"""Tracing hooks: event wiring, ring buffer, metrics, thread exactness."""

import threading

import numpy as np
import pytest

from repro.core.concurrent import ConcurrentVisionEmbedder
from repro.core.embedder import VisionEmbedder
from repro.obs import (
    CompositeHooks,
    MetricsHooks,
    WalkHooks,
    WalkTraceRecorder,
    default_metrics,
    instrument,
)


class EventLog(WalkHooks):
    """Records every event as (name, args) for wiring assertions."""

    def __init__(self):
        self.events = []

    def on_walk_start(self, key, attempt, budget):
        self.events.append(("walk_start", key, attempt, budget))

    def on_kick(self, key, cell, stack_depth):
        self.events.append(("kick", key, cell, stack_depth))

    def on_walk_end(self, key, success, steps):
        self.events.append(("walk_end", key, success, steps))

    def on_reconstruct(self, seed, method, seconds, success):
        self.events.append(("reconstruct", seed, method, seconds, success))

    def on_peel_round(self, round_index, peeled):
        self.events.append(("peel", round_index, peeled))

    def named(self, name):
        return [event for event in self.events if event[0] == name]


def fill(table, n, offset=0):
    table.insert_many((key, (key % 255) + 1) for key in range(offset,
                                                             offset + n))


class TestEventWiring:
    def test_walk_events_fire_and_pair_up(self):
        log = EventLog()
        table = VisionEmbedder(capacity=500, value_bits=8, seed=3, hooks=log)
        fill(table, 400)
        starts = log.named("walk_start")
        ends = log.named("walk_end")
        assert len(starts) > 0
        assert len(starts) == len(ends)  # every attempt quiesces or fails
        assert all(event[2] is True for event in ends)  # none exhausted here

    def test_reconstruct_event(self):
        log = EventLog()
        table = VisionEmbedder(capacity=300, value_bits=8, seed=3, hooks=log)
        fill(table, 100)
        old_seed = table.seed
        table.reconstruct("static")
        events = log.named("reconstruct")
        assert len(events) == 1
        _, seed, method, seconds, success = events[0]
        assert seed == table.seed and seed != old_seed
        assert method == "static"
        assert seconds >= 0 and success is True

    def test_peel_events_on_bulk_load(self):
        log = EventLog()
        table = VisionEmbedder(capacity=400, value_bits=8, seed=3, hooks=log)
        table.bulk_load((key, key % 256) for key in range(300))
        peels = log.named("peel")
        assert peels, "bulk_load must emit peel rounds"
        assert [event[1] for event in peels] == list(range(len(peels)))
        assert sum(event[2] for event in peels) == 300

    def test_no_hooks_is_the_default(self):
        table = VisionEmbedder(capacity=100, value_bits=8, seed=3)
        assert table.hooks is None

    def test_set_hooks_after_construction(self):
        log = EventLog()
        table = VisionEmbedder(capacity=200, value_bits=8, seed=3)
        fill(table, 50)
        assert log.events == []
        table.set_hooks(log)
        fill(table, 50, offset=50)
        assert log.named("walk_start")

    def test_default_metrics_context(self):
        with default_metrics(True):
            inside = VisionEmbedder(capacity=100, value_bits=8, seed=3)
        outside = VisionEmbedder(capacity=100, value_bits=8, seed=3)
        assert isinstance(inside.hooks, MetricsHooks)
        assert inside.hooks.registry is inside.stats.registry
        assert outside.hooks is None


class TestHooksParity:
    def test_hooked_table_is_bit_identical(self):
        plain = VisionEmbedder(capacity=500, value_bits=8, seed=9)
        hooked = VisionEmbedder(capacity=500, value_bits=8, seed=9)
        instrument(hooked, traces=8)
        fill(plain, 450)
        fill(hooked, 450)
        assert plain.seed == hooked.seed
        assert np.array_equal(plain._table.to_dense(),
                              hooked._table.to_dense())
        assert plain.stats.updates == hooked.stats.updates
        assert plain.stats.repair_steps == hooked.stats.repair_steps


class TestMetricsHooks:
    def test_histograms_populated_and_consistent(self):
        table = VisionEmbedder(capacity=500, value_bits=8, seed=3)
        instrument(table)
        fill(table, 450)
        registry = table.metrics
        walk = registry.get("repro_walk_steps")
        attempts = registry.get("repro_walk_attempts_total")
        assert walk.count == attempts.value > 0
        # total steps across attempts covers the stats aggregate (retries
        # and rebuild re-walks can only add attempts, never lose steps)
        assert walk.sum >= table.stats.repair_steps
        assert registry.get("repro_kick_depth").count > 0
        assert registry.get("repro_getcost_subtree_cells").count > 0

    def test_shares_the_stats_registry(self):
        table = VisionEmbedder(capacity=200, value_bits=8, seed=3)
        instrument(table)
        fill(table, 100)
        exported = table.metrics.get("repro_updates_total").value
        assert exported == table.stats.updates == 100


class TestWalkTraceRecorder:
    def test_keep_all_ring_buffer_caps_capacity(self):
        recorder = WalkTraceRecorder(capacity=4, keep="all")
        table = VisionEmbedder(capacity=300, value_bits=8, seed=3,
                               hooks=recorder)
        fill(table, 200)
        assert len(recorder) == 4
        assert all(trace.success is True for trace in recorder.traces())
        assert recorder.last() is recorder.traces()[-1]

    def test_keep_failed_records_only_failures(self):
        from repro.core.config import EmbedderConfig
        from repro.core.errors import ReproError

        config = EmbedderConfig(space_factor=1.15, auto_reconstruct=False,
                                max_search_attempts=2)
        table = VisionEmbedder(capacity=400, value_bits=8, seed=7,
                               config=config)
        recorder = instrument(table, traces=16)
        with pytest.raises(ReproError):
            for key in range(2000):
                table.insert(key, key % 256)
        failed = recorder.failed()
        assert failed and failed == recorder.traces()
        trace = failed[-1]
        assert trace.success is False
        assert trace.steps > trace.budget
        assert trace.kicks  # (cell, stack_depth) pairs for the post-mortem
        assert "FAILED" in trace.describe()
        recorder.clear()
        assert len(recorder) == 0

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            WalkTraceRecorder(keep="sometimes")
        with pytest.raises(ValueError):
            WalkTraceRecorder(capacity=0)


class TestCompositeHooks:
    def test_fans_out_all_events(self):
        logs = (EventLog(), EventLog())
        table = VisionEmbedder(capacity=300, value_bits=8, seed=3,
                               hooks=CompositeHooks(*logs))
        fill(table, 200)
        table.reconstruct("static")
        assert logs[0].events == logs[1].events
        assert logs[0].named("walk_start") and logs[0].named("reconstruct")

    def test_subtree_histogram_proxied_from_metrics_child(self):
        metrics = MetricsHooks()
        composite = CompositeHooks(WalkTraceRecorder(), metrics)
        assert composite.subtree_histogram is metrics.subtree_histogram
        assert CompositeHooks(WalkTraceRecorder()).subtree_histogram is None


class TestConcurrentWrapper:
    def test_threaded_inserts_keep_counts_exact(self):
        table = ConcurrentVisionEmbedder(capacity=2000, value_bits=8, seed=3)
        instrument(table)
        workers, per_worker = 4, 250

        def insert_range(start):
            for key in range(start, start + per_worker):
                table.insert(key, (key % 255) + 1)

        threads = [
            threading.Thread(target=insert_range, args=(w * per_worker,))
            for w in range(workers)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        total = workers * per_worker
        assert len(table) == total
        assert table.stats.updates == total
        registry = table.metrics
        assert registry.get("repro_updates_total").value == total
        walk = registry.get("repro_walk_steps")
        assert walk.count == registry.get("repro_walk_attempts_total").value
        table.check_invariants()

    def test_set_hooks_under_load_is_safe(self):
        table = ConcurrentVisionEmbedder(capacity=1000, value_bits=8, seed=3)
        stop = threading.Event()
        errors = []

        def writer():
            # At most 400 keys resident: the table never nears capacity,
            # so the writer keeps running for the whole hook-swap loop.
            key = 0
            try:
                while not stop.is_set():
                    table.insert(key, (key % 255) + 1)
                    if key >= 400:
                        table.delete(key - 400)
                    key += 1
            except BaseException as exc:  # surfaced by the assert below
                errors.append(exc)

        thread = threading.Thread(target=writer)
        thread.start()
        try:
            for _ in range(20):
                table.set_hooks(MetricsHooks(table.stats.registry))
                table.set_hooks(None)
        finally:
            stop.set()
            thread.join()
        assert errors == []
        table.check_invariants()
