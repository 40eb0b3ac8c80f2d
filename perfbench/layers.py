"""Per-layer metrics of a traced run, from spans and the server's output.

A span's self time is its duration minus the time of the wrapped calls
it made (its children). Set-up spans are those recorded before the
process reported ready; the others are kept only when they start inside
the traced windows a metric is taken over. ``perfbench/spec.json`` names
the window and the end-to-end metric each of these metrics should move.
"""

from __future__ import annotations

import glob
import json
import math
import os
from collections import defaultdict
from typing import Any, Dict, List, Optional, Tuple


class Spans:
    """Aggregates over the spans of every process of one run."""

    def __init__(self, span_dir: str, setup_end_ns: int,
                 windows: Optional[List[Tuple[int, int]]] = None) -> None:
        self.durations: Dict[str, List[int]] = defaultdict(list)
        self.self_ns: Dict[str, int] = defaultdict(int)
        self.sizes: Dict[str, int] = defaultdict(int)
        self.setup_ns: Dict[str, int] = defaultdict(int)
        self.outer_reads: List[int] = []
        self.submits: List[Tuple[int, int, bool]] = []
        for path in sorted(glob.glob(os.path.join(span_dir, "spans-*.json"))):
            with open(path, encoding="utf-8") as handle:
                self._add(json.load(handle), setup_end_ns, windows)

    def _add(self, dump: Dict[str, Any], setup_end_ns: int,
             windows: Optional[List[Tuple[int, int]]]) -> None:
        spans = dump["spans"]
        children = [0] * len(spans)
        for span in spans:
            if span is not None and span[3] >= 0:
                children[span[3]] += span[2] - span[1]
        for index, span in enumerate(spans):
            if span is None:
                continue
            name, start, end, parent, size = span
            if start < setup_end_ns:
                self.setup_ns[name] += end - start
                continue
            if windows and not any(lo <= start < hi for lo, hi in windows):
                continue
            self.durations[name].append(end - start)
            self.self_ns[name] += end - start - children[index]
            self.sizes[name] += size
            if name == "core.shared_planes.read_stable" and (
                    parent < 0 or spans[parent][0] != name):
                self.outer_reads.append(end - start)
        for start, end, flush, shed in dump["submits"]:
            if flush >= 0 and spans[flush] is not None:
                _, f_start, f_end, _, _ = spans[flush]
                self.submits.append((f_start - start, f_end - f_start, shed))
            else:
                self.submits.append((0, 0, shed))

    def count(self, name: str) -> int:
        return len(self.durations[name])

    def total_us(self, *names: str) -> float:
        return sum(sum(self.durations[n]) for n in names) / 1e3

    def mean_us(self, name: str) -> float:
        values = self.durations[name]
        return sum(values) / len(values) / 1e3 if values else 0.0

    def per_key_us(self, name: str) -> float:
        size = self.sizes[name]
        return self.total_us(name) / size if size else 0.0

    def self_mean_us(self, *names: str, per: str) -> float:
        calls = self.count(per)
        return sum(self.self_ns[n] for n in names) / calls / 1e3 \
            if calls else 0.0


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100); 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q / 100.0 * len(ordered))) - 1]


def _hist_diff(before: Dict[str, Any], after: Dict[str, Any],
               name: str) -> Tuple[List[Tuple[float, int]], float, int]:
    """Buckets, sum and count a server histogram gained between scrapes."""
    old = before["histograms"][name]
    new = after["histograms"][name]
    buckets = [(float(b["le"]), b["count"] - a["count"])
               for a, b in zip(old["buckets"], new["buckets"])]
    return buckets, new["sum"] - old["sum"], new["count"] - old["count"]


def _hist_quantile(buckets: List[Tuple[float, int]], q: float) -> float:
    """Histogram quantile with the server's interpolation rule."""
    total = sum(count for _, count in buckets)
    if not total:
        return 0.0
    rank, running, lower = q * total, 0.0, 0.0
    for bound, count in buckets:
        if count and running + count >= rank:
            if math.isinf(bound):
                return lower
            return lower + (bound - lower) * (rank - running) / count
        running += count
        if not math.isinf(bound):
            lower = bound
    return lower


def _counter_diff(before: Dict[str, Any], after: Dict[str, Any],
                  name: str) -> float:
    def value(snap: Dict[str, Any]) -> float:
        return snap["counters"].get(name, {}).get("value", 0.0)

    return value(after) - value(before)


def _finish(out: Dict[str, Tuple[float, str]]) -> Dict[str, Any]:
    return {name: {"value": float(value), "unit": unit}
            for name, (value, unit) in out.items()}


def traced(workload: str, span_dir: str, ready: Dict[str, Any],
           snaps: Dict[str, Any], emb: Dict[str, Any],
           loadgen_late_p99_ms: float, loadgen_cpu_util: float,
           overhead_pct: float) -> Tuple[Dict[str, Any], List[str]]:
    """The per-layer metrics of a traced run, and summary-only notes.

    Serving-side layers come from the traced half of the served window,
    the table's per-call layers from the traced slices of the embedded
    phase, and the build layers from set-up. Layers that run on one
    workload only, and counters that read zero at every healthy run, go
    to the notes, so that every workload reports the same metrics.
    """
    served = Spans(span_dir, ready["t_ns"],
                   [(snaps["trace_on"]["t_ns"], snaps["trace_off"]["t_ns"])])
    direct = Spans(span_dir, ready["t_ns"],
                   [(lo, hi) for lo, hi in emb["windows"]])
    on, off = snaps["serve_on"], snaps["serve_off"]
    out: Dict[str, Tuple[float, str]] = {
        "loadgen.late_p99_ms": (loadgen_late_p99_ms, "ms"),
        "loadgen.cpu_util": (loadgen_cpu_util, "ratio"),
    }
    notes: Dict[str, Tuple[float, str]] = {}

    # serve.*: the served window.
    requests = max(len(served.submits), 1)
    decode = served.total_us("serve.protocol.json_body",
                             "serve.protocol.parse_keys",
                             "serve.protocol.parse_pairs") / requests
    encode = served.total_us("serve.protocol.dump_json",
                             "serve.protocol.render_http_response") / requests
    out["serve.protocol.decode_us_per_req"] = (decode, "us")
    out["serve.protocol.encode_us_per_req"] = (encode, "us")
    waits = [wait / 1e3 for wait, _, _ in served.submits]
    flush_per_req = sum(f for _, f, _ in served.submits) / 1e3 / requests
    out["serve.batcher.wait_us_p99"] = (percentile(waits, 99), "us")
    out["serve.batcher.keys_per_batch"] = (
        served.sizes["serve.batcher.flush"]
        / max(served.count("serve.batcher.flush"), 1), "keys")
    notes["serve.batcher.shed_ratio"] = (
        sum(1 for _, _, shed in served.submits if shed) / requests, "ratio")
    lag, _, _ = _hist_diff(on, off, "repro_serve_loop_lag_seconds")
    out["serve.server.loop_lag_p99_ms"] = (_hist_quantile(lag, 0.99) * 1e3,
                                           "ms")
    _, lat_sum, lat_count = _hist_diff(on, off, "repro_serve_latency_seconds")
    latency_us = lat_sum / max(lat_count, 1) * 1e6
    wait_mean = sum(waits) / requests
    out["serve.server.unattributed_us_per_req"] = (
        latency_us - decode - encode - wait_mean - flush_per_req, "us")

    # The table as the served window drives it: small batches.
    out["core.sharded.route_us_per_call"] = (
        served.mean_us("core.sharded.route_handles"), "us")
    out["core.sharded.insert_batch_ms_per_call"] = (
        served.mean_us("core.sharded.insert_batch") / 1e3, "ms")
    out["hashing.canon_us_per_key"] = (
        served.per_key_us("hashing.keys_to_u64_batch"), "us")
    out["hashing.indices_us_per_call"] = (
        served.mean_us("hashing.indices_batch"), "us")
    out["core.embedder.insert_batch_self_ms"] = (
        served.self_mean_us("core.embedder.insert_batch",
                            per="core.embedder.insert_batch") / 1e3, "ms")

    # The table as the embedded phase drives it: large batches and
    # per-key writes.
    out["core.sharded.lookup_us_per_call"] = (
        direct.self_mean_us("core.sharded.lookup_batch",
                            per="core.sharded.lookup_batch"), "us")
    out["hashing.indices_us_per_key"] = (
        direct.per_key_us("hashing.indices_batch"), "us")
    out["core.value_table.gather_us_per_key"] = (
        direct.per_key_us("core.value_table.gather_xor"), "us")
    out["core.embedder.update_us"] = (
        direct.mean_us("core.embedder.update"), "us")
    out["core.embedder.insert_us"] = (
        direct.mean_us("core.embedder.insert"), "us")
    out["core.embedder.delete_us"] = (
        direct.mean_us("core.embedder.delete"), "us")
    out["core.engine.insert_batch_us_per_key"] = (
        direct.per_key_us("core.engine.insert_batch"), "us")
    delta = emb["stats"]
    searches = direct.count("core.update.search_update_path")
    out["core.update.search_us_per_write"] = (
        direct.total_us("core.update.search_update_path")
        / max(searches, 1), "us")
    out["core.update.apply_us_per_write"] = (
        direct.total_us("core.update.apply") / max(searches, 1), "us")
    out["core.update.repair_steps_per_write"] = (
        delta["repair_steps"] / max(delta["updates"], 1.0), "steps")
    lookups = delta["cost_cache_hits"] + delta["cost_cache_misses"]
    out["core.update.cost_cache_hit_rate"] = (
        delta["cost_cache_hits"] / lookups if lookups else 0.0, "ratio")
    out["core.update.cost_cache_lookups"] = (lookups, "count")
    notes["core.update.failures"] = (delta["update_failures"], "count")
    notes["core.embedder.reconstructions"] = (delta["reconstructions"],
                                              "count")

    # Set-up.
    out["core.embedder.bulk_load_s"] = (
        served.setup_ns["core.embedder.bulk_load"] / 1e9, "s")
    out["core.static_build.peel_s"] = (
        served.setup_ns["core.static_build.peel"] / 1e9, "s")

    if workload == "pool_mixed":
        reads = served.count("core.shared_planes.read_stable")
        retries = _counter_diff(on, off,
                                "repro_planes_generation_retries_total")
        notes["core.shared_planes.read_us_p99"] = (
            percentile(served.outer_reads, 99) / 1e3, "us")
        notes["core.shared_planes.retries_per_1k_reads"] = (
            1e3 * retries / max(reads, 1), "count")
        holds = served.durations["core.shared_planes.write_hold"]
        notes["core.shared_planes.write_hold_ms_p99"] = (
            percentile(holds, 99) / 1e6, "ms")
        notes["serve.pool.rpc_ms_p95"] = (
            percentile(served.durations["serve.pool.rpc_call"], 95) / 1e6,
            "ms")

    out["trace.overhead_pct"] = (overhead_pct, "%")
    slowdowns = [phase["rate"] / phase["traced_rate"] - 1
                 for phase in emb["phases"].values()]
    notes["trace.embedded_overhead_pct"] = (
        100.0 * sum(slowdowns) / len(slowdowns), "%")
    lines = [f"  (summary only) {name} = {value:.6g} {unit}"
             for name, (value, unit) in notes.items()]
    return _finish(out), lines
