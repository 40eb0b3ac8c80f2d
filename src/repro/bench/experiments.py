"""Experiment drivers: one per table/figure of the paper's evaluation.

Every driver accepts ``scale`` (workload multiplier; 1.0 is the repository
default, sized for seconds-to-minutes in pure Python — see DESIGN.md §4 for
the scaling policy) and ``seed`` and returns an
:class:`~repro.bench.reporting.ExperimentResult`. Absolute Mops are not
comparable with the paper's C++/FPGA numbers; the reproduced claims are the
*relative* ones, recorded per experiment in EXPERIMENTS.md.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis import space as space_model
from repro.analysis.poisson import expected_min_load, solve_lambda_threshold, space_threshold
from repro.analysis.failure import (
    two_hash_failure_probability,
    update_failure_probability,
)
from repro.bench.harness import Percentiles, measure_each
from repro.bench.reporting import ExperimentResult
from repro.bench.workloads import fill_table, make_pairs, try_fill_table
from repro.bench.ycsb import WORKLOADS, generate_operations, run_workload
from repro.core import ConcurrentVisionEmbedder, EmbedderConfig, VisionEmbedder
from repro.core.config import DepthPolicy
from repro.core.errors import ReproError
from repro.datasets import load as load_dataset
from repro.datasets import synthetic_like, uniform_queries, zipf_queries
from repro.datasets.registry import DATASET_NAMES
from repro.factory import make_table
from repro.fpga import LookupPipeline, estimate_resources
from repro.table import ValueOnlyTable

ALGORITHMS = ("vision", "othello", "color", "bloomier", "ludo")

#: Bisection brackets for the minimum-space experiments (bits per value bit).
_SPACE_BRACKETS = {
    "vision": (1.30, 2.40),
    "othello": (1.60, 3.40),
    "color": (1.60, 3.40),
    "bloomier": (1.00, 1.60),
}

#: Fig 3's tolerance: a configuration "functions effectively" if a full
#: insertion causes at most this many failure events.
_MAX_FAILURES_FOR_SPACE = 5


def _scaled(n: int, scale: float, minimum: int = 64) -> int:
    return max(minimum, round(n * scale))


def _build(
    name: str,
    capacity: int,
    value_bits: int,
    seed: int,
    space_factor: Optional[float] = None,
    **kwargs,
) -> ValueOnlyTable:
    """Factory wrapper applying experiment-friendly vision settings."""
    if name == "vision":
        config_kwargs = kwargs.pop("config_kwargs", {})
        # Space experiments probe below the 0.6-efficiency line; always
        # reconstruct rather than refusing, and fail fast when hopeless.
        config_kwargs.setdefault("reconstruct_efficiency_limit", 1.0)
        config_kwargs.setdefault("max_reconstruct_attempts", 8)
        kwargs["config_kwargs"] = config_kwargs
    return make_table(
        name, capacity, value_bits, seed=seed, space_factor=space_factor, **kwargs
    )


def _insertion_failures(
    name: str,
    keys: np.ndarray,
    values: np.ndarray,
    value_bits: int,
    seed: int,
    space_factor: Optional[float] = None,
) -> int:
    """Failure events over one full insertion; large if it gave up."""
    table = _build(name, len(keys), value_bits, seed, space_factor)
    if not try_fill_table(table, keys, values):
        return 10 * _MAX_FAILURES_FOR_SPACE
    return table.failure_events


def _min_space_factor(
    name: str,
    keys: np.ndarray,
    values: np.ndarray,
    value_bits: int,
    seed: int,
    iterations: int = 7,
) -> float:
    """Bisect the smallest space factor that inserts with ≤ 5 failures."""
    low, high = _SPACE_BRACKETS[name]
    if _insertion_failures(name, keys, values, value_bits, seed, high) > (
        _MAX_FAILURES_FOR_SPACE
    ):
        return float("nan")
    for _ in range(iterations):
        mid = (low + high) / 2
        failures = _insertion_failures(name, keys, values, value_bits, seed, mid)
        if failures <= _MAX_FAILURES_FOR_SPACE:
            high = mid
        else:
            low = mid
    return high


def _actual_space_cost(
    name: str,
    keys: np.ndarray,
    values: np.ndarray,
    value_bits: int,
    seed: int,
    factor: Optional[float],
) -> float:
    """The realised bits-per-value-bit of a *filled* table at a factor.

    Filling matters: Bloomier sizes itself from its content (1.23·(n+100)),
    so an empty table would under-report its cost.
    """
    n = len(keys)
    table = _build(name, n, value_bits, seed, factor)
    try_fill_table(table, keys, values)
    return table.space_bits / (n * value_bits)


# ---------------------------------------------------------------------------
# Table I
# ---------------------------------------------------------------------------


def table1_comparison(scale: float = 1.0, seed: int = 1) -> ExperimentResult:
    """Table I: the analytic algorithm comparison."""
    rows = [
        (
            row["algorithm"],
            row["space_per_L_bit_value"],
            row["lookup_time"],
            row["update_amortized_time"],
            row["update_failure_probability"],
        )
        for row in space_model.table1_rows()
    ]
    return ExperimentResult(
        experiment="table1",
        title="Algorithm comparison (paper Table I)",
        columns=["algorithm", "space/L-bit value", "lookup", "update (amortised)",
                 "failure probability"],
        rows=rows,
        notes="analytic; the measured counterparts are fig3 (space), fig8 "
              "(lookup), fig5 (update), fig4 (failures)",
    )


# ---------------------------------------------------------------------------
# Fig 3 — minimum space cost
# ---------------------------------------------------------------------------


def fig3_space_cost(scale: float = 1.0, seed: int = 1) -> ExperimentResult:
    """Fig 3: minimum fast space per value bit, vs n and vs L."""
    sizes = [_scaled(n, scale) for n in (512, 1024, 2048, 4096)]
    value_lengths = (1, 2, 4, 8)
    fixed_n = _scaled(1024, scale)
    rows: List[Tuple] = []

    def min_cost(name, keys, values, value_bits):
        if name == "ludo":
            # Ludo's space is formula-bound (locator + seeds dominate); the
            # paper plots its fixed cost rather than a searched one.
            return _actual_space_cost(name, keys, values, value_bits, seed, None)
        factor = _min_space_factor(name, keys, values, value_bits, seed)
        if factor != factor:  # NaN: never worked within the bracket
            return float("nan")
        return _actual_space_cost(name, keys, values, value_bits, seed, factor)

    for n in sizes:
        keys, values = make_pairs(n, 1, seed)
        for name in ALGORITHMS:
            rows.append(
                ("vs n", n, 1, name, round(min_cost(name, keys, values, 1), 3))
            )

    for value_bits in value_lengths:
        keys, values = make_pairs(fixed_n, value_bits, seed + 17)
        for name in ALGORITHMS:
            rows.append(
                ("vs L", fixed_n, value_bits, name,
                 round(min_cost(name, keys, values, value_bits), 3))
            )

    return ExperimentResult(
        experiment="fig3",
        title="Minimum space cost (bits per value bit)",
        columns=["sweep", "n", "L", "algorithm", "space cost"],
        rows=rows,
        parameters={"sizes": sizes, "value_lengths": list(value_lengths)},
        notes="searched: smallest budget with <=5 failure events over a full "
              "insertion (paper's protocol); paper reports vision 1.58, "
              "othello 2.33, color 2.2, bloomier 1.23·(n+100)/n, "
              "ludo (3.76+1.05L)/L. Our idealised othello/color (continuous "
              "array sizing, no power-of-two rounding) bisect down to the "
              "two-hash acyclicity threshold ~2.0; EXPERIMENTS.md discusses",
    )


# ---------------------------------------------------------------------------
# Fig 4 — update failure frequency
# ---------------------------------------------------------------------------


def fig4_failure_frequency(
    scale: float = 1.0, seed: int = 1, trials: Optional[int] = None
) -> ExperimentResult:
    """Fig 4: mean failure events per full insertion, vs n."""
    sizes = [_scaled(n, scale) for n in (256, 512, 1024, 2048)]
    if trials is None:
        trials = max(5, round(40 * scale))
    rows: List[Tuple] = []
    for n in sizes:
        for name in ALGORITHMS:
            total = 0
            for trial in range(trials):
                keys, values = make_pairs(n, 1, seed + 1000 * trial + n)
                table = _build(name, n, 1, seed + trial)
                if try_fill_table(table, keys, values):
                    total += table.failure_events
                else:
                    total += 10 * _MAX_FAILURES_FOR_SPACE
            rows.append((n, name, trials, round(total / trials, 4)))
    theory = [
        (n, "vision (theory)", "-", round(update_failure_probability(n, value_bits=1), 4))
        for n in sizes
    ] + [
        (n, "two-hash (theory)", "-",
         round(two_hash_failure_probability(n, value_bits=1), 4))
        for n in sizes
    ]
    return ExperimentResult(
        experiment="fig4",
        title="Update failure frequency per full insertion",
        columns=["n", "algorithm", "trials", "failures/insertion"],
        rows=rows + theory,
        parameters={"sizes": sizes, "trials": trials},
        notes="paper: othello/color/ludo fail ~O(1) times per insertion, "
              "vision ~O(1/n) (<0.001 at n>=1M); bloomier is low at small n "
              "thanks to its +100 slack",
    )


# ---------------------------------------------------------------------------
# Figs 5/6 — update throughput (with / without reconstruction time)
# ---------------------------------------------------------------------------


def _update_throughput_rows(
    scale: float, seed: int, include_reconstruction: bool
) -> Tuple[List[Tuple], Dict[str, object]]:
    sizes = [_scaled(n, scale) for n in (1024, 2048, 4096, 8192)]
    value_lengths = (1, 4, 8)
    fixed_n = _scaled(2048, scale)
    bloomier_probe_ops = 30
    rows: List[Tuple] = []

    def measure(name: str, n: int, value_bits: int) -> float:
        keys, values = make_pairs(n, value_bits, seed + n + value_bits)
        if name == "bloomier":
            # Per-op cost of the O(n) insert, probed on a loaded table.
            table = _build(name, n, value_bits, seed)
            fill_table(table, keys, values)
            extra, extra_vals = make_pairs(
                bloomier_probe_ops, value_bits, seed ^ 0xBEEF
            )
            started = time.perf_counter()
            for key, value in zip(extra.tolist(), extra_vals.tolist()):
                if key not in table:
                    table.insert(key, value)
            elapsed = time.perf_counter() - started
            ops = bloomier_probe_ops
        else:
            table = _build(name, n, value_bits, seed)
            started = time.perf_counter()
            fill_table(table, keys, values)
            elapsed = time.perf_counter() - started
            ops = n
        if not include_reconstruction:
            elapsed = max(1e-9, elapsed - table.stats.reconstruct_seconds)
        return ops / elapsed / 1e6

    for n in sizes:
        for name in ALGORITHMS:
            rows.append(("vs n", n, 8, name, round(measure(name, n, 8), 6)))
    for value_bits in value_lengths:
        for name in ALGORITHMS:
            rows.append(
                ("vs L", fixed_n, value_bits, name,
                 round(measure(name, fixed_n, value_bits), 6))
            )
    return rows, {"sizes": sizes, "value_lengths": list(value_lengths)}


def fig5_update_throughput(scale: float = 1.0, seed: int = 1) -> ExperimentResult:
    """Fig 5: overall update throughput including reconstruction."""
    rows, params = _update_throughput_rows(scale, seed, include_reconstruction=True)
    return ExperimentResult(
        experiment="fig5",
        title="Update throughput incl. reconstruction (Mops)",
        columns=["sweep", "n", "L", "algorithm", "Mops"],
        rows=rows,
        parameters=params,
        notes="paper: vision best overall; othello/color lose time to "
              "reconstructions; bloomier's O(n) insert is orders slower "
              "(probed with single inserts on a loaded table); absolute Mops "
              "are Python-scale",
    )


def fig6_update_throughput_no_reconstruct(
    scale: float = 1.0, seed: int = 1
) -> ExperimentResult:
    """Fig 6: update throughput with reconstruction time excluded."""
    rows, params = _update_throughput_rows(scale, seed, include_reconstruction=False)
    return ExperimentResult(
        experiment="fig6",
        title="Update throughput excl. reconstruction (Mops)",
        columns=["sweep", "n", "L", "algorithm", "Mops"],
        rows=rows,
        parameters=params,
        notes="paper: othello/color/ludo improve vs fig5 because they "
              "reconstruct more often; vision barely changes",
    )


# ---------------------------------------------------------------------------
# Fig 7 — update latency percentiles
# ---------------------------------------------------------------------------


def fig7_update_latency(scale: float = 1.0, seed: int = 1) -> ExperimentResult:
    """Fig 7: per-update latency distribution (tail behaviour)."""
    n = _scaled(4096, scale)
    rows: List[Tuple] = []
    for name in ALGORITHMS:
        keys, values = make_pairs(n, 8, seed + 3)
        if name == "bloomier":
            table = _build(name, n, 8, seed)
            fill_table(table, keys, values)
            extra, extra_vals = make_pairs(30, 8, seed ^ 0x7EA)
            ops = [
                (lambda k=k, v=v: table.insert(k, v))
                for k, v in zip(extra.tolist(), extra_vals.tolist())
                if k not in table
            ]
        else:
            table = _build(name, n, 8, seed)
            ops = [
                (lambda k=k, v=v: table.insert(k, v))
                for k, v in zip(keys.tolist(), values.tolist())
            ]
        samples = measure_each(ops)
        pct = Percentiles.from_samples(samples)
        rows.append(
            (name, len(ops), round(pct.p50, 2), round(pct.p90, 2),
             round(pct.p99, 2), round(pct.p999, 2), round(max(samples), 2))
        )
    return ExperimentResult(
        experiment="fig7",
        title="Update latency percentiles (microseconds)",
        columns=["algorithm", "ops", "P50", "P90", "P99", "P99.9", "max"],
        rows=rows,
        parameters={"n": n},
        notes="paper: othello/color/ludo show severe tail inflation "
              "(reconstructions land on single unlucky updates); vision's "
              "tail stays orders of magnitude lower",
    )


# ---------------------------------------------------------------------------
# Fig 8 — lookup throughput
# ---------------------------------------------------------------------------


def _lookup_mops(
    table: ValueOnlyTable, queries: np.ndarray, repeats: int = 3
) -> float:
    """Batch-lookup throughput, best of ``repeats`` (suppresses timer noise)."""
    best = 0.0
    for _ in range(repeats):
        started = time.perf_counter()
        table.lookup_batch(queries)
        mops = len(queries) / (time.perf_counter() - started) / 1e6
        best = max(best, mops)
    return best


def fig8_lookup_throughput(scale: float = 1.0, seed: int = 1) -> ExperimentResult:
    """Fig 8: lookup throughput vs n (L=1) and vs L (n fixed)."""
    sizes = [_scaled(n, scale) for n in (1024, 4096, 16384)]
    value_lengths = (1, 2, 4, 6, 8, 10)
    fixed_n = _scaled(8192, scale)
    num_queries = _scaled(200_000, scale, minimum=10_000)
    rows: List[Tuple] = []

    for n in sizes:
        keys, values = make_pairs(n, 1, seed + n)
        queries = uniform_queries(keys, num_queries, seed ^ n)
        for name in ALGORITHMS:
            table = _build(name, n, 1, seed)
            fill_table(table, keys, values)
            rows.append(("vs n", n, 1, name, round(_lookup_mops(table, queries), 3)))

    keys, values = make_pairs(fixed_n, 10, seed + 71)
    queries = uniform_queries(keys, num_queries, seed ^ 0xF18B)
    for value_bits in value_lengths:
        masked = values & np.uint64((1 << value_bits) - 1)
        for name in ALGORITHMS:
            table = _build(name, fixed_n, value_bits, seed)
            fill_table(table, keys, masked)
            rows.append(
                ("vs L", fixed_n, value_bits, name,
                 round(_lookup_mops(table, queries), 3))
            )

    return ExperimentResult(
        experiment="fig8",
        title="Lookup throughput (Mops, vectorised batch)",
        columns=["sweep", "n", "L", "algorithm", "Mops"],
        rows=rows,
        parameters={"sizes": sizes, "value_lengths": list(value_lengths),
                    "queries": num_queries},
        notes="paper: vision ~ othello overall; othello/color degrade "
              "linearly in L (bit-plane storage, genuinely reproduced here); "
              "vision/bloomier/ludo stay flat in L",
    )


# ---------------------------------------------------------------------------
# Fig 9 — robustness across datasets
# ---------------------------------------------------------------------------


def fig9_robustness(scale: float = 1.0, seed: int = 1) -> ExperimentResult:
    """Fig 9: VisionEmbedder across real-style vs synthetic datasets."""
    dataset_scale = min(1.0, 0.05 * scale)
    num_queries = _scaled(100_000, scale, minimum=10_000)
    rows: List[Tuple] = []
    for dataset_name in DATASET_NAMES:
        real = load_dataset(dataset_name, scale=dataset_scale)
        twin = synthetic_like(real, seed=seed)
        for dataset, query_kind in ((real, "zipf"), (twin, "uniform")):
            table = _build("vision", dataset.size, dataset.value_bits, seed)
            started = time.perf_counter()
            fill_table(table, dataset.keys, dataset.values)
            update_mops = dataset.size / (time.perf_counter() - started) / 1e6
            if query_kind == "zipf":
                queries = zipf_queries(dataset.keys, num_queries, seed, alpha=1.0)
            else:
                queries = uniform_queries(dataset.keys, num_queries, seed)
            rows.append(
                (
                    dataset.name,
                    dataset.size,
                    query_kind,
                    round(table.space_cost, 3),
                    table.failure_events,
                    round(update_mops, 4),
                    round(_lookup_mops(table, queries), 3),
                )
            )
    return ExperimentResult(
        experiment="fig9",
        title="Robustness: real-style vs synthetic datasets (VisionEmbedder)",
        columns=["dataset", "n", "queries", "space cost", "failures",
                 "update Mops", "lookup Mops"],
        rows=rows,
        parameters={"dataset_scale": dataset_scale, "queries": num_queries},
        notes="paper: real vs same-scale synthetic is a wash for space and "
              "updates; zipf-skewed queries help lookups slightly via caching",
    )


# ---------------------------------------------------------------------------
# Figs 10/11/12 — stability across hash seeds
# ---------------------------------------------------------------------------


def _seed_stability(
    metric: Callable[[int], float], seeds: Sequence[int]
) -> List[Tuple[int, float]]:
    return [(s, metric(s)) for s in seeds]


def fig10_lookup_seed_stability(
    scale: float = 1.0, seed: int = 1
) -> ExperimentResult:
    """Fig 10: lookup throughput under different hash seeds."""
    n = _scaled(8192, scale)
    num_queries = _scaled(200_000, scale, minimum=10_000)
    keys, values = make_pairs(n, 8, seed)
    queries = uniform_queries(keys, num_queries, seed)
    seeds = [seed + i for i in range(5)]

    def metric(s: int) -> float:
        table = _build("vision", n, 8, s)
        fill_table(table, keys, values)
        return round(_lookup_mops(table, queries), 3)

    rows = _seed_stability(metric, seeds)
    values_only = [v for _, v in rows]
    spread = (max(values_only) - min(values_only)) / max(values_only)
    return ExperimentResult(
        experiment="fig10",
        title="Lookup throughput vs hash seed (VisionEmbedder)",
        columns=["hash seed", "lookup Mops"],
        rows=rows,
        parameters={"n": n, "relative_spread": round(spread, 4)},
        notes="paper: stable across seeds; spread should be a few percent",
    )


def fig11_update_seed_stability(
    scale: float = 1.0, seed: int = 1
) -> ExperimentResult:
    """Fig 11: update throughput under different hash seeds."""
    n = _scaled(4096, scale)
    keys, values = make_pairs(n, 8, seed)
    seeds = [seed + i for i in range(5)]

    def metric(s: int) -> float:
        table = _build("vision", n, 8, s)
        started = time.perf_counter()
        fill_table(table, keys, values)
        return round(n / (time.perf_counter() - started) / 1e6, 4)

    rows = _seed_stability(metric, seeds)
    values_only = [v for _, v in rows]
    spread = (max(values_only) - min(values_only)) / max(values_only)
    return ExperimentResult(
        experiment="fig11",
        title="Update throughput vs hash seed (VisionEmbedder)",
        columns=["hash seed", "update Mops"],
        rows=rows,
        parameters={"n": n, "relative_spread": round(spread, 4)},
        notes="paper: stable across seeds",
    )


def fig12_space_seed_stability(
    scale: float = 1.0, seed: int = 1
) -> ExperimentResult:
    """Fig 12: minimum space cost under different hash seeds."""
    n = _scaled(1024, scale)
    seeds = [seed + i for i in range(5)]

    def metric(s: int) -> float:
        keys, values = make_pairs(n, 1, s)
        factor = _min_space_factor("vision", keys, values, 1, s, iterations=6)
        return round(_actual_space_cost("vision", keys, values, 1, s, factor), 3)

    rows = _seed_stability(metric, seeds)
    values_only = [v for _, v in rows]
    spread = (max(values_only) - min(values_only)) / max(values_only)
    return ExperimentResult(
        experiment="fig12",
        title="Minimum space cost vs hash seed (VisionEmbedder)",
        columns=["hash seed", "space cost (bits/value bit)"],
        rows=rows,
        parameters={"n": n, "relative_spread": round(spread, 4)},
        notes="paper: hash seed has nearly no impact on space efficiency",
    )


# ---------------------------------------------------------------------------
# §VI-G — deletion performance
# ---------------------------------------------------------------------------


def deletion_performance(scale: float = 1.0, seed: int = 1) -> ExperimentResult:
    """§VI-G: deletion throughput vs n and vs space budget."""
    sizes = [_scaled(n, scale) for n in (1024, 2048, 4096, 8192, 16384)]
    budgets = (1.7, 1.9, 2.1, 2.3)
    fixed_n = _scaled(1024, scale)
    rows: List[Tuple] = []

    def deletion_mops(n: int, factor: float) -> float:
        keys, values = make_pairs(n, 8, seed + n)
        table = _build("vision", n, 8, seed, space_factor=factor)
        fill_table(table, keys, values)
        started = time.perf_counter()
        for key in keys.tolist():
            table.delete(key)
        return n / (time.perf_counter() - started) / 1e6

    for n in sizes:
        rows.append(("vs n", n, 1.7, round(deletion_mops(n, 1.7), 4)))
    for factor in budgets:
        rows.append(
            ("vs space", fixed_n, factor, round(deletion_mops(fixed_n, factor), 4))
        )
    return ExperimentResult(
        experiment="deletion",
        title="Deletion throughput (VisionEmbedder, Mops)",
        columns=["sweep", "n", "space factor", "Mops"],
        rows=rows,
        parameters={"sizes": sizes, "budgets": list(budgets)},
        notes="paper (n=256k..4M): 6.60/5.62/5.35/5.10/4.92 Mops, nearly flat "
              "in the space budget; deletes touch slow space only, so they "
              "sit between lookups and updates",
    )


# ---------------------------------------------------------------------------
# Fig 13 — multi-threading
# ---------------------------------------------------------------------------


def fig13_multithreading(scale: float = 1.0, seed: int = 1) -> ExperimentResult:
    """Fig 13: concurrent update and lookup scaling, 1–8 threads."""
    n = _scaled(8192, scale)
    num_queries = _scaled(400_000, scale, minimum=20_000)
    thread_counts = (1, 2, 4, 8)
    keys, values = make_pairs(n, 8, seed)
    queries = uniform_queries(keys, num_queries, seed)
    rows: List[Tuple] = []

    update_base = None
    lookup_base = None
    for threads in thread_counts:
        table = ConcurrentVisionEmbedder(n, 8, seed=seed)
        chunks = [
            list(zip(keys[i::threads].tolist(), values[i::threads].tolist()))
            for i in range(threads)
        ]

        def insert_worker(chunk):
            for key, value in chunk:
                table.insert(key, value)

        started = time.perf_counter()
        workers = [
            threading.Thread(target=insert_worker, args=(chunk,))
            for chunk in chunks
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
        update_mops = n / (time.perf_counter() - started) / 1e6
        if update_base is None:
            update_base = update_mops

        query_chunks = [queries[i::threads] for i in range(threads)]

        def lookup_worker(chunk):
            table.lookup_batch(chunk)

        started = time.perf_counter()
        workers = [
            threading.Thread(target=lookup_worker, args=(chunk,))
            for chunk in query_chunks
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
        lookup_mops = num_queries / (time.perf_counter() - started) / 1e6
        if lookup_base is None:
            lookup_base = lookup_mops

        rows.append(
            (
                threads,
                round(update_mops, 4),
                round(update_mops / update_base, 2),
                round(lookup_mops, 3),
                round(lookup_mops / lookup_base, 2),
            )
        )

    return ExperimentResult(
        experiment="fig13",
        title="Multi-threaded scaling (ConcurrentVisionEmbedder)",
        columns=["threads", "update Mops", "update speedup", "lookup Mops",
                 "lookup speedup"],
        rows=rows,
        parameters={"n": n, "queries": num_queries},
        notes="paper (C++, 16 cores): update x1.96/3.84/7.37 and lookup "
              "x1.91/3.65/6.41 at 2/4/8 threads; CPython's GIL prevents "
              "update scaling here (EXPERIMENTS.md discusses); lookups get "
              "partial scaling from numpy kernels",
    )


# ---------------------------------------------------------------------------
# Table III — FPGA case study
# ---------------------------------------------------------------------------


def table3_fpga(scale: float = 1.0, seed: int = 1) -> ExperimentResult:
    """Table III: FPGA resources, clock, and functional pipeline check."""
    report = estimate_resources(depth=1 << 19, value_bits=8)
    usage = report.usage()
    rows = [
        ("Hash", report.hash_luts, report.hash_registers, 0,
         report.frequency_mhz),
        ("VisionEmbedder", report.engine_luts, report.engine_registers,
         report.block_rams, report.frequency_mhz),
        ("Total", report.total_luts, report.total_registers,
         report.block_rams, report.frequency_mhz),
        ("Usage", f"{usage['clb_luts']:.2%}", f"{usage['clb_registers']:.2%}",
         f"{usage['block_ram']:.2%}", "-"),
    ]

    # Functional check: stream real queries through the cycle model.
    n = _scaled(2048, scale)
    keys, values = make_pairs(n, 8, seed)
    embedder = VisionEmbedder(n, 8, seed=seed)
    fill_table(embedder, keys, values)
    pipeline = LookupPipeline.from_embedder(
        embedder, frequency_mhz=report.frequency_mhz
    )
    result = pipeline.run(keys.tolist())
    correct = sum(
        1 for value, expect in zip(result.values, values.tolist())
        if value == expect
    )
    rows.append(
        ("Pipeline check",
         f"{correct}/{n} correct",
         f"{result.cycles} cycles",
         f"latency {result.latency_cycles}",
         round(result.throughput_mops, 2))
    )
    return ExperimentResult(
        experiment="table3",
        title="FPGA implementation (paper Table III)",
        columns=["module", "CLB LUTs", "CLB registers", "Block RAM",
                 "freq MHz / Mops"],
        rows=rows,
        parameters={"depth": 1 << 19, "value_bits": 8,
                    "capacity_pairs": report.capacity_pairs},
        notes="paper: 76/66 + 505/631 LUT/registers, 385 BRAM (14.32%), "
              "279.64 MHz => 279.64 Mops for ~0.95M 8-bit pairs; the "
              "pipeline model is functional (bit-exact vs software) with "
              "II=1 and 3-cycle latency",
    )


# ---------------------------------------------------------------------------
# Theory (§V)
# ---------------------------------------------------------------------------


def theory_thresholds(scale: float = 1.0, seed: int = 1) -> ExperimentResult:
    """Theorem 1's numbers plus failure-probability scaling (Thms 2–3)."""
    lam = solve_lambda_threshold()
    rows: List[Tuple] = [
        ("lambda' (E[X_min]=1)", round(lam, 4), 1.709),
        ("(m/n)' = 3/lambda'", round(space_threshold(), 4), 1.756),
        ("E[X_min] at default m/n=1.7", round(expected_min_load(3 / 1.7), 4), ">1"),
        ("E[X_min] at m/n=1.8", round(expected_min_load(3 / 1.8), 4), "<1"),
    ]
    for n in (1_000, 10_000, 100_000, 1_000_000):
        rows.append(
            (f"vision failure prob, n={n}",
             f"{update_failure_probability(n, value_bits=1):.2e}",
             "O(1/n)")
        )
        rows.append(
            (f"two-hash failure prob, n={n}",
             f"{two_hash_failure_probability(n, value_bits=1):.2e}",
             "O(1)")
        )
    return ExperimentResult(
        experiment="theory",
        title="Theoretical thresholds and failure scaling (§V)",
        columns=["quantity", "computed", "paper"],
        rows=rows,
        notes="lambda' and (m/n)' solve E[X_min]=1 for Pois(3n/m) with "
              "min over 2 choices; failure probabilities combine Thm 2 "
              "(collision) and Thm 3 (endless loop)",
    )


# ---------------------------------------------------------------------------
# Ablations (design choices called out in §IV)
# ---------------------------------------------------------------------------


def ablation_strategy(scale: float = 1.0, seed: int = 1) -> ExperimentResult:
    """Simple (random-kick) vs vision update at several space budgets."""
    n = _scaled(2048, scale)
    factors = (1.7, 2.4, 3.2, 4.0)
    rows: List[Tuple] = []
    for strategy in ("simple", "vision"):
        for factor in factors:
            keys, values = make_pairs(n, 4, seed + 5)
            table = make_table(
                "vision", n, 4, seed=seed, space_factor=factor,
                config_kwargs={
                    "strategy": strategy,
                    "reconstruct_efficiency_limit": 1.0,
                    "max_reconstruct_attempts": 8,
                },
            )
            ok = try_fill_table(table, keys, values)
            inserted = len(table)
            steps = table.stats.repair_steps / max(1, table.stats.updates)
            rows.append(
                (strategy, factor, "yes" if ok else "no", inserted,
                 table.failure_events, round(steps, 2))
            )
    return ExperimentResult(
        experiment="ablation-strategy",
        title="Ablation: simple random-kick vs vision update",
        columns=["strategy", "space factor", "filled", "inserted",
                 "failures", "repair steps/op"],
        rows=rows,
        parameters={"n": n},
        notes="paper §IV quotes ~140% extra space (~2.4L) for its simple "
              "strategy; a *pure* random kick has repair branching factor "
              "3n/m, so it converges only for m > 3n — measured here "
              "(~3.2-4.0L), while vision runs at 1.7L. EXPERIMENTS.md "
              "discusses the gap",
    )


def ablation_depth(scale: float = 1.0, seed: int = 1) -> ExperimentResult:
    """Fixed MaxDepth 1/2/3 vs the paper's dynamic schedule, at 1.7L."""
    n = _scaled(2048, scale)
    rows: List[Tuple] = []
    policies = [
        ("depth=1", DepthPolicy(fixed=1)),
        ("depth=2", DepthPolicy(fixed=2)),
        ("depth=3", DepthPolicy(fixed=3)),
        ("dynamic", DepthPolicy()),
    ]
    for label, policy in policies:
        keys, values = make_pairs(n, 4, seed + 9)
        config = EmbedderConfig(
            depth_policy=policy,
            reconstruct_efficiency_limit=1.0,
            max_reconstruct_attempts=8,
        )
        table = VisionEmbedder(n, 4, config=config, seed=seed)
        started = time.perf_counter()
        ok = try_fill_table(table, keys, values)
        elapsed = time.perf_counter() - started
        rows.append(
            (label, "yes" if ok else "no", table.failure_events,
             round(n / elapsed / 1e6, 4),
             round(table.stats.repair_steps / max(1, table.stats.updates), 2))
        )
    return ExperimentResult(
        experiment="ablation-depth",
        title="Ablation: GetCost lookahead depth at 1.7L",
        columns=["policy", "filled", "failures", "update Mops",
                 "repair steps/op"],
        rows=rows,
        parameters={"n": n},
        notes="Theorem 1: depth 1 only converges above m/n=1.756, so at "
              "1.7L it fails/reconstructs; deeper vision fills 1.7L; the "
              "dynamic schedule buys back update speed while filling",
    )


def ablation_ludo_locator(scale: float = 1.0, seed: int = 1) -> ExperimentResult:
    """Ludo with its original Othello locator vs the VisionEmbedder swap."""
    n = _scaled(2048, scale)
    trials = max(3, round(10 * scale))
    rows: List[Tuple] = []
    for locator in ("othello", "vision"):
        total_failures = 0
        space_cost = 0.0
        elapsed = 0.0
        for trial in range(trials):
            keys, values = make_pairs(n, 4, seed + 100 * trial)
            table = make_table("ludo", n, 4, seed=seed + trial, locator=locator)
            started = time.perf_counter()
            fill_table(table, keys, values)
            elapsed += time.perf_counter() - started
            total_failures += table.failure_events
            space_cost = table.space_cost
        rows.append(
            (locator, round(space_cost, 3), round(total_failures / trials, 3),
             round(trials * n / elapsed / 1e6, 4))
        )
    return ExperimentResult(
        experiment="ablation-ludo",
        title="Ablation: Ludo locator — Othello vs VisionEmbedder",
        columns=["locator", "space cost (bits/value bit)",
                 "failures/insertion", "update Mops"],
        rows=rows,
        parameters={"n": n, "trials": trials},
        notes="paper §VI-B: swapping Ludo's internal Othello for "
              "VisionEmbedder cuts its constant from 3.76 to ~3.1 bits/key "
              "and slashes its failure probability",
    )


def space_landscape_experiment(
    scale: float = 1.0, seed: int = 1
) -> ExperimentResult:
    """The full ladder of space constants, measured where possible."""
    from repro.analysis.thresholds import space_landscape

    num_cells = _scaled(60_000, scale, minimum=12_000)
    rows = [
        (name, round(ratio, 4), provenance)
        for name, ratio, provenance in space_landscape(num_cells, seed)
    ]
    return ExperimentResult(
        experiment="landscape",
        title="Space-constant ladder (fast-space bits per value bit)",
        columns=["constant", "m/n", "provenance"],
        rows=rows,
        parameters={"num_cells": num_cells},
        notes="the hypergraph thresholds (XORSAT satisfiability, "
              "peelability) are measured by running this repository's own "
              "peeling machinery on random instances; vision's numbers "
              "sit between Bloomier's peel bound and Theorem 1's depth-1 "
              "bound, which is precisely the paper's contribution",
    )


def keystored_vs_vo(scale: float = 1.0, seed: int = 1) -> ExperimentResult:
    """§I's motivation, measured: fast space of key-stored vs VO designs."""
    from repro.baselines.keystore import CuckooKeyValueTable

    n = _scaled(2048, scale)
    rows: List[Tuple] = []
    for key_bits, value_bits in ((48, 1), (48, 8), (64, 4), (64, 16)):
        keys, values = make_pairs(n, value_bits, seed + key_bits)
        vo = _build("vision", n, value_bits, seed)
        fill_table(vo, keys, values)
        full = CuckooKeyValueTable(n, value_bits, key_bits=key_bits,
                                   seed=seed)
        fingerprint = CuckooKeyValueTable(
            n, value_bits, mode="fingerprint", fingerprint_bits=12,
            seed=seed,
        )
        for key, value in zip(keys.tolist(), values.tolist()):
            full.insert(key, value)
            fingerprint.insert(key, value)
        rows.append(
            (
                key_bits,
                value_bits,
                round(vo.bits_per_key, 2),
                round(fingerprint.bits_per_key, 2),
                round(full.bits_per_key, 2),
                round(full.bits_per_key / vo.bits_per_key, 1),
                f"none / {fingerprint.false_positive_rate:.2%} FP / exact",
            )
        )
    return ExperimentResult(
        experiment="keystored-vs-vo",
        title="Key-stored vs value-only fast space (bits per pair)",
        columns=["key bits", "L", "VO (vision)", "fingerprint cuckoo",
                 "full-key cuckoo", "full/VO ratio",
                 "alien detection (VO/fp/full)"],
        rows=rows,
        parameters={"n": n},
        notes="the paper's opening trade: VO tables pay 1.7L bits and "
              "cannot detect aliens; key-stored tables pay the key (or "
              "a fingerprint) per slot and can. The gap is largest "
              "exactly where the paper deploys VO tables: long keys, "
              "short values (48-bit MACs with 1-bit values: >30x)",
    )


def ycsb_mixed_workloads(scale: float = 1.0, seed: int = 1) -> ExperimentResult:
    """YCSB core workloads A/B/C/D/F across the dynamic algorithms."""
    n = _scaled(2048, scale)
    ops_count = _scaled(8192, scale, minimum=512)
    algorithms = ("vision", "othello", "color", "ludo")
    rows: List[Tuple] = []
    for workload_name, spec in WORKLOADS.items():
        keys, values = make_pairs(n, 8, seed + 31)
        operations = generate_operations(spec, keys, ops_count, seed + 7)
        for name in algorithms:
            table = _build(name, 2 * n, 8, seed)
            fill_table(table, keys, values)
            result = run_workload(table, operations, workload_name)
            rows.append(
                (workload_name, name, result.operations,
                 round(result.mops, 4), result.reads, result.writes,
                 result.failures)
            )
    return ExperimentResult(
        experiment="ycsb",
        title="YCSB-style mixed workloads (Mops)",
        columns=["workload", "algorithm", "ops", "Mops", "reads", "writes",
                 "failures"],
        rows=rows,
        parameters={"n": n, "ops": ops_count},
        notes="extension beyond the paper's single-operation passes; "
              "workload E (scans) is structurally impossible for VO tables "
              "(no keys stored). Read-heavy mixes converge to fig8's "
              "ordering; update-heavy mixes favour Ludo (value updates are "
              "in-place slot rewrites, no repair walk) — the flip side of "
              "its extra space and slower reads",
    )


def ablation_num_arrays(scale: float = 1.0, seed: int = 1) -> ExperimentResult:
    """Three vs four hash arrays — why the paper picks exactly three."""
    n = _scaled(2048, scale)
    num_queries = _scaled(100_000, scale, minimum=10_000)
    rows: List[Tuple] = []
    for num_arrays in (3, 4):
        choices = num_arrays - 1
        threshold = space_threshold(num_arrays=num_arrays, choices=choices)
        budget = 1.7 if num_arrays == 3 else 1.9
        keys, values = make_pairs(n, 4, seed + num_arrays)
        config = EmbedderConfig(
            space_factor=budget,
            reconstruct_efficiency_limit=1.0,
            max_reconstruct_attempts=8,
        )
        table = VisionEmbedder(n, 4, config=config, seed=seed,
                               num_arrays=num_arrays)
        started = time.perf_counter()
        filled = try_fill_table(table, keys, values)
        update_mops = n / (time.perf_counter() - started) / 1e6
        queries = uniform_queries(keys, num_queries, seed)
        rows.append(
            (
                num_arrays,
                round(threshold, 4),
                budget,
                "yes" if filled else "no",
                table.failure_events,
                round(update_mops, 4),
                round(_lookup_mops(table, queries), 3),
            )
        )
    return ExperimentResult(
        experiment="ablation-arrays",
        title="Ablation: number of hash arrays (paper uses 3)",
        columns=["arrays", "depth-1 threshold (m/n)'", "budget used",
                 "filled", "failures", "update Mops", "lookup Mops"],
        rows=rows,
        parameters={"n": n},
        notes="more arrays *raise* the depth-1 convergence threshold "
              "(1.756 -> 1.857 for 4 arrays: each extra choice thins every "
              "bucket less than it adds hashed positions) and add a fourth "
              "memory read per lookup — quantifying why the paper settles "
              "on exactly three",
    )


def ablation_construction(scale: float = 1.0, seed: int = 1) -> ExperimentResult:
    """Dynamic insertion vs static peeling construction (§IV-C).

    Build throughput is the best of three fresh builds: a small build
    takes about a millisecond, so one timing is at the mercy of whatever
    else the machine is doing.
    """
    n = _scaled(4096, scale)
    keys, values = make_pairs(n, 8, seed + 2)
    pairs = list(zip(keys.tolist(), values.tolist()))
    rows: List[Tuple] = []
    for method in ("dynamic", "static"):
        best = float("inf")
        for _ in range(3):
            started = time.perf_counter()
            table = VisionEmbedder.from_pairs(
                pairs, value_bits=8, seed=seed, static=(method == "static")
            )
            best = min(best, time.perf_counter() - started)
        build_mops = n / best / 1e6
        started = time.perf_counter()
        table.reconstruct(method=method)
        rebuild_seconds = time.perf_counter() - started
        rows.append(
            (method, round(build_mops, 4), round(rebuild_seconds * 1e3, 1),
             table.failure_events)
        )
    return ExperimentResult(
        experiment="ablation-construction",
        title="Ablation: dynamic vs static (peeling) construction",
        columns=["method", "build Mops", "rebuild ms", "failures"],
        rows=rows,
        parameters={"n": n},
        notes="§IV-C offers both for reconstruction; the O(n) peel is the "
              "fast path for bulk loads and rebuilds, the dynamic path is "
              "what incremental updates use",
    )


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

EXPERIMENTS: Dict[str, Callable[..., ExperimentResult]] = {
    "table1": table1_comparison,
    "fig3": fig3_space_cost,
    "fig4": fig4_failure_frequency,
    "fig5": fig5_update_throughput,
    "fig6": fig6_update_throughput_no_reconstruct,
    "fig7": fig7_update_latency,
    "fig8": fig8_lookup_throughput,
    "fig9": fig9_robustness,
    "fig10": fig10_lookup_seed_stability,
    "fig11": fig11_update_seed_stability,
    "fig12": fig12_space_seed_stability,
    "deletion": deletion_performance,
    "fig13": fig13_multithreading,
    "table3": table3_fpga,
    "theory": theory_thresholds,
    "ablation-strategy": ablation_strategy,
    "ablation-depth": ablation_depth,
    "ablation-ludo": ablation_ludo_locator,
    "landscape": space_landscape_experiment,
    "keystored-vs-vo": keystored_vs_vo,
    "ycsb": ycsb_mixed_workloads,
    "ablation-arrays": ablation_num_arrays,
    "ablation-construction": ablation_construction,
}


def run_experiment(name: str, scale: float = 1.0, seed: int = 1, **kwargs) -> ExperimentResult:
    """Run one experiment by registry name."""
    try:
        driver = EXPERIMENTS[name]
    except KeyError:
        raise ValueError(
            f"unknown experiment {name!r}; known: {', '.join(EXPERIMENTS)}"
        ) from None
    return driver(scale=scale, seed=seed, **kwargs)
