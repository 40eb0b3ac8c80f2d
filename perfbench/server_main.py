"""Server process of the served workloads.

Builds the default ``python -m repro.serve`` table (an 8-shard
:class:`~repro.core.sharded.ShardedEmbedder` of capacity 1.1M) holding
the seed's resident keys, serves it with a :class:`TableServer` (or a
one-worker :class:`WorkerPool` with ``--pool``), and prints one JSON
line ``{"event": "ready", ...}`` once it accepts connections.

It then obeys one command per stdin line and answers each with a JSON
line: ``trace on`` / ``trace off`` switch span recording, ``stats``
reports the table's counters, ``embedded {"seconds": S, "slots": [...]}``
stops the front end and runs the embedded phase (``perfbench/embedded.py``)
on the table for S seconds of table time, and ``stop`` writes the spans
to ``--span-dir`` and exits. End of input also stops it.

Usage: python3 perfbench/server_main.py --seed 1 [--pool] [--trace 1
--span-dir DIR]
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from time import perf_counter_ns

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import embedded  # noqa: E402
from embedded import STAT_FIELDS  # noqa: E402
import inputs  # noqa: E402
import spans  # noqa: E402


def say(payload: dict) -> None:
    """Send one JSON line to the parent benchmark process."""
    sys.stdout.write(json.dumps(payload) + "\n")
    sys.stdout.flush()


def _table_stats(table) -> dict:
    stats = table.stats
    return {
        "event": "stats",
        "keys": len(table),
        "bits_per_key": table.bits_per_key,
        **{name: float(getattr(stats, name)) for name in STAT_FIELDS},
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pool", action="store_true")
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--span-dir", default=".")
    args = parser.parse_args()

    rec = spans.Recorder()
    if args.trace:
        spans.install(rec, args.span_dir)
        rec.switch(True)  # set-up spans: bulk_load and the peel

    from repro.core.sharded import ShardedEmbedder
    from repro.serve import ServeConfig, ServerThread, WorkerPool

    keys, values = inputs.resident(args.seed)
    table = ShardedEmbedder(capacity=inputs.CAPACITY,
                            value_bits=inputs.VALUE_BITS)
    table.bulk_load(zip(keys.tolist(), values.tolist()))
    rec.switch(False)

    config = ServeConfig(host="127.0.0.1", port=0)
    if args.pool:
        front = WorkerPool(table, workers=1, config=config).start()
    else:
        front = ServerThread(table, config).start()
    say({"event": "ready", "port": front.port, "pid": os.getpid(),
          "t_ns": perf_counter_ns(), **_table_stats(table)})
    serving = True
    try:
        for line in sys.stdin:
            command, _, argument = line.strip().partition(" ")
            if command == "stop":
                break
            if command == "embedded":
                serving = False
                front.stop()
                spec = json.loads(argument)
                say(embedded.run(table, keys, values, spec["slots"],
                                 args.seed, spec["seconds"], rec,
                                 bool(args.trace)))
            elif command == "trace" and argument in ("on", "off"):
                rec.switch(argument == "on")
                say({"event": "ok", "t_ns": perf_counter_ns()})
            elif command == "stats":
                say(_table_stats(table))
            else:
                say({"event": "error", "detail": command})
    finally:
        rec.switch(False)
        if serving:
            front.stop()
        if args.trace:
            rec.dump(os.path.join(args.span_dir, f"spans-{os.getpid()}.json"))
    say({"event": "bye"})
    return 0


if __name__ == "__main__":
    sys.exit(main())
