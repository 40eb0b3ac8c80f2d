"""The repository benchmark: one workload per invocation.

Usage::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Both workloads (``perfbench/spec.json`` records each one's table, rate
and request mix, and which end-to-end metric each per-layer metric
moves) build the default served table in a server child process and
run two phases on it:

- a served window of :data:`SERVED_SHARE` of the seconds: open-loop
  64-key lookups plus one write per ten lookups, over HTTP, against a
  ``TableServer`` (``serve_mixed``) or a one-worker ``WorkerPool``
  (``pool_mixed``);
- an embedded phase of the remaining seconds: the server stops serving
  and the same table is driven in-process (batch lookup, per-key update,
  delete+insert churn, batch insert; ``perfbench/embedded.py``).

With ``--trace 0`` the last stdout line is the end-to-end result; with
``--trace 1`` each phase is split into untraced and traced parts and
the last line carries the per-layer metrics. Lines before it are a
readable summary. Exit code 0 only when the result was printed; 2 when
the tree holds no ``src/repro`` to measure; 3 when the run was invalid
twice because the load generator fell behind its schedule; 4 when the
metrics measured are not exactly those ``BENCHMARK.json`` lists.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import math
import os
import select
import shutil
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import inputs  # noqa: E402
import layers  # noqa: E402
from layers import percentile  # noqa: E402
import loadgen  # noqa: E402
import procstat  # noqa: E402

WORKLOADS = ("serve_mixed", "pool_mixed")
#: Share of ``--seconds`` given to the served window; the embedded phase
#: gets the rest (as table time: its wall time is somewhat longer).
SERVED_SHARE = 0.6
#: A run whose sends left later than this (p99) is invalid: its latencies
#: would measure the generator, not the server.
LATE_LIMIT_MS = 20.0
#: Invalid runs (a stall of the whole host stops the generator too) after
#: which the benchmark gives up with exit code 3 instead of repeating.
ATTEMPTS = 2
#: Seconds allowed for one child reply (the set-up build is the longest).
REPLY_TIMEOUT_S = 150.0


class Child:
    """A benchmark-owned child process speaking JSON lines on stdout."""

    def __init__(self, argv: List[str]) -> None:
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE, cwd=ROOT)
        self._stdin = self.proc.stdin
        self._stdout = self.proc.stdout
        self._buffer = b""

    def read(self, timeout: float = REPLY_TIMEOUT_S) -> Dict[str, Any]:
        deadline = time.monotonic() + timeout
        fd = self._stdout.fileno()
        while b"\n" not in self._buffer:
            left = deadline - time.monotonic()
            if left <= 0 or not select.select([fd], [], [], left)[0]:
                raise RuntimeError("child did not answer in time")
            chunk = os.read(fd, 65536)
            if not chunk:
                raise RuntimeError(
                    f"child exited with code {self.proc.wait()}")
            self._buffer += chunk
        line, self._buffer = self._buffer.split(b"\n", 1)
        return json.loads(line)

    def send(self, command: str) -> None:
        self._stdin.write(command.encode() + b"\n")
        self._stdin.flush()

    def ask(self, command: str) -> Dict[str, Any]:
        self.send(command)
        return self.read()

    def close(self, timeout: float = 60.0) -> None:
        """Close stdin (the stop signal) and reap; kill if it hangs."""
        try:
            self._stdin.close()
        except BrokenPipeError:
            pass
        try:
            self.proc.wait(timeout)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


def metric(value: float, unit: str) -> Dict[str, Any]:
    return {"value": float(value), "unit": unit}


class InvalidRun(Exception):
    """The run measured the generator instead of the program."""


# ---------------------------------------------------------------------------
# A workload: served window, then the embedded phase, on one table
# ---------------------------------------------------------------------------


def run_workload(workload: str, seed: int, seconds: float, traced: bool,
                 span_dir: str) -> Tuple[Dict[str, Any], int, int, List[str]]:
    served_s = seconds * SERVED_SHARE
    keys, values = inputs.resident(seed)
    schedule = inputs.served_schedule(seed, served_s, keys)
    raw = [loadgen.encode(request, keys) for request in schedule]
    first = next(i for i, r in enumerate(schedule) if r.measured)
    split = next(i for i, r in enumerate(schedule)
                 if r.due >= inputs.WARMUP_S + served_s / 2)

    argv = [sys.executable, os.path.join(HERE, "server_main.py"),
            "--seed", str(seed), "--trace", str(int(traced)),
            "--span-dir", span_dir]
    if workload == "pool_mixed":
        argv.append("--pool")
    child = Child(argv)
    try:
        ready = child.read()
        setup_s = time.perf_counter() - child.started
        port = ready["port"]
        pids = procstat.tree(child.proc.pid)
        samples: Dict[str, Tuple[float, float, float]] = {}
        snaps: Dict[str, Any] = {}
        tasks: List[asyncio.Task] = []

        def sample(name: str) -> None:
            samples[name] = (asyncio.get_running_loop().time(),
                             procstat.cpu_seconds(pids), loadgen.cpu_self())

        async def start_mark() -> None:
            sample("start")

        async def switch_on() -> None:
            # Replies are read at the end: the sender must not wait here.
            child.send("stats")
            snaps["serve_on"] = json.loads(
                (await loadgen.fetch(port, "/stats"))[1])
            child.send("trace on")

        async def split_mark() -> None:
            sample("split")
            if traced:
                tasks.append(asyncio.get_running_loop().create_task(
                    switch_on()))

        async def end_mark() -> None:
            sample("end")
            snaps["rss"] = procstat.rss_bytes(pids)
            if traced:
                await tasks[0]
                snaps["stats_on"] = child.read()
                snaps["trace_on"] = child.read()
                snaps["trace_off"] = child.ask("trace off")
                snaps["serve_off"] = json.loads(
                    (await loadgen.fetch(port, "/stats"))[1])
                snaps["stats_off"] = child.ask("stats")

        marks = loadgen.Marks(at={first: start_mark, split: split_mark},
                              end=end_mark)
        out, oracle_report = asyncio.run(_drive_and_verify(
            port, schedule, raw, marks, values, keys))
        final = child.ask("stats")
        child.send("embedded " + json.dumps(
            {"seconds": seconds - served_s,
             "slots": oracle_report["written_slots"]}))
        emb = child.read(REPLY_TIMEOUT_S + seconds)
        child.ask("stop")
    finally:
        child.close()

    summary: List[str] = []
    lat: Dict[str, List[float]] = {"lookup": [], "write": []}
    late: List[float] = []
    key_ops = {"a": 0, "b": 0}
    for index, request in enumerate(schedule):
        if not request.measured:
            continue
        late.append((out.sent[index] - out.due[index]) * 1e3)
        if out.status[index] != 200:
            continue
        side = "lookup" if request.kind == "lookup" else "write"
        lat[side].append((out.acked[index] - out.due[index]) * 1e3)
        cost = len(request.slots) if request.slots is not None \
            else len(request.keys)
        key_ops["a" if index < split else "b"] += cost

    start, mid, end = samples["start"], samples["split"], samples["end"]
    wall = end[0] - start[0]
    server_cpu = end[1] - start[1]
    gen_util = (end[2] - start[2]) / wall
    late_p99 = percentile(late, 99)
    attempted = oracle_report["attempted"] + emb["attempted"]
    failed = oracle_report["failed"] + emb["failed"]
    summary.append(
        f"{workload}: {len(lat['lookup'])} lookups, {len(lat['write'])} "
        f"writes measured over {wall:.2f}s; server busy "
        f"{server_cpu / wall:.0%}; generator cpu {gen_util:.0%}, "
        f"send late p99 {late_p99:.3f} ms")
    summary.append(f"embedded: {emb['summary']}")
    summary.append(
        f"error_rate = {failed}/{attempted} (served: "
        f"{oracle_report['failed']}/{oracle_report['attempted']}, "
        f"{oracle_report['detail']}; embedded: "
        f"{emb['failed']}/{emb['attempted']}, {emb['detail']})")
    if late_p99 > LATE_LIMIT_MS:
        raise InvalidRun(f"generator send lateness p99 {late_p99:.2f} ms "
                         f"exceeds {LATE_LIMIT_MS} ms")

    if traced:
        cpu_a = (mid[1] - start[1]) / max(key_ops["a"], 1)
        cpu_b = (end[1] - mid[1]) / max(key_ops["b"], 1)
        metrics, notes = layers.traced(
            workload, span_dir, ready, snaps, emb,
            loadgen_late_p99_ms=late_p99, loadgen_cpu_util=gen_util,
            overhead_pct=100.0 * (cpu_b / cpu_a - 1.0))
        return metrics, attempted, failed, summary + notes

    phases = emb["phases"]
    metrics = {
        "setup_s": metric(setup_s, "s"),
        "lookup_p50_ms": metric(percentile(lat["lookup"], 50), "ms"),
        "lookup_p99_ms": metric(percentile(lat["lookup"], 99), "ms"),
        "write_p50_ms": metric(percentile(lat["write"], 50), "ms"),
        "write_p95_ms": metric(percentile(lat["write"], 95), "ms"),
        "server_cpu_us_per_key": metric(
            server_cpu / (key_ops["a"] + key_ops["b"]) * 1e6, "us"),
        "rss_bytes_per_key": metric(snaps["rss"] / final["keys"], "B"),
        "bits_per_key": metric(final["bits_per_key"], "bit"),
        "lookup_mkeys_s": metric(phases["lookup"]["rate"] / 1e6,
                                 "Mkeys/cpu-s"),
        "update_kops": metric(phases["update"]["rate"] / 1e3, "kops/cpu-s"),
        "churn_kops": metric(phases["churn"]["rate"] / 1e3, "kops/cpu-s"),
        "batch_insert_kops": metric(phases["batch"]["rate"] / 1e3,
                                    "kops/cpu-s"),
    }
    return metrics, attempted, failed, summary


async def _drive_and_verify(port, schedule, raw, marks, values, keys):
    out = await loadgen.drive(port, schedule, raw, marks)
    oracle = loadgen.Oracle(values)
    for index, request in enumerate(schedule):
        if request.kind != "lookup" and not math.isnan(out.sent[index]):
            oracle.record(request, out.sent[index], out.acked[index])
    attempted = failed = 0
    errors: Dict[str, int] = {}

    def fail(kind: str) -> None:
        errors[kind] = errors.get(kind, 0) + 1

    for index, request in enumerate(schedule):
        attempted += 1
        if math.isnan(out.acked[index]):
            fail("timeout")
        elif out.status[index] != 200:
            fail(f"http_{out.status[index]}")
        elif request.kind == "lookup":
            got = json.loads(out.bodies[index])["values"]
            sent, acked = out.sent[index], out.acked[index]
            if any(not oracle.slot_ok(slot, value, sent, acked)
                   for slot, value in zip(request.slots.tolist(), got)):
                fail("wrong_value")
    # Quiesced: every key this run wrote must read its last write.
    slots, slot_allowed, fresh, fresh_allowed = oracle.final_expectations()
    probe = keys[slots].tolist() + fresh
    allowed = slot_allowed + fresh_allowed
    for lo in range(0, len(probe), 1024):
        chunk = probe[lo:lo + 1024]
        status, body = await loadgen.fetch(
            port, "/v1/lookup", {"keys": chunk})
        got = json.loads(body)["values"] if status == 200 else None
        for offset in range(len(chunk)):
            attempted += 1
            if got is None or got[offset] not in allowed[lo + offset]:
                fail("final_value")
    status, body = await loadgen.fetch(port, "/healthz")
    expected_keys = len(values) + len(fresh)
    attempted += 1
    if status != 200 or json.loads(body)["keys"] != expected_keys:
        fail("resident_count")
    failed = sum(errors.values())
    detail = ", ".join(f"{k}={v}" for k, v in sorted(errors.items())) \
        or f"{len(probe)} written keys verified"
    return out, {"attempted": attempted, "failed": failed, "detail": detail,
                 "written_slots": sorted(oracle.versions)}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"no program to measure: {ROOT}/src/repro is missing",
              file=sys.stderr)
        return 2
    span_dir = os.path.join(ROOT, ".perfbench_out", str(os.getpid()))
    invalid: List[str] = []
    try:
        while True:
            shutil.rmtree(span_dir, ignore_errors=True)
            os.makedirs(span_dir)
            try:
                result = run_workload(args.workload, args.seed, args.seconds,
                                      bool(args.trace), span_dir)
                break
            except InvalidRun as exc:
                print(f"invalid run: {exc}", file=sys.stderr)
                invalid.append(str(exc))
                if len(invalid) == ATTEMPTS:
                    return 3
    finally:
        shutil.rmtree(span_dir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(span_dir))
        except OSError:  # another run still uses it
            pass
    metrics, attempted, failed, summary = result
    summary += [f"repeated after an invalid run: {why}" for why in invalid]
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        manifest = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    differ = {(m["name"], m["unit"]) for m in manifest} ^ {
        (name, entry["unit"]) for name, entry in metrics.items()}
    if differ:
        print(f"result and BENCHMARK.json disagree on {sorted(differ)}",
              file=sys.stderr)
        return 4
    for line in summary:
        print(line)
    for name, entry in metrics.items():
        print(f"  {name} = {entry['value']:.6g} {entry['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
