"""Open-loop HTTP load generator and the served workloads' oracle.

One single-threaded asyncio process drives the server over two
keep-alive connections. Requests leave on the precomputed schedule
whether or not earlier ones were answered (open loop), alternating
between the connections and pipelining behind any request still in
flight there; each latency is timed from the request's intended send
time, so a stall also charges the requests queued behind it.

The generator speaks just enough HTTP/1.1 itself (request bodies are
encoded before the clock starts) so that its cost does not move with the
program's own protocol code.
"""

from __future__ import annotations

import asyncio
import json
import math
import resource
from collections import deque
from dataclasses import dataclass
from typing import (Awaitable, Callable, Deque, Dict, List, Optional,
                    Tuple)

import numpy as np

from inputs import Request

CONNECTIONS = 2
#: Seconds after the last scheduled send before an unanswered request
#: counts as timed out.
TIMEOUT_S = 10.0
#: Lead time between opening the connections and the first send.
LEAD_S = 0.2

_PATHS = {"lookup": "/v1/lookup", "update": "/v1/update",
          "insert": "/v1/insert", "delete": "/v1/delete"}


def render(path: str, payload: dict) -> bytes:
    body = json.dumps(payload, separators=(",", ":")).encode()
    return (f"POST {path} HTTP/1.1\r\nHost: bench\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n\r\n").encode() + body


def encode(request: Request, resident_keys: np.ndarray) -> bytes:
    if request.slots is not None:
        keys = resident_keys[request.slots].tolist()
    else:
        keys = request.keys
    payload: dict = {"keys": keys}
    if request.kind in ("update", "insert"):
        payload["values"] = request.values
    return render(_PATHS[request.kind], payload)


async def read_response(reader: asyncio.StreamReader) -> Tuple[int, bytes]:
    head = await reader.readuntil(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    status = int(lines[0].split(" ")[1])
    length = 0
    for line in lines[1:]:
        name, _, value = line.partition(":")
        if name.strip().lower() == "content-length":
            length = int(value)
    body = await reader.readexactly(length) if length else b""
    return status, body


async def fetch(port: int, path: str, payload: Optional[dict] = None,
                ) -> Tuple[int, bytes]:
    """One request on its own connection (control traffic, not load)."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        if payload is None:
            writer.write(f"GET {path} HTTP/1.1\r\nHost: bench\r\n"
                         "Connection: close\r\n\r\n".encode())
        else:
            writer.write(render(path, payload))
        await writer.drain()
        return await read_response(reader)
    finally:
        writer.close()


@dataclass
class Outcome:
    """What happened to every scheduled request."""

    due: np.ndarray
    sent: np.ndarray
    acked: np.ndarray
    status: np.ndarray
    bodies: List[Optional[bytes]]


@dataclass
class Marks:
    """Callbacks the sender runs at fixed points of the schedule.

    ``at`` maps a schedule index to a coroutine function run just before
    that request leaves (the window start, a phase boundary); ``end``
    runs once every measured request has been answered.
    """

    at: Dict[int, Callable[[], Awaitable[None]]]
    end: Callable[[], Awaitable[None]]


async def drive(port: int, schedule: List[Request], raw: List[bytes],
                marks: Marks) -> Outcome:
    loop = asyncio.get_running_loop()
    n = len(schedule)
    out = Outcome(due=np.zeros(n), sent=np.full(n, math.nan),
                  acked=np.full(n, math.nan), status=np.zeros(n, np.int32),
                  bodies=[None] * n)
    answered: Dict[int, asyncio.Future[None]] = {
        request.after: loop.create_future()
        for request in schedule if request.after >= 0}
    remaining = [n]
    all_done = loop.create_future()

    conns = [await asyncio.open_connection("127.0.0.1", port)
             for _ in range(CONNECTIONS)]
    pending: List[Deque[int]] = [deque() for _ in conns]

    async def receive(slot: int) -> None:
        reader = conns[slot][0]
        queue = pending[slot]
        while True:
            try:
                status, body = await read_response(reader)
            except (asyncio.IncompleteReadError, ConnectionError):
                return
            index = queue.popleft()
            out.acked[index] = loop.time()
            out.status[index] = status
            out.bodies[index] = body
            waiter = answered.get(index)
            if waiter is not None and not waiter.done():
                waiter.set_result(None)
            remaining[0] -= 1
            if not remaining[0] and not all_done.done():
                all_done.set_result(None)

    receivers = [loop.create_task(receive(i)) for i in range(len(conns))]
    start = loop.time() + LEAD_S
    try:
        for index, request in enumerate(schedule):
            due = start + request.due
            out.due[index] = due
            hook = marks.at.get(index)
            if hook is not None:
                await hook()
            delay = due - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            if request.after >= 0:
                # An insert never answered leaves its delete to fail.
                await asyncio.wait(
                    [answered[request.after]], timeout=TIMEOUT_S)
            slot = index % len(conns)
            pending[slot].append(index)
            conns[slot][1].write(raw[index])
            out.sent[index] = loop.time()
        try:
            await asyncio.wait_for(asyncio.shield(all_done), TIMEOUT_S)
        except asyncio.TimeoutError:
            pass
        await marks.end()
    finally:
        for task in receivers:
            task.cancel()
        await asyncio.gather(*receivers, return_exceptions=True)
        for _, writer in conns:
            writer.close()
    return out


def cpu_self() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


class Oracle:
    """Expected values of every resident and fresh key over time.

    Each write is a version ``(value, sent, acked)`` of its keys. A
    lookup answered between ``sent`` and ``acked`` may see any version
    not already overwritten before it was sent, where "already
    overwritten" means a later write was sent after the earlier one was
    answered and was itself answered before the lookup left.
    """

    def __init__(self, resident_values: np.ndarray) -> None:
        self.initial = resident_values
        self.versions: Dict[int, List[Tuple[int, float, float]]] = {}
        self.fresh: Dict[int, List[Tuple[int, float, float]]] = {}
        self.deleted: set = set()

    def record(self, request: Request, sent: float, acked: float) -> None:
        if math.isnan(acked):  # never answered: in flight for good
            acked = math.inf
        if request.kind == "update":
            for slot, value in zip(request.slots.tolist(), request.values):
                self.versions.setdefault(slot, []).append(
                    (value, sent, acked))
        elif request.kind == "insert":
            for key, value in zip(request.keys, request.values):
                self.fresh.setdefault(key, []).append((value, sent, acked))
        elif request.kind == "delete":
            self.deleted.update(request.keys)

    @staticmethod
    def _allowed(history: List[Tuple[int, float, float]],
                 sent: float) -> set:
        allowed = set()
        for i, (value, _, v_acked) in enumerate(history):
            overwritten = any(
                w_sent >= v_acked and w_acked <= sent
                for j, (_, w_sent, w_acked) in enumerate(history) if j != i)
            if not overwritten:
                allowed.add(value)
        return allowed

    def slot_ok(self, slot: int, value: int, sent: float,
                acked: float) -> bool:
        history = self.versions.get(slot)
        initial = int(self.initial[slot])
        if not history:
            return value == initial
        full = [(initial, -math.inf, -math.inf)] + [
            version for version in history if version[1] <= acked]
        return value in self._allowed(full, sent)

    def final_expectations(self) -> Tuple[List[int], List[set], List[int],
                                          List[set]]:
        """Keys the run wrote that are still resident, with the values a
        quiesced table may return for each."""
        slots, slot_allowed = [], []
        for slot, history in self.versions.items():
            full = [(int(self.initial[slot]), -math.inf, -math.inf)] + history
            slots.append(slot)
            slot_allowed.append(self._allowed(full, math.inf))
        keys, key_allowed = [], []
        for key, history in self.fresh.items():
            if key not in self.deleted:
                keys.append(key)
                key_allowed.append(self._allowed(history, math.inf))
        return slots, slot_allowed, keys, key_allowed
