"""Span recorder: times the program's layers from outside.

:func:`install` wraps public functions of ``repro`` in place, so the
code under ``src/`` is unchanged. Each wrapped call records a span
``(name, start_ns, end_ns, parent, size)`` in memory; ``parent`` is the
index of the enclosing wrapped call on the same thread, so a layer's
self time is its duration minus its children's. ``size`` is the number
of keys the call handled, where that is defined.

Recording is switched by a flag in shared memory, so pool workers forked
after :func:`install` follow the switch of the process that forked them.
Spans stay in memory until :meth:`Recorder.dump` writes them out; a pool
worker dumps its own when its serving loop returns, which happens inside
``WorkerPool.stop()``.
"""

from __future__ import annotations

import functools
import json
import multiprocessing
import os
import threading
from time import perf_counter_ns
from typing import Any, Callable, Dict, List, Optional, Tuple

Span = Tuple[str, int, int, int, int]


def _arg_len(position: int) -> Callable[[Tuple[Any, ...]], int]:
    """Key count of a call = length of its ``position``-th argument."""
    return lambda args: len(args[position])


class Recorder:
    """In-memory spans of one process, behind a cross-process switch."""

    def __init__(self) -> None:
        self._flag = multiprocessing.RawValue("b", 0)
        self._local = threading.local()
        self.spans: List[Optional[Span]] = []
        # Async submit spans: (start, end, flush span index, shed).
        self.submits: List[Tuple[int, int, int, bool]] = []
        self.flush_of: Dict[int, int] = {}

    @property
    def on(self) -> bool:
        return bool(self._flag.value)

    def switch(self, on: bool) -> None:
        self._flag.value = 1 if on else 0

    def clear(self) -> None:
        self.spans = []
        self.submits = []
        self.flush_of = {}
        self._local = threading.local()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn: Callable[..., Any],
             size: Optional[Callable[[Tuple[Any, ...]], int]] = None,
             ) -> Callable[..., Any]:
        """``fn`` recording a span named ``name`` while the switch is on.

        ``size`` maps the call's positional arguments to its key count.
        """
        flag = self._flag

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if not flag.value:
                return fn(*args, **kwargs)
            stack = self._stack()
            spans = self.spans
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                spans[index] = (name, start, end, parent,
                                size(args) if size is not None else 0)

        return wrapper

    def dump(self, path: str) -> None:
        """Write the recorded spans to ``path`` as JSON."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"pid": os.getpid(), "spans": self.spans,
                       "submits": self.submits}, handle)


def install(rec: Recorder, span_dir: str) -> None:
    """Wrap every traced layer of ``repro``; call once per process."""
    import repro.core.embedder as embedder_mod
    import repro.core.engine as engine_mod
    import repro.core.sharded as sharded_mod
    import repro.hashing as hashing_mod
    import repro.hashing.family as family_mod
    import repro.serve.batcher as batcher_mod
    import repro.serve.pool as pool_mod
    import repro.serve.server as server_mod
    from repro.core.shared_planes import SharedPlanes
    from repro.core.update import UpdatePlan
    from repro.core.value_table import ValueTable
    from repro.table import ValueOnlyTable

    w = rec.wrap
    # hashing: every module-level binding of keys_to_u64_batch.
    canon = w("hashing.keys_to_u64_batch", family_mod.keys_to_u64_batch,
              _arg_len(0))
    for module in (hashing_mod, family_mod, embedder_mod, sharded_mod):
        module.keys_to_u64_batch = canon
    HashFamily = family_mod.HashFamily
    HashFamily.indices_batch = w("hashing.indices_batch",
                                 HashFamily.indices_batch, _arg_len(1))
    ValueTable.gather_xor = w("core.value_table.gather_xor",
                              ValueTable.gather_xor,
                              lambda args: args[1].shape[1])

    # core.sharded
    Sharded = sharded_mod.ShardedEmbedder
    Sharded.lookup_many = w("core.sharded.lookup_many",
                            ValueOnlyTable.lookup_many, _arg_len(1))
    for attr, size in (("lookup_batch", _arg_len(1)),
                       ("insert_batch", _arg_len(1)),
                       ("update", None), ("delete", None)):
        setattr(Sharded, attr,
                w(f"core.sharded.{attr}", getattr(Sharded, attr), size))
    route = w("core.sharded.route_handles", sharded_mod.route_handles,
              _arg_len(0))
    sharded_mod.route_handles = route
    pool_mod.route_handles = route

    # core.embedder, core.update, core.engine, core.static_build
    Embedder = embedder_mod.VisionEmbedder
    for attr, size in (("insert_batch", _arg_len(1)), ("insert", None),
                       ("update", None), ("delete", None),
                       ("bulk_load", None)):
        setattr(Embedder, attr,
                w(f"core.embedder.{attr}", getattr(Embedder, attr), size))
    embedder_mod.search_update_path = w("core.update.search_update_path",
                                        embedder_mod.search_update_path)
    UpdatePlan.apply = w("core.update.apply", UpdatePlan.apply)
    for engine_cls in engine_mod.ExecutionEngine.__subclasses__():
        engine_cls.insert_batch = w("core.engine.insert_batch",
                                    engine_cls.insert_batch, _arg_len(2))
    embedder_mod.static_build_arrays = w("core.static_build.peel",
                                         embedder_mod.static_build_arrays)
    engine_mod.peel_rounds_masked = w("core.static_build.peel",
                                      engine_mod.peel_rounds_masked)

    # core.shared_planes: outermost begin_update -> end_update is a hold.
    SharedPlanes.read_stable = w("core.shared_planes.read_stable",
                                 SharedPlanes.read_stable)
    _install_write_hold(rec, SharedPlanes)

    # serve.pool
    WorkerTable = pool_mod.WorkerTable
    WorkerTable.rpc_call = w("serve.pool.rpc_call", WorkerTable.rpc_call)
    worker_main = pool_mod._worker_main

    def traced_worker_main(*args: Any, **kwargs: Any) -> None:
        # A forked worker inherits the owner's spans; keep only its own.
        rec.clear()
        try:
            worker_main(*args, **kwargs)
        finally:
            rec.dump(os.path.join(span_dir, f"spans-{os.getpid()}.json"))

    pool_mod._worker_main = traced_worker_main

    # serve.protocol, as bound in the server module.
    for attr in ("json_body", "parse_keys", "parse_pairs", "dump_json",
                 "render_http_response"):
        setattr(server_mod, attr,
                w(f"serve.protocol.{attr}", getattr(server_mod, attr)))

    # serve.batcher: submit (async) and the flush handler it is built with.
    _install_batcher(rec, batcher_mod.MicroBatcher, batcher_mod.Overloaded)


def _install_write_hold(rec: Recorder, planes_cls: Any) -> None:
    begin, end = planes_cls.begin_update, planes_cls.end_update
    depth: Dict[int, Tuple[int, int]] = {}

    def begin_update(self: Any) -> None:
        count, start = depth.get(id(self), (0, 0))
        begin(self)
        depth[id(self)] = (count + 1, start if count else perf_counter_ns())

    def end_update(self: Any) -> None:
        end(self)
        count, start = depth.pop(id(self), (1, 0))
        if count > 1:
            depth[id(self)] = (count - 1, start)
        elif rec.on and start:
            rec.spans.append(("core.shared_planes.write_hold", start,
                              perf_counter_ns(), -1, 0))

    planes_cls.begin_update = begin_update
    planes_cls.end_update = end_update


def _install_batcher(rec: Recorder, batcher_cls: Any,
                     overloaded: type) -> None:
    init, submit = batcher_cls.__init__, batcher_cls.submit

    def traced_init(self: Any, handler: Callable[..., Any],
                    *args: Any, **kwargs: Any) -> None:
        flush = rec.wrap("serve.batcher.flush", handler,
                         lambda args: sum(op.cost for op in args[0]))

        def traced_handler(batch: List[Any]) -> List[Any]:
            if rec.on:
                index = len(rec.spans)
                for op in batch:
                    rec.flush_of[id(op)] = index
            return flush(batch)

        init(self, traced_handler, *args, **kwargs)

    async def traced_submit(self: Any, op: Any) -> Any:
        if not rec.on:
            return await submit(self, op)
        start = perf_counter_ns()
        shed = False
        try:
            return await submit(self, op)
        except overloaded:
            shed = True
            raise
        finally:
            rec.submits.append((start, perf_counter_ns(),
                                rec.flush_of.pop(id(op), -1), shed))

    batcher_cls.__init__ = traced_init
    batcher_cls.submit = traced_submit
