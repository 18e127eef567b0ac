"""Layer-boundary spans recorded from outside the engine.

The traced run wraps one public entry point per layer (the SGL front end,
the optimizer, the executor, the index probes, the advisor, the effect
combiner, the update components, the subscription flush and the WAL) with a
timing wrapper.  Spans nest: a span's *self* time is its duration minus the
time of the spans opened inside it, so nested layers are never counted
twice.  Spans are kept in memory as per-name totals; nothing is written out
while a tick runs.

Index probes return generators that the join operators drain completely;
the wrapper drains the generator inside the span so that probe time is
charged to the index and not to whichever operator pulls the rows.
"""

from __future__ import annotations

import time
from collections import defaultdict
from typing import Any, Callable


def _targets() -> list[tuple[Any, str, str, str]]:
    """``(owner, attribute, span name, kind)`` for every wrapped entry point."""
    from repro.engine.executor import Executor
    from repro.engine.indexes.grid_index import GridIndex
    from repro.engine.indexes.hash_index import HashIndex
    from repro.engine.indexes.kdtree import KdTreeIndex
    from repro.engine.indexes.range_tree import RangeTreeIndex
    from repro.engine.indexes.sorted_index import SortedIndex
    from repro.engine.optimizer.adaptive import IndexAdvisor
    from repro.persistence.log import WorldWal
    from repro.runtime import world as world_module
    from repro.runtime.effects import EffectStore
    from repro.runtime.physics import PhysicsComponent
    from repro.runtime.transactions import TransactionEngine
    from repro.runtime.updates import OwnershipRegistry
    from repro.service.subscriptions import SubscriptionManager
    from repro.sgl.compiler import SGLCompiler

    targets = [
        (world_module, "parse_program", "sgl.compile", "call"),
        (world_module, "analyze_program", "sgl.compile", "call"),
        (SGLCompiler, "compile_program", "sgl.compile", "call"),
        (Executor, "prepare", "optimizer.prepare", "call"),
        (Executor, "prepare_tick", "optimizer.prepare", "call"),
        (Executor, "execute_tick", "executor.execute_tick", "call"),
        (IndexAdvisor, "end_tick", "advisor.end_tick", "call"),
        (EffectStore, "combine", "effects.combine", "combine"),
        (OwnershipRegistry, "compute_all", "updates.compute", "call"),
        (PhysicsComponent, "compute_updates", "physics.compute", "call"),
        (TransactionEngine, "compute_updates", "tx.compute", "call"),
        (SubscriptionManager, "flush", "sub.flush", "call"),
        (WorldWal, "commit_tick", "wal.commit", "call"),
        (WorldWal, "checkpoint", "wal.checkpoint", "call"),
    ]
    for index_class in (GridIndex, HashIndex, SortedIndex, KdTreeIndex, RangeTreeIndex):
        targets.append((index_class, "range_search", "index.probe", "probe"))
    return targets


class SpanRecorder:
    """Per-name self time, call counts and row counts of wrapped layer calls."""

    def __init__(self) -> None:
        self.self_seconds: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        #: ``index.probe`` → row ids returned; ``effects.combine`` → effect
        #: rows folded into the combined effects.
        self.rows: dict[str, int] = defaultdict(int)
        #: Open spans: ``[name, start, seconds covered by child spans]``.
        self._stack: list[list[Any]] = []
        self._saved: list[tuple[Any, str, Any]] = []

    def reset(self) -> None:
        self.self_seconds.clear()
        self.calls.clear()
        self.rows.clear()

    # -- span bookkeeping ------------------------------------------------------------

    def _open(self, name: str) -> None:
        self._stack.append([name, time.perf_counter(), 0.0])

    def _close(self) -> None:
        name, start, children = self._stack.pop()
        duration = time.perf_counter() - start
        self.self_seconds[name] += duration - children
        self.calls[name] += 1
        if self._stack:
            self._stack[-1][2] += duration

    def _wrap(self, original: Callable, name: str, kind: str) -> Callable:
        recorder = self

        if kind == "probe":

            def wrapper(*args: Any, **kwargs: Any) -> Any:
                recorder._open(name)
                try:
                    rowids = list(original(*args, **kwargs))
                finally:
                    recorder._close()
                recorder.rows[name] += len(rowids)
                return iter(rowids)

        elif kind == "combine":

            def wrapper(*args: Any, **kwargs: Any) -> Any:
                recorder._open(name)
                try:
                    combined = original(*args, **kwargs)
                finally:
                    recorder._close()
                recorder.rows[name] += combined.total_assignments()
                return combined

        else:

            def wrapper(*args: Any, **kwargs: Any) -> Any:
                recorder._open(name)
                try:
                    return original(*args, **kwargs)
                finally:
                    recorder._close()

        wrapper.__wrapped__ = original  # type: ignore[attr-defined]
        return wrapper

    # -- installation ----------------------------------------------------------------

    def install(self) -> None:
        """Wrap every target; :meth:`uninstall` restores the originals."""
        if self._saved:
            return
        for owner, attribute, name, kind in _targets():
            original = owner.__dict__[attribute]
            self._saved.append((owner, attribute, original))
            setattr(owner, attribute, self._wrap(original, name, kind))

    def uninstall(self) -> None:
        while self._saved:
            owner, attribute, original = self._saved.pop()
            setattr(owner, attribute, original)
