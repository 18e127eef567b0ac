"""Shared-materialization sources and the fused effect sink.

Two operator families introduced by tick-wide multi-query optimization
(:mod:`repro.engine.optimizer.mqo`):

* :class:`MaterializedSourceOp` / :class:`BatchSharedSourceOp` — leaves
  that serve a shared subplan's once-per-tick materialization to a
  consumer, on the row and columnar paths respectively.  The row source
  honours the source-operator ownership contract (see
  :mod:`repro.engine.operators.scan`): every consumer receives fresh
  dicts.  The batch source shares the materialized column lists directly
  — batches are immutable by convention — so columnar consumers pay
  nothing per row.

* :class:`EffectSinkOp` — the paper's observation that effect combination
  *is* an aggregate query, pushed into the engine: instead of returning
  one row per effect assignment for the runtime to fold one
  ``EffectAssignment`` at a time, the sink groups its input by target id
  and combines the values with the effect's declared ⊕ combinator
  in-plan, handing the runtime one partial
  :class:`~repro.engine.aggregates.Accumulator` per target.  Partials
  merge exactly (``Accumulator.merge``), so multiple scripts writing the
  same effect still combine correctly at the store.  Over a batch-rooted
  child the sink reads the target/value columns directly — no row dicts
  are ever materialized for fused queries.

Order discipline: accumulation happens in the child's row order and the
runtime merges partials in tick query order, so results are deterministic
and — within one query — fold floats in exactly the unfused sequence.
When *several* fused queries write the same ``(target, effect)``, merging
their partials reassociates float addition (``(q1) + (q2)`` instead of
one left fold), so sums may differ from the unfused path by rounding
error — the same caveat partitioned parallel folding already carries.
Order-*sensitive* combinators (``first``/``last``/``collect``) are never
sink-fused — the runtime keeps those queries on the row-at-a-time effect
path.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Iterator

from repro.engine.aggregates import Accumulator, make_accumulator
from repro.engine.batch import ColumnBatch
from repro.engine.errors import ExecutionError
from repro.engine.expressions import resolve_batch_column
from repro.engine.operators.base import PhysicalOperator
from repro.engine.operators.batch_ops import BatchBridgeOp, BatchOperator
from repro.engine.schema import Schema

__all__ = [
    "MaterializedSourceOp",
    "BatchSharedSourceOp",
    "EffectSinkOp",
    "EffectPartial",
]

#: One fused group: ``(target id, partial accumulator, raw assignment count)``.
EffectPartial = tuple[Any, Accumulator, int]


class MaterializedSourceOp(PhysicalOperator):
    """Row-path leaf serving a shared subplan's materialized result.

    ``fetch`` returns caller-owned row dicts (the executor copies — or
    materializes fresh from the shared batch — per consumer), so the
    source-operator ownership contract holds: downstream operators may
    adopt the dicts they receive.
    """

    def __init__(
        self,
        schema: Schema,
        fetch: Callable[[], list[dict[str, Any]]],
        fingerprint: str = "",
    ):
        super().__init__(schema)
        self._fetch = fetch
        self.fingerprint = fingerprint

    def _produce(self) -> Iterator[dict[str, Any]]:
        yield from self._fetch()

    def label(self) -> str:
        short = self.fingerprint[:24]
        return f"MaterializedSource({short}…)" if len(self.fingerprint) > 24 else f"MaterializedSource({short})"


class BatchSharedSourceOp(BatchOperator):
    """Batch-path leaf serving a shared subplan's materialized batch.

    The returned batch shares the materialization's value lists (renamed
    per consumer aliasing at zero per-row cost); batch operators never
    mutate input columns, so one materialization serves every columnar
    consumer of the tick.
    """

    def __init__(
        self,
        schema: Schema,
        names: tuple[str, ...],
        fetch: Callable[[], ColumnBatch],
        fingerprint: str = "",
    ):
        super().__init__(schema, names)
        self._fetch = fetch
        self.fingerprint = fingerprint

    def execute(self) -> ColumnBatch:
        return self._fetch()

    def label(self) -> str:
        short = self.fingerprint[:24]
        return f"BatchSharedSource({short}…)" if len(self.fingerprint) > 24 else f"BatchSharedSource({short})"


class EffectSinkOp(PhysicalOperator):
    """Fused effect aggregation: group by target id, combine in-plan.

    ``partials`` is the primary interface (used by
    :meth:`Executor.execute_tick`); iterating the operator yields one
    combined row per target, which keeps ``explain`` and ad-hoc execution
    working.  Targets appear in first-assignment order and values are
    folded in child row order.
    """

    def __init__(
        self,
        child: PhysicalOperator,
        combinator: str,
        target_column: str,
        value_column: str,
    ):
        super().__init__(child.schema, (child,))
        make_accumulator(combinator)  # validate eagerly
        self.combinator = combinator
        self.target_column = target_column
        self.value_column = value_column

    # -- fused execution ---------------------------------------------------------------

    def partials(self) -> list[EffectPartial]:
        """Execute the child and return one partial accumulator per target."""
        self.executions += 1
        child = self.children[0]
        if isinstance(child, BatchBridgeOp):
            # Columnar fast path: read the two columns straight out of the
            # batch — no row dicts at all for fused queries.
            batch = child.batch_root.execute()
            target_name = resolve_batch_column(self.target_column, batch.names)
            value_name = resolve_batch_column(self.value_column, batch.names)
            if target_name is None or value_name is None:
                raise ExecutionError(
                    f"effect sink cannot resolve {self.target_column!r}/"
                    f"{self.value_column!r} in batch {list(batch.names)[:8]}"
                )
            target_col = batch.columns[target_name]
            value_col = batch.columns[value_name]
            pairs = ((target_col[i], value_col[i]) for i in batch.indices())
        else:
            pairs = (
                (row[self.target_column], row[self.value_column]) for row in child
            )
        out = _fold_pairs(pairs, self.combinator)
        self.rows_produced += len(out)
        return out

    # -- generic operator interface -------------------------------------------------------

    def _produce(self) -> Iterator[dict[str, Any]]:
        for target, accumulator, _count in self.partials():
            yield {self.target_column: target, self.value_column: accumulator.result()}

    def label(self) -> str:
        return f"EffectSink({self.combinator} by {self.target_column})"


def _fold_pairs(pairs: Iterable[tuple[Any, Any]], combinator: str) -> list[EffectPartial]:
    """Group ``(target, value)`` pairs and fold each group's values in
    arrival order.  The single fold discipline behind every fused path —
    counts include ``None``-valued assignments (the accumulator skips
    them but the debugger's per-NPC counts must match the row-at-a-time
    store exactly), targets keep first-assignment order."""
    groups: dict[Any, Accumulator] = {}
    counts: dict[Any, int] = {}
    for target, value in pairs:
        accumulator = groups.get(target)
        if accumulator is None:
            accumulator = make_accumulator(combinator)
            groups[target] = accumulator
            counts[target] = 0
        accumulator.add(value)
        counts[target] += 1
    return [(target, acc, counts[target]) for target, acc in groups.items()]

