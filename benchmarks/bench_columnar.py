"""E13 — columnar batch execution vs. row-at-a-time execution.

The tick loop executes the same queries every tick over memory-resident
tables; the row-at-a-time iterator model pays one dict materialization per
row per operator for that.  The batch path (``repro/engine/batch.py``,
``repro/engine/operators/batch_ops.py``) runs batch-capable subtrees over
shared column lists with compiled predicates instead.

Three measurements:

* the hot tick-query shape (filter + grouped aggregate over 10k rows),
  where the acceptance bar is a >= 2x speedup for the batch path,
* the Figure-2 accumulation loop (``count_neighbours``), where the band
  join itself stays on the grid-accelerated row path and batching covers
  the scan/filter/aggregate legs around it,
* the full game tick, where physics and the update step bound the
  achievable win (see docs/PERFORMANCE.md for the breakdown).
"""

from __future__ import annotations

import random
import time

import pytest

from repro import ExecutionMode
from repro.engine.algebra import Aggregate, AggregateSpec, Select, TableScan
from repro.engine.catalog import Catalog
from repro.engine.config import EngineConfig
from repro.engine.executor import Executor
from repro.engine.expressions import col, lit
from repro.engine.schema import Column, Schema
from repro.engine.types import DataType
from repro.workloads import build_rts_world

N_ROWS = 10_000


def _units_catalog(n_rows: int = N_ROWS, seed: int = 42) -> Catalog:
    rng = random.Random(seed)
    catalog = Catalog()
    units = catalog.create_table(
        "units",
        Schema(
            [
                Column("id", DataType.NUMBER),
                Column("player", DataType.NUMBER),
                Column("x", DataType.NUMBER),
                Column("y", DataType.NUMBER),
                Column("health", DataType.NUMBER),
            ]
        ),
    )
    for i in range(n_rows):
        units.insert(
            {
                "id": i,
                "player": i % 4,
                "x": rng.uniform(0, 100),
                "y": rng.uniform(0, 100),
                "health": rng.uniform(0, 100),
            }
        )
    return catalog


def _tick_query() -> Aggregate:
    """The hot tick-query shape: filter the world, aggregate per player."""
    return Aggregate(
        Select(
            TableScan("units"),
            col("x").gt(lit(25.0)).and_(col("health").gt(lit(10.0))),
        ),
        ["player"],
        [AggregateSpec("n", "count"), AggregateSpec("total_hp", "sum", col("health"))],
    )


def _best_of(fn, repetitions: int = 7) -> float:
    best = float("inf")
    for _ in range(repetitions):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_batch_speedup_filter_aggregate_10k():
    """Acceptance: >= 2x on a 10k-row filter+aggregate tick query."""
    catalog = _units_catalog()
    plan = _tick_query()
    row_exec = Executor(catalog, config=EngineConfig(use_batch=False))
    batch_exec = Executor(catalog, config=EngineConfig(use_batch=True))
    assert batch_exec.prepare(plan).uses_batch
    assert not row_exec.prepare(plan).uses_batch
    # Results must agree before timings mean anything.
    row_rows = sorted(row_exec.execute(plan).rows, key=lambda r: r["player"])
    batch_rows = sorted(batch_exec.execute(plan).rows, key=lambda r: r["player"])
    assert row_rows == batch_rows

    row_time = _best_of(lambda: row_exec.execute(plan))
    batch_time = _best_of(lambda: batch_exec.execute(plan))
    speedup = row_time / batch_time
    print(
        f"\n10k-row filter+aggregate: row {row_time * 1e3:.2f}ms, "
        f"batch {batch_time * 1e3:.2f}ms, speedup {speedup:.1f}x"
    )
    assert speedup >= 2.0, f"batch path only {speedup:.2f}x faster"


@pytest.mark.benchmark(group="E13-columnar-query")
def test_filter_aggregate_batch(benchmark):
    catalog = _units_catalog()
    executor = Executor(catalog, config=EngineConfig(use_batch=True))
    plan = _tick_query()
    executor.execute(plan)  # warm the plan cache and the columnar snapshot
    benchmark(lambda: executor.execute(plan))


@pytest.mark.benchmark(group="E13-columnar-query")
def test_filter_aggregate_row(benchmark):
    catalog = _units_catalog()
    executor = Executor(catalog, config=EngineConfig(use_batch=False))
    plan = _tick_query()
    executor.execute(plan)
    benchmark(lambda: executor.execute(plan))


def _fig2_world(use_batch: bool, n: int = 300):
    return build_rts_world(
        n,
        mode=ExecutionMode.COMPILED,
        with_physics=False,
        scripts=["count_neighbours"],
        config=EngineConfig(use_batch=use_batch),
    )


@pytest.mark.benchmark(group="E13-columnar-fig2")
def test_fig2_accum_loop_batch(benchmark):
    world = _fig2_world(use_batch=True)
    world.tick()
    benchmark(world.tick)


@pytest.mark.benchmark(group="E13-columnar-fig2")
def test_fig2_accum_loop_row(benchmark):
    world = _fig2_world(use_batch=False)
    world.tick()
    benchmark(world.tick)


@pytest.mark.benchmark(group="E13-columnar-full-tick")
def test_full_game_tick_batch(benchmark):
    world = build_rts_world(200, mode=ExecutionMode.COMPILED)
    world.tick()
    benchmark(world.tick)


@pytest.mark.benchmark(group="E13-columnar-full-tick")
def test_full_game_tick_row(benchmark):
    world = build_rts_world(
        200, mode=ExecutionMode.COMPILED, config=EngineConfig(use_batch=False)
    )
    world.tick()
    benchmark(world.tick)
