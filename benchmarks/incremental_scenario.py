"""Shared low-churn tick scenario for the batch and kernel benchmarks.

One table of ``N_ROWS`` units, a hot tick-query (filter + grouped
aggregate), and a deterministic churn step that touches ``CHURN_FRACTION``
of the rows per tick (plus a trickle of inserts/deletes).  Used by
``ci_bench.py`` (the batch-vs-row gate) and ``bench_compiled.py`` (the
compiled filter+aggregate kernel), so both measure the same workload.
"""

from __future__ import annotations

import random

from repro.engine.algebra import Aggregate, AggregateSpec, Select, TableScan
from repro.engine.catalog import Catalog
from repro.engine.expressions import col, lit
from repro.engine.schema import Column, Schema
from repro.engine.table import Table
from repro.engine.types import DataType

N_ROWS = 10_000
N_ZONES = 100
CHURN_FRACTION = 0.01  # 1% of rows per tick — "low churn" (≤ 5%)
SEED = 42


def build_units_catalog(n_rows: int = N_ROWS, seed: int = SEED) -> tuple[Catalog, Table]:
    rng = random.Random(seed)
    catalog = Catalog()
    units = catalog.create_table(
        "units",
        Schema(
            [
                Column("id", DataType.NUMBER),
                Column("zone", DataType.NUMBER),
                Column("x", DataType.NUMBER),
                Column("health", DataType.NUMBER),
            ]
        ),
    )
    for i in range(n_rows):
        units.insert(
            {
                "id": i,
                "zone": i % N_ZONES,
                "x": rng.uniform(0, 100),
                "health": rng.uniform(0, 100),
            }
        )
    return catalog, units


def tick_query() -> Aggregate:
    """The hot tick-query shape: filter the world, aggregate per zone."""
    return Aggregate(
        Select(
            TableScan("units"),
            col("x").gt(lit(25.0)).and_(col("health").gt(lit(10.0))),
        ),
        ["zone"],
        [
            AggregateSpec("n", "count"),
            AggregateSpec("total_hp", "sum", col("health")),
        ],
    )


def churn_step(units: Table, rng: random.Random, tick: int, fraction: float = CHURN_FRACTION) -> None:
    """Mutate ``fraction`` of the rows, plus an occasional insert/delete."""
    rowids = list(units.row_ids())
    for rowid in rng.sample(rowids, max(1, int(len(rowids) * fraction))):
        units.update(
            rowid, {"x": rng.uniform(0, 100), "health": rng.uniform(0, 100)}
        )
    if tick % 3 == 0:
        units.insert(
            {
                "id": 1_000_000 + tick,
                "zone": rng.randrange(N_ZONES),
                "x": rng.uniform(0, 100),
                "health": rng.uniform(0, 100),
            }
        )
        units.delete(rng.choice(rowids))
