"""Shared moving-units band-join scenario for the index-join benchmarks.

A population of ``N_UNITS`` units at ~1% churn per tick, probed by a small
squad of ``N_SCOUTS`` scouts that runs the Figure-2 band join against the
whole population each tick ("report every unit within my range").  The
units table carries a registered :class:`GridIndex` over ``(x, y)`` —
maintained O(1) per mutation — so the same catalog serves three paths:

* **indexed** — the planner probes the persistent grid
  (``BatchIndexProbeJoinOp``); the inner side is never rescanned, so per-tick
  join cost is O(scouts · candidates), independent of the population,
* **rebuild** — ``use_indexes=False``: the planner's fallback
  (``RangeProbeJoinOp``) materializes the inner side and rebuilds a
  transient grid on every execution — O(population) per tick,
* **row** — additionally ``use_batch=False``: the rebuild path with
  row-at-a-time scan legs.

Used by ``bench_index_join.py`` (pytest gate: indexed ≥ 3x vs rebuild) and
``ci_bench.py`` (the CI benchmark/regression pipeline), so the two always
measure the same workload.
"""

from __future__ import annotations

import random

from repro.engine.algebra import Join, Select, TableScan
from repro.engine.catalog import Catalog
from repro.engine.expressions import and_all, col
from repro.engine.indexes import GridIndex
from repro.engine.schema import Column, Schema
from repro.engine.table import Table
from repro.engine.types import DataType

N_UNITS = 10_000
N_SCOUTS = 150
RADIUS_CHOICES = (1.5, 2.0, 2.5)
WORLD_SIZE = 100.0
CELL_SIZE = 2.0  # ~ half the typical probe width (2 * radius)
CHURN_FRACTION = 0.01  # 1% of units move per tick
SCOUT_CHURN_FRACTION = 0.25  # scouts are on the move
SEED = 77


def build_band_catalog(
    n_units: int = N_UNITS, n_scouts: int = N_SCOUTS, seed: int = SEED
) -> tuple[Catalog, Table, Table]:
    rng = random.Random(seed)
    catalog = Catalog()
    units = catalog.create_table(
        "unit",
        Schema(
            [
                Column("id", DataType.NUMBER, nullable=False),
                Column("player", DataType.NUMBER),
                Column("x", DataType.NUMBER),
                Column("y", DataType.NUMBER),
            ]
        ),
    )
    for i in range(n_units):
        units.insert(
            {
                "id": i,
                "player": i % 2,
                "x": rng.uniform(0, WORLD_SIZE),
                "y": rng.uniform(0, WORLD_SIZE),
            }
        )
    scouts = catalog.create_table(
        "scout",
        Schema(
            [
                Column("id", DataType.NUMBER, nullable=False),
                Column("x", DataType.NUMBER),
                Column("y", DataType.NUMBER),
                Column("range", DataType.NUMBER),
            ]
        ),
    )
    for i in range(n_scouts):
        scouts.insert(
            {
                "id": i,
                "x": rng.uniform(0, WORLD_SIZE),
                "y": rng.uniform(0, WORLD_SIZE),
                "range": rng.choice(RADIUS_CHOICES),
            }
        )
    catalog.create_index("unit", "unit_xy_grid", GridIndex(["x", "y"], cell_size=CELL_SIZE))
    return catalog, units, scouts


def band_join_query() -> Select:
    """Each scout reports every unit within its per-row range (Figure 2)."""
    join = Join(
        TableScan("scout", alias="self"), TableScan("unit", alias="u"), None, how="cross"
    )
    predicate = and_all(
        [
            col("u.x").ge(col("self.x") - col("self.range")),
            col("u.x").le(col("self.x") + col("self.range")),
            col("u.y").ge(col("self.y") - col("self.range")),
            col("u.y").le(col("self.y") + col("self.range")),
        ]
    )
    return Select(join, predicate)


def churn_step(
    units: Table,
    scouts: Table,
    rng: random.Random,
    tick: int,
    fraction: float = CHURN_FRACTION,
) -> None:
    """Move ``fraction`` of the units and a chunk of the scouts, plus an
    occasional unit spawn/despawn.

    Mutations go through ``Table.update``/``insert``/``delete``, so the
    registered grid index is maintained O(1) per move — the cost the
    indexed path amortizes where the rebuild path pays O(table) per query.
    """
    rowids = list(units.row_ids())
    for rowid in rng.sample(rowids, max(1, int(len(rowids) * fraction))):
        units.update(
            rowid, {"x": rng.uniform(0, WORLD_SIZE), "y": rng.uniform(0, WORLD_SIZE)}
        )
    scout_ids = list(scouts.row_ids())
    for rowid in rng.sample(scout_ids, max(1, int(len(scout_ids) * SCOUT_CHURN_FRACTION))):
        scouts.update(
            rowid, {"x": rng.uniform(0, WORLD_SIZE), "y": rng.uniform(0, WORLD_SIZE)}
        )
    if tick % 3 == 0:
        units.insert(
            {
                "id": 1_000_000 + tick,
                "player": tick % 2,
                "x": rng.uniform(0, WORLD_SIZE),
                "y": rng.uniform(0, WORLD_SIZE),
            }
        )
        units.delete(rng.choice(rowids))
