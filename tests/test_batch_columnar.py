"""Batch (columnar) execution path: unit tests and row-path equivalence.

The batch path must be indistinguishable from the row path in results —
only faster.  These tests cover the :class:`ColumnBatch` container, the
compiled batch expressions, operator-level equivalence on synthetic plans,
and end-to-end equivalence on the rts / traffic / marketplace workloads.
"""

from __future__ import annotations

import random

import pytest

from repro import ExecutionMode
from repro.engine.algebra import (
    Aggregate,
    AggregateSpec,
    Join,
    Limit,
    Project,
    Select,
    Sort,
    SortKey,
    TableScan,
)
from repro.engine.batch import ColumnBatch, IndirectColumn
from repro.engine.catalog import Catalog
from repro.engine.executor import Executor
from repro.engine.expressions import (
    BinaryOp,
    Conditional,
    FunctionCall,
    batch_supported,
    col,
    compile_batch,
    lit,
    resolve_batch_column,
)
from repro.engine.operators import BatchBridgeOp
from repro.engine.schema import Column, Schema
from repro.engine.types import DataType
from repro.workloads import build_rts_world, build_traffic_world
from repro.workloads.marketplace import build_marketplace_world


# -- ColumnBatch container ---------------------------------------------------------


def test_column_batch_roundtrip_and_selection():
    rows = [{"a": 1, "b": "x"}, {"a": 2, "b": "y"}, {"a": 3, "b": "z"}]
    batch = ColumnBatch.from_rows(("a", "b"), rows)
    assert len(batch) == 3
    assert batch.to_rows() == rows
    picked = batch.with_selection([2, 0])
    assert len(picked) == 2
    assert picked.to_rows() == [{"a": 3, "b": "z"}, {"a": 1, "b": "x"}]
    # Compaction produces dense lists but identical rows.
    assert picked.compact().to_rows() == picked.to_rows()


def test_column_batch_qualify_shares_lists():
    batch = ColumnBatch.from_rows(("a",), [{"a": 1}, {"a": 2}])
    qualified = batch.qualify("u")
    assert qualified.names == ("u.a",)
    assert qualified.column("u.a") is batch.column("a")
    assert qualified.to_rows() == [{"u.a": 1}, {"u.a": 2}]


def test_indirect_column():
    indirect = IndirectColumn([10, 20, 30], [2, 0, 2])
    assert [indirect[k] for k in range(3)] == [30, 10, 30]


# -- compiled batch expressions -----------------------------------------------------


def _random_rows(n=200, seed=7):
    rng = random.Random(seed)
    return [
        {
            "x": rng.uniform(-10, 10),
            "y": rng.uniform(-10, 10),
            "n": rng.randint(0, 5),
            "maybe": None if rng.random() < 0.3 else rng.uniform(0, 1),
        }
        for _ in range(n)
    ]


@pytest.mark.parametrize(
    "expr",
    [
        col("x").gt(lit(0)).and_(col("y").le(lit(5))),
        col("x") + col("y") * lit(2),
        col("maybe").gt(lit(0.5)),
        (col("maybe") + lit(1)).eq(col("maybe") + lit(1)),
        Conditional(col("n").ge(lit(3)), col("x"), col("y")),
        FunctionCall("distance", [col("x"), col("y"), lit(0.0), lit(0.0)]),
        FunctionCall("size", [lit(None)]),
        BinaryOp("%", col("n"), lit(2)).eq(lit(0)).or_(col("x").lt(lit(-5))),
    ],
)
def test_compile_batch_matches_row_evaluation(expr):
    rows = _random_rows()
    names = ("x", "y", "n", "maybe")
    batch = ColumnBatch.from_rows(names, rows)
    assert batch_supported(expr, names)
    fn = compile_batch(expr, batch.columns)
    for i, row in enumerate(rows):
        assert fn(i) == expr.evaluate(row)


def test_resolve_batch_column_mirrors_row_fallback():
    names = ("u.x", "u.y", "v.x")
    assert resolve_batch_column("u.x", names) == "u.x"
    assert resolve_batch_column("y", names) == "u.y"
    assert resolve_batch_column("x", names) is None  # ambiguous: u.x vs v.x
    assert resolve_batch_column("z", names) is None


def test_batch_supported_rejects_unknown_columns():
    assert not batch_supported(col("missing").gt(lit(0)), ("a", "b"))
    assert batch_supported(col("missing").gt(lit(0)), ("a",), context={"missing": 1})


# -- operator-level equivalence on synthetic plans -----------------------------------


def _make_catalog(n=500, seed=11):
    rng = random.Random(seed)
    catalog = Catalog()
    units = catalog.create_table(
        "units",
        Schema(
            [
                Column("id", DataType.NUMBER),
                Column("player", DataType.NUMBER),
                Column("x", DataType.NUMBER),
                Column("hp", DataType.NUMBER, nullable=True),
            ]
        ),
    )
    for i in range(n):
        units.insert(
            {
                "id": i,
                "player": i % 3,
                "x": rng.uniform(0, 100),
                "hp": None if rng.random() < 0.1 else rng.uniform(0, 100),
            }
        )
    teams = catalog.create_table(
        "teams",
        Schema([Column("team", DataType.NUMBER), Column("bonus", DataType.NUMBER)]),
    )
    for p in range(2):  # deliberately missing team 2: exercises outer padding
        teams.insert({"team": p, "bonus": 10 * (p + 1)})
    return catalog


def _norm(rows):
    return sorted((tuple(sorted(r.items())) for r in rows), key=repr)


PLANS = {
    "filter-project": lambda: Project(
        Select(TableScan("units"), col("x").gt(lit(30)).and_(col("hp").gt(lit(20)))),
        [("id", col("id")), ("scaled", col("x") * lit(2))],
    ),
    "global-aggregate": lambda: Aggregate(
        Select(TableScan("units"), col("player").eq(lit(1))),
        [],
        [
            AggregateSpec("n", "count"),
            AggregateSpec("total", "sum", col("hp")),
            AggregateSpec("lo", "min", col("x")),
            AggregateSpec("hi", "max", col("x")),
            AggregateSpec("mean", "avg", col("hp")),
        ],
    ),
    "grouped-aggregate": lambda: Aggregate(
        TableScan("units"),
        ["player"],
        [
            AggregateSpec("n", "count"),
            AggregateSpec("hp", "sum", col("hp")),
            AggregateSpec("ids", "collect", col("id")),
            AggregateSpec("chosen", "choose", col("id")),
        ],
    ),
    "hash-join": lambda: Join(
        TableScan("units", alias="u"),
        TableScan("teams", alias="t"),
        col("u.player").eq(col("t.team")),
    ),
    "left-join-with-residual": lambda: Join(
        TableScan("units", alias="u"),
        TableScan("teams", alias="t"),
        col("u.player").eq(col("t.team")).and_(col("u.x").gt(lit(50))),
        how="left",
    ),
    "nested-loop-join": lambda: Join(
        Select(TableScan("units", alias="u"), col("u.id").lt(lit(40))),
        Select(TableScan("teams", alias="t"), lit(True)),
        BinaryOp("!=", col("u.player"), col("t.team")),
    ),
    "cross-join": lambda: Join(
        Select(TableScan("units", alias="u"), col("u.id").lt(lit(10))),
        TableScan("teams", alias="t"),
        None,
        how="cross",
    ),
    "join-then-aggregate": lambda: Aggregate(
        Join(
            TableScan("units", alias="u"),
            TableScan("teams", alias="t"),
            col("u.player").eq(col("t.team")),
        ),
        ["t.team"],
        [AggregateSpec("n", "count"), AggregateSpec("power", "sum", col("u.hp") + col("t.bonus"))],
    ),
    # Sort/Limit stay on the row path but their subtree should still batch.
    "sort-limit-above-batch": lambda: Limit(
        Sort(
            Select(TableScan("units"), col("x").gt(lit(60))),
            [SortKey(col("x")), SortKey(col("id"))],
        ),
        25,
    ),
}


@pytest.mark.parametrize("name", sorted(PLANS))
def test_batch_row_equivalence(name, env_config):
    catalog = _make_catalog()
    plan = PLANS[name]()
    row_rows = Executor(catalog, config=env_config(use_batch=False)).execute(plan).rows
    batch_rows = Executor(catalog, config=env_config(use_batch=True)).execute(plan).rows
    assert _norm(batch_rows) == _norm(row_rows)


def test_order_sensitive_equivalence(env_config):
    """first/last/collect aggregates observe input order: must match exactly."""
    catalog = _make_catalog()
    plan = Aggregate(
        Select(TableScan("units"), col("x").gt(lit(20))),
        ["player"],
        [
            AggregateSpec("first_id", "first", col("id")),
            AggregateSpec("last_id", "last", col("id")),
            AggregateSpec("ids", "collect", col("id")),
        ],
    )
    row_rows = Executor(catalog, config=env_config(use_batch=False)).execute(plan).rows
    batch_rows = Executor(catalog, config=env_config(use_batch=True)).execute(plan).rows
    assert _norm(batch_rows) == _norm(row_rows)


def test_batch_path_is_chosen_and_flagged(env_config):
    catalog = _make_catalog()
    plan = PLANS["filter-project"]()
    executor = Executor(catalog, config=env_config(use_batch=True))
    planned = executor.prepare(plan)
    assert planned.uses_batch
    assert isinstance(planned.physical, BatchBridgeOp)
    assert "Batch" in planned.physical.explain()
    row_planned = Executor(catalog, config=env_config(use_batch=False)).prepare(plan)
    assert not row_planned.uses_batch


def test_batch_cache_invalidated_on_mutation():
    catalog = _make_catalog(n=10)
    table = catalog.table("units")
    first = table.to_batch()
    assert first is table.to_batch()  # cached while the version is stable
    table.insert({"id": 1000, "player": 0, "x": 1.0, "hp": 1.0})
    second = table.to_batch()
    assert second is not first
    assert len(second) == 11


def test_empty_table_aggregate_identity(env_config):
    catalog = Catalog()
    catalog.create_table("empty", Schema([Column("v", DataType.NUMBER)]))
    plan = Aggregate(
        TableScan("empty"),
        [],
        [AggregateSpec("n", "count"), AggregateSpec("s", "sum", col("v"))],
    )
    for use_batch in (False, True):
        rows = Executor(catalog, config=env_config(use_batch=use_batch)).execute(plan).rows
        assert rows == [{"n": 0, "s": 0}]


# -- end-to-end workload equivalence -------------------------------------------------


def _state_snapshot(world):
    out = {}
    for name in sorted(world.catalog.table_names()):
        table = world.catalog.table(name)
        out[name] = sorted(tuple(sorted(r.items())) for r in table.rows())
    return out


def _assert_world_equivalence(make_world, ticks=3):
    batch_world = make_world(use_batch=True)
    row_world = make_world(use_batch=False)
    for _ in range(ticks):
        batch_world.tick()
        row_world.tick()
    assert _state_snapshot(batch_world) == _state_snapshot(row_world)
    return batch_world


def test_rts_workload_equivalence(env_config):
    world = _assert_world_equivalence(
        lambda use_batch: build_rts_world(
            60, mode=ExecutionMode.COMPILED, config=env_config(use_batch=use_batch)
        )
    )
    # The tick queries should actually exercise the batch path somewhere.
    assert any(entry["batch"] for entry in world.executor.cache_report())


def test_traffic_workload_equivalence(env_config):
    _assert_world_equivalence(
        lambda use_batch: build_traffic_world(80, config=env_config(use_batch=use_batch))
    )


def test_marketplace_workload_equivalence(env_config):
    _assert_world_equivalence(
        lambda use_batch: build_marketplace_world(30, config=env_config(use_batch=use_batch))
    )
