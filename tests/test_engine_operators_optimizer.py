"""Tests for physical operators, rewrites, join ordering and the planner."""

from __future__ import annotations

import pytest

from repro.engine import (
    Aggregate,
    AggregateSpec,
    Catalog,
    Column,
    DataType,
    Distinct,
    Executor,
    Join,
    Limit,
    Planner,
    Project,
    Schema,
    Select,
    Sort,
    SortKey,
    TableScan,
    Union,
    Values,
    and_all,
    col,
    lit,
)
from repro.engine.aggregates import combine_values, make_accumulator
from repro.engine.algebra import explain
from repro.engine.indexes import SortedIndex
from repro.engine.operators import (
    BandJoinOp,
    FilterOp,
    HashJoinOp,
    NestedLoopJoinOp,
    RangeProbeJoinOp,
    TableScanOp,
    ValuesOp,
)
from repro.engine.optimizer.cost import CostModel
from repro.engine.optimizer.join_order import extract_join_graph, reorder_joins
from repro.engine.optimizer.rules import apply_standard_rewrites, split_conjunctions


class TestAggregates:
    @pytest.mark.parametrize(
        "func,values,expected",
        [
            ("sum", [1, 2, 3], 6),
            ("count", [1, None, 3], 2),
            ("min", [4, 2, 9], 2),
            ("max", [4, 2, 9], 9),
            ("avg", [2, 4], 3),
            ("median", [5, 1, 3], 3),
            ("any", [False, True], True),
            ("all", [True, False], False),
            ("choose", [7, 3, 5], 3),
            ("first", [7, 3], 7),
            ("last", [7, 3], 3),
        ],
    )
    def test_combinators(self, func, values, expected):
        assert combine_values(func, values) == expected

    def test_identities_on_empty_input(self):
        assert combine_values("sum", []) == 0
        assert combine_values("count", []) == 0
        assert combine_values("any", []) is False
        assert combine_values("all", []) is True
        assert combine_values("union", []) == frozenset()
        assert combine_values("avg", []) is None

    def test_union_flattens_sets(self):
        assert combine_values("union", [{1, 2}, 3, frozenset({4})]) == frozenset({1, 2, 3, 4})

    def test_merge_partial_accumulators(self):
        a = make_accumulator("sum")
        b = make_accumulator("sum")
        for v in (1, 2):
            a.add(v)
        for v in (3, 4):
            b.add(v)
        a.merge(b)
        assert a.result() == 10
        avg_a, avg_b = make_accumulator("avg"), make_accumulator("avg")
        avg_a.add(2)
        avg_b.add(4)
        avg_a.merge(avg_b)
        assert avg_a.result() == 3


class TestOperators:
    def test_executor_end_to_end(self, unit_catalog):
        executor = Executor(unit_catalog)
        plan = Project(
            Select(TableScan("unit"), col("player").eq(lit(0))),
            {"id": col("id"), "hp": col("health")},
        )
        result = executor.execute(plan)
        assert len(result) == 25
        assert set(result.rows[0]) == {"id", "hp"}

    def test_aggregate_group_by(self, unit_catalog):
        executor = Executor(unit_catalog)
        plan = Aggregate(
            TableScan("unit"),
            ["player"],
            [AggregateSpec("n", "count"), AggregateSpec("hp", "sum", col("health"))],
        )
        rows = executor.execute(plan).rows
        assert len(rows) == 4
        assert sum(r["n"] for r in rows) == 100

    def test_global_aggregate_on_empty_input(self, unit_catalog):
        executor = Executor(unit_catalog)
        plan = Aggregate(
            Select(TableScan("unit"), lit(False)), [], [AggregateSpec("n", "count")]
        )
        assert executor.execute(plan).scalar() == 0

    def test_sort_limit_distinct_union(self, unit_catalog):
        executor = Executor(unit_catalog)
        sorted_plan = Sort(TableScan("unit"), [SortKey(col("health"), ascending=False)])
        rows = executor.execute(Limit(sorted_plan, 5)).rows
        assert len(rows) == 5
        assert rows[0]["health"] >= rows[-1]["health"]
        distinct = Distinct(Project(TableScan("unit"), {"player": col("player")}))
        assert len(executor.execute(distinct)) == 4
        union = Union(Project(TableScan("unit"), {"p": col("player")}),
                      Project(TableScan("unit"), {"p": col("player")}))
        assert len(executor.execute(union)) == 200

    def test_values_and_cross_join(self, unit_catalog):
        executor = Executor(unit_catalog)
        schema = Schema([Column("k", DataType.NUMBER)])
        values = Values(schema, [{"k": 1}, {"k": 2}])
        plan = Join(values, Values(Schema([Column("j", DataType.NUMBER)]), [{"j": 7}]), None, how="cross")
        rows = executor.execute(plan).rows
        assert len(rows) == 2
        assert rows[0]["j"] == 7

    def test_left_join_produces_nulls(self, unit_catalog):
        executor = Executor(unit_catalog)
        empty = Select(TableScan("unit", alias="b"), lit(False))
        plan = Join(TableScan("unit", alias="a"), empty, col("a.id").eq(col("b.id")), how="left")
        rows = executor.execute(plan).rows
        assert len(rows) == 100
        assert all(r["b.id"] is None for r in rows)

    def test_hash_join_matches_nested_loop(self, unit_catalog):
        table = unit_catalog.table("unit")
        schema_a = table.schema.qualify("a")
        schema_b = table.schema.qualify("b")
        scan_a = TableScanOp(table, schema_a, "a")
        scan_b = TableScanOp(table, schema_b, "b")
        condition = col("a.player").eq(col("b.player"))
        hash_rows = HashJoinOp(
            TableScanOp(table, schema_a, "a"),
            TableScanOp(table, schema_b, "b"),
            [col("a.player")],
            [col("b.player")],
            schema_a.concat(schema_b),
        ).rows()
        nl_rows = NestedLoopJoinOp(scan_a, scan_b, condition, schema_a.concat(schema_b)).rows()
        assert len(hash_rows) == len(nl_rows) == 2500

    def test_band_join_counts_match_brute_force(self, unit_catalog):
        table = unit_catalog.table("unit")
        rows = list(table.rows())
        radius = 10.0
        expected = sum(
            1
            for a in rows
            for b in rows
            if abs(a["x"] - b["x"]) <= radius and abs(a["y"] - b["y"]) <= radius
        )
        schema_a = table.schema.qualify("a")
        schema_b = table.schema.qualify("b")
        band = BandJoinOp(
            TableScanOp(table, schema_a, "a"),
            TableScanOp(table, schema_b, "b"),
            ["a.x", "a.y"],
            ["b.x", "b.y"],
            radius,
            schema_a.concat(schema_b),
        )
        assert len(band.rows()) == expected

    def test_filter_and_values_op_counts(self):
        schema = Schema([Column("v", DataType.NUMBER)])
        values = ValuesOp(schema, [{"v": i} for i in range(10)])
        filtered = FilterOp(values, col("v").ge(lit(5)))
        assert len(filtered.rows()) == 5
        assert filtered.rows_produced == 5
        assert "Filter" in filtered.explain()


class TestOptimizer:
    def fig2_plan(self):
        join = Join(
            TableScan("unit", alias="self"),
            TableScan("unit", alias="u"),
            None,
            how="cross",
        )
        predicate = and_all(
            [
                col("u.x").ge(col("self.x") - col("self.range")),
                col("u.x").le(col("self.x") + col("self.range")),
                col("u.y").ge(col("self.y") - col("self.range")),
                col("u.y").le(col("self.y") + col("self.range")),
            ]
        )
        return Aggregate(
            Select(join, predicate), ["self.id"], [AggregateSpec("cnt", "count")]
        )

    def test_split_and_pushdown(self, unit_catalog):
        plan = Select(
            Join(
                TableScan("unit", alias="a"),
                TableScan("unit", alias="b"),
                col("a.player").eq(col("b.player")),
            ),
            and_all([col("a.health").gt(lit(50)), col("b.health").gt(lit(50))]),
        )
        rewritten = apply_standard_rewrites(plan, unit_catalog)
        text = explain(rewritten)
        # Both single-table filters must sit below the join after pushdown.
        join_line = next(i for i, line in enumerate(text.splitlines()) if "Join" in line)
        select_lines = [i for i, line in enumerate(text.splitlines()) if "Select" in line]
        assert all(i > join_line for i in select_lines)

    def test_pushdown_does_not_cross_wrong_side(self, unit_catalog):
        executor = Executor(unit_catalog)
        plan = Select(
            Join(
                TableScan("unit", alias="a"),
                TableScan("unit", alias="b"),
                col("a.player").eq(col("b.player")),
            ),
            col("a.id").lt(col("b.id")),
        )
        rows = executor.execute(plan).rows
        table_rows = list(unit_catalog.table("unit").rows())
        expected = sum(
            1
            for a in table_rows
            for b in table_rows
            if a["player"] == b["player"] and a["id"] < b["id"]
        )
        assert len(rows) == expected

    def test_figure2_lowered_to_range_probe_join(self, unit_catalog):
        planner = Planner(unit_catalog)
        planned = planner.plan(self.fig2_plan())
        labels = planned.physical.explain()
        assert "RangeProbeJoin" in labels

    def test_figure2_results_correct(self, unit_catalog):
        executor = Executor(unit_catalog)
        rows = executor.execute(self.fig2_plan()).rows
        table_rows = list(unit_catalog.table("unit").rows())
        expected = {
            a["id"]: sum(
                1
                for b in table_rows
                if abs(a["x"] - b["x"]) <= a["range"] and abs(a["y"] - b["y"]) <= a["range"]
            )
            for a in table_rows
        }
        assert {r["self.id"]: r["cnt"] for r in rows} == expected

    def test_unoptimized_planner_still_correct(self, unit_catalog, env_config):
        fast = Executor(unit_catalog, config=env_config(optimize=True))
        slow = Executor(unit_catalog, config=env_config(optimize=False))
        plan = self.fig2_plan()
        fast_rows = {(r["self.id"], r["cnt"]) for r in fast.execute(plan).rows}
        slow_rows = {(r["self.id"], r["cnt"]) for r in slow.execute(plan, cache=False).rows}
        assert fast_rows == slow_rows

    def test_join_graph_extraction(self, unit_catalog):
        plan = Join(
            Join(
                TableScan("unit", alias="a"),
                TableScan("unit", alias="b"),
                col("a.player").eq(col("b.player")),
            ),
            TableScan("unit", alias="c"),
            col("b.player").eq(col("c.player")),
        )
        graph = extract_join_graph(plan)
        assert graph is not None
        assert len(graph.relations) == 3
        assert len(graph.predicates) == 2

    def test_reorder_preserves_results(self, unit_catalog, env_config):
        cost_model = CostModel(unit_catalog)
        plan = Select(
            Join(
                Join(
                    TableScan("unit", alias="a"),
                    TableScan("unit", alias="b"),
                    col("a.player").eq(col("b.player")),
                ),
                TableScan("unit", alias="c"),
                col("b.id").eq(col("c.id")),
            ),
            col("a.health").gt(lit(90)),
        )
        reordered = reorder_joins(split_conjunctions(plan), unit_catalog, cost_model)
        executor = Executor(unit_catalog, config=env_config(optimize=False))
        original = executor.execute(plan, cache=False).rows
        new = executor.execute(reordered, cache=False).rows
        assert len(original) == len(new)

    def test_index_scan_selected_for_constant_range(self, unit_catalog):
        table = unit_catalog.table("unit")
        table.attach_index("by_x", SortedIndex("x"))
        planner = Planner(unit_catalog)
        plan = Select(TableScan("unit"), and_all([col("x").ge(lit(10)), col("x").le(lit(20))]))
        planned = planner.plan(plan)
        assert "IndexRangeScan" in planned.physical.explain()
        rows = planned.physical.rows()
        expected = [r for r in table.rows() if 10 <= r["x"] <= 20]
        assert len(rows) == len(expected)

    def test_cost_model_prefers_selective_first(self, unit_catalog):
        cost_model = CostModel(unit_catalog)
        scan = TableScan("unit")
        selective = Select(scan, col("id").eq(lit(3)))
        broad = Select(scan, col("x").ge(lit(0)))
        assert cost_model.cardinality(selective) < cost_model.cardinality(broad)

    def test_explain_includes_all_layers(self, unit_catalog):
        planner = Planner(unit_catalog)
        planned = planner.plan(Select(TableScan("unit"), col("health").gt(lit(50))))
        text = planned.explain()
        assert "logical" in text and "physical" in text and "estimated cost" in text
