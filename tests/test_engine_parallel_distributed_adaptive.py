"""Tests for the parallel executor, adaptive optimizer and cluster simulation."""

from __future__ import annotations

import pytest

from repro.engine import (
    Aggregate,
    AggregateSpec,
    AdaptiveQueryManager,
    Catalog,
    Column,
    DataType,
    Executor,
    ExecutionFeedback,
    Join,
    PartitionedExecutor,
    Schema,
    Select,
    TableScan,
    and_all,
    col,
    lit,
)
from repro.engine.parallel import partition_plan
from repro.workloads import build_rts_world
from repro.workloads.traffic import build_traffic_world
from repro.engine.distributed import (
    Cluster,
    DistributedRangeIndex,
    HashPartitioner,
    NetworkModel,
    SpatialPartitioner,
)
from repro.workloads.state_switching import load_state, make_state_catalog


def fig2_plan():
    join = Join(TableScan("unit", alias="self"), TableScan("unit", alias="u"), None, how="cross")
    predicate = and_all(
        [
            col("u.x").ge(col("self.x") - col("self.range")),
            col("u.x").le(col("self.x") + col("self.range")),
            col("u.y").ge(col("self.y") - col("self.range")),
            col("u.y").le(col("self.y") + col("self.range")),
        ]
    )
    return Aggregate(Select(join, predicate), ["self.id"], [AggregateSpec("cnt", "count")])


class TestPartitionedExecutor:
    def test_partitioned_results_match_serial(self, unit_catalog):
        serial = Executor(unit_catalog).execute(fig2_plan()).rows
        parallel = PartitionedExecutor(unit_catalog, n_workers=4).execute(
            fig2_plan(), "unit", "id", partition_only_scan_alias="self"
        )
        assert {(r["self.id"], r["cnt"]) for r in parallel.rows} == {
            (r["self.id"], r["cnt"]) for r in serial
        }

    def test_partition_counts_cover_all_objects(self, unit_catalog):
        parallel = PartitionedExecutor(unit_catalog, n_workers=3, use_threads=False).execute(
            fig2_plan(), "unit", "id", partition_only_scan_alias="self"
        )
        assert len(parallel.rows) == 100
        assert len(parallel.per_partition_seconds) == 3
        assert parallel.simulated_speedup >= 1.0
        assert parallel.simulated_serial_seconds >= parallel.simulated_parallel_seconds

    def test_invalid_worker_count(self, unit_catalog):
        with pytest.raises(Exception):
            PartitionedExecutor(unit_catalog, n_workers=0)


def _normalized(rows):
    # Sort by repr: row values may mix None with numbers, which plain
    # tuple comparison cannot order.
    return sorted((tuple(sorted(r.items())) for r in rows), key=repr)


class TestPartitionKeyTotality:
    """Regression: partitioning used ``key % n == i``, which silently drops
    rows with NULL keys (``None % n`` is ``None``, falsy in every
    partition) and non-integer keys (``2.5 % 4`` equals no integer) from
    parallel results while serial execution keeps them.  Routing is now a
    total hash function (NULLs to partition 0)."""

    def _catalog(self) -> Catalog:
        catalog = Catalog()
        schema = Schema([Column("k", DataType.NUMBER), Column("v", DataType.NUMBER)])
        table = catalog.create_table("data", schema)
        table.insert_many(
            [
                {"k": None, "v": 1},
                {"k": None, "v": 2},
                {"k": 2.5, "v": 3},
                {"k": 0.5, "v": 4},
                {"k": -3, "v": 5},
            ]
            + [{"k": i, "v": 100 + i} for i in range(20)]
        )
        return catalog

    def test_null_and_float_keys_survive_parallel_execution(self):
        catalog = self._catalog()
        plan = Select(TableScan("data"), col("v").gt(lit(0)))
        serial = Executor(catalog).execute(plan).rows
        for n_workers in (2, 3, 4):
            parallel = PartitionedExecutor(catalog, n_workers=n_workers).execute(
                plan, "data", "k"
            )
            assert _normalized(parallel.rows) == _normalized(serial)
        # The dropped rows were exactly the NULL/float-keyed ones.
        assert {r["v"] for r in serial} >= {1, 2, 3, 4, 5}

    def test_partition_plan_covers_every_row_exactly_once(self):
        catalog = self._catalog()
        total = len(catalog.table("data"))
        partitions = partition_plan(TableScan("data"), "data", "k", 4)
        executor = Executor(catalog)
        rows = []
        for partition in partitions:
            rows.extend(executor.execute(partition, cache=False).rows)
        assert len(rows) == total
        assert _normalized(rows) == _normalized(catalog.table("data").scan())


class TestParallelWorldEquivalence:
    """PartitionedExecutor must agree with serial execution on every
    compiled effect query of the rts and traffic workloads (the batch path
    already has whole-world equivalence coverage)."""

    def _assert_queries_equivalent(self, world, outer_table: str) -> None:
        serial = Executor(world.catalog)
        parallel = PartitionedExecutor(world.catalog, n_workers=3)
        checked = 0
        for script_name in world.enabled_scripts():
            compiled = world.compiled.script(script_name)
            script = world.program.script_named(script_name)
            for segment in sorted(compiled.queries_by_segment):
                for query in compiled.queries_by_segment[segment]:
                    serial_rows = serial.execute(query.plan, cache=False).rows
                    result = parallel.execute(
                        query.plan,
                        outer_table,
                        "id",
                        partition_only_scan_alias=script.self_name,
                    )
                    assert _normalized(result.rows) == _normalized(serial_rows), (
                        f"{script_name} segment {segment}"
                    )
                    checked += 1
        assert checked > 0

    def test_rts_world_parallel_matches_serial(self):
        world = build_rts_world(80, seed=5)
        world.run(2)  # move units so the state is not the spawn layout
        self._assert_queries_equivalent(world, "Unit")

    def test_traffic_world_parallel_matches_serial(self):
        world = build_traffic_world(90, seed=9)
        world.run(2)
        self._assert_queries_equivalent(world, "Vehicle")


class TestAdaptiveOptimizer:
    def test_compiles_per_state_and_switches_on_hint(self):
        catalog = make_state_catalog()
        load_state(catalog, "exploring", 200)
        manager = AdaptiveQueryManager(catalog, fig2_plan())
        manager.compile_for_state("exploring")
        load_state(catalog, "fighting", 200)
        manager.compile_for_state("fighting")
        assert set(manager.states) == {"exploring", "fighting"}
        manager.switch_to("exploring")
        state = manager.record_execution(ExecutionFeedback(rows=200, runtime=0.01, state_hint="fighting"))
        assert state == "fighting"
        assert manager.switch_count >= 1

    def test_drift_triggers_replan(self):
        catalog = make_state_catalog()
        load_state(catalog, "exploring", 150)
        manager = AdaptiveQueryManager(catalog, fig2_plan(), switch_cooldown=1)
        manager.compile_for_state("exploring")
        replans_before = manager.replan_count
        # Observed cardinality wildly different from the estimate -> replan.
        estimated = manager.current_plan().estimated.cardinality
        manager.record_execution(ExecutionFeedback(rows=int(estimated * 50) + 100, runtime=0.01))
        assert manager.replan_count > replans_before

    def test_report_structure(self):
        catalog = make_state_catalog()
        load_state(catalog, "exploring", 50)
        manager = AdaptiveQueryManager(catalog, fig2_plan())
        manager.compile_for_state("exploring")
        report = manager.report()
        assert report["current_state"] == "exploring"
        assert "exploring" in report["states"]

    def test_unknown_state_switch_raises(self):
        catalog = make_state_catalog()
        load_state(catalog, "exploring", 50)
        manager = AdaptiveQueryManager(catalog, fig2_plan())
        manager.compile_for_state("exploring")
        with pytest.raises(KeyError):
            manager.switch_to("bogus")


class TestNetworkModel:
    def test_latency_and_bandwidth_accounting(self):
        network = NetworkModel(latency_s=0.001, bandwidth_bytes_per_s=1e6)
        cost = network.send(1000)
        assert cost == pytest.approx(0.002)
        assert network.stats.messages == 1
        network.send_rows([{"a": 1}] * 10)
        assert network.stats.bytes_sent == 1000 + 640
        network.reset()
        assert network.stats.messages == 0

    def test_broadcast_pays_latency_once(self):
        network = NetworkModel(latency_s=0.01, bandwidth_bytes_per_s=None)
        cost = network.broadcast(100, n_receivers=8)
        assert cost == pytest.approx(0.01)
        assert network.stats.messages == 8


class TestPartitioners:
    def test_spatial_partitioner_prunes_range_queries(self):
        partitioner = SpatialPartitioner("x", n_partitions=8, world_min=0, world_max=800)
        assert partitioner.partition_of({"x": 50}) == 0
        assert partitioner.partition_of({"x": 799}) == 7
        assert partitioner.partitions_for_range([(100, 250)]) == [1, 2]
        assert partitioner.partitions_for_range([(None, None)]) == list(range(8))

    def test_hash_partitioner_cannot_prune(self):
        partitioner = HashPartitioner("id", n_partitions=4)
        assert partitioner.partitions_for_range([(0, 10)]) == [0, 1, 2, 3]
        assert 0 <= partitioner.partition_of({"id": 17}) < 4


class TestCluster:
    def unit_rows(self, n=120):
        import random

        rng = random.Random(9)
        return [
            {"id": i, "x": rng.uniform(0, 800), "y": rng.uniform(0, 800), "range": 10.0}
            for i in range(n)
        ]

    def test_spatial_cluster_matches_single_node(self):
        rows = self.unit_rows()
        expected = sum(
            1
            for a in rows
            for b in rows
            if abs(a["x"] - b["x"]) <= a["range"] and abs(a["y"] - b["y"]) <= a["range"]
        )

        def per_pair(a, b):
            return {"id": a["id"]}

        for n_nodes in (1, 4):
            cluster = Cluster(
                n_nodes,
                SpatialPartitioner("x", n_partitions=n_nodes, world_max=800),
                NetworkModel(latency_s=0.0001),
            )
            cluster.load(rows)
            result = cluster.run_range_query_tick(["x", "y"], "range", per_pair)
            assert len(result.results) == expected

    def test_latency_increases_simulated_tick_time(self):
        rows = self.unit_rows(60)

        def per_pair(a, b):
            return {"id": a["id"]}

        times = []
        for latency in (0.0001, 0.05):
            cluster = Cluster(
                4, SpatialPartitioner("x", n_partitions=4, world_max=800), NetworkModel(latency)
            )
            cluster.load(rows)
            result = cluster.run_range_query_tick(["x", "y"], "range", per_pair)
            times.append(result.simulated_tick_seconds)
        assert times[1] > times[0]

    def test_distributed_range_index_partitions_memory(self):
        import random

        rng = random.Random(4)
        points = [((rng.uniform(0, 800), rng.uniform(0, 800)), i) for i in range(400)]
        partitioner = SpatialPartitioner("x", n_partitions=4, world_max=800)
        index = DistributedRangeIndex(["x", "y"], partitioner)
        index.build(points)
        assert sum(index.shard_sizes()) == 400
        assert index.max_shard_bytes() < index.total_bytes()
        # A narrow query along x touches a strict subset of the shards.
        assert len(index.shards_for_query([(100, 150), (0, 800)])) < 4
        got = sorted(index.range_search([(100, 300), (100, 300)]))
        expected = sorted(
            i for (x, y), i in points if 100 <= x <= 300 and 100 <= y <= 300
        )
        assert got == expected
