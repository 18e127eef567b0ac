"""Recursive fixpoint plans: semi-naive iteration, caching, and ``reach``.

Covers the engine layer (Fixpoint lowering, semi-naive vs naive
equivalence, the version-vector result cache, warm restarts under
insert-only churn, the Distinct-over-Fixpoint rewrite), the runtime layer
(grid reachability/influence as fixpoint plans, parity with the A*/BFS
oracles, tick counters), and the SGL frontend (``reach`` compiled vs
interpreted on the contagion workload, MQO sharing of identical closures
across scripts).
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro import ExecutionMode, GameWorld
from repro.engine import EngineConfig
from repro.engine.algebra import (
    Distinct,
    Fixpoint,
    Join,
    Project,
    RecursiveRef,
    TableScan,
    Values,
)
from repro.engine.catalog import Catalog
from repro.engine.executor import Executor
from repro.engine.expressions import BinaryOp, ColumnRef
from repro.engine.operators.fixpoint import FixpointOp
from repro.engine.optimizer.rules import drop_distinct_over_fixpoint
from repro.engine.schema import Column, Schema
from repro.runtime.debug.inspector import TickInspector
from repro.runtime.pathfinding import (
    GridMap,
    GridReachability,
    astar,
    grid_edges_table,
    reachability_plan,
)
from repro.workloads import build_contagion_world, churn_links, infected_ids


# -- helpers ----------------------------------------------------------------------------


def edges_catalog(rows) -> tuple[Catalog, "Table"]:  # noqa: F821
    catalog = Catalog()
    edges = catalog.create_table("edges", Schema([Column("src"), Column("dst")]))
    edges.insert_many(rows)
    return catalog, edges


def closure_plan(start: int = 0, max_rounds: int | None = None) -> Fixpoint:
    schema = Schema([Column("node")])
    return Fixpoint(
        Values(schema, [{"node": start}]),
        Project(
            Join(
                RecursiveRef(schema),
                TableScan("edges"),
                BinaryOp("==", ColumnRef("node"), ColumnRef("src")),
                how="inner",
            ),
            {"node": ColumnRef("dst")},
        ),
        max_rounds=max_rounds,
    )


def bfs_closure(rows, start: int = 0, max_hops: int | None = None) -> set:
    adjacency: dict = {}
    for row in rows:
        adjacency.setdefault(row["src"], []).append(row["dst"])
    seen = {start}
    frontier = [start]
    hops = 0
    while frontier and (max_hops is None or hops < max_hops):
        hops += 1
        frontier = [
            dst
            for src in frontier
            for dst in adjacency.get(src, ())
            if dst not in seen and not seen.add(dst)
        ]
    return seen


def random_edge_rows(rng: random.Random, n_nodes: int, n_edges: int) -> list[dict]:
    return [
        {"src": rng.randrange(n_nodes), "dst": rng.randrange(n_nodes)}
        for _ in range(n_edges)
    ]


def nodes(result) -> set:
    return {row["node"] for row in result.rows}


def fixpoint_ops(executor: Executor) -> list[FixpointOp]:
    ops: dict[int, FixpointOp] = {}
    for entry in executor._cache.values():
        for op in entry.planned.physical.walk():
            if isinstance(op, FixpointOp):
                ops.setdefault(id(op), op)
    return list(ops.values())


# -- engine layer -----------------------------------------------------------------------


class TestSemiNaiveEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_semi_naive_matches_naive_on_random_graphs(self, seed):
        """Same closure either way; only the iteration strategy differs."""
        rng = random.Random(seed)
        rows = random_edge_rows(rng, n_nodes=40, n_edges=90)
        catalog, _ = edges_catalog(rows)
        plan = closure_plan()
        semi = Executor(catalog, EngineConfig())
        naive = Executor(catalog, EngineConfig(use_fixpoint=False))
        expected = bfs_closure(rows)
        assert nodes(semi.execute(plan)) == expected
        assert nodes(naive.execute(plan)) == expected

    def test_iterate_cap_bounds_the_radius(self):
        rows = [{"src": i, "dst": i + 1} for i in range(10)]
        catalog, _ = edges_catalog(rows)
        executor = Executor(catalog, EngineConfig())
        assert nodes(executor.execute(closure_plan(max_rounds=3))) == {0, 1, 2, 3}
        assert nodes(executor.execute(closure_plan())) == set(range(11))

    def test_round_and_delta_counters(self):
        """A 6-node chain closes in 6 rounds of one-row deltas (+1 to detect
        convergence), so the counters expose the per-round frontier size."""
        rows = [{"src": i, "dst": i + 1} for i in range(5)]
        catalog, _ = edges_catalog(rows)
        executor = Executor(catalog, EngineConfig())
        executor.execute(closure_plan())
        report = executor.fixpoint_report()
        assert report["operators"] == 1
        assert report["total_rounds"] == 6
        assert report["total_delta_rows"] == 6  # the seed row + one node per round

    def test_distinct_over_fixpoint_is_dropped(self):
        plan = closure_plan()
        assert drop_distinct_over_fixpoint(Distinct(plan)) is plan
        # The rewrite also reaches Fixpoints nested under other operators.
        wrapped = Project(Distinct(plan), {"node": ColumnRef("node")})
        rewritten = drop_distinct_over_fixpoint(wrapped)
        assert isinstance(rewritten, Project)
        assert rewritten.child is plan


class TestCachingAndWarmRestart:
    def test_unchanged_tables_hit_the_version_cache(self):
        catalog, _ = edges_catalog([{"src": i, "dst": i + 1} for i in range(20)])
        executor = Executor(catalog, EngineConfig())
        plan = closure_plan()
        first = nodes(executor.execute(plan))
        rounds = executor.fixpoint_report()["total_rounds"]
        assert nodes(executor.execute(plan)) == first
        report = executor.fixpoint_report()
        assert report["cache_hits"] == 1
        assert report["total_rounds"] == rounds  # no re-iteration

    def test_insert_only_churn_warm_restarts(self):
        rows = [{"src": i, "dst": i + 1} for i in range(30)]
        catalog, edges = edges_catalog(rows)
        executor = Executor(catalog, EngineConfig())
        plan = closure_plan()
        executor.execute(plan)
        edges.insert_many([{"src": 4, "dst": 100}, {"src": 100, "dst": 101}])
        result = nodes(executor.execute(plan))
        assert result == bfs_closure(edges.rows())
        report = executor.fixpoint_report()
        assert report["warm_restarts"] == 1

    def test_warm_restart_refreshes_join_hash_incrementally(self):
        rows = [{"src": i, "dst": i + 1} for i in range(30)]
        catalog, edges = edges_catalog(rows)
        executor = Executor(catalog, EngineConfig())
        plan = closure_plan()
        executor.execute(plan)
        (op,) = fixpoint_ops(executor)
        assert op.linear_step is not None
        assert op.linear_step.incremental_refreshes == 0
        edges.insert_many([{"src": 7, "dst": 200}])
        executor.execute(plan)
        assert op.linear_step.incremental_refreshes == 1  # appended, not rebuilt

    def test_deletion_falls_back_to_full_recompute(self):
        rows = [{"src": i, "dst": i + 1} for i in range(10)]
        catalog, edges = edges_catalog(rows)
        executor = Executor(catalog, EngineConfig())
        plan = closure_plan()
        assert nodes(executor.execute(plan)) == set(range(11))
        edges.delete_where(lambda row: row["src"] == 5)
        warm_before = executor.fixpoint_report()["warm_restarts"]
        assert nodes(executor.execute(plan)) == set(range(6))
        assert executor.fixpoint_report()["warm_restarts"] == warm_before


# -- runtime layer: grid reachability ---------------------------------------------------


def grid_bfs(grid: GridMap, start: tuple[int, int]) -> set:
    if not grid.passable(start):
        return set()
    seen = {start}
    frontier = [start]
    while frontier:
        cell = frontier.pop()
        for neighbour in grid.neighbours(cell):
            if neighbour not in seen:
                seen.add(neighbour)
                frontier.append(neighbour)
    return seen


class TestGridReachability:
    @settings(max_examples=25, deadline=None)
    @given(st.data())
    def test_fixpoint_reachability_matches_astar_and_bfs(self, data):
        """On random layouts the plan's reachable set equals imperative BFS,
        and A* finds a path exactly for the reachable goals."""
        width = data.draw(st.integers(3, 7), label="width")
        height = data.draw(st.integers(3, 7), label="height")
        cells = [(x, y) for x in range(width) for y in range(height)]
        obstacles = data.draw(
            st.sets(st.sampled_from(cells), max_size=len(cells) - 1),
            label="obstacles",
        )
        grid = GridMap(width, height, set(obstacles))
        passable = [cell for cell in cells if grid.passable(cell)]
        if not passable:
            return
        start = data.draw(st.sampled_from(passable), label="start")
        goal = data.draw(st.sampled_from(passable), label="goal")
        expected = grid_bfs(grid, start)
        reach = GridReachability(grid)
        assert reach.reachable_set(start) == expected
        assert (astar(grid, start, goal) is not None) == (goal in expected)

    def test_distance_map_is_bfs_depth(self):
        grid = GridMap(5, 5)
        grid.add_obstacle_rect(2, 0, 2, 3)  # wall with a gap at the bottom
        distances = GridReachability(grid).distance_map((0, 0))
        assert distances[(0, 0)] == 0
        assert distances[(1, 0)] == 1
        # Around the wall: down to (1,4), across, back up.
        assert distances[(3, 0)] == abs(4 - 0) * 2 + 3
        assert (2, 1) not in distances

    def test_influence_map_decays_and_takes_nearest_source(self):
        grid = GridMap(7, 1)
        influence = GridReachability(grid).influence_map(
            {(0, 0): 3.0, (6, 0): 2.0}, radius=6
        )
        assert influence[(0, 0)] == 3.0
        assert influence[(1, 0)] == 2.0
        assert influence[(6, 0)] == 2.0
        assert (3, 0) not in influence  # both sources decayed to zero there

    def test_clearing_obstacles_is_insert_only_churn(self):
        grid = GridMap(6, 1, obstacles={(3, 0)})
        reach = GridReachability(grid)
        assert reach.reachable_set((0, 0)) == {(0, 0), (1, 0), (2, 0)}
        assert reach.clear_obstacles([(3, 0)]) > 0
        assert reach.reachable_set((0, 0)) == {(x, 0) for x in range(6)}
        assert reach.fixpoint_counters()["warm_restarts"] == 1

    def test_naive_reference_preset_never_warm_restarts(self):
        grid = GridMap(6, 1, obstacles={(3, 0)})
        reach = GridReachability(grid, EngineConfig.reference())
        reach.reachable_set((0, 0))
        reach.clear_obstacles([(3, 0)])
        assert reach.reachable_set((0, 0)) == {(x, 0) for x in range(6)}
        assert reach.fixpoint_counters()["warm_restarts"] == 0

    def test_repeat_queries_hit_the_result_cache(self):
        grid = GridMap(4, 4)
        reach = GridReachability(grid)
        first = reach.reachable_set((0, 0))
        assert reach.reachable_set((0, 0)) == first
        assert reach.fixpoint_counters()["cache_hits"] == 1

    def test_reachability_plan_cap_matches_bounded_bfs(self):
        grid = GridMap(5, 5)
        table = grid_edges_table(grid)
        catalog = Catalog()
        catalog.register_table(table)
        executor = Executor(catalog, EngineConfig())
        plan = reachability_plan(grid.cell_id((0, 0)), max_rounds=2)
        reached = {grid.cell_at(row["node"]) for row in executor.execute(plan).rows}
        assert reached == {
            cell
            for cell in grid_bfs(grid, (0, 0))
            if abs(cell[0]) + abs(cell[1]) <= 2
        }


# -- SGL frontend: reach ----------------------------------------------------------------

TWO_SCRIPTS_SOURCE = """
class Node {
  state:
    number idx = 0;
    number next = 0;
    number origin = 0;
    number marked = 0;
    number tagged = 0;
  effects:
    number seen : max;
    number touched : max;
}

script mark(Node self) {
  if (origin > 0) {
    reach Node n from self via Node cur on n.idx == cur.next {
      n.seen <- 1;
    }
  }
}

script tag(Node self) {
  if (origin > 0) {
    reach Node n from self via Node cur on n.idx == cur.next {
      n.touched <- 1;
    }
  }
}
"""


def _add_flag_rules(world: GameWorld) -> None:
    world.add_update_rule(
        "Node", "marked", lambda state, effects: 1 if effects.get("seen") else state["marked"]
    )
    world.add_update_rule(
        "Node", "tagged", lambda state, effects: 1 if effects.get("touched") else state["tagged"]
    )


def build_chain_world(n: int, mode: ExecutionMode, **kwargs) -> GameWorld:
    world = GameWorld(TWO_SCRIPTS_SOURCE, mode=mode, **kwargs)
    _add_flag_rules(world)
    world.spawn_many(
        "Node",
        [
            {"idx": i, "next": i + 1 if i < n - 1 else i, "origin": 1 if i == 0 else 0}
            for i in range(n)
        ],
    )
    return world


class TestReachFrontend:
    def test_contagion_compiled_matches_interpreted(self):
        """The reach construct, both ways, under link churn across ticks."""
        worlds = {
            mode: build_contagion_world(40, mode=mode, seed=5, n_chords=1)
            for mode in (ExecutionMode.COMPILED, ExecutionMode.INTERPRETED)
        }
        rngs = {mode: random.Random(99) for mode in worlds}
        history = {mode: [] for mode in worlds}
        for _ in range(4):
            for mode, world in worlds.items():
                churn_links(world, 0.05, rngs[mode])
                world.tick()
                history[mode].append(infected_ids(world))
        assert history[ExecutionMode.COMPILED] == history[ExecutionMode.INTERPRETED]
        # The outbreak actually spread (monotone front).
        compiled = history[ExecutionMode.COMPILED]
        assert len(compiled[-1]) > 1
        assert all(a <= b for a, b in zip(compiled, compiled[1:]))

    def test_semi_naive_matches_naive_on_workload(self):
        configs = {
            "semi": EngineConfig(),
            "naive": EngineConfig(use_fixpoint=False),
        }
        outcomes = {}
        for name, config in configs.items():
            world = build_contagion_world(30, seed=3, n_chords=1, config=config)
            rng = random.Random(17)
            trace = []
            for _ in range(3):
                churn_links(world, 0.05, rng)
                world.tick()
                trace.append(infected_ids(world))
            outcomes[name] = trace
        assert outcomes["semi"] == outcomes["naive"]

    def test_tick_counters_expose_fixpoint_work(self):
        world = build_contagion_world(30, seed=3)
        world.tick()
        counters = TickInspector(world).tick_counters()
        assert counters["fixpoint_rounds"] >= 1
        assert counters["fixpoint_delta_rows"] >= 1
        assert counters["engine_config"]["use_fixpoint"] is True

    def test_identical_reach_closures_share_one_fixpoint(self):
        """Two scripts with the same closure: MQO evaluates one Fixpoint."""
        world = build_chain_world(8, ExecutionMode.COMPILED)
        world.tick()
        marked = {row["idx"] for row in world.objects("Node") if row["marked"]}
        touched = {row["idx"] for row in world.objects("Node") if row["tagged"]}
        assert marked == touched == set(range(8))
        shared = world.executor.tick_sharing_report()["shared_subplans"]
        fixpoint_shares = [s for s in shared if s["fingerprint"].startswith("μ")]
        assert len(fixpoint_shares) == 1
        assert fixpoint_shares[0]["consumers"] == 2
        # Only the shared operator iterated; the per-query plans stayed idle.
        pipeline = world.executor._tick_pipeline
        shared_ops = [
            op
            for entry in pipeline.shared
            for op in entry.physical.walk()
            if isinstance(op, FixpointOp)
        ]
        assert [op.total_rounds > 0 for op in shared_ops] == [True]
        assert all(op.total_rounds == 0 for op in fixpoint_ops(world.executor))

    def test_reach_iterate_cap_in_both_modes(self):
        source = TWO_SCRIPTS_SOURCE.replace(
            "on n.idx == cur.next {", "on n.idx == cur.next iterate 2 {"
        )
        for mode in (ExecutionMode.COMPILED, ExecutionMode.INTERPRETED):
            world = GameWorld(source, mode=mode)
            _add_flag_rules(world)
            world.spawn_many(
                "Node",
                [
                    {"idx": i, "next": i + 1, "origin": 1 if i == 0 else 0}
                    for i in range(6)
                ],
            )
            world.tick()
            marked = {row["idx"] for row in world.objects("Node") if row["marked"]}
            assert marked == {0, 1, 2}, mode
