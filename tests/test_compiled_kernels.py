"""Plan-to-kernel compilation: equivalence, caching, and invalidation.

The compiler's contract (see :mod:`repro.engine.compile.kernels`) is that
a fused kernel produces *exactly* the rows, in exactly the order, of the
interpreted operators it replaces — so every test here compares compiled
against interpreted execution with plain ``==`` on the row lists, never
with sorted/normalized views.  Whole-world runs additionally pin the
stronger property the ``fastest`` preset relies on: kernel compilation is
a pure performance path and may not change any post-tick state, any
combined effect, or anything the WAL commits.
"""

from __future__ import annotations

import random

import pytest
from test_replay_determinism import WORKLOADS as REPLAY_WORKLOADS
from test_replay_determinism import run_with_wal

from repro.engine import EngineConfig
from repro.engine.algebra import Aggregate, AggregateSpec, Join, Project, Select, TableScan
from repro.engine.executor import Executor, TickQuerySpec
from repro.engine.expressions import and_all, col, lit
from repro.engine.indexes import GridIndex
from repro.engine.compile import KernelOp
from repro.persistence.replay import replay_tables

INTERP = EngineConfig()
COMPILED = INTERP.replace(use_compiled=True)


# ------------------------------------------------------------------------------------
# plan shapes over the shared unit catalog
# ------------------------------------------------------------------------------------


def filter_aggregate_plan() -> Aggregate:
    return Aggregate(
        Select(
            TableScan("unit"),
            col("x").gt(lit(40.0)).and_(col("health").gt(lit(10.0))),
        ),
        ["player"],
        [
            AggregateSpec("n", "count"),
            AggregateSpec("total_hp", "sum", col("health")),
        ],
    )


def multi_fragment_aggregate_plan() -> Aggregate:
    """Aggregates over *different* arguments: exercises the state-slot
    fallback instead of the single-gather fast path."""
    return Aggregate(
        Select(TableScan("unit"), col("health").gt(lit(5.0))),
        ["player"],
        [
            AggregateSpec("hp", "sum", col("health")),
            AggregateSpec("west", "min", col("x")),
            AggregateSpec("north", "max", col("y")),
            AggregateSpec("mean_hp", "avg", col("health")),
        ],
    )


def project_plan() -> Project:
    return Project(
        Select(TableScan("unit", "u"), col("u.health").gt(lit(50.0))),
        {"id": col("u.id"), "scaled": col("u.x") * lit(2.0)},
    )


def equi_join_plan() -> Select:
    join = Join(
        TableScan("unit", alias="a"),
        TableScan("unit", alias="b"),
        col("a.player").eq(col("b.player")),
    )
    return Select(join, col("a.health").gt(col("b.health")))


def band_join_plan() -> Select:
    join = Join(
        TableScan("unit", alias="self"),
        TableScan("unit", alias="u"),
        None,
        how="cross",
    )
    return Select(
        join,
        and_all(
            [
                col("u.x").ge(col("self.x") - col("self.range")),
                col("u.x").le(col("self.x") + col("self.range")),
                col("u.y").ge(col("self.y") - col("self.range")),
                col("u.y").le(col("self.y") + col("self.range")),
            ]
        ),
    )


ALL_PLANS = {
    "filter_aggregate": filter_aggregate_plan,
    "multi_fragment_aggregate": multi_fragment_aggregate_plan,
    "project": project_plan,
    "equi_join": equi_join_plan,
    "band_join": band_join_plan,
}


# ------------------------------------------------------------------------------------
# executor-level exact equivalence
# ------------------------------------------------------------------------------------


class TestExactEquivalence:
    @pytest.mark.parametrize("shape", sorted(ALL_PLANS))
    def test_rows_and_order_match_interpreted(self, unit_catalog, shape):
        plan = ALL_PLANS[shape]()
        interp = Executor(unit_catalog, INTERP)
        compiled = Executor(unit_catalog, COMPILED)
        expected = interp.execute(plan)
        got = compiled.execute(plan)
        assert got.rows == expected.rows  # identical rows, identical order
        report = compiled.kernel_report()
        assert report["compiled"] >= 1, f"{shape} was not compiled: {report}"
        assert report["declined"] == 0, report

    @pytest.mark.parametrize("shape", sorted(ALL_PLANS))
    def test_equivalence_survives_churn(self, unit_catalog, shape):
        plan = ALL_PLANS[shape]()
        interp = Executor(unit_catalog, INTERP)
        compiled = Executor(unit_catalog, COMPILED)
        table = unit_catalog.table("unit")
        rng = random.Random(9)
        for tick in range(6):
            rowids = list(table.row_ids())
            for rowid in rng.sample(rowids, 10):
                table.update(
                    rowid,
                    {"x": rng.uniform(0, 100), "health": rng.uniform(0, 100)},
                )
            if tick % 2 == 0:
                table.insert(
                    {
                        "id": 1000 + tick,
                        "player": tick % 4,
                        "x": rng.uniform(0, 100),
                        "y": rng.uniform(0, 100),
                        "health": rng.randint(1, 100),
                        "range": 10,
                    }
                )
                table.delete(rng.choice(rowids))
            assert compiled.execute(plan).rows == interp.execute(plan).rows, (
                f"{shape} diverged at tick {tick}"
            )


# ------------------------------------------------------------------------------------
# plan shape and choice equivalence
# ------------------------------------------------------------------------------------


def _batch_ops(physical):
    """All batch operators reachable through the plan's bridge boundaries."""
    from repro.engine.operators import BatchBridgeOp

    def walk_batch(op):
        yield op
        for child in op.children:
            yield from walk_batch(child)

    for op in physical.walk():
        if isinstance(op, BatchBridgeOp):
            yield from walk_batch(op.batch_root)


class TestPlanChoice:
    def test_band_join_lowers_to_kernel(self, unit_catalog):
        executor = Executor(unit_catalog, COMPILED)
        physical = executor.prepare(band_join_plan(), cache=False).physical
        assert any(isinstance(op, KernelOp) for op in _batch_ops(physical))

    def test_kernel_declines_when_planner_would_index(self, unit_catalog):
        """Plan *choice* equivalence: with a band-covering index present the
        interpreted planner probes it, so the compiler must stand aside."""
        unit_catalog.create_index("unit", "xy", GridIndex(["x", "y"], cell_size=5.0))
        executor = Executor(unit_catalog, COMPILED)
        physical = executor.prepare(band_join_plan(), cache=False).physical
        assert not any(isinstance(op, KernelOp) for op in _batch_ops(physical))
        interp = Executor(unit_catalog, INTERP)
        plan = band_join_plan()
        assert executor.execute(plan).rows == interp.execute(plan).rows


# ------------------------------------------------------------------------------------
# cache lifecycle: fingerprint hits and shape-change invalidation
# ------------------------------------------------------------------------------------


class TestKernelCache:
    def test_fingerprint_cache_hit_across_replans(self, unit_catalog):
        executor = Executor(unit_catalog, COMPILED)
        plan = filter_aggregate_plan()
        executor.execute(plan)
        assert executor.kernel_report()["compiled"] == 1
        executor.prepare(filter_aggregate_plan(), cache=False)  # same fingerprint
        report = executor.kernel_report()
        assert report["compiled"] == 1
        assert report["hits"] >= 1

    def test_invalidate_plans_drops_kernels(self, unit_catalog):
        executor = Executor(unit_catalog, COMPILED)
        plan = filter_aggregate_plan()
        executor.execute(plan)
        executor.invalidate_plans()
        assert executor.kernel_report()["cached"] == 0
        executor.execute(plan)
        assert executor.kernel_report()["compiled"] == 2  # recompiled, not served stale

    def test_full_invalidate_drops_kernels(self, unit_catalog):
        executor = Executor(unit_catalog, COMPILED)
        executor.execute(filter_aggregate_plan())
        executor.invalidate()
        assert executor.kernel_report()["cached"] == 0

    def test_catalog_shape_change_mid_run_stays_correct(self, unit_catalog):
        """Regression (satellite 3): after the catalog shape changes
        mid-run, ``invalidate_plans`` must drop the compiled kernels along
        with the plans — a stale band kernel would keep grid-rebuilding
        while the interpreted planner switched to the new index."""
        plan = band_join_plan()
        compiled = Executor(unit_catalog, COMPILED)
        interp = Executor(unit_catalog, INTERP)
        assert compiled.execute(plan).rows == interp.execute(plan).rows
        assert compiled.kernel_report()["compiled"] == 1

        unit_catalog.create_index("unit", "xy", GridIndex(["x", "y"], cell_size=5.0))
        compiled.invalidate_plans()
        interp.invalidate_plans()
        assert compiled.kernel_report()["cached"] == 0
        assert compiled.execute(plan).rows == interp.execute(plan).rows
        physical = compiled.prepare(plan).physical
        assert not any(isinstance(op, KernelOp) for op in _batch_ops(physical))

        unit_catalog.drop_index("unit", "xy")
        compiled.invalidate_plans()
        interp.invalidate_plans()
        assert compiled.execute(plan).rows == interp.execute(plan).rows
        assert compiled.kernel_report()["compiled"] == 2  # re-fused after the drop


# ------------------------------------------------------------------------------------
# MQO interaction: shared subplans and alias-renamed subscribers
# ------------------------------------------------------------------------------------


class TestSharedPlans:
    def _subscriber(self, alias: str) -> Project:
        return Project(
            Select(TableScan("unit", alias), col(f"{alias}.x").gt(lit(40.0))),
            {"__target__": col(f"{alias}.id"), "__value__": col(f"{alias}.health")},
        )

    def test_alias_renamed_subscribers_match_interpreted(self, unit_catalog):
        plans = [self._subscriber("a"), self._subscriber("b")]
        specs = [TickQuerySpec(key=f"q{i}", plan=p) for i, p in enumerate(plans)]
        compiled = Executor(unit_catalog, COMPILED)
        plain = Executor(unit_catalog, INTERP)
        results = compiled.execute_tick(specs)
        assert compiled.last_tick_stats["shared_subplans"] == 1
        for plan, result in zip(plans, results):
            assert result.rows == plain.execute(plan).rows

    def test_shared_tick_results_stay_fresh_after_mutation(self, unit_catalog):
        plans = [self._subscriber("a"), self._subscriber("b")]
        specs = [TickQuerySpec(key=f"q{i}", plan=p) for i, p in enumerate(plans)]
        compiled = Executor(unit_catalog, COMPILED)
        plain = Executor(unit_catalog, INTERP)
        compiled.execute_tick(specs)
        table = unit_catalog.table("unit")
        table.update(next(iter(table.row_ids())), {"x": 99.0, "health": 1.0})
        results = compiled.execute_tick(specs)
        for plan, result in zip(plans, results):
            assert result.rows == plain.execute(plan).rows


# ------------------------------------------------------------------------------------
# whole-world equivalence and replay determinism under the fastest preset
# ------------------------------------------------------------------------------------


def _world_snapshot(world) -> dict:
    return {
        table.name: sorted(tuple(sorted(r.items())) for r in table.rows())
        for table in world.catalog.tables()
    }


class TestWholeWorld:
    @pytest.mark.parametrize("workload", sorted(REPLAY_WORKLOADS))
    def test_compiled_world_matches_default(self, workload):
        """Tick two copies of the same seeded world — default config vs the
        ``fastest`` preset — with identical churn: every post-tick state of
        every table must match exactly."""
        build, churn = REPLAY_WORKLOADS[workload]
        w_default = build()
        w_compiled = build(config=EngineConfig.fastest())
        rng_a, rng_b = random.Random(31), random.Random(31)
        for tick in range(8):
            churn(w_default, rng_a)
            churn(w_compiled, rng_b)
            w_default.tick()
            w_compiled.tick()
            assert _world_snapshot(w_default) == _world_snapshot(w_compiled), (
                f"{workload} diverged at tick {tick}"
            )

    @pytest.mark.parametrize("workload", sorted(REPLAY_WORKLOADS))
    def test_replay_determinism_holds_compiled(self, workload):
        """The PR-6 replay guarantee re-run under kernel compilation: the
        compiled run's WAL produces the same commits as the interpreted
        run's, and replay reconstructs every boundary exactly."""
        path, states, records = run_with_wal(
            workload, churn_seed=42, config=EngineConfig.fastest()
        )
        _, interp_states, interp_records = run_with_wal(workload, churn_seed=42)
        assert states == interp_states
        assert records == interp_records
        for tick in sorted(states):
            replayed = replay_tables(path, tick=tick)
            assert replayed.tables == states[tick], f"divergence at tick {tick}"
