"""E16 — tick-wide shared-subplan pipelines vs. per-query execution.

N scripts over one class re-derive the same hot join every tick; the
multi-query-optimized pipeline (``Executor.prepare_tick`` /
``execute_tick``, planned by ``repro/engine/optimizer/mqo.py``) evaluates
each shared subplan once per tick and serves every consumer from the
materialization, with effect aggregation optionally fused in-plan.

Measurements:

* the acceptance gate: on the shared many-scripts scenario
  (``shared_plans_scenario.py``, 8 queries sharing one band join) the
  pipeline must beat per-query execution by >= 2x across a multi-tick
  churned run, with both paths producing identical rows every tick,
* world-level: a generated many-scripts RTS-style world timed with MQO on
  and off (informational — the world tick includes update/reactive steps
  that sharing does not touch),
* sink fusion: per-target partials must reproduce the row-at-a-time
  effect-store fold exactly.
"""

from __future__ import annotations

import random
import time

from shared_plans_scenario import (
    N_QUERIES,
    SEED,
    build_units_catalog,
    churn_step,
    tick_queries,
    tick_specs,
)
from repro import ExecutionMode
from repro.engine.config import EngineConfig
from repro.runtime.world import GameWorld
from repro.engine.executor import Executor

TICKS = 20


def _normalized(rows):
    return sorted(tuple(sorted(r.items())) for r in rows)


def test_shared_tick_equivalence():
    """Pipeline results must match per-query execution row-for-row."""
    catalog, units = build_units_catalog(n_rows=600)
    plans = tick_queries()
    specs = tick_specs(plans)
    shared_exec = Executor(catalog)
    unshared_exec = Executor(catalog)
    rng = random.Random(SEED + 1)
    for tick in range(5):
        shared_results = shared_exec.execute_tick(specs)
        for plan, result in zip(plans, shared_results):
            expected = unshared_exec.execute(plan).rows
            assert result.rows is not None
            assert _normalized(result.rows) == _normalized(expected), (
                f"tick {tick}, query {result.key}"
            )
        churn_step(units, rng)
    stats = shared_exec.last_tick_stats
    assert stats["shared_subplans"] >= 1, stats
    assert stats["evaluations_saved"] >= N_QUERIES - 1, stats


def test_shared_plan_speedup_gate():
    """Acceptance: the shared pipeline is >= 2x per-query execution on the
    many-scripts-one-hot-join scenario."""
    catalog, units = build_units_catalog()
    plans = tick_queries()
    specs = tick_specs(plans)
    shared_exec = Executor(catalog)
    unshared_exec = Executor(catalog)
    # Warm both plan caches / pipelines.
    shared_exec.execute_tick(specs)
    for plan in plans:
        unshared_exec.execute(plan)

    rng = random.Random(SEED)
    shared_time = unshared_time = 0.0
    for _ in range(TICKS):
        churn_step(units, rng)
        start = time.perf_counter()
        shared_exec.execute_tick(specs)
        shared_time += time.perf_counter() - start
        start = time.perf_counter()
        for plan in plans:
            unshared_exec.execute(plan)
        unshared_time += time.perf_counter() - start

    speedup = unshared_time / shared_time
    print(
        f"\n{TICKS} ticks x {len(plans)} queries: shared {shared_time * 1e3:.1f}ms, "
        f"unshared {unshared_time * 1e3:.1f}ms -> {speedup:.1f}x"
    )
    assert speedup >= 2.0, f"shared pipeline only {speedup:.2f}x vs per-query"


def _many_scripts_source(n_scripts: int = 6) -> str:
    """An RTS-style program whose scripts all share the same hot band join."""
    effects = "\n".join(f"    number dmg{i} : sum;" for i in range(n_scripts))
    scripts = "\n".join(
        f"""
script s{i}(Unit self) {{
  accum number tot with sum over Unit u from UNIT {{
    if (u.x >= x - range && u.x <= x + range &&
        u.y >= y - range && u.y <= y + range && u.player != player) {{
      u.dmg{i} <- attack * {i + 1};
      tot <- 1;
    }}
  }} in {{
    if (tot == 0) {{ dmg{i} <- 0; }}
  }}
}}"""
        for i in range(n_scripts)
    )
    return f"""
class Unit {{
  state:
    number player = 0;
    number x = 0;
    number y = 0;
    number range = 10;
    number attack = 1;
  effects:
{effects}
}}
{scripts}
"""


def _build_many_scripts_world(use_mqo: bool) -> GameWorld:
    rng = random.Random(SEED)
    world = GameWorld(
        _many_scripts_source(),
        mode=ExecutionMode.COMPILED,
        config=EngineConfig(use_mqo=use_mqo),
    )
    world.spawn_many(
        "Unit",
        [
            {
                "player": i % 2,
                "x": rng.uniform(0, 200),
                "y": rng.uniform(0, 200),
                "range": 10,
                "attack": rng.choice([1, 2]),
            }
            for i in range(400)
        ],
    )
    return world


def test_world_many_scripts_sharing():
    """World-level: MQO must engage (shared subplans + fused effects) and
    produce the same combined effects as the unshared tick."""
    world_mqo = _build_many_scripts_world(use_mqo=True)
    world_plain = _build_many_scripts_world(use_mqo=False)
    for _ in range(3):
        report = world_mqo.tick()
        world_plain.tick()
        assert world_mqo.last_effects.values == world_plain.last_effects.values
        assert (
            world_mqo.last_effects.assignment_counts
            == world_plain.last_effects.assignment_counts
        )
    assert report.shared_subplans >= 1
    assert report.fused_effect_rows > 0

    def mean_tick(world, ticks=5):
        start = time.perf_counter()
        for _ in range(ticks):
            world.tick()
        return (time.perf_counter() - start) / ticks

    mqo_tick = mean_tick(world_mqo)
    plain_tick = mean_tick(world_plain)
    print(
        f"\nmany-scripts world: mqo {mqo_tick * 1e3:.2f}ms/tick, "
        f"unshared {plain_tick * 1e3:.2f}ms/tick -> {plain_tick / mqo_tick:.1f}x"
    )
