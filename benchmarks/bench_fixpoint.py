"""E20 — semi-naive fixpoint evaluation vs naive, and warm re-closure.

Recursive plans make reachability a first-class query, but only if the
iteration strategy is right: naive evaluation re-derives the entire
accumulator every round, while semi-naive joins just the previous round's
delta against the step body.  On the long-diameter closure scenario
(``fixpoint_scenario.py``) that is O(n) vs O(n²) row work for identical
results.

Measurements:

* the acceptance gates: semi-naive must beat naive by >= 3x on the shared
  scenario, and — under 1% insert-only edge churn — warm re-closure from
  the cached accumulator (delta variants) must beat from-scratch
  semi-naive recomputation by >= 2x, with every path's result equal to
  the imperative BFS oracle every tick,
* pytest-benchmark timings of one churn+closure tick per path.
"""

from __future__ import annotations

import random
import time

import pytest

from fixpoint_scenario import (
    CHURN_FRACTION,
    SEED,
    bfs_reachable,
    build_edges_catalog,
    churn_step,
    closure_plan,
    cold_semi_naive_executor,
)
from repro.engine.config import EngineConfig
from repro.engine.executor import Executor

TICKS = 8
#: The naive path is O(n²) per closure — time it on the first few ticks
#: only and compare per-tick averages (the graph only grows with churn,
#: so early ticks favor naive; the gate is conservative).
NAIVE_TICKS = 2


def _nodes(rows) -> set:
    return {row["node"] for row in rows}


def test_semi_naive_and_warm_restart_speedups():
    """Acceptance: >= 3x semi-naive vs naive; >= 2x warm vs from-scratch
    under insert-only churn; all paths equal to the BFS oracle each tick."""
    catalog, edges = build_edges_catalog()
    plan = closure_plan()
    naive_exec = Executor(catalog, EngineConfig(use_fixpoint=False))
    semi_exec = cold_semi_naive_executor(catalog)
    warm_exec = Executor(catalog, EngineConfig())

    # Warm the plan caches (and the warm path's cached closure) once.
    for executor in (naive_exec, semi_exec, warm_exec):
        assert _nodes(executor.execute(plan).rows) == bfs_reachable(edges)

    rng = random.Random(SEED)
    naive_time = semi_time = warm_time = 0.0
    for tick in range(TICKS):
        churn_step(edges, rng, tick)
        oracle = bfs_reachable(edges)
        start = time.perf_counter()
        semi_rows = semi_exec.execute(plan).rows
        semi_time += time.perf_counter() - start
        assert _nodes(semi_rows) == oracle, f"tick {tick}: semi != oracle"
        if tick < NAIVE_TICKS:
            start = time.perf_counter()
            naive_rows = naive_exec.execute(plan).rows
            naive_time += time.perf_counter() - start
            assert _nodes(naive_rows) == oracle, f"tick {tick}: naive != oracle"
        start = time.perf_counter()
        warm_rows = warm_exec.execute(plan).rows
        warm_time += time.perf_counter() - start
        assert _nodes(warm_rows) == oracle, f"tick {tick}: warm != oracle"

    warm_report = warm_exec.fixpoint_report()
    assert warm_report["warm_restarts"] >= TICKS, warm_report

    semi_speedup = (naive_time / NAIVE_TICKS) / (semi_time / TICKS)
    warm_speedup = semi_time / warm_time
    print(
        f"\nat {CHURN_FRACTION:.0%} edge churn: "
        f"naive {naive_time / NAIVE_TICKS * 1e3:.1f}ms/tick, semi-naive "
        f"{semi_time / TICKS * 1e3:.1f}ms/tick, warm {warm_time / TICKS * 1e3:.1f}ms/tick "
        f"-> {semi_speedup:.1f}x semi vs naive, "
        f"{warm_speedup:.1f}x warm vs from-scratch"
    )
    assert semi_speedup >= 3.0, f"semi-naive only {semi_speedup:.2f}x vs naive"
    assert warm_speedup >= 2.0, f"warm re-closure only {warm_speedup:.2f}x vs from-scratch"


def test_unchanged_graph_serves_cached_closure():
    """No churn between executions: the version-vector cache answers."""
    catalog, edges = build_edges_catalog(n_nodes=200)
    plan = closure_plan()
    executor = Executor(catalog, EngineConfig())
    first = _nodes(executor.execute(plan).rows)
    rounds_after_first = executor.fixpoint_report()["total_rounds"]
    second = _nodes(executor.execute(plan).rows)
    report = executor.fixpoint_report()
    assert second == first
    assert report["cache_hits"] == 1
    assert report["total_rounds"] == rounds_after_first


@pytest.mark.benchmark(group="E20-fixpoint-closure")
def test_closure_semi_naive(benchmark):
    catalog, edges = build_edges_catalog()
    plan = closure_plan()
    executor = cold_semi_naive_executor(catalog)
    executor.execute(plan)
    rng = random.Random(SEED)
    state = {"tick": 0}

    def one_tick():
        churn_step(edges, rng, state["tick"])
        state["tick"] += 1
        executor.execute(plan)

    benchmark(one_tick)


@pytest.mark.benchmark(group="E20-fixpoint-closure")
def test_closure_naive(benchmark):
    catalog, edges = build_edges_catalog()
    plan = closure_plan()
    executor = Executor(catalog, EngineConfig(use_fixpoint=False))
    executor.execute(plan)
    rng = random.Random(SEED)
    state = {"tick": 0}

    def one_tick():
        churn_step(edges, rng, state["tick"])
        state["tick"] += 1
        executor.execute(plan)

    benchmark(one_tick)


@pytest.mark.benchmark(group="E20-fixpoint-closure")
def test_closure_warm(benchmark):
    catalog, edges = build_edges_catalog()
    plan = closure_plan()
    executor = Executor(catalog, EngineConfig())
    executor.execute(plan)
    rng = random.Random(SEED)
    state = {"tick": 0}

    def one_tick():
        churn_step(edges, rng, state["tick"])
        state["tick"] += 1
        executor.execute(plan)

    benchmark(one_tick)
