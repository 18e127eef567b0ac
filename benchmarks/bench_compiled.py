"""E19 — plan-to-kernel compilation vs. the interpreted batch path.

The kernel compiler (``repro/engine/compile/``) collapses a fusable
physical pipeline — filter+project+join+aggregate over column lists —
into one generated Python function, cached by the MQO plan fingerprint.
These benchmarks gate the two hot shapes the compiler exists for:

* the filter+aggregate tick query from the low-churn tick scenario
  (``incremental_scenario.py``), where the interpreted batch path runs
  four operators with per-operator materialization and the kernel runs
  one loop, and
* the band join from the index-join scenario
  (``index_join_scenario.py``), where the kernel fuses the transient-grid
  range probe and its residual filter.

Both gates require the compiled path >= 2x the interpreted batch path,
with identical rows — in identical order — every churned tick.  Churn and
the tick-shared columnar snapshot are built outside the timed region
(during a real tick every query of the tick shares one snapshot), and the
two paths are timed back-to-back within each tick so machine noise hits
both sides alike.
"""

from __future__ import annotations

import random
import time

import incremental_scenario
import index_join_scenario
from repro.engine import EngineConfig
from repro.engine.executor import Executor

TICKS_FILTER_AGG = 60
TICKS_BAND = 20
GATE_SPEEDUP = 2.0

INTERP_CONFIG = EngineConfig(use_indexes=False)
COMPILED_CONFIG = INTERP_CONFIG.replace(use_compiled=True)


def _paired_run(catalog, plan, warm_tables, churn, ticks):
    """Time interpreted vs compiled execution of *plan* tick by tick.

    Returns ``(interp_seconds, compiled_seconds)``; asserts exact row and
    row-order equality on every tick.
    """
    interp = Executor(catalog, INTERP_CONFIG)
    compiled = Executor(catalog, COMPILED_CONFIG)
    interp.execute(plan)
    compiled.execute(plan)
    interp_total = compiled_total = 0.0
    for tick in range(ticks):
        churn(tick)
        for table in warm_tables:
            table.to_batch()
        start = time.perf_counter()
        expected = interp.execute(plan).rows
        interp_total += time.perf_counter() - start
        start = time.perf_counter()
        got = compiled.execute(plan).rows
        compiled_total += time.perf_counter() - start
        assert got == expected, f"tick {tick}: compiled rows diverged"
    report = compiled.kernel_report()
    assert report["compiled"] >= 1, report
    assert report["declined"] == 0, report
    return interp_total, compiled_total


def _filter_aggregate_run(ticks=TICKS_FILTER_AGG):
    catalog, units = incremental_scenario.build_units_catalog()
    plan = incremental_scenario.tick_query()
    rng = random.Random(incremental_scenario.SEED)
    return _paired_run(
        catalog,
        plan,
        [units],
        lambda tick: incremental_scenario.churn_step(units, rng, tick),
        ticks,
    )


def _band_join_run(ticks=TICKS_BAND):
    catalog, units, scouts = index_join_scenario.build_band_catalog()
    plan = index_join_scenario.band_join_query()
    rng = random.Random(index_join_scenario.SEED)
    return _paired_run(
        catalog,
        plan,
        [units, scouts],
        lambda tick: index_join_scenario.churn_step(units, scouts, rng, tick),
        ticks,
    )


def test_compiled_filter_aggregate_gate():
    """Acceptance: the fused filter+aggregate kernel is >= 2x the
    interpreted batch operators on the hot grouped-aggregate tick query."""
    interp, compiled = _filter_aggregate_run()
    speedup = interp / compiled
    print(
        f"\nfilter+aggregate: interpreted {interp * 1000:.1f} ms, "
        f"compiled {compiled * 1000:.1f} ms, speedup {speedup:.2f}x"
    )
    assert speedup >= GATE_SPEEDUP, (
        f"compiled filter+aggregate speedup {speedup:.2f}x below the "
        f"{GATE_SPEEDUP:.1f}x gate"
    )


def test_compiled_band_join_gate():
    """Acceptance: the fused band-join kernel is >= 2x the interpreted
    range-probe join on the scout/unit proximity query."""
    interp, compiled = _band_join_run()
    speedup = interp / compiled
    print(
        f"\nband join: interpreted {interp * 1000:.1f} ms, "
        f"compiled {compiled * 1000:.1f} ms, speedup {speedup:.2f}x"
    )
    assert speedup >= GATE_SPEEDUP, (
        f"compiled band-join speedup {speedup:.2f}x below the {GATE_SPEEDUP:.1f}x gate"
    )


def test_kernel_cache_serves_repeated_plans():
    """Replanning the same query must hit the fingerprint-keyed cache."""
    catalog, units = incremental_scenario.build_units_catalog(n_rows=500)
    plan = incremental_scenario.tick_query()
    executor = Executor(catalog, COMPILED_CONFIG)
    executor.execute(plan)
    executor.invalidate_plans()  # drops kernels with the plans
    executor.execute(plan)
    report = executor.kernel_report()
    assert report["compiled"] == 2, report  # recompiled after invalidation
    executor.planner.plan(plan)  # fresh lowering, same fingerprint
    assert executor.kernel_report()["hits"] >= 1


if __name__ == "__main__":
    test_compiled_filter_aggregate_gate()
    test_compiled_band_join_gate()
    test_kernel_cache_serves_repeated_plans()
    print("ok")
