"""E15 — persistent index-backed band joins vs. per-tick grid rebuilds.

Section 4.2 of the paper argues that indexing is what makes per-tick range
queries scale — yet until PR 3 the band-join operators rebuilt a transient
grid over the inner side on every execution while registered
``GridIndex``/``RangeTreeIndex`` structures (maintained O(1) per mutation)
sat unused by the planner.  This benchmark measures what probing the
persistent index buys on the shared moving-units scenario
(``index_join_scenario.py``: 10k units at ~1% churn, probed by a 150-scout
squad running the Figure-2 band join each tick).

Measurements:

* the acceptance gate: the indexed path must beat the grid-rebuild path by
  >= 3x across a multi-tick run, with indexed/batch/row results asserted
  equivalent every tick,
* pytest-benchmark timings of one churn+query tick per path.
"""

from __future__ import annotations

import random
import time

import pytest

from index_join_scenario import (
    CHURN_FRACTION,
    SEED,
    band_join_query,
    build_band_catalog,
    churn_step,
)
from repro.engine.config import EngineConfig
from repro.engine.executor import Executor
from repro.engine.operators import BatchBridgeOp, BatchIndexProbeJoinOp, RangeProbeJoinOp

TICKS = 30


def _normalized(rows):
    return sorted((tuple(sorted(r.items())) for r in rows), key=repr)


def _op_names(executor, plan):
    """Operator class names of *plan*'s physical tree, batch subtrees included."""
    names = []
    stack = [executor.prepare(plan).physical]
    while stack:
        op = stack.pop()
        names.append(type(op).__name__)
        if isinstance(op, BatchBridgeOp):
            stack.append(op.batch_root)
        stack.extend(op.children)
    return names


def _paths(catalog):
    return {
        "indexed": Executor(catalog),
        "rebuild": Executor(catalog, config=EngineConfig(use_indexes=False)),
        "row": Executor(catalog, config=EngineConfig(use_indexes=False, use_batch=False)),
    }


def test_index_join_speedup_vs_rebuild():
    """Acceptance: >= 3x over the per-tick grid-rebuild path at ~1% churn,
    with indexed/batch/row equivalence asserted every tick."""
    catalog, units, scouts = build_band_catalog()
    plan = band_join_query()
    paths = _paths(catalog)

    # The planner must actually have chosen the two paths being compared.
    indexed_ops = _op_names(paths["indexed"], plan)
    rebuild_ops = _op_names(paths["rebuild"], plan)
    assert BatchIndexProbeJoinOp.__name__ in indexed_ops, indexed_ops
    assert RangeProbeJoinOp.__name__ in rebuild_ops, rebuild_ops

    # Correctness first: all three paths must agree under churn, per tick.
    rng = random.Random(SEED + 1)
    for tick in range(8):
        rows = {name: executor.execute(plan).rows for name, executor in paths.items()}
        assert rows["indexed"], f"tick {tick}: no matches, gate would be vacuous"
        assert _normalized(rows["indexed"]) == _normalized(rows["rebuild"]), f"tick {tick}"
        assert _normalized(rows["indexed"]) == _normalized(rows["row"]), f"tick {tick}"
        churn_step(units, scouts, rng, tick)

    # Timing: per tick, churn once, then run each path on identical state.
    totals = dict.fromkeys(paths, 0.0)
    for tick in range(TICKS):
        churn_step(units, scouts, rng, tick)
        for name, executor in paths.items():
            start = time.perf_counter()
            executor.execute(plan)
            totals[name] += time.perf_counter() - start

    speedup = totals["rebuild"] / totals["indexed"]
    row_speedup = totals["row"] / totals["indexed"]
    print(
        f"\n{TICKS} ticks at {CHURN_FRACTION:.0%} churn: "
        f"indexed {totals['indexed'] * 1e3:.1f}ms, rebuild {totals['rebuild'] * 1e3:.1f}ms, "
        f"row {totals['row'] * 1e3:.1f}ms -> {speedup:.1f}x vs rebuild, "
        f"{row_speedup:.1f}x vs row"
    )
    assert speedup >= 3.0, f"indexed band join only {speedup:.2f}x vs grid rebuild"


@pytest.mark.benchmark(group="E15-index-join-tick")
def test_tick_indexed(benchmark):
    catalog, units, scouts = build_band_catalog()
    plan = band_join_query()
    executor = Executor(catalog)
    executor.execute(plan)
    rng = random.Random(SEED)
    state = {"tick": 0}

    def one_tick():
        churn_step(units, scouts, rng, state["tick"])
        state["tick"] += 1
        executor.execute(plan)

    benchmark(one_tick)


@pytest.mark.benchmark(group="E15-index-join-tick")
def test_tick_grid_rebuild(benchmark):
    catalog, units, scouts = build_band_catalog()
    plan = band_join_query()
    executor = Executor(catalog, config=EngineConfig(use_indexes=False))
    executor.execute(plan)
    rng = random.Random(SEED)
    state = {"tick": 0}

    def one_tick():
        churn_step(units, scouts, rng, state["tick"])
        state["tick"] += 1
        executor.execute(plan)

    benchmark(one_tick)
