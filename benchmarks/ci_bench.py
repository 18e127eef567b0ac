"""CI benchmark pipeline: record the perf trajectory, gate regressions.

Runs a fixed-seed benchmark suite and writes ``BENCH_tick.json``:

* per-workload tick times (rts / traffic / marketplace, compiled mode,
  default engine configuration) — recorded for trend tracking,
* the shared low-churn tick scenario
  (``benchmarks/incremental_scenario.py``) timed on the batch and row
  execution paths, yielding the batch-vs-row speedup of the hot tick
  query,
* the shared moving-units band-join scenario
  (``benchmarks/index_join_scenario.py``) timed on the persistent-index,
  grid-rebuild and row paths, yielding the index-join speedups,
* the shared many-scripts scenario (``benchmarks/shared_plans_scenario.py``)
  timed through the tick pipeline (``Executor.execute_tick``, shared
  subplans evaluated once per tick) and per-query, yielding the
  multi-query-optimization speedup,
* the shared subscription-serving scenario
  (``benchmarks/subscription_scenario.py``, 1k subscribers / 1% churn)
  timed as delta fan-out (``SubscriptionManager.flush``) and as naive
  per-client re-query, yielding the subscription fan-out speedup,
* the WAL durability scenario (gated rts workload with an attached delta
  log), yielding the persist phase against a plain JSON encode of the
  rows it persists and the replay speedup against applying the log's
  decoded rows one by one (tick throughput with vs without the persist
  phase and the replay-vs-live-rerun ratio are recorded ungated),
* the shared transitive-closure scenario
  (``benchmarks/fixpoint_scenario.py``, long-diameter supply graph under
  1% insert-only edge churn) timed as naive fixpoint, from-scratch
  semi-naive (warm restarts switched off on the planner), and warm
  re-closure from the cached accumulator, yielding the semi-naive and
  warm-restart speedups,
* the kernel-compilation scenarios (``benchmarks/bench_compiled.py``):
  the hot filter+aggregate tick query and the scout/unit band join, each
  timed compiled vs interpreted-batch, yielding the compiled speedups,
* the sharded-execution scenario (``benchmarks/shard_scenario.py``,
  10k-unit rts world with 1k AOI subscribers split across 4 worker
  processes), yielding the critical-path shard speedup vs the
  single-process oracle plus the exchange bytes shipped per tick.

Regression gating compares the *dimensionless speedups* against the
checked-in baseline (``benchmarks/BENCH_baseline.json``) and fails when any
drops by more than ``--tolerance`` (default 20%).  Absolute tick times are
recorded in the artifact but never gated — CI runners differ too much in
raw speed for wall-clock thresholds to be meaningful; the ratios between
paths on the same machine are stable.

Every run also *appends* its gated metrics (plus the workload tick
medians) to the ``history`` list carried forward from the previous
``BENCH_tick.json``, so the artifact accumulates the perf trajectory
across CI runs instead of holding only the latest sample.

Usage::

    python benchmarks/ci_bench.py --output BENCH_tick.json \
        --baseline benchmarks/BENCH_baseline.json          # check (CI)
    python benchmarks/ci_bench.py --write-baseline         # refresh baseline
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import statistics
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
)

import bench_compiled  # noqa: E402
from bench_wal import json_encode_seconds, state_versions  # noqa: E402
import fixpoint_scenario  # noqa: E402
import index_join_scenario  # noqa: E402
import shard_scenario  # noqa: E402
import shared_plans_scenario  # noqa: E402
import subscription_scenario  # noqa: E402
from incremental_scenario import (  # noqa: E402
    CHURN_FRACTION,
    SEED,
    build_units_catalog,
    churn_step,
    tick_query,
)
from repro import ExecutionMode  # noqa: E402
from repro.engine import Catalog, EngineConfig  # noqa: E402
from repro.engine.executor import Executor  # noqa: E402
from repro.obs.collector import PHASE_FIELDS  # noqa: E402
from repro.service.subscriptions import SubscriptionManager  # noqa: E402
from repro.workloads import build_rts_world  # noqa: E402
from repro.workloads.marketplace import build_marketplace_world  # noqa: E402
from repro.workloads.traffic import build_traffic_world  # noqa: E402

BASELINE_DEFAULT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "BENCH_baseline.json")

#: Speedup metrics gated against the baseline (path → description).
GATED_METRICS = {
    "batch.speedup_vs_row": "batch path vs row path",
    "index_join.speedup_vs_rebuild": "index-probing band join vs per-tick grid rebuild",
    "index_join.speedup_vs_row": "index-probing band join vs row path",
    "shared_plans.speedup_vs_unshared": "tick-wide shared-subplan pipeline vs per-query execution",
    "subscriptions.fanout_speedup": "subscription delta fan-out vs naive per-client re-query",
    "compiled.speedup_filter_aggregate": "compiled kernel vs interpreted batch, filter+aggregate",
    "compiled.speedup_band_join": "compiled kernel vs interpreted batch, band join",
    "fixpoint.speedup_semi_naive_vs_naive": "semi-naive fixpoint iteration vs naive",
    "fixpoint.incremental_speedup_vs_full": "warm re-closure under churn vs from-scratch semi-naive",
    "wal.persist_speed_vs_json_encode": "plain JSON encode of a tick's changed rows vs the persist phase writing them",
    "wal.replay_speedup_vs_row_apply": "log replay (checkpoint + deltas) vs applying its decoded rows one by one",
    "distributed.shard_speedup": "4-shard critical-path tick CPU vs single-process",
}


def _timed(fn, *args):
    """``(seconds, result)`` of ``fn(*args)``, with garbage collection kept
    out of the timed window as ``timeit`` does: collect first, disable the
    collector while timing, restore its previous state afterwards.  A
    collection otherwise lands wherever the allocation count happens to
    cross its threshold, charging one window for the whole suite's
    garbage."""
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        result = fn(*args)
        return time.perf_counter() - start, result
    finally:
        if enabled:
            gc.enable()


def _time_ticks(world, ticks: int) -> float:
    world.tick()  # warm plan caches and snapshots
    samples = [_timed(world.tick)[0] for _ in range(ticks)]
    return statistics.median(samples)


def _phase_medians(world, ticks: int) -> dict:
    """Per-phase median seconds over the last *ticks* reports, keyed by the
    live metric's phase label (``repro_tick_phase_seconds{phase=...}``)."""
    reports = world.reports[-ticks:]
    return {
        phase: round(statistics.median(getattr(r, attr) for r in reports), 6)
        for phase, attr in PHASE_FIELDS
    }


def bench_workloads() -> dict:
    workloads = {
        "rts": lambda: build_rts_world(150, mode=ExecutionMode.COMPILED),
        "traffic": lambda: build_traffic_world(150, mode=ExecutionMode.COMPILED),
        "marketplace": lambda: build_marketplace_world(60, mode=ExecutionMode.COMPILED),
    }
    out = {}
    for name, builder in workloads.items():
        world = builder()
        median = _time_ticks(world, ticks=15)
        out[name] = {
            "median_tick_seconds": round(median, 6),
            "phase_median_seconds": _phase_medians(world, ticks=15),
        }
    return out


def bench_batch(ticks: int = 30) -> dict:
    catalog, units = build_units_catalog()
    plan = tick_query()
    paths = {
        "batch": Executor(catalog, EngineConfig()),
        "row": Executor(catalog, EngineConfig(use_batch=False)),
    }
    for executor in paths.values():
        executor.execute(plan)
    rng = random.Random(SEED)
    totals = dict.fromkeys(paths, 0.0)
    for tick in range(ticks):
        churn_step(units, rng, tick)
        for name, executor in paths.items():
            totals[name] += _timed(executor.execute, plan)[0]
    return {
        "ticks": ticks,
        "rows": len(units),
        "churn_fraction": CHURN_FRACTION,
        "batch_seconds": round(totals["batch"], 6),
        "row_seconds": round(totals["row"], 6),
        "speedup_vs_row": round(totals["row"] / totals["batch"], 3),
    }


def bench_index_join(ticks: int = 30) -> dict:
    catalog, units, scouts = index_join_scenario.build_band_catalog()
    plan = index_join_scenario.band_join_query()
    paths = {
        "indexed": Executor(catalog, EngineConfig()),
        "rebuild": Executor(catalog, EngineConfig(use_indexes=False)),
        "row": Executor(catalog, EngineConfig(use_indexes=False, use_batch=False)),
    }
    for executor in paths.values():
        executor.execute(plan)
    rng = random.Random(index_join_scenario.SEED)
    totals = dict.fromkeys(paths, 0.0)
    for tick in range(ticks):
        index_join_scenario.churn_step(units, scouts, rng, tick)
        for name, executor in paths.items():
            totals[name] += _timed(executor.execute, plan)[0]
    return {
        "ticks": ticks,
        "units": len(units),
        "scouts": len(scouts),
        "churn_fraction": index_join_scenario.CHURN_FRACTION,
        "indexed_seconds": round(totals["indexed"], 6),
        "rebuild_seconds": round(totals["rebuild"], 6),
        "row_seconds": round(totals["row"], 6),
        "speedup_vs_rebuild": round(totals["rebuild"] / totals["indexed"], 3),
        "speedup_vs_row": round(totals["row"] / totals["indexed"], 3),
    }


def bench_fixpoint(ticks: int = 8, naive_ticks: int = 2) -> dict:
    """Semi-naive vs naive closure, and warm re-closure under edge churn.

    The naive path is O(n²) per closure on the long-diameter scenario, so
    it is timed on the first *naive_ticks* only and compared per tick
    (the graph only grows with churn — early ticks favor naive, making
    the gate conservative)."""
    catalog, edges = fixpoint_scenario.build_edges_catalog()
    plan = fixpoint_scenario.closure_plan()
    naive_exec = Executor(catalog, EngineConfig(use_fixpoint=False))
    semi_exec = fixpoint_scenario.cold_semi_naive_executor(catalog)
    warm_exec = Executor(catalog, EngineConfig())
    for executor in (naive_exec, semi_exec, warm_exec):
        executor.execute(plan)
    rng = random.Random(fixpoint_scenario.SEED)
    naive_total = semi_total = warm_total = 0.0
    for tick in range(ticks):
        fixpoint_scenario.churn_step(edges, rng, tick)
        seconds, semi_result = _timed(semi_exec.execute, plan)
        semi_total += seconds
        if tick < naive_ticks:
            naive_total += _timed(naive_exec.execute, plan)[0]
        warm_total += _timed(warm_exec.execute, plan)[0]
    assert {row["node"] for row in semi_result.rows} == fixpoint_scenario.bfs_reachable(edges)
    naive_per_tick = naive_total / naive_ticks
    semi_per_tick = semi_total / ticks
    warm_per_tick = warm_total / ticks
    return {
        "ticks": ticks,
        "naive_ticks": naive_ticks,
        "edges": len(edges),
        "churn_fraction": fixpoint_scenario.CHURN_FRACTION,
        "naive_seconds_per_tick": round(naive_per_tick, 6),
        "semi_naive_seconds_per_tick": round(semi_per_tick, 6),
        "warm_seconds_per_tick": round(warm_per_tick, 6),
        "warm_restarts": warm_exec.fixpoint_report()["warm_restarts"],
        "speedup_semi_naive_vs_naive": round(naive_per_tick / semi_per_tick, 3),
        "incremental_speedup_vs_full": round(semi_per_tick / warm_per_tick, 3),
    }


def bench_shared_plans(ticks: int = 15) -> dict:
    catalog, units = shared_plans_scenario.build_units_catalog()
    plans = shared_plans_scenario.tick_queries()
    specs = shared_plans_scenario.tick_specs(plans)
    shared_exec = Executor(catalog, EngineConfig())
    unshared_exec = Executor(catalog, EngineConfig())
    shared_exec.execute_tick(specs)
    for plan in plans:
        unshared_exec.execute(plan)
    rng = random.Random(shared_plans_scenario.SEED)
    shared_total = unshared_total = 0.0
    for _ in range(ticks):
        shared_plans_scenario.churn_step(units, rng)
        shared_total += _timed(shared_exec.execute_tick, specs)[0]
        unshared_total += _timed(lambda: [unshared_exec.execute(plan) for plan in plans])[0]
    stats = shared_exec.last_tick_stats
    return {
        "ticks": ticks,
        "rows": len(units),
        "queries": len(plans),
        "shared_subplans": stats.get("shared_subplans", 0),
        "evaluations_saved": stats.get("evaluations_saved", 0),
        "shared_seconds": round(shared_total, 6),
        "unshared_seconds": round(unshared_total, 6),
        "speedup_vs_unshared": round(unshared_total / shared_total, 3),
    }


def bench_subscriptions(ticks: int = 8) -> dict:
    catalog, units = subscription_scenario.build_units_catalog()
    plans = subscription_scenario.client_plans()
    manager = SubscriptionManager(catalog=catalog, executor=Executor(catalog))
    sessions, _ = subscription_scenario.subscribe_clients(manager, plans)
    for session in sessions:
        session.take()
    naive_exec = Executor(catalog, EngineConfig())
    subscription_scenario.naive_tick(naive_exec, plans)  # warm plan cache
    rng = random.Random(subscription_scenario.SEED)
    delta_total = naive_total = 0.0
    messages = 0

    def fan_out(tick: int) -> int:
        manager.flush(tick)
        return sum(len(session.take()) for session in sessions)

    for tick in range(ticks):
        subscription_scenario.churn_step(units, rng)
        seconds, taken = _timed(fan_out, tick)
        delta_total += seconds
        messages += taken
        naive_total += _timed(subscription_scenario.naive_tick, naive_exec, plans)[0]
    return {
        "ticks": ticks,
        "rows": len(units),
        "subscribers": len(plans),
        "churn_fraction": subscription_scenario.CHURN_FRACTION,
        "query_groups": manager.stats()["query_groups"],
        "messages": messages,
        "delta_seconds": round(delta_total, 6),
        "naive_seconds": round(naive_total, 6),
        "fanout_speedup": round(naive_total / delta_total, 3),
    }


#: Interleaved repeats of the replay and row-apply windows in ``bench_wal``.
REPLAY_REPEATS = 9


def _apply_log_rows(records: list[dict], sources: dict) -> dict:
    """Rebuild a log's last state in fresh tables, one row at a time.

    Applies the newest checkpoint's rows, then every later commit's delta
    rows, through :meth:`Table.apply_row_changes` (the engine's replay
    write path: key map, version, change log) from records decoded
    beforehand.  These are the rows :func:`replay_tables` applies, minus
    reading and decoding the log; no query runs.  ``sources`` maps each
    logged table name to the live table whose schema and key to copy.
    """
    checkpoint = max((r for r in records if r.get("k") == "cp"), key=lambda r: r["t"])
    catalog = Catalog()
    tables = {
        name: catalog.create_table(name, source.schema, key=source.key)
        for name, source in sources.items()
    }
    for name, entry in checkpoint["tables"].items():
        cols = entry["cols"]
        tables[name].apply_row_changes(
            (int(rowid), dict(zip(cols, values))) for rowid, values in entry["rows"]
        )
    for record in records:
        if record.get("k") != "c" or record["t"] <= checkpoint["t"]:
            continue
        for name, entry in record["tables"].items():
            cols = entry.get("cols", ())
            tables[name].apply_row_changes(
                (int(rowid), None if new is None else dict(zip(cols, new)))
                for rowid, _old, new in entry.get("d", ())
            )
    return tables


def bench_wal(ticks: int = 15) -> dict:
    """Durability cost and replay throughput on the gated rts workload.

    ``persist_speed_vs_json_encode`` is the median over ticks of (a plain
    ``json.dumps`` of the tick's changed rows) / (the tick's persist phase),
    each pair timed back to back; neither side runs a query (see
    ``bench_wal.json_encode_seconds``).  ``persist_efficiency`` is (median
    tick without WAL) / (median tick with WAL); it is reported but not
    gated, because a faster query engine shrinks the tick and lowers it
    with persist unchanged.  ``replay_speedup_vs_row_apply``
    is (applying the log's decoded rows one by one to fresh tables) /
    (checkpoint + delta replay from disk): neither side runs a query, so
    query-engine speed-ups cannot move it.  ``replay_speedup_vs_live`` is
    (live re-run of the whole history) / (checkpoint + delta replay); it is
    reported but not gated, because its live side is mostly query time.
    """
    import tempfile

    from repro.persistence.replay import iter_log_records, replay_tables

    plain = build_rts_world(150, mode=ExecutionMode.COMPILED)
    path = tempfile.mkdtemp(prefix="ci-wal-")
    walled = build_rts_world(150, mode=ExecutionMode.COMPILED)
    walled.attach_wal(path, checkpoint_interval=50)
    # Interleave the two worlds' ticks so both medians see the same host
    # speed: a ~10 ms tick is short enough for the host to change regime
    # between two back-to-back blocks of ticks.
    plain.tick()  # warm plan caches and snapshots
    walled.tick()
    plain_samples, walled_samples, encode_samples = [], [], []
    for _ in range(ticks):
        plain_samples.append(_timed(plain.tick)[0])
        versions = state_versions(walled)
        walled_samples.append(_timed(walled.tick)[0])
        encode_samples.append(json_encode_seconds(versions))
    plain_median = statistics.median(plain_samples)
    walled_median = statistics.median(walled_samples)
    persist_samples = [report.persist_seconds for report in walled.reports[-ticks:]]
    persist_median = statistics.median(persist_samples)
    encode_ratio = statistics.median(
        encode / persist for encode, persist in zip(encode_samples, persist_samples)
    )
    bytes_per_tick = walled.reports[-1].wal_bytes
    walled.detach_wal()

    def live_rerun() -> None:
        rerun = build_rts_world(150, mode=ExecutionMode.COMPILED)
        for _ in range(ticks + 1):
            rerun.tick()

    live_seconds, _ = _timed(live_rerun)
    records = list(iter_log_records(path))
    # Both windows last ~10 ms, short enough for the host's speed to shift
    # between two of them: gate the median ratio of back-to-back pairs.
    replay_samples, apply_samples = [], []
    for _ in range(REPLAY_REPEATS):
        seconds, state = _timed(replay_tables, path)
        replay_samples.append(seconds)
        sources = {name: walled.catalog.table(name) for name in state.tables}
        seconds, applied = _timed(_apply_log_rows, records, sources)
        apply_samples.append(seconds)
    for name, table in applied.items():
        assert dict(zip(table.row_ids(), table.rows())) == state.tables[name], name
    replay_seconds = statistics.median(replay_samples)
    row_apply_ratio = statistics.median(
        apply / replay for apply, replay in zip(apply_samples, replay_samples)
    )

    return {
        "ticks": ticks,
        "plain_median_tick_seconds": round(plain_median, 6),
        "walled_median_tick_seconds": round(walled_median, 6),
        "persist_median_seconds": round(persist_median, 6),
        "json_encode_median_seconds": round(statistics.median(encode_samples), 6),
        "wal_bytes_per_tick": bytes_per_tick,
        "live_seconds": round(live_seconds, 6),
        "replay_seconds": round(replay_seconds, 6),
        "row_apply_seconds": round(statistics.median(apply_samples), 6),
        "persist_efficiency": round(plain_median / walled_median, 3),
        "persist_speed_vs_json_encode": round(encode_ratio, 3),
        "replay_speedup_vs_row_apply": round(row_apply_ratio, 3),
        "replay_speedup_vs_live": round(live_seconds / replay_seconds, 3),
    }


def bench_compiled_kernels() -> dict:
    """Compiled-vs-interpreted speedups on the two gated kernel shapes."""
    fa_interp, fa_compiled = bench_compiled._filter_aggregate_run()
    band_interp, band_compiled = bench_compiled._band_join_run()
    return {
        "filter_aggregate_interp_seconds": round(fa_interp, 6),
        "filter_aggregate_compiled_seconds": round(fa_compiled, 6),
        "band_join_interp_seconds": round(band_interp, 6),
        "band_join_compiled_seconds": round(band_compiled, 6),
        "speedup_filter_aggregate": round(fa_interp / fa_compiled, 3),
        "speedup_band_join": round(band_interp / band_compiled, 3),
    }


def bench_distributed() -> dict:
    """Sharded multi-process tick vs the single-process oracle.

    The gated ``shard_speedup`` is the scheduling-invariant critical-path
    CPU ratio (see ``shard_scenario.run_shard_benchmark``); wall-clock
    numbers for both sides ride along as informational.
    """
    return shard_scenario.run_shard_benchmark(
        n_units=10_000, n_subscribers=1_000, n_shards=4, warmup=3, ticks=3
    )


def run_suite() -> dict:
    return {
        "schema": 1,
        "workloads": bench_workloads(),
        "batch": bench_batch(),
        "index_join": bench_index_join(),
        "shared_plans": bench_shared_plans(),
        "subscriptions": bench_subscriptions(),
        "wal": bench_wal(),
        "compiled": bench_compiled_kernels(),
        "fixpoint": bench_fixpoint(),
        "distributed": bench_distributed(),
    }


def _lookup(results: dict, dotted: str):
    node = results
    for part in dotted.split("."):
        node = node[part]
    return node


def check_regressions(results: dict, baseline: dict, tolerance: float) -> list[str]:
    failures = []
    for metric, description in GATED_METRICS.items():
        try:
            base = float(_lookup(baseline, metric))
        except (KeyError, TypeError):
            continue  # metric not in baseline yet: informational only
        current = float(_lookup(results, metric))
        floor = base * (1.0 - tolerance)
        if current < floor:
            failures.append(
                f"{metric} ({description}): {current:.2f}x is more than "
                f"{tolerance:.0%} below the baseline {base:.2f}x (floor {floor:.2f}x)"
            )
    return failures


def _append_history(results: dict, output_path: str, limit: int = 200) -> None:
    """Carry the perf trajectory forward: load the previous artifact's
    ``history``, append this run's gated metrics + workload medians, and
    store it (bounded to *limit* entries) in the new results."""
    history: list[dict] = []
    try:
        with open(output_path) as handle:
            history = json.load(handle).get("history", [])
            if not isinstance(history, list):
                history = []
    except (OSError, ValueError):
        pass
    entry: dict = {
        "recorded_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "metrics": {},
        "workloads": {},
    }
    for metric in GATED_METRICS:
        try:
            entry["metrics"][metric] = float(_lookup(results, metric))
        except (KeyError, TypeError):
            continue
    for name, data in results.get("workloads", {}).items():
        entry["workloads"][name] = {
            "median_tick_seconds": data.get("median_tick_seconds"),
            "phase_median_seconds": data.get("phase_median_seconds"),
        }
    distributed = results.get("distributed")
    if distributed:
        entry["distributed"] = {
            "exchange_bytes_per_tick": distributed.get("exchange_bytes_per_tick"),
            "critical_path_seconds_per_tick": distributed.get(
                "critical_path_seconds_per_tick"
            ),
        }
    history.append(entry)
    results["history"] = history[-limit:]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--output", default="BENCH_tick.json", help="where to write results")
    parser.add_argument("--baseline", default=None, help="baseline JSON to gate against")
    parser.add_argument(
        "--write-baseline",
        action="store_true",
        help=f"write results to {BASELINE_DEFAULT} instead of gating",
    )
    parser.add_argument("--tolerance", type=float, default=0.20, help="allowed regression")
    args = parser.parse_args(argv)

    results = run_suite()
    _append_history(results, args.output)
    with open(args.output, "w") as handle:
        json.dump(results, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {args.output}")
    print(json.dumps(results, indent=2, sort_keys=True))

    if args.write_baseline:
        baseline = {k: v for k, v in results.items() if k != "history"}
        with open(BASELINE_DEFAULT, "w") as handle:
            json.dump(baseline, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote baseline {BASELINE_DEFAULT}")
        return 0

    if args.baseline:
        with open(args.baseline) as handle:
            baseline = json.load(handle)
        failures = check_regressions(results, baseline, args.tolerance)
        if failures:
            print("PERF REGRESSION:", file=sys.stderr)
            for failure in failures:
                print(f"  - {failure}", file=sys.stderr)
            return 1
        print(f"no regression beyond {args.tolerance:.0%} vs {args.baseline}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
