"""Per-layer metrics of a traced run.

Ticks of the traced run alternate: odd timed ticks run with the layer spans
(:mod:`perfbench.spans`) and the program's own tick tracer and metrics
collector attached, even ticks run bare.  Per-tick layer figures are means
over the traced ticks; ``trace.overhead_ratio`` compares the medians of the
two halves, so drift of the world over the run cancels out.

A layer a workload never runs reports 0 there.  Inside the shard workers
the benchmark sees only what the workers report per tick (phase times,
CPU, wall, exchange and subscription counters), so the span-based layer
metrics read 0 on ``shard-strips``; see README.md for the full map.
"""

from __future__ import annotations

import statistics
from typing import Any

from perfbench.workloads import PHASES

#: Every per-layer metric name and unit, in BENCHMARK.json order.
LAYER_METRICS: dict[str, str] = {
    "sgl.compile_s": "s",
    "optimizer.prepare_s": "s",
    "optimizer.plan_cache_misses": "count",
    "executor.execute_tick_ms": "ms",
    "mqo.shared_subplans_evaluated": "count",
    "mqo.evaluations_saved": "count",
    "executor.fused_effect_rows": "count",
    "executor.effect_rows": "count",
    "index.probe_calls": "count",
    "index.probe_ms": "ms",
    "index.rows_returned": "count",
    "advisor.end_tick_ms": "ms",
    "advisor.indexes_created": "count",
    "effects.combine_ms": "ms",
    "updates.compute_ms": "ms",
    "physics.compute_ms": "ms",
    "tx.compute_ms": "ms",
    "tx.commits_per_tick": "count",
    "tx.commit_ratio": "ratio",
    **{f"phase.{phase}_ms": "ms" for phase in PHASES},
    "phase.unaccounted_ms": "ms",
    "sub.flush_ms": "ms",
    "sub.messages_per_tick": "count",
    "sub.delta_rows_per_tick": "count",
    "sub.delta_rows_per_message": "count",
    "wal.commit_ms": "ms",
    "wal.bytes_per_tick": "bytes",
    "wal.checkpoint_ms": "ms",
    "wal.bytes_per_delta_row": "bytes",
    "wal.replay_s": "s",
    "shard.worker_cpu_max_ms": "ms",
    "shard.worker_skew": "ratio",
    "shard.barrier_wait_ms": "ms",
    "shard.coordinator_cpu_ms": "ms",
    "shard.exchange_bytes_per_tick": "bytes",
    "shard.halo_rows_per_tick": "count",
    "shard.handoff_rows_per_tick": "count",
    "shard.worker_effect_ms": "ms",
    "trace.overhead_ratio": "ratio",
}


def _mean(values: list[float]) -> float:
    return statistics.fmean(values) if values else 0.0


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _single_world(run: Any, reports: list[Any], calls: list[float]) -> dict[str, float]:
    recorder = run.recorder
    ticks = len(reports)

    def per_tick_ms(span: str) -> float:
        return recorder.self_seconds[span] * 1000.0 / ticks

    def mean_of(field: str) -> float:
        return _mean([getattr(report, field) for report in reports])

    def total(field: str) -> int:
        return sum(getattr(report, field) for report in reports)

    metrics = {
        "executor.execute_tick_ms": per_tick_ms("executor.execute_tick"),
        "mqo.shared_subplans_evaluated": mean_of("shared_subplans_evaluated"),
        "mqo.evaluations_saved": mean_of("shared_evaluations_saved"),
        "executor.fused_effect_rows": mean_of("fused_effect_rows"),
        "executor.effect_rows": recorder.rows["effects.combine"] / ticks,
        "index.probe_calls": recorder.calls["index.probe"] / ticks,
        "index.probe_ms": per_tick_ms("index.probe"),
        "index.rows_returned": recorder.rows["index.probe"] / ticks,
        "advisor.end_tick_ms": per_tick_ms("advisor.end_tick"),
        "effects.combine_ms": per_tick_ms("effects.combine"),
        "updates.compute_ms": per_tick_ms("updates.compute"),
        "physics.compute_ms": per_tick_ms("physics.compute"),
        "tx.compute_ms": per_tick_ms("tx.compute"),
        "tx.commits_per_tick": mean_of("transactions_committed"),
        "tx.commit_ratio": _ratio(
            total("transactions_committed"), total("transactions_submitted")
        ),
        "phase.unaccounted_ms": _mean(
            [(call - report.total_seconds) * 1000.0 for call, report in zip(calls, reports)]
        ),
        "sub.flush_ms": per_tick_ms("sub.flush"),
        "sub.messages_per_tick": mean_of("subscription_messages"),
        "sub.delta_rows_per_tick": mean_of("subscription_delta_rows"),
        "sub.delta_rows_per_message": _ratio(
            total("subscription_delta_rows"), total("subscription_messages")
        ),
        "wal.commit_ms": per_tick_ms("wal.commit"),
        "wal.bytes_per_tick": mean_of("wal_bytes"),
        "wal.checkpoint_ms": _ratio(
            recorder.self_seconds["wal.checkpoint"] * 1000.0, recorder.calls["wal.checkpoint"]
        ),
        "wal.bytes_per_delta_row": _ratio(total("wal_bytes"), total("wal_delta_rows")),
        "wal.replay_s": run.workload.extras().get("recovery_s") or 0.0,
    }
    seconds_field = {"effect": "effect_step_seconds", "update": "update_step_seconds"}
    for phase in PHASES:
        field = seconds_field.get(phase, f"{phase}_seconds")
        metrics[f"phase.{phase}_ms"] = mean_of(field) * 1000.0
    return metrics


def _sharded(reports: list[Any]) -> dict[str, float]:
    def worst_phase(report: Any, phase: str) -> float:
        return max(worker["phase_seconds"][phase] for worker in report.per_worker)

    def per_tick(field: str) -> float:
        return _mean([getattr(report, field) for report in reports])

    metrics = {
        "shard.worker_cpu_max_ms": _mean(
            [max(r.worker_cpu_seconds) * 1000.0 for r in reports]
        ),
        "shard.worker_skew": _mean(
            [_ratio(max(r.worker_cpu_seconds), _mean(list(r.worker_cpu_seconds))) for r in reports]
        ),
        "shard.barrier_wait_ms": _mean(
            [(r.wall_seconds - max(r.worker_wall_seconds)) * 1000.0 for r in reports]
        ),
        "shard.coordinator_cpu_ms": per_tick("coordinator_cpu_seconds") * 1000.0,
        "shard.exchange_bytes_per_tick": per_tick("exchange_bytes"),
        "shard.halo_rows_per_tick": per_tick("halo_rows"),
        "shard.handoff_rows_per_tick": per_tick("handoff_rows"),
        "shard.worker_effect_ms": _mean([worst_phase(r, "effect") * 1000.0 for r in reports]),
        "phase.unaccounted_ms": _mean(
            [
                (r.wall_seconds - max(sum(w["phase_seconds"].values()) for w in r.per_worker))
                * 1000.0
                for r in reports
            ]
        ),
        "sub.messages_per_tick": per_tick("subscription_messages"),
        "sub.delta_rows_per_tick": per_tick("subscription_delta_rows"),
        "sub.delta_rows_per_message": _ratio(
            sum(r.subscription_delta_rows for r in reports),
            sum(r.subscription_messages for r in reports),
        ),
    }
    for phase in PHASES:
        metrics[f"phase.{phase}_ms"] = _mean([worst_phase(r, phase) * 1000.0 for r in reports])
    return metrics


def layer_metrics(run: Any) -> dict[str, tuple[float, str, int]]:
    """``name -> (value, unit, samples)`` for every per-layer metric."""
    traced = [i for i, flag in enumerate(run.traced) if flag]
    bare = [i for i, flag in enumerate(run.traced) if not flag]
    reports = [run.reports[i] for i in traced]
    if getattr(run.workload, "world", None) is not None:
        values = _single_world(run, reports, [run.tick_calls[i] for i in traced])
    else:
        values = _sharded(reports)
    values.update(run.setup_layers)
    values["trace.overhead_ratio"] = (
        statistics.median(run.walls[i] for i in traced)
        / statistics.median(run.walls[i] for i in bare)
        - 1.0
    )
    samples = {name: len(traced) for name in LAYER_METRICS}
    for name in run.setup_layers:
        samples[name] = len(run.setup_seconds)
    samples["wal.checkpoint_ms"] = run.recorder.calls["wal.checkpoint"]
    samples["wal.replay_s"] = 1
    return {
        name: (float(values.get(name, 0.0)), unit, samples[name])
        for name, unit in LAYER_METRICS.items()
    }
